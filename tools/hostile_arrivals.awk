# Mixes hostile arrivals into a vdxload stream (the vdxd_stdin_hostile
# smoke). After the second arrival it adds (a) a fresh id in city 5000, far
# outside any world the smoke builds; (b) id 4294967295, the session
# store's free-slot marker; and (c) the second arrival's id again with
# another city. vdxd must refuse exactly these three.
{ print }
NR == 2 {
  a = $0
  sub(/"id":[0-9]+/, "\"id\":900000", a)
  sub(/"city":[0-9]+/, "\"city\":5000", a)
  print a
  b = $0
  sub(/"id":[0-9]+/, "\"id\":4294967295", b)
  print b
  c = $0
  match(c, /"city":[0-9]+/)
  city = substr(c, RSTART + 7, RLENGTH - 7) + 0
  sub(/"city":[0-9]+/, "\"city\":" (city == 0 ? 1 : 0), c)
  print c
}
