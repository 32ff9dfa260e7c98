#include "trace/io.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "proto/wire.hpp"

namespace vdx::trace {

namespace {

constexpr std::uint32_t kMagic = 0x58444276;  // "vBDX"
constexpr std::uint16_t kVersion = 1;
/// Encoded sizes: a session without switches, and one switch event.
constexpr std::size_t kSessionBytes = 46;
constexpr std::size_t kSwitchBytes = 10;

void write_session(proto::ByteWriter& w, const Session& s) {
  w.write_u32(s.id.value());
  w.write_f64(s.arrival_s);
  w.write_u32(s.video.value());
  w.write_f64(s.bitrate_mbps);
  w.write_f64(s.duration_s);
  w.write_u32(s.city.value());
  w.write_u32(s.as_number);
  w.write_u8(s.abandoned ? 1 : 0);
  w.write_u8(static_cast<std::uint8_t>(s.initial_cdn));
  w.write_u32(static_cast<std::uint32_t>(s.switches.size()));
  for (const SwitchEvent& e : s.switches) {
    w.write_f64(e.time_s);
    w.write_u8(static_cast<std::uint8_t>(e.from));
    w.write_u8(static_cast<std::uint8_t>(e.to));
  }
}

Session read_session(proto::ByteReader& r) {
  Session s;
  s.id = SessionId{r.read_u32()};
  s.arrival_s = r.read_f64();
  s.video = VideoId{r.read_u32()};
  s.bitrate_mbps = r.read_f64();
  s.duration_s = r.read_f64();
  s.city = CityId{r.read_u32()};
  s.as_number = r.read_u32();
  s.abandoned = r.read_u8() != 0;
  const std::uint8_t initial = r.read_u8();
  if (initial >= kTraceCdnCount) throw proto::WireError{"trace: bad CDN label"};
  s.initial_cdn = static_cast<TraceCdn>(initial);
  const std::size_t switch_count = r.read_count_u32(kSwitchBytes);
  s.switches.reserve(switch_count);
  for (std::size_t i = 0; i < switch_count; ++i) {
    SwitchEvent e;
    e.time_s = r.read_f64();
    const std::uint8_t from = r.read_u8();
    const std::uint8_t to = r.read_u8();
    if (from >= kTraceCdnCount || to >= kTraceCdnCount) {
      throw proto::WireError{"trace: bad switch CDN label"};
    }
    e.from = static_cast<TraceCdn>(from);
    e.to = static_cast<TraceCdn>(to);
    s.switches.push_back(e);
  }
  return s;
}

}  // namespace

void save_trace(const BrokerTrace& trace, std::ostream& out) {
  proto::ByteWriter w;
  w.write_u32(kMagic);
  w.write_u16(kVersion);
  w.write_f64(trace.duration_s());
  w.write_u32(static_cast<std::uint32_t>(trace.size()));
  for (const Session& s : trace.sessions()) write_session(w, s);

  out.write(reinterpret_cast<const char*>(w.data().data()),
            static_cast<std::streamsize>(w.size()));
  if (!out) throw std::runtime_error{"save_trace: write failed"};
}

void save_trace_file(const BrokerTrace& trace, const std::string& path) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error{"save_trace_file: cannot open " + path};
  save_trace(trace, out);
}

BrokerTrace load_trace(std::istream& in) {
  const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>{in},
                                        std::istreambuf_iterator<char>{}};
  try {
    proto::ByteReader r{bytes};
    if (r.read_u32() != kMagic) throw proto::WireError{"trace: bad magic"};
    if (r.read_u16() != kVersion) throw proto::WireError{"trace: bad version"};
    const double duration = r.read_f64();
    const std::size_t count = r.read_count_u32(kSessionBytes);
    std::vector<Session> sessions;
    sessions.reserve(count);
    for (std::size_t i = 0; i < count; ++i) sessions.push_back(read_session(r));
    if (!r.exhausted()) throw proto::WireError{"trace: trailing bytes"};
    return BrokerTrace{std::move(sessions), duration};
  } catch (const proto::WireError& error) {
    throw std::runtime_error{std::string{"load_trace: "} + error.what()};
  }
}

BrokerTrace load_trace_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) throw std::runtime_error{"load_trace_file: cannot open " + path};
  return load_trace(in);
}

}  // namespace vdx::trace
