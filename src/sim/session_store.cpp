#include "sim/session_store.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <string>

namespace vdx::sim {

std::uint64_t DepartureQueue::key_of(double t) noexcept {
  if (t == 0.0) t = 0.0;  // -0.0 == +0.0, so they must share a key
  const auto bits = std::bit_cast<std::uint64_t>(t);
  // Negative doubles order reversed by their bits; flip them below the
  // positives, which keep their order above the sign bit.
  return (bits >> 63) != 0 ? ~bits : bits | (std::uint64_t{1} << 63);
}

std::size_t DepartureQueue::bucket_of(std::uint64_t key) const noexcept {
  return static_cast<std::size_t>(std::bit_width(key ^ floor_));
}

void DepartureQueue::push(double end_s, std::uint32_t slot) {
  const std::uint64_t key = key_of(end_s);
  const Entry entry{static_cast<std::uint32_t>(key >> 32),
                    static_cast<std::uint32_t>(key), slot};
  if (key < floor_) {
    overdue_.push_back(entry);
  } else {
    buckets_[bucket_of(key)].push_back(entry);
  }
  ++size_;
}

std::uint64_t DepartureQueue::bucket_first(std::size_t b) const noexcept {
  if (b == 0) return floor_;
  const std::uint64_t above = b == 64 ? 0 : floor_ & (~std::uint64_t{0} << b);
  return above | (std::uint64_t{1} << (b - 1));
}

std::uint64_t DepartureQueue::bucket_last(std::size_t b) const noexcept {
  if (b == 0) return floor_;
  return bucket_first(b) | ((std::uint64_t{1} << (b - 1)) - 1);
}

bool DepartureQueue::spread(std::size_t b, std::uint64_t limit) {
  const auto lowest = std::min_element(
      buckets_[b].begin(), buckets_[b].end(),
      [](const Entry& x, const Entry& y) { return x.key() < y.key(); });
  if (lowest->key() > limit) return false;
  floor_ = lowest->key();
  // Size every target bucket exactly (all are empty), so the move holds
  // no growth slack next to the entries it moves.
  std::vector<Entry> entries;
  entries.swap(buckets_[b]);
  std::array<std::size_t, kBuckets> counts{};
  for (const Entry& e : entries) ++counts[bucket_of(e.key())];
  for (std::size_t i = 0; i < b; ++i) buckets_[i].reserve(counts[i]);
  for (const Entry& e : entries) buckets_[bucket_of(e.key())].push_back(e);
  return true;
}

void DepartureQueue::clear() {
  for (std::vector<Entry>& bucket : buckets_) std::vector<Entry>{}.swap(bucket);
  overdue_.clear();
  floor_ = 0;
  size_ = 0;
}

SessionStore::SessionStore(std::size_t city_hint)
    : city_count_(static_cast<std::uint32_t>(city_hint)) {}

bool SessionStore::admit(std::uint32_t id, core::CityId city, double bitrate_mbps,
                         double end_s, double now, std::uint32_t isp) {
  if (end_s <= now) return false;
  insert(id, city.value(), isp, bitrate_mbps, end_s);
  return true;
}

std::uint32_t SessionStore::rung_index(std::int64_t kbps) {
  // The bitrate ladder is tiny (a handful of encodings per scenario), so a
  // linear scan beats any tree/hash and keeps the hot path allocation-free.
  for (std::size_t r = 0; r < rung_kbps_.size(); ++r) {
    if (rung_kbps_[r] == kbps) return static_cast<std::uint32_t>(r);
  }
  const auto rung = static_cast<std::uint32_t>(rung_kbps_.size());
  rung_kbps_.push_back(kbps);
  counts_.emplace_back(city_count_, 0);
  group_of_cell_.emplace_back(city_count_, 0);
  // Keep the kbps-ascending iteration order the count tree used to provide.
  const auto at = std::lower_bound(
      rung_by_kbps_.begin(), rung_by_kbps_.end(), kbps,
      [&](std::uint32_t r, std::int64_t k) { return rung_kbps_[r] < k; });
  rung_by_kbps_.insert(at, rung);
  return rung;
}

void SessionStore::ensure_city(std::uint32_t city) {
  if (city < city_count_) return;
  city_count_ = city + 1;
  for (auto& row : counts_) row.resize(city_count_, 0);
  for (auto& row : group_of_cell_) row.resize(city_count_, 0);
}

void SessionStore::insert(std::uint32_t id, std::uint32_t city, std::uint32_t isp,
                          double bitrate_mbps, double end_s) {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    ids_[slot] = id;
    city_[slot] = city;
    isp_[slot] = isp;
    bitrate_[slot] = bitrate_mbps;
    end_s_[slot] = end_s;
    assigned_[slot] = kNoCluster;
    assigned_epoch_[slot] = 0;
  } else {
    slot = static_cast<std::uint32_t>(ids_.size());
    ids_.push_back(id);
    city_.push_back(city);
    isp_.push_back(isp);
    rung_.push_back(0);
    bitrate_.push_back(bitrate_mbps);
    end_s_.push_back(end_s);
    assigned_.push_back(kNoCluster);
    assigned_epoch_.push_back(0);
  }
  ensure_city(city);
  const auto kbps = static_cast<std::int64_t>(std::llround(bitrate_mbps * 1000.0));
  const std::uint32_t rung = rung_index(kbps);
  rung_[slot] = rung;
  ++counts_[rung][city];

  // Arrival order == id order, so appends keep the index sorted; the
  // out-of-order fallback only triggers on adversarial input or on an
  // explicit re-add, which revives the id's tombstone instead of inserting
  // a second entry for it.
  if (order_.empty() || order_.back().id < id) {
    order_.push_back(OrderEntry{id, slot});
  } else if (const std::size_t at = order_index(id); order_[at].id == id) {
    order_[at].slot = slot;
    --order_dead_;
  } else {
    order_.insert(order_.begin() + static_cast<std::ptrdiff_t>(at),
                  OrderEntry{id, slot});
  }
  if (std::isfinite(end_s)) departures_.push(end_s, slot);
  ++live_;
  groups_dirty_ = true;
}

std::size_t SessionStore::order_index(std::uint32_t id) const {
  const auto at = std::lower_bound(
      order_.begin(), order_.end(), id,
      [](const OrderEntry& e, std::uint32_t key) { return e.id < key; });
  return static_cast<std::size_t>(at - order_.begin());
}

std::optional<std::uint32_t> SessionStore::slot_of(std::uint32_t id) const {
  const std::size_t at = order_index(id);
  if (at == order_.size()) return std::nullopt;
  const OrderEntry& entry = order_[at];
  if (entry.id != id || ids_[entry.slot] != id) return std::nullopt;
  return entry.slot;
}

bool SessionStore::remove(std::uint32_t id) {
  const auto slot = slot_of(id);
  if (!slot) return false;
  erase_slot(*slot);
  maybe_compact_order();
  return true;
}

void SessionStore::erase_slot(std::uint32_t slot) {
  --counts_[rung_[slot]][city_[slot]];
  ids_[slot] = kFreeId;
  free_.push_back(slot);
  ++order_dead_;
  --live_;
  groups_dirty_ = true;
}

void SessionStore::maybe_compact_order() {
  if (order_dead_ <= live_ + 64) return;
  std::erase_if(order_, [&](const OrderEntry& e) { return ids_[e.slot] != e.id; });
  order_dead_ = 0;
}

std::size_t SessionStore::drop_until(double t) {
  std::size_t dropped = 0;
  departures_.pop_until(t, [&](const DepartureQueue::Entry& due) {
    // A stale entry (its session shed, removed or re-added with a new end)
    // names a free slot or one whose end differs. A slot that now holds
    // another session with the same end is due anyway, and that session's
    // own entry is due in this same drain, finding the slot freed.
    if (ids_[due.slot] == kFreeId ||
        DepartureQueue::key_of(end_s_[due.slot]) != due.key()) {
      return;
    }
    erase_slot(due.slot);
    ++dropped;
  });
  if (dropped > 0) maybe_compact_order();
  return dropped;
}

std::size_t SessionStore::shed_lowest(std::size_t n) {
  n = std::min(n, live_);
  if (n == 0) return 0;
  struct Victim {
    double bitrate;
    std::uint32_t id;
    std::uint32_t slot;
  };
  std::vector<Victim> order;
  order.reserve(live_);
  for_each_live([&](std::uint32_t id, std::uint32_t slot) {
    order.push_back(Victim{bitrate_[slot], id, slot});
  });
  std::partial_sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(n),
                    order.end(), [](const Victim& a, const Victim& b) {
                      return a.bitrate < b.bitrate ||
                             (a.bitrate == b.bitrate && a.id < b.id);
                    });
  // Departure entries are left behind and lazily skipped by drop_until.
  for (std::size_t i = 0; i < n; ++i) erase_slot(order[i].slot);
  maybe_compact_order();
  return n;
}

std::span<const broker::ClientGroup> SessionStore::groups() {
  if (groups_dirty_) {
    groups_.clear();
    // City-major over kbps-ascending rungs == the (city, kbps, isp) key
    // order of broker::group_sessions' std::map.
    for (std::uint32_t city = 0; city < city_count_; ++city) {
      for (const std::uint32_t rung : rung_by_kbps_) {
        const std::uint32_t count = counts_[rung][city];
        if (count == 0) continue;
        broker::ClientGroup g;
        g.id = broker::ShareId{static_cast<std::uint32_t>(groups_.size())};
        g.city = core::CityId{city};
        g.isp = 0;
        g.bitrate_mbps = static_cast<double>(rung_kbps_[rung]) / 1000.0;
        g.client_count = static_cast<double>(count);
        group_of_cell_[rung][city] = static_cast<std::uint32_t>(groups_.size());
        groups_.push_back(g);
      }
    }
    groups_dirty_ = false;
  }
  return groups_;
}

void SessionStore::apply_assignment(
    std::span<const std::pair<std::uint32_t, cdn::ClusterId>> pairs) {
  ++assignment_epoch_;
  // Both sides are id-ascending: merge-join pairs onto live slots.
  std::size_t p = 0;
  for (const OrderEntry& e : order_) {
    if (ids_[e.slot] != e.id) continue;
    while (p < pairs.size() && pairs[p].first < e.id) ++p;
    if (p == pairs.size()) break;
    if (pairs[p].first == e.id) {
      assigned_[e.slot] = pairs[p].second.value();
      assigned_epoch_[e.slot] = assignment_epoch_;
      ++p;
    }
  }
}

state::StreamCursor SessionStore::cursor() const {
  state::StreamCursor cursor;
  cursor.active.reserve(live_);
  for_each_live([&](std::uint32_t id, std::uint32_t slot) {
    cursor.active.push_back(
        state::ActiveSession{id, city_[slot], bitrate_[slot], end_s_[slot]});
  });
  return cursor;
}

void SessionStore::restore(std::span<const state::ActiveSession> active) {
  ids_.clear();
  city_.clear();
  isp_.clear();
  rung_.clear();
  bitrate_.clear();
  end_s_.clear();
  assigned_.clear();
  assigned_epoch_.clear();
  free_.clear();
  order_.clear();
  order_dead_ = 0;
  departures_.clear();
  rung_kbps_.clear();
  rung_by_kbps_.clear();
  counts_.clear();
  group_of_cell_.clear();
  groups_.clear();
  groups_dirty_ = true;
  live_ = 0;
  assignment_epoch_ = 0;

  // Snapshots written by cursor() are already id-ascending; tolerate (and
  // canonicalize) arbitrary decoder output instead of corrupting the order
  // index. Duplicate ids keep the first occurrence.
  std::vector<std::uint32_t> by_id(active.size());
  for (std::size_t i = 0; i < by_id.size(); ++i) by_id[i] = static_cast<std::uint32_t>(i);
  std::stable_sort(by_id.begin(), by_id.end(), [&](std::uint32_t a, std::uint32_t b) {
    return active[a].id < active[b].id;
  });
  std::uint32_t previous_id = kFreeId;
  for (const std::uint32_t i : by_id) {
    const state::ActiveSession& s = active[i];
    if (s.id == previous_id) continue;
    previous_id = s.id;
    insert(s.id, s.city, 0, s.bitrate_mbps, s.end_s);
  }
}

core::Status check_restorable(std::span<const state::ActiveSession> active,
                              std::size_t city_count) {
  for (const state::ActiveSession& s : active) {
    const char* bad = nullptr;
    if (s.city >= city_count) {
      bad = "city outside the scenario's world";
    } else if (!std::isfinite(s.bitrate_mbps) || !(s.bitrate_mbps > 0.0)) {
      bad = "bitrate not finite and positive";
    } else if (std::isnan(s.end_s)) {
      bad = "end time is NaN";
    }
    if (bad != nullptr) {
      return core::Status::failure(
          core::Errc::kCorruptSnapshot,
          "active session " + std::to_string(s.id) + ": " + bad);
    }
  }
  return core::ok_status();
}

}  // namespace vdx::sim
