#include "sim/session_store.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace vdx::sim {

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
  if (std::isfinite(end_s)) departures_.push(HeapEntry{end_s, id, slot});
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
  while (!departures_.empty() && departures_.top().end_s <= t) {
    const HeapEntry top = departures_.top();
    departures_.pop();
    // Already shed or removed (possibly re-added since, with a new end).
    if (ids_[top.slot] != top.id || end_s_[top.slot] != top.end_s) continue;
    erase_slot(top.slot);
    ++dropped;
  }
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
  // Heap entries are left behind and lazily skipped by drop_until.
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
  departures_ = {};
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
