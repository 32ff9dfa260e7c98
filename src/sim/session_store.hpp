// SessionStore: the active session population as structure-of-arrays.
//
// Two users keep their active population here: the streaming timeline's
// ActiveSet and market::VdxExchange's session book, which the serving
// daemon and the session-fed benchmark feed. Both engines used to keep
// active sessions in a std::map<id, Rec> plus a (city, kbps, isp) -> count
// tree that was erased and reinserted every epoch. At trace scale the
// node-based containers dominate the advance/group sweep: every arrival,
// departure, group rebuild and shed chases pointers. This store keeps the
// same population as parallel flat arrays (id, city, isp, kbps, bitrate,
// departure time, assigned cluster) indexed by slot, with
//
//  * a free-list so departed slots are reused without reallocation,
//  * an id-ascending order index (arrival order == id order, so appends keep
//    it sorted; departures leave tombstones that are skipped lazily and
//    compacted amortized-O(1)),
//  * dense per-(rung, city) count arrays replacing the erase-on-zero count
//    map (a "rung" is one quantized kbps value; the rung dictionary is tiny
//    and iterated in kbps order, so groups() reproduces the old
//    (city, kbps, isp) tree order byte-identically), and
//  * a lazily-validated (end_s, id) departure min-heap shared by both
//    engines.
//
// Everything observable — group order, shed victim order, cursor
// serialization order — is pinned to the std::map semantics the previous
// implementations had, so exports and checkpoints stay byte-identical.
#pragma once

#include <cstdint>
#include <optional>
#include <queue>
#include <span>
#include <vector>

#include "broker/grouping.hpp"
#include "cdn/cluster.hpp"
#include "core/result.hpp"
#include "state/checkpoint.hpp"

namespace vdx::sim {

class SessionStore {
 public:
  static constexpr std::uint32_t kNoCluster = UINT32_MAX;

  /// `city_hint` presizes the dense count rows (they grow on demand).
  explicit SessionStore(std::size_t city_hint = 0);

  /// Admits one session at midpoint `now` unless it already ended (a session
  /// that lived entirely between two samples never becomes active). Returns
  /// whether the population changed. Live ids must be unique; arrival order
  /// == ascending id order is the fast path (out-of-order ids still work).
  /// A session with end_s = +inf never enters the departure heap: it stays
  /// until remove(id), the explicit-delta mode of the exchange's book.
  bool admit(std::uint32_t id, core::CityId city, double bitrate_mbps, double end_s,
             double now, std::uint32_t isp = 0);

  /// Removes a live session by id. Returns false (and changes nothing) when
  /// the id is not live. A removed id may be added again later.
  bool remove(std::uint32_t id);

  /// Slot of a live session, or nullopt: binary search over the id-sorted
  /// order index.
  [[nodiscard]] std::optional<std::uint32_t> slot_of(std::uint32_t id) const;

  /// Drops every session with end_s <= t (half-open [arrival, end) activity).
  /// Returns the number dropped.
  std::size_t drop_until(double t);

  /// Sheds up to `n` active sessions, lowest value first (ascending bitrate,
  /// id as the deterministic tiebreak — thread count and chunking never
  /// change the victim set). Returns the number actually shed.
  std::size_t shed_lowest(std::size_t n);

  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Client groups of the active population — exactly what
  /// broker::group_sessions would return for it (same key order, dense ids,
  /// integral client counts).
  [[nodiscard]] std::span<const broker::ClientGroup> groups();

  /// Index into groups() for a live slot (the group covering its
  /// (city, rung) cell). Only valid after groups() since the last mutation.
  [[nodiscard]] std::uint32_t group_of_slot(std::uint32_t slot) const {
    return group_of_cell_[rung_[slot]][city_[slot]];
  }

  /// Visits live sessions in ascending id order: fn(id, slot).
  template <typename Fn>
  void for_each_live(Fn&& fn) const {
    for (const OrderEntry& e : order_) {
      if (ids_[e.slot] == e.id) fn(e.id, e.slot);
    }
  }

  [[nodiscard]] core::CityId city_of_slot(std::uint32_t slot) const {
    return core::CityId{city_[slot]};
  }
  [[nodiscard]] double bitrate_of_slot(std::uint32_t slot) const {
    return bitrate_[slot];
  }
  [[nodiscard]] double end_of_slot(std::uint32_t slot) const { return end_s_[slot]; }

  /// Records the epoch's session -> cluster assignment into the per-slot
  /// assigned-cluster lane. `pairs` must be id-ascending (the canonical
  /// Assignment order); sessions absent from it lose their assignment.
  void apply_assignment(
      std::span<const std::pair<std::uint32_t, cdn::ClusterId>> pairs);

  /// Serving cluster recorded by the last apply_assignment, or kNoCluster.
  [[nodiscard]] std::uint32_t assigned_cluster_of_slot(std::uint32_t slot) const {
    return assigned_epoch_[slot] == assignment_epoch_ ? assigned_[slot] : kNoCluster;
  }

  /// Canonical id-order serialization (StreamCursor.active order). The
  /// departure heap and counts are derived state and are rebuilt on
  /// restore(); (end_s, id) is a total order, so the rebuilt heap pops in
  /// exactly the original sequence.
  [[nodiscard]] state::StreamCursor cursor() const;

  /// Rebuilds the population from a cursor's active list. Entries are
  /// sorted by id if needed; duplicate ids keep the first occurrence (the
  /// semantics of the map-based restore this replaces).
  void restore(std::span<const state::ActiveSession> active);

  // Introspection for the structural tests.
  [[nodiscard]] std::size_t slot_capacity() const noexcept { return ids_.size(); }
  [[nodiscard]] std::size_t free_count() const noexcept { return free_.size(); }
  [[nodiscard]] std::size_t departure_backlog() const noexcept {
    return departures_.size();
  }

 private:
  static constexpr std::uint32_t kFreeId = UINT32_MAX;

  struct OrderEntry {
    std::uint32_t id = 0;
    std::uint32_t slot = 0;
  };
  struct HeapEntry {
    double end_s = 0.0;
    std::uint32_t id = 0;
    std::uint32_t slot = 0;
  };
  struct HeapLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const noexcept {
      return a.end_s > b.end_s || (a.end_s == b.end_s && a.id > b.id);
    }
  };

  void insert(std::uint32_t id, std::uint32_t city, std::uint32_t isp,
              double bitrate_mbps, double end_s);
  void erase_slot(std::uint32_t slot);
  [[nodiscard]] std::uint32_t rung_index(std::int64_t kbps);
  void ensure_city(std::uint32_t city);
  void maybe_compact_order();
  /// Position of the first order_ entry with id >= `id`.
  [[nodiscard]] std::size_t order_index(std::uint32_t id) const;

  // Parallel slot arrays. ids_[slot] == kFreeId marks a free slot. An order
  // entry is live iff ids_[slot] still equals its recorded id; order_ holds
  // at most one entry per id (re-adding a removed id revives its tombstone
  // in place), so a slot reused by the same id cannot resurrect a second
  // entry. A heap entry is live iff its slot still holds that id AND that
  // end time.
  std::vector<std::uint32_t> ids_;
  std::vector<std::uint32_t> city_;
  std::vector<std::uint32_t> isp_;
  std::vector<std::uint32_t> rung_;
  std::vector<double> bitrate_;
  std::vector<double> end_s_;
  std::vector<std::uint32_t> assigned_;
  std::vector<std::uint32_t> assigned_epoch_;
  std::vector<std::uint32_t> free_;

  // Id-ascending order index with lazy tombstones.
  std::vector<OrderEntry> order_;
  std::size_t order_dead_ = 0;

  std::priority_queue<HeapEntry, std::vector<HeapEntry>, HeapLater> departures_;

  // Rung dictionary (quantized kbps ladder, tiny) + dense counts per rung.
  std::vector<std::int64_t> rung_kbps_;
  std::vector<std::uint32_t> rung_by_kbps_;  // rung indices sorted by kbps
  std::vector<std::vector<std::uint32_t>> counts_;        // [rung][city]
  std::vector<std::vector<std::uint32_t>> group_of_cell_;  // [rung][city]
  std::uint32_t city_count_ = 0;

  std::vector<broker::ClientGroup> groups_;
  bool groups_dirty_ = true;
  std::size_t live_ = 0;
  std::uint32_t assignment_epoch_ = 0;
};

/// Checks a decoded checkpoint's active list against the scenario before
/// anything is restored from it: every city must index the world's
/// `city_count` cities and every bitrate must be finite and > 0 (and no end
/// time NaN). Snapshot decoders only check grammar and checksums; these are
/// the values SessionStore and the decision round index or quantize
/// unchecked. Shared by the timeline and the daemon resume paths so a
/// rejection is kCorruptSnapshot with nothing applied.
[[nodiscard]] core::Status check_restorable(std::span<const state::ActiveSession> active,
                                            std::size_t city_count);

}  // namespace vdx::sim
