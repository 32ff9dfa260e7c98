#include "sim/timeline_detail.hpp"

#include <algorithm>
#include <cmath>

namespace vdx::sim::detail {

Assignment assign_sessions(SessionStore& store, const DesignOutcome& outcome) {
  const auto groups = store.groups();
  // Sessions of each group in id order.
  std::vector<std::vector<std::uint32_t>> sessions_of(groups.size());
  store.for_each_live([&](std::uint32_t id, std::uint32_t slot) {
    sessions_of[store.group_of_slot(slot)].push_back(id);
  });

  // Group -> ordered placements.
  std::vector<std::vector<const Placement*>> per_group(groups.size());
  for (const Placement& p : outcome.placements) per_group[p.group].push_back(&p);
  for (auto& list : per_group) {
    std::sort(list.begin(), list.end(), [](const Placement* a, const Placement* b) {
      return a->cluster < b->cluster;
    });
  }

  Assignment assignment;
  assignment.reserve(store.size());
  for (std::size_t g = 0; g < groups.size(); ++g) {
    const auto& list = per_group[g];
    if (list.empty()) continue;
    // Sequential quota fill: placement i serves the next round(clients_i)
    // sessions. Quotas sum to the group size up to rounding; the final
    // placement absorbs the remainder.
    std::size_t next = 0;
    double carry = 0.0;
    for (std::size_t i = 0; i < list.size(); ++i) {
      double quota = list[i]->clients + carry;
      std::size_t take = static_cast<std::size_t>(std::llround(quota));
      carry = quota - static_cast<double>(take);
      if (i + 1 == list.size()) take = sessions_of[g].size() - next;  // remainder
      for (std::size_t k = 0; k < take && next < sessions_of[g].size(); ++k, ++next) {
        assignment.emplace_back(sessions_of[g][next], list[i]->cluster);
      }
    }
  }
  // Per-group runs are id-ascending but groups interleave; one sort restores
  // the canonical order (ids are unique, so the order is total).
  std::sort(assignment.begin(), assignment.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return assignment;
}

ChurnTracker::Saved ChurnTracker::save() const {
  Saved saved;
  saved.previous.reserve(previous_.size());
  for (const auto& [session, cluster] : previous_) {
    saved.previous.emplace_back(session, cluster.value());
  }
  saved.sum = sum_;
  saved.weight = weight_;
  return saved;  // previous_ is already id-ascending
}

void ChurnTracker::restore(const Saved& saved) {
  previous_.clear();
  previous_.reserve(saved.previous.size());
  for (const auto& [session, cluster] : saved.previous) {
    previous_.emplace_back(session, cdn::ClusterId{cluster});
  }
  // Decoders may hand back arbitrary order; canonicalize once.
  if (!std::is_sorted(previous_.begin(), previous_.end(),
                      [](const auto& a, const auto& b) { return a.first < b.first; })) {
    std::sort(previous_.begin(), previous_.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
  }
  sum_ = saved.sum;
  weight_ = saved.weight;
}

void ChurnTracker::observe(const cdn::CdnCatalog& catalog, Assignment assignment,
                           EpochReport& report) {
  if (!previous_.empty()) {
    std::size_t surviving = 0;
    std::size_t cdn_switched = 0;
    std::size_t cluster_switched = 0;
    // Both assignments are id-ascending: a linear merge finds the survivors.
    std::size_t p = 0;
    for (const auto& [session, cluster] : assignment) {
      while (p < previous_.size() && previous_[p].first < session) ++p;
      if (p == previous_.size()) break;
      if (previous_[p].first != session) continue;
      const cdn::ClusterId before = previous_[p].second;
      ++surviving;
      if (before != cluster) ++cluster_switched;
      if (catalog.cluster(before).cdn != catalog.cluster(cluster).cdn) {
        ++cdn_switched;
      }
    }
    if (surviving > 0) {
      report.cdn_switch_fraction =
          static_cast<double>(cdn_switched) / static_cast<double>(surviving);
      report.cluster_switch_fraction =
          static_cast<double>(cluster_switched) / static_cast<double>(surviving);
      sum_ += report.cdn_switch_fraction * static_cast<double>(surviving);
      weight_ += static_cast<double>(surviving);
    }
  }
  previous_ = std::move(assignment);
}

}  // namespace vdx::sim::detail
