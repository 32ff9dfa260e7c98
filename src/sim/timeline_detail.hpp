// Internals of the timeline engine (sim::StreamingTimeline): the
// session→cluster assignment and the churn bookkeeping every epoch report
// depends on. Exposed (under ::detail) for the property and regression
// tests that pin these semantics, and for the benchmark's stage profile.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/session_store.hpp"
#include "sim/timeline.hpp"

namespace vdx::sim::detail {

/// session id -> serving cluster for one epoch, as id-ascending pairs (each
/// id at most once). The flat canonical order makes churn comparison a
/// merge/binary-search over two sorted arrays and checkpoint serialization a
/// plain copy — no hash-order laundering anywhere on the hot path.
using Assignment = std::vector<std::pair<std::uint32_t, cdn::ClusterId>>;

/// Distributes each group's winning placements over its individual sessions
/// deterministically (sessions in id order, placements in cluster order),
/// reading the population straight out of the SoA store (group membership
/// via its dense (rung, city) cells). Sessions whose group won no placement
/// are absent from the result. `store.groups()` must be the `groups` the
/// outcome was computed over, i.e. no mutation in between.
[[nodiscard]] Assignment assign_sessions(SessionStore& store,
                                         const DesignOutcome& outcome);

/// Epoch-over-epoch churn bookkeeping: fraction of sessions present in both
/// consecutive assignments whose serving CDN / cluster changed, and the
/// surviving-session-weighted mean of the CDN fraction.
///
/// Boundary semantics (pinned by regression tests): epochs sample activity
/// at their midpoint with half-open [arrival, end), so a session ending
/// exactly at an epoch boundary is counted in at most one epoch's
/// assignment, and each assignment maps a session id at most once — churn
/// denominators cannot double-count a session.
class ChurnTracker {
 public:
  /// Fills report.cdn_switch_fraction / cluster_switch_fraction against the
  /// previously observed assignment (first call leaves them 0), folds the
  /// epoch into the weighted mean, then adopts `assignment` as previous.
  void observe(const cdn::CdnCatalog& catalog, Assignment assignment,
               EpochReport& report);

  [[nodiscard]] double mean_cdn_switch_fraction() const noexcept {
    return weight_ > 0.0 ? sum_ / weight_ : 0.0;
  }

  /// Checkpointable state: the previous assignment as id-ascending pairs
  /// (the live representation is already in that canonical order, so this is
  /// a plain copy). save() -> restore() reproduces observe() byte-identically.
  struct Saved {
    std::vector<std::pair<std::uint32_t, std::uint32_t>> previous;
    double sum = 0.0;
    double weight = 0.0;
  };
  [[nodiscard]] Saved save() const;
  void restore(const Saved& saved);

 private:
  Assignment previous_;  // id-ascending
  double sum_ = 0.0;
  double weight_ = 0.0;
};

}  // namespace vdx::sim::detail
