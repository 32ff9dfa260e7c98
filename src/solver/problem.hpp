// The broker's optimization problem (paper Figure 9) as a capacitated
// assignment problem, plus solution evaluation shared by all backends.
//
// Clients are aggregated into groups (the Share granularity of §6.1); each
// group has a set of options (the Matchings/bids available to it). Choosing
// option o for one client of group g incurs `unit_cost(o)` objective units
// and consumes `unit_demand(o)` (the group's bitrate) from the option's
// resource (the target cluster). The paper maximizes
//     wp * performance - wc * cost * bitrate;
// we equivalently minimize a per-client cost in which both terms are folded,
// so `unit_cost` is typically  wp * score + wc * price * bitrate.
//
// Capacity is modeled as soft-with-penalty: every resource has an implicit
// overflow channel priced at `overflow_penalty` per demand unit. This keeps
// every instance feasible (a real broker can always overload a cluster; the
// paper's Congested metric measures exactly when that happens) while making
// overload strictly unattractive to optimizers that know the capacities.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace vdx::solver {

/// Sentinel for options that consume no constrained resource.
inline constexpr std::uint32_t kNoResource = std::numeric_limits<std::uint32_t>::max();

/// One column: "assign clients of `group` to this matching".
struct Option {
  std::uint32_t group = 0;
  std::uint32_t resource = kNoResource;
  double unit_cost = 0.0;    // objective per client assigned
  double unit_demand = 1.0;  // capacity consumed per client (> 0 if resource set)
};

struct AssignmentProblem {
  std::vector<double> group_counts;  // clients per group (non-negative)
  std::vector<double> capacities;    // per resource
  std::vector<Option> options;

  /// Throws std::invalid_argument explaining the first structural defect
  /// (dangling indices, negative counts, group without options, ...).
  void validate() const;

  [[nodiscard]] std::size_t group_count() const noexcept { return group_counts.size(); }
  [[nodiscard]] std::size_t resource_count() const noexcept { return capacities.size(); }
  [[nodiscard]] double total_clients() const noexcept;
};

/// A (possibly fractional) solution: amount of each option used.
struct Assignment {
  std::vector<double> amounts;     // parallel to problem.options
  double objective = 0.0;          // excludes overflow penalty
  double overflow_demand = 0.0;    // total demand above capacity, all resources
  bool complete = false;           // every group fully assigned

  [[nodiscard]] double penalized_objective(double overflow_penalty) const noexcept {
    return objective + overflow_penalty * overflow_demand;
  }
};

/// Recomputes objective/overflow/completeness for `amounts` against
/// `problem`; the single source of truth used to cross-check every backend.
[[nodiscard]] Assignment evaluate(const AssignmentProblem& problem,
                                  std::vector<double> amounts);

/// The unit_demand the options of each group share, within 1e-9 relative
/// (the transportation structure min-cost flow needs); std::nullopt when
/// some group mixes demands. Groups without options read -1.
[[nodiscard]] std::optional<std::vector<double>> uniform_group_demand(
    const AssignmentProblem& problem);

/// Per-resource demand implied by a solution (length == resource_count()).
[[nodiscard]] std::vector<double> resource_loads(const AssignmentProblem& problem,
                                                 std::span<const double> amounts);

/// Rounds a fractional solution to integral per-group allocations via
/// largest remainder, preserving group totals exactly (counts must be
/// integral). Does not re-check capacities; callers follow with repair or
/// accept the (bounded) spill.
[[nodiscard]] std::vector<double> round_to_integers(const AssignmentProblem& problem,
                                                    std::span<const double> amounts);

}  // namespace vdx::solver
