// Min-cost flow for the broker LP: a primal network simplex after LEMON's
// NetworkSimplex (artificial-root start, block-search pricing, Cunningham's
// strongly feasible leaving rule, thread-based tree updates).
//
// The broker LP has pure transportation structure whenever every option of a
// group consumes the group's own bitrate — which is how the Share format
// groups clients — so min-cost flow solves the LP relaxation orders of
// magnitude faster than the tableau simplex at trace scale. The graph layer
// here is generic; assignment wiring lives in solve_assignment_mcf().
#pragma once

#include <cstdint>
#include <vector>

#include "solver/problem.hpp"

namespace vdx::solver {

/// Min-cost flow with node supplies, integer capacities and real per-unit
/// costs, negative ones included. Flows are int64. The instance lives in the
/// object (no static state), so separate objects solve concurrently.
class NetworkSimplex {
 public:
  using NodeId = std::uint32_t;
  using ArcId = std::uint32_t;

  /// An arc enters only with a reduced cost below -kEnterThreshold, so arcs
  /// that price to zero (ties between optima) stay out of the basis.
  static constexpr double kEnterThreshold = 1e-12;

  /// One supply per node: positive at sources, negative at sinks. Throws
  /// std::invalid_argument unless they sum to zero.
  explicit NetworkSimplex(std::vector<std::int64_t> supply);

  /// Adds a directed arc. Needs 0 <= capacity < INT64_MAX and a finite cost.
  ArcId add_arc(NodeId from, NodeId to, std::int64_t capacity, double cost);

  /// Routes every supply to the sinks at minimum cost, starting from
  /// scratch. Throws std::runtime_error when no feasible flow exists.
  void solve();

  /// Flow on `arc` after solve().
  [[nodiscard]] std::int64_t flow(ArcId arc) const;

 private:
  void push_arc(std::int32_t from, std::int32_t to, double cost, std::int64_t capacity);
  bool find_entering_arc();
  bool find_leaving_arc();
  void change_flow(bool change);
  void update_tree();

  std::vector<std::int64_t> supply_;
  // Arcs as parallel arrays, so pricing streams only what it reads: one
  // artificial arc per node (arc u joins node u to the root), then the real
  // arcs (ArcId a is arc nodes + a).
  std::vector<std::int32_t> source_;
  std::vector<std::int32_t> target_;
  std::vector<double> cost_;
  std::vector<std::int8_t> state_;  // +1 at lower bound, -1 at upper, 0 in the tree
  std::vector<std::int64_t> cap_;
  std::vector<std::int64_t> flow_;
  // Spanning tree over the nodes plus the artificial root (index = nodes).
  std::vector<double> pi_;  // potentials: tree arcs price to zero
  std::vector<std::int32_t> parent_;
  std::vector<std::int32_t> pred_;      // tree arc to the parent
  std::vector<std::int8_t> pred_up_;    // +1 when pred_ points at the parent
  std::vector<std::int32_t> thread_;    // preorder successor
  std::vector<std::int32_t> rev_thread_;
  std::vector<std::int32_t> succ_num_;   // subtree size
  std::vector<std::int32_t> last_succ_;  // last subtree node in thread order
  std::vector<std::int32_t> dirty_revs_;

  // Pivot state.
  std::int32_t block_size_ = 0;
  std::int32_t next_arc_ = 0;
  std::int32_t in_arc_ = 0;
  std::int32_t join_ = 0;
  std::int32_t u_in_ = 0;
  std::int32_t v_in_ = 0;
  std::int32_t u_out_ = 0;
  std::int64_t delta_ = 0;
};

/// Solves the assignment LP via min-cost flow. Requires every option of a
/// group to have the same unit_demand (throws otherwise). Demands are scaled
/// to integers with `demand_scale`; the returned amounts are client counts.
/// `overflow_penalty` prices demand above capacity (per demand unit). Throws
/// std::invalid_argument naming the group when a group's scaled demand, or
/// the running total, does not fit int64.
[[nodiscard]] Assignment solve_assignment_mcf(const AssignmentProblem& problem,
                                              double overflow_penalty,
                                              std::int64_t demand_scale = 1000);

}  // namespace vdx::solver
