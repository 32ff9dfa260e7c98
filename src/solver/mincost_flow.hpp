// Min-cost flow for the broker LP: a primal network simplex after LEMON's
// NetworkSimplex (block-search pricing, Cunningham's strongly feasible
// leaving rule, thread-based tree updates). It starts from a caller-supplied
// strongly feasible tree; the assignment solve supplies one with each group
// on its cheapest option.
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

  /// Basis::parent_arc entry of a node that hangs off the artificial root.
  static constexpr ArcId kRoot = UINT32_MAX;

  /// A starting basis: a spanning tree over the nodes and the artificial
  /// root, plus the non-tree arcs that start at their capacity (every other
  /// non-tree arc starts empty). Tree arc flows follow from the supplies.
  struct Basis {
    /// Per node, the arc joining it to its parent (its other endpoint), or
    /// kRoot.
    std::vector<ArcId> parent_arc;
    std::vector<ArcId> at_upper;
  };

  /// An arc enters only with a reduced cost below -kEnterThreshold, so arcs
  /// that price to zero (ties between optima) stay out of the basis.
  static constexpr double kEnterThreshold = 1e-12;

  /// One supply per node: positive at sources, negative at sinks. Throws
  /// std::invalid_argument unless they sum to zero.
  explicit NetworkSimplex(std::vector<std::int64_t> supply);

  /// Adds a directed arc. Needs 0 <= capacity < INT64_MAX and a finite cost.
  ArcId add_arc(NodeId from, NodeId to, std::int64_t capacity, double cost);

  /// Routes every supply to the sinks at minimum cost, starting from
  /// `start`. The artificial arcs point at the root at zero cost, so they
  /// carry no flow and the potentials hold only real arc costs. Throws
  /// std::invalid_argument, with the flows of the last solve untouched,
  /// unless `start` spans every node, keeps every flow within its bounds and
  /// is strongly feasible: each tree arc pointing at the root has room left,
  /// each pointing away from it carries flow. An instance without a feasible
  /// flow has no such basis.
  void solve(const Basis& start);

  /// Flow on `arc` after the last solve.
  [[nodiscard]] std::int64_t flow(ArcId arc) const;

  /// Entering arcs the last solve took, bound flips included.
  [[nodiscard]] std::uint64_t pivots() const noexcept { return pivots_; }

 private:
  void push_arc(std::int32_t from, std::int32_t to, double cost, std::int64_t capacity);
  void load_basis(const Basis& start);
  void run_pivots();
  bool find_entering_arc();
  bool find_leaving_arc();
  void change_flow(bool change);
  void update_tree();

  std::vector<std::int64_t> supply_;
  // Arcs as parallel arrays, so pricing streams only what it reads: one
  // artificial arc per node (arc u runs from node u to the root at cost 0),
  // then the real arcs (ArcId a is arc nodes + a).
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
  // Scratch for load_basis(): the children of each tree node (CSR) and
  // each node's subtree excess, which its tree arc carries.
  std::vector<std::int32_t> child_begin_;
  std::vector<std::int32_t> children_;
  std::vector<std::int64_t> excess_;

  // Pivot state.
  std::int32_t block_size_ = 0;
  std::int32_t next_arc_ = 0;
  std::int32_t in_arc_ = 0;
  std::int32_t join_ = 0;
  std::int32_t u_in_ = 0;
  std::int32_t v_in_ = 0;
  std::int32_t u_out_ = 0;
  std::int64_t delta_ = 0;
  std::uint64_t pivots_ = 0;
};

/// Flow units per demand unit in the assignment network: demands and
/// capacities are scaled by it to integer flows, and costs spread over it.
inline constexpr std::int64_t kDemandScale = 1000;

/// The assignment LP as a flow network: nodes are the groups, then the
/// resources, then the sink; option i is arc i, and each resource owns a
/// capacity arc and an overflow arc to the sink. `crash` starts each group
/// on its cheapest option (lowest index on a tie).
struct AssignmentNetwork {
  NetworkSimplex network;
  NetworkSimplex::Basis crash;
};

/// Builds the network solve_assignment_mcf() solves; same arguments and
/// throws.
[[nodiscard]] AssignmentNetwork build_assignment_network(const AssignmentProblem& problem,
                                                         double overflow_penalty);

/// Solves the assignment LP via min-cost flow. Requires every option of a
/// group to have the same unit_demand (throws otherwise). Demands are scaled
/// to integers with kDemandScale; the returned amounts are client counts.
/// `overflow_penalty` prices demand above capacity (per demand unit). Throws
/// std::invalid_argument naming the group when a group's scaled demand, or
/// the running total, does not fit int64.
[[nodiscard]] Assignment solve_assignment_mcf(const AssignmentProblem& problem,
                                              double overflow_penalty);

}  // namespace vdx::solver
