// Successive-shortest-path min-cost flow: the solver behind every committed
// golden until the broker moved to a network simplex
// (src/solver/mincost_flow.hpp). Test-only: it is the oracle the assignment
// differential (AssignmentDifferential.* in
// tests/solver/test_network_simplex.cpp) diffs the production solver
// against, and the graph-level tests in
// tests/solver/test_mincost_flow.cpp pin its routes.
//
// Algorithm: Bellman-Ford seeds the potentials, then one Dijkstra on reduced
// costs per augmenting path.
//
// Data layout: arcs are recorded append-only as flat parallel arrays, then
// compacted into a CSR adjacency image on the first solve. The CSR arc order
// per node is exactly the order the previous intrusive linked list iterated
// (newest arc first), so every relaxation — and therefore every tie-break,
// parent choice, and potential — is byte-identical to the list-based walk;
// the CSR merely makes the Dijkstra inner loop a contiguous strided sweep.
//
// Each augmentation's Dijkstra stops as soon as the sink pops. Under the
// same potentials the path is the one a full search would return (its nodes
// are settled before the sink). The potential update
// `pot[v] += min(dist[v], dist[sink])` — applied to every node, reached or
// not — keeps every residual reduced cost non-negative without relying on
// the relax loop's max(0, ·) clamp.
#pragma once

#include <cstdint>
#include <vector>

#include "solver/problem.hpp"

namespace vdx::solver {

/// Directed graph with integer capacities and real per-unit costs.
/// Supports negative costs (Bellman-Ford bootstraps the potentials).
class MinCostFlowGraph {
 public:
  using NodeId = std::uint32_t;

  struct ArcRef {
    std::size_t index = 0;
  };

  NodeId add_node();
  [[nodiscard]] std::size_t node_count() const noexcept { return head_.size(); }

  /// Adds a forward arc (and its residual twin). Capacity must be >= 0.
  ArcRef add_arc(NodeId from, NodeId to, std::int64_t capacity, double cost);

  struct FlowResult {
    std::int64_t flow = 0;
    double cost = 0.0;
    bool reached_target = false;  // pushed the full target_flow
  };

  /// Sends up to `target_flow` units from source to sink at minimum cost.
  /// Resets any flow from a previous solve.
  FlowResult solve(NodeId source, NodeId sink, std::int64_t target_flow);

  /// Flow currently on a forward arc (after solve()).
  [[nodiscard]] std::int64_t flow_on(ArcRef arc) const;

 private:
  static constexpr std::uint32_t kNoPos = UINT32_MAX;

  [[nodiscard]] bool bellman_ford_potentials(NodeId source,
                                             std::vector<double>& pot) const;
  void build_csr();
  void heap_push_or_decrease(NodeId node);
  NodeId heap_pop_min();
  void heap_sift_up(std::uint32_t hole);
  void heap_sift_down(std::uint32_t hole);
  [[nodiscard]] bool heap_less(NodeId a, NodeId b) const noexcept {
    return dist_[a] < dist_[b] || (dist_[a] == dist_[b] && a < b);
  }

  // Append-side arc storage (twin arcs at (2k, 2k+1)). `arc_next_` chains a
  // node's arcs newest-first — the iteration order the solver's tie-breaking
  // is pinned to.
  std::vector<std::size_t> head_;  // first arc per node
  std::vector<NodeId> arc_to_;
  std::vector<double> arc_cost_;
  std::vector<std::size_t> arc_next_;
  std::vector<std::int64_t> initial_capacity_;

  // CSR image (built lazily on solve, invalidated by add_arc). Residual
  // capacities live in csr order so the relax loop touches one contiguous
  // block per node.
  std::size_t csr_arc_count_ = SIZE_MAX;
  std::vector<std::uint32_t> csr_start_;   // node -> first csr position
  std::vector<NodeId> csr_to_;
  std::vector<double> csr_cost_;
  std::vector<std::uint32_t> csr_twin_;    // csr position of the twin arc
  std::vector<std::uint32_t> pos_of_arc_;  // arc index -> csr position
  std::vector<std::int64_t> csr_cap_init_;
  std::vector<std::int64_t> residual_;

  // Dijkstra workspace, reused across augmentations (no per-iteration
  // allocation). The heap is an indexed binary min-heap on (dist, node):
  // decrease-key keeps exactly one live entry per node, so the sequence of
  // effective pops — and hence the relaxation order — matches the previous
  // lazy-deletion priority_queue, which skipped its stale duplicates without
  // side effects.
  std::vector<double> dist_;
  std::vector<std::uint32_t> parent_pos_;
  std::vector<std::uint32_t> heap_index_;  // node -> heap slot (kNoPos if out)
  std::vector<NodeId> heap_;
};

/// Solves the assignment LP on MinCostFlowGraph with the graph and scaling
/// solve_assignment_mcf() used when it ran successive shortest paths.
/// Requires every option of a group to have the same unit_demand (throws
/// otherwise). Demands are scaled to integers with `demand_scale`; the
/// returned amounts are client counts. `overflow_penalty` prices demand
/// above capacity (per demand unit).
[[nodiscard]] Assignment solve_assignment_ssp(const AssignmentProblem& problem,
                                              double overflow_penalty,
                                              std::int64_t demand_scale = 1000);

}  // namespace vdx::solver
