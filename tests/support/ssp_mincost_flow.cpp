#include "support/ssp_mincost_flow.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>

namespace vdx::solver {

MinCostFlowGraph::NodeId MinCostFlowGraph::add_node() {
  head_.push_back(SIZE_MAX);
  return static_cast<NodeId>(head_.size() - 1);
}

MinCostFlowGraph::ArcRef MinCostFlowGraph::add_arc(NodeId from, NodeId to,
                                                   std::int64_t capacity, double cost) {
  if (from >= head_.size() || to >= head_.size()) {
    throw std::invalid_argument{"MinCostFlowGraph::add_arc: unknown node"};
  }
  if (capacity < 0) throw std::invalid_argument{"MinCostFlowGraph::add_arc: capacity < 0"};
  const std::size_t index = arc_to_.size();
  arc_to_.push_back(to);
  arc_cost_.push_back(cost);
  arc_next_.push_back(head_[from]);
  head_[from] = index;
  arc_to_.push_back(from);
  arc_cost_.push_back(-cost);
  arc_next_.push_back(head_[to]);
  head_[to] = index + 1;
  initial_capacity_.push_back(capacity);
  initial_capacity_.push_back(0);
  csr_arc_count_ = SIZE_MAX;  // adjacency changed; rebuild on next solve
  return ArcRef{index};
}

std::int64_t MinCostFlowGraph::flow_on(ArcRef arc) const {
  if (arc.index >= arc_to_.size()) throw std::out_of_range{"flow_on: bad arc"};
  if (csr_arc_count_ != arc_to_.size() || residual_.empty()) return 0;  // no solve yet
  // Flow on the forward arc equals the residual capacity of its twin.
  return residual_[pos_of_arc_[arc.index ^ 1]];
}

void MinCostFlowGraph::build_csr() {
  if (csr_arc_count_ == arc_to_.size()) return;
  const std::size_t nodes = head_.size();
  const std::size_t arcs = arc_to_.size();
  csr_start_.assign(nodes + 1, 0);
  csr_to_.resize(arcs);
  csr_cost_.resize(arcs);
  csr_twin_.resize(arcs);
  pos_of_arc_.resize(arcs);
  csr_cap_init_.resize(arcs);

  // Pass 1: lay arcs out per node by walking the newest-first chains, which
  // is the exact order the list-based relax loop visited them.
  std::uint32_t pos = 0;
  for (std::size_t u = 0; u < nodes; ++u) {
    csr_start_[u] = pos;
    for (std::size_t e = head_[u]; e != SIZE_MAX; e = arc_next_[e]) {
      pos_of_arc_[e] = pos++;
    }
  }
  csr_start_[nodes] = pos;

  // Pass 2: fill the permuted arrays (twin positions need pass 1 complete).
  for (std::size_t e = 0; e < arcs; ++e) {
    const std::uint32_t p = pos_of_arc_[e];
    csr_to_[p] = arc_to_[e];
    csr_cost_[p] = arc_cost_[e];
    csr_twin_[p] = pos_of_arc_[e ^ 1];
    csr_cap_init_[p] = initial_capacity_[e];
  }

  dist_.resize(nodes);
  parent_pos_.resize(nodes);
  heap_index_.resize(nodes);
  heap_.reserve(nodes);
  csr_arc_count_ = arcs;
}

bool MinCostFlowGraph::bellman_ford_potentials(NodeId source,
                                               std::vector<double>& pot) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  pot.assign(head_.size(), kInf);
  pot[source] = 0.0;
  std::deque<NodeId> queue{source};
  std::vector<std::uint8_t> in_queue(head_.size(), 0);
  std::vector<std::uint32_t> relaxations(head_.size(), 0);
  in_queue[source] = 1;
  while (!queue.empty()) {
    const NodeId u = queue.front();
    queue.pop_front();
    in_queue[u] = 0;
    const std::uint32_t begin = csr_start_[u];
    const std::uint32_t end = csr_start_[u + 1];
    for (std::uint32_t p = begin; p < end; ++p) {
      if (residual_[p] <= 0) continue;
      const double candidate = pot[u] + csr_cost_[p];
      const NodeId to = csr_to_[p];
      if (candidate < pot[to] - 1e-12) {
        pot[to] = candidate;
        if (!in_queue[to]) {
          if (++relaxations[to] > head_.size() + 1) return false;  // negative cycle
          in_queue[to] = 1;
          queue.push_back(to);
        }
      }
    }
  }
  // Unreached nodes keep infinite potential; replace with 0 so reduced costs
  // stay finite (those nodes are unusable anyway).
  for (auto& p : pot) {
    if (p == kInf) p = 0.0;
  }
  return true;
}

void MinCostFlowGraph::heap_sift_up(std::uint32_t hole) {
  while (hole > 0) {
    const std::uint32_t up = (hole - 1) / 2;
    if (!heap_less(heap_[hole], heap_[up])) break;
    std::swap(heap_[hole], heap_[up]);
    heap_index_[heap_[hole]] = hole;
    heap_index_[heap_[up]] = up;
    hole = up;
  }
}

void MinCostFlowGraph::heap_sift_down(std::uint32_t hole) {
  const auto size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    const std::uint32_t left = 2 * hole + 1;
    if (left >= size) break;
    std::uint32_t best = left;
    const std::uint32_t right = left + 1;
    if (right < size && heap_less(heap_[right], heap_[left])) best = right;
    if (!heap_less(heap_[best], heap_[hole])) break;
    std::swap(heap_[best], heap_[hole]);
    heap_index_[heap_[hole]] = hole;
    heap_index_[heap_[best]] = best;
    hole = best;
  }
}

void MinCostFlowGraph::heap_push_or_decrease(NodeId node) {
  const std::uint32_t slot = heap_index_[node];
  if (slot == kNoPos) {
    heap_.push_back(node);
    heap_index_[node] = static_cast<std::uint32_t>(heap_.size() - 1);
    heap_sift_up(static_cast<std::uint32_t>(heap_.size() - 1));
  } else {
    heap_sift_up(slot);  // dist only ever decreases
  }
}

MinCostFlowGraph::NodeId MinCostFlowGraph::heap_pop_min() {
  const NodeId top = heap_[0];
  heap_index_[top] = kNoPos;
  const NodeId last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    heap_index_[last] = 0;
    heap_sift_down(0);
  }
  return top;
}

MinCostFlowGraph::FlowResult MinCostFlowGraph::solve(NodeId source, NodeId sink,
                                                     std::int64_t target_flow) {
  if (source >= head_.size() || sink >= head_.size()) {
    throw std::invalid_argument{"MinCostFlowGraph::solve: unknown node"};
  }
  build_csr();
  // Reset residual capacities from any prior run.
  residual_ = csr_cap_init_;

  FlowResult result;
  if (target_flow <= 0) {
    result.reached_target = true;
    return result;
  }

  std::vector<double> pot;
  if (!bellman_ford_potentials(source, pot)) {
    throw std::runtime_error{"MinCostFlowGraph: negative cycle in costs"};
  }

  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::size_t nodes = head_.size();

  while (result.flow < target_flow) {
    // Dijkstra on reduced costs. Each reached node pops exactly once, in
    // increasing (dist, node) order — the same effective sequence the lazy
    // heap produced — and scans its CSR block once. The search stops when the
    // sink pops: every node on the augmenting path was settled before it, so
    // its parent arc is already final.
    std::fill(dist_.begin(), dist_.end(), kInf);
    std::fill(parent_pos_.begin(), parent_pos_.end(), kNoPos);
    std::fill(heap_index_.begin(), heap_index_.end(), kNoPos);
    heap_.clear();
    dist_[source] = 0.0;
    heap_push_or_decrease(source);
    while (!heap_.empty()) {
      const NodeId u = heap_pop_min();
      if (u == sink) break;
      const double du = dist_[u];
      const double pu = pot[u];
      const std::uint32_t begin = csr_start_[u];
      const std::uint32_t end = csr_start_[u + 1];
      for (std::uint32_t p = begin; p < end; ++p) {
        if (residual_[p] <= 0) continue;
        const NodeId to = csr_to_[p];
        const double reduced = csr_cost_[p] + pu - pot[to];
        const double candidate = du + std::max(0.0, reduced);
        if (candidate < dist_[to] - 1e-12) {
          dist_[to] = candidate;
          parent_pos_[to] = p;
          heap_push_or_decrease(to);
        }
      }
    }
    if (dist_[sink] == kInf) break;  // no augmenting path left

    // Settled nodes move by their distance; everything else (still queued
    // or never reached) by the sink's, so every residual arc keeps a
    // non-negative reduced cost.
    const double sink_dist = dist_[sink];
    for (std::size_t v = 0; v < nodes; ++v) pot[v] += std::min(dist_[v], sink_dist);

    // Bottleneck along the path.
    std::int64_t push = target_flow - result.flow;
    for (NodeId v = sink; v != source;) {
      const std::uint32_t p = parent_pos_[v];
      push = std::min(push, residual_[p]);
      v = csr_to_[csr_twin_[p]];
    }
    for (NodeId v = sink; v != source;) {
      const std::uint32_t p = parent_pos_[v];
      residual_[p] -= push;
      residual_[csr_twin_[p]] += push;
      result.cost += static_cast<double>(push) * csr_cost_[p];
      v = csr_to_[csr_twin_[p]];
    }
    result.flow += push;
  }
  result.reached_target = result.flow >= target_flow;
  return result;
}

Assignment solve_assignment_ssp(const AssignmentProblem& problem, double overflow_penalty,
                                std::int64_t demand_scale) {
  problem.validate();
  if (demand_scale <= 0) throw std::invalid_argument{"demand_scale must be > 0"};

  // Per-group uniform demand requirement (transportation structure).
  const std::optional<std::vector<double>> uniform = uniform_group_demand(problem);
  if (!uniform) {
    throw std::invalid_argument{
        "solve_assignment_ssp: options of a group must share unit_demand"};
  }
  const std::vector<double>& group_demand = *uniform;

  MinCostFlowGraph graph;
  const auto source = graph.add_node();
  const auto sink = graph.add_node();
  std::vector<MinCostFlowGraph::NodeId> group_node(problem.group_count());
  std::vector<MinCostFlowGraph::NodeId> resource_node(problem.resource_count());
  for (auto& n : group_node) n = graph.add_node();
  for (auto& n : resource_node) n = graph.add_node();

  const auto scale_demand = [&](double demand) {
    return static_cast<std::int64_t>(
        std::llround(demand * static_cast<double>(demand_scale)));
  };

  // Source -> group arcs carry the group's total demand.
  std::int64_t total_supply = 0;
  std::vector<std::int64_t> supply(problem.group_count(), 0);
  for (std::size_t g = 0; g < problem.group_count(); ++g) {
    if (problem.group_counts[g] <= 0.0) continue;
    const double d = group_demand[g] > 0.0 ? group_demand[g] : 1.0;
    supply[g] = scale_demand(problem.group_counts[g] * d);
    if (supply[g] <= 0) supply[g] = 1;  // keep tiny groups representable
    graph.add_arc(source, group_node[g], supply[g], 0.0);
    total_supply += supply[g];
  }

  // Option arcs: group -> resource (or straight to sink when uncapacitated).
  // Cost is per demand unit.
  std::vector<MinCostFlowGraph::ArcRef> option_arc(problem.options.size());
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const Option& o = problem.options[i];
    const double d = o.unit_demand > 0.0 ? o.unit_demand : 1.0;
    // One client corresponds to d * demand_scale flow units; spreading the
    // per-client cost over them reproduces the objective exactly.
    const double cost_per_flow_unit =
        o.unit_cost / (d * static_cast<double>(demand_scale));
    const auto to = o.resource == kNoResource ? sink : resource_node[o.resource];
    option_arc[i] =
        graph.add_arc(group_node[o.group], to, supply[o.group], cost_per_flow_unit);
  }

  // Resource -> sink: capacity arc plus an overflow arc priced at the
  // penalty (per demand unit, i.e. penalty/demand_scale per flow unit).
  for (std::size_t r = 0; r < problem.resource_count(); ++r) {
    graph.add_arc(resource_node[r], sink, scale_demand(problem.capacities[r]), 0.0);
    graph.add_arc(resource_node[r], sink, total_supply,
                  overflow_penalty / static_cast<double>(demand_scale));
  }

  graph.solve(source, sink, total_supply);

  std::vector<double> amounts(problem.options.size(), 0.0);
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const Option& o = problem.options[i];
    const double d = o.unit_demand > 0.0 ? o.unit_demand : 1.0;
    amounts[i] = static_cast<double>(graph.flow_on(option_arc[i])) /
                 (d * static_cast<double>(demand_scale));
  }

  // Scaled-supply rounding can leave group totals a hair off the true count;
  // snap them back proportionally.
  std::vector<double> assigned(problem.group_count(), 0.0);
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    assigned[problem.options[i].group] += amounts[i];
  }
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const std::uint32_t g = problem.options[i].group;
    if (assigned[g] > 0.0 && problem.group_counts[g] > 0.0) {
      amounts[i] *= problem.group_counts[g] / assigned[g];
    }
  }

  return evaluate(problem, std::move(amounts));
}

}  // namespace vdx::solver
