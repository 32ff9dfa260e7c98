// Reference min-cost flow: a deliberately naive successive-shortest-path
// solver that the MinCostFlowGraph differential diffs against. Test-only.
//
// Nothing is shared with solver::MinCostFlowGraph: no potentials, no heap, no
// CSR image. Each augmentation runs a plain Bellman-Ford over the whole
// residual edge list (forward arcs at +cost while they have spare capacity,
// backward arcs at -cost while they carry flow) and pushes the bottleneck
// along the cheapest path it finds. That is exact on graphs without negative
// cycles, which is the only kind the solver accepts.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace vdx::test {

struct ReferenceArc {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::int64_t capacity = 0;
  double cost = 0.0;
};

struct ReferenceFlow {
  std::int64_t flow = 0;
  double cost = 0.0;
  std::vector<std::int64_t> arc_flow;  // per input arc
};

/// Sends up to `target` units from `source` to `sink` at minimum cost.
inline ReferenceFlow reference_min_cost_flow(std::size_t nodes,
                                             const std::vector<ReferenceArc>& arcs,
                                             std::uint32_t source, std::uint32_t sink,
                                             std::int64_t target) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr std::size_t kNone = SIZE_MAX;
  ReferenceFlow out;
  out.arc_flow.assign(arcs.size(), 0);
  // Residual edge 2i is arc i forward, 2i+1 its backward twin.
  const auto residual = [&](std::size_t e) {
    const std::size_t i = e / 2;
    return e % 2 == 0 ? arcs[i].capacity - out.arc_flow[i] : out.arc_flow[i];
  };
  const auto tail = [&](std::size_t e) {
    return e % 2 == 0 ? arcs[e / 2].from : arcs[e / 2].to;
  };
  const auto head = [&](std::size_t e) {
    return e % 2 == 0 ? arcs[e / 2].to : arcs[e / 2].from;
  };
  const auto cost = [&](std::size_t e) {
    return e % 2 == 0 ? arcs[e / 2].cost : -arcs[e / 2].cost;
  };

  while (out.flow < target) {
    std::vector<double> dist(nodes, kInf);
    std::vector<std::size_t> via(nodes, kNone);
    dist[source] = 0.0;
    for (std::size_t round = 0; round + 1 < nodes; ++round) {
      bool changed = false;
      for (std::size_t e = 0; e < 2 * arcs.size(); ++e) {
        if (residual(e) <= 0 || dist[tail(e)] == kInf) continue;
        const double candidate = dist[tail(e)] + cost(e);
        if (candidate < dist[head(e)]) {
          dist[head(e)] = candidate;
          via[head(e)] = e;
          changed = true;
        }
      }
      if (!changed) break;
    }
    if (dist[sink] == kInf) break;

    std::int64_t push = target - out.flow;
    for (std::uint32_t v = sink; v != source; v = tail(via[v])) {
      push = std::min(push, residual(via[v]));
    }
    for (std::uint32_t v = sink; v != source; v = tail(via[v])) {
      const std::size_t e = via[v];
      out.arc_flow[e / 2] += e % 2 == 0 ? push : -push;
      out.cost += static_cast<double>(push) * cost(e);
    }
    out.flow += push;
  }
  return out;
}

}  // namespace vdx::test
