#include "solver/mincost_flow.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "support/reference_mincost_flow.hpp"
#include "support/ssp_mincost_flow.hpp"

namespace vdx::solver {
namespace {

TEST(MinCostFlowGraph, SingleArcPath) {
  MinCostFlowGraph g;
  const auto s = g.add_node();
  const auto t = g.add_node();
  const auto arc = g.add_arc(s, t, 5, 2.0);
  const auto result = g.solve(s, t, 3);
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.flow, 3);
  EXPECT_DOUBLE_EQ(result.cost, 6.0);
  EXPECT_EQ(g.flow_on(arc), 3);
}

TEST(MinCostFlowGraph, PrefersCheaperParallelArc) {
  MinCostFlowGraph g;
  const auto s = g.add_node();
  const auto t = g.add_node();
  const auto cheap = g.add_arc(s, t, 4, 1.0);
  const auto expensive = g.add_arc(s, t, 10, 3.0);
  const auto result = g.solve(s, t, 6);
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(g.flow_on(cheap), 4);
  EXPECT_EQ(g.flow_on(expensive), 2);
  EXPECT_DOUBLE_EQ(result.cost, 4.0 * 1.0 + 2.0 * 3.0);
}

TEST(MinCostFlowGraph, ResidualReroutingFindsOptimum) {
  // Diamond where the greedy shortest path must be partially undone.
  MinCostFlowGraph g;
  const auto s = g.add_node();
  const auto a = g.add_node();
  const auto b = g.add_node();
  const auto t = g.add_node();
  g.add_arc(s, a, 2, 1.0);
  g.add_arc(s, b, 2, 3.0);
  g.add_arc(a, t, 2, 3.0);
  g.add_arc(b, t, 2, 1.0);
  g.add_arc(a, b, 2, 1.0);  // shortcut making s->a->b->t cheapest (cost 3)
  const auto result = g.solve(s, t, 4);
  EXPECT_TRUE(result.reached_target);
  // SSP first pushes 2 units along s->a->b->t (cost 3). The remaining 2
  // units must enter via s->b with b->t saturated, forcing the algorithm to
  // reroute through the b->a residual onto a->t (cost 3 - 1 + 3 = 5).
  // Hand-verified optimum: 2*3 + 2*5 = 16, equal to the direct split
  // (2 via s->a->t and 2 via s->b->t at cost 8 each... i.e. 16 total).
  EXPECT_DOUBLE_EQ(result.cost, 16.0);
}

TEST(MinCostFlowGraph, ReportsPartialFlowWhenCutSaturates) {
  MinCostFlowGraph g;
  const auto s = g.add_node();
  const auto t = g.add_node();
  g.add_arc(s, t, 2, 1.0);
  const auto result = g.solve(s, t, 10);
  EXPECT_FALSE(result.reached_target);
  EXPECT_EQ(result.flow, 2);
}

TEST(MinCostFlowGraph, NegativeCostArcsHandled) {
  MinCostFlowGraph g;
  const auto s = g.add_node();
  const auto m = g.add_node();
  const auto t = g.add_node();
  g.add_arc(s, m, 3, -2.0);
  g.add_arc(m, t, 3, 1.0);
  const auto result = g.solve(s, t, 3);
  EXPECT_TRUE(result.reached_target);
  EXPECT_DOUBLE_EQ(result.cost, 3.0 * (-2.0 + 1.0));
}

TEST(MinCostFlowGraph, SolveIsRepeatable) {
  MinCostFlowGraph g;
  const auto s = g.add_node();
  const auto t = g.add_node();
  const auto arc = g.add_arc(s, t, 5, 1.0);
  (void)g.solve(s, t, 5);
  const auto second = g.solve(s, t, 4);
  EXPECT_EQ(second.flow, 4);
  EXPECT_EQ(g.flow_on(arc), 4);  // state reset between solves
}

TEST(MinCostFlowGraph, RejectsBadArguments) {
  MinCostFlowGraph g;
  const auto s = g.add_node();
  EXPECT_THROW((void)g.add_arc(s, 99, 1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)g.add_arc(s, s, -1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)g.solve(s, 99, 1), std::invalid_argument);
  EXPECT_THROW((void)g.flow_on(MinCostFlowGraph::ArcRef{99}), std::out_of_range);
}

// Equal-cost routes: s->a->t and s->b->t both cost 2, plus a dearer
// s->c->t route (cost 4). The sink (id 1) pops before a, b and c are all
// settled, so each augmentation stops with part of the graph still queued.
struct ParallelRoutes {
  MinCostFlowGraph g;
  MinCostFlowGraph::NodeId s = g.add_node();
  MinCostFlowGraph::NodeId t = g.add_node();
  MinCostFlowGraph::NodeId a = g.add_node();
  MinCostFlowGraph::NodeId b = g.add_node();
  MinCostFlowGraph::NodeId c = g.add_node();
  MinCostFlowGraph::ArcRef sa = g.add_arc(s, a, 1, 1.0);
  MinCostFlowGraph::ArcRef sb = g.add_arc(s, b, 1, 1.0);
  MinCostFlowGraph::ArcRef at = g.add_arc(a, t, 1, 1.0);
  MinCostFlowGraph::ArcRef bt = g.add_arc(b, t, 1, 1.0);
  MinCostFlowGraph::ArcRef sc = g.add_arc(s, c, 2, 4.0);
  MinCostFlowGraph::ArcRef ct = g.add_arc(c, t, 2, 0.0);
};

TEST(MinCostFlowEarlyExit, EqualCostRoutesBreakTiesOnNodeId) {
  // a, b and c all sit at reduced distance 0; (dist, node) order pops a
  // (id 2) first, a reaches the sink (id 1), and the sink pops next.
  ParallelRoutes r;
  const auto result = r.g.solve(r.s, r.t, 1);
  EXPECT_TRUE(result.reached_target);
  EXPECT_EQ(result.flow, 1);
  EXPECT_DOUBLE_EQ(result.cost, 2.0);
  EXPECT_EQ(r.g.flow_on(r.sa), 1);
  EXPECT_EQ(r.g.flow_on(r.at), 1);
  EXPECT_EQ(r.g.flow_on(r.sb), 0);
  EXPECT_EQ(r.g.flow_on(r.bt), 0);
  EXPECT_EQ(r.g.flow_on(r.sc), 0);
  EXPECT_EQ(r.g.flow_on(r.ct), 0);
}

TEST(MinCostFlowEarlyExit, UnsettledNodesKeepPotentialsValid) {
  // Second path: b (a's route is saturated). Third: the dear route, with a
  // and b unreachable — their potentials move by the sink's distance.
  // Fourth: c's remaining unit. Optimum 2 + 2 + 4 + 4.
  ParallelRoutes r;
  const auto three = r.g.solve(r.s, r.t, 3);
  EXPECT_EQ(three.flow, 3);
  EXPECT_DOUBLE_EQ(three.cost, 8.0);
  EXPECT_EQ(r.g.flow_on(r.sa), 1);
  EXPECT_EQ(r.g.flow_on(r.sb), 1);
  EXPECT_EQ(r.g.flow_on(r.sc), 1);
  EXPECT_EQ(r.g.flow_on(r.ct), 1);

  const auto all = r.g.solve(r.s, r.t, 10);
  EXPECT_FALSE(all.reached_target);
  EXPECT_EQ(all.flow, 4);
  EXPECT_DOUBLE_EQ(all.cost, 12.0);
  EXPECT_EQ(r.g.flow_on(r.at), 1);
  EXPECT_EQ(r.g.flow_on(r.bt), 1);
  EXPECT_EQ(r.g.flow_on(r.sc), 2);
  EXPECT_EQ(r.g.flow_on(r.ct), 2);
}

TEST(MinCostFlowEarlyExit, GridTiesDecideTheRoute) {
  // 3x3 grid, unit right/down arcs of capacity 1, source top-left (0), sink
  // bottom-right (8), plus a dear detour 0 -> 9 -> 8 whose node outranks the
  // sink and so stays queued when the sink pops. Every monotone path costs
  // 4, so the route is pure tie-breaking: node ids ascending, each node's
  // arcs newest first, strict improvement only. The first path takes the
  // top row and right column; the second enters via the left column, then
  // 3 -> 4 -> 7 -> 8; the third has only the detour (cost 10) left.
  MinCostFlowGraph g;
  std::vector<MinCostFlowGraph::NodeId> n(10);
  for (auto& node : n) node = g.add_node();
  std::vector<MinCostFlowGraph::ArcRef> right(9);
  std::vector<MinCostFlowGraph::ArcRef> down(9);
  for (std::size_t r = 0; r < 3; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      const std::size_t v = 3 * r + c;
      if (c < 2) right[v] = g.add_arc(n[v], n[v + 1], 1, 1.0);
      if (r < 2) down[v] = g.add_arc(n[v], n[v + 3], 1, 1.0);
    }
  }
  const auto into_detour = g.add_arc(n[0], n[9], 1, 10.0);
  const auto out_of_detour = g.add_arc(n[9], n[8], 1, 0.0);

  const auto two = g.solve(n[0], n[8], 2);
  EXPECT_TRUE(two.reached_target);
  EXPECT_EQ(two.flow, 2);
  EXPECT_DOUBLE_EQ(two.cost, 8.0);
  const std::vector<std::int64_t> right_flow{1, 1, 0, 1, 0, 0, 0, 1, 0};
  const std::vector<std::int64_t> down_flow{1, 0, 1, 0, 1, 1, 0, 0, 0};
  for (std::size_t v = 0; v < 9; ++v) {
    if (v % 3 < 2) {
      EXPECT_EQ(g.flow_on(right[v]), right_flow[v]) << "right of " << v;
    }
    if (v / 3 < 2) {
      EXPECT_EQ(g.flow_on(down[v]), down_flow[v]) << "down of " << v;
    }
  }
  EXPECT_EQ(g.flow_on(into_detour), 0);
  EXPECT_EQ(g.flow_on(out_of_detour), 0);

  const auto three = g.solve(n[0], n[8], 3);
  EXPECT_TRUE(three.reached_target);
  EXPECT_DOUBLE_EQ(three.cost, 18.0);
  EXPECT_EQ(g.flow_on(into_detour), 1);
  EXPECT_EQ(g.flow_on(out_of_detour), 1);
}

// Seeded differential against the Bellman-Ford successive-shortest-path
// reference (tests/support/reference_mincost_flow.hpp) over small random
// graphs: free-form graphs with non-negative costs, degenerate ones where
// every arc costs the same, and DAGs with negative-cost arcs (acyclic, so no
// negative cycle). Costs are multiples of 1/4, exact in binary, so both
// solvers see the same ties.
TEST(MinCostFlowDifferential, MatchesBellmanFordReferenceOnRandomGraphs) {
  core::Rng rng{20171212};
  constexpr int kInstances = 2000;
  for (int instance = 0; instance < kInstances; ++instance) {
    SCOPED_TRACE(instance);
    const int kind = instance % 3;  // 0 free-form, 1 all-equal, 2 negative DAG
    const auto nodes = static_cast<std::uint32_t>(rng.range(2, 9));
    const auto sink = static_cast<std::uint32_t>(rng.range(1, nodes - 1));
    const double equal_cost = static_cast<double>(rng.range(0, 3));
    const bool quarters = rng.chance(0.5);
    std::vector<test::ReferenceArc> arcs(
        static_cast<std::size_t>(rng.range(0, 3 * static_cast<std::int64_t>(nodes))));
    for (test::ReferenceArc& arc : arcs) {
      arc.from = static_cast<std::uint32_t>(rng.below(nodes));
      do {
        arc.to = static_cast<std::uint32_t>(rng.below(nodes));
      } while (arc.to == arc.from);
      if (kind == 2 && arc.from > arc.to) std::swap(arc.from, arc.to);
      arc.capacity = rng.range(0, 5);
      const std::int64_t scale = quarters ? 4 : 1;
      const std::int64_t units = rng.range(kind == 2 ? -5 * scale : 0, 9 * scale);
      arc.cost = kind == 1 ? equal_cost
                           : static_cast<double>(units) / static_cast<double>(scale);
    }
    const std::int64_t target = rng.chance(0.2) ? 1000 : rng.range(1, 12);

    MinCostFlowGraph g;
    for (std::uint32_t v = 0; v < nodes; ++v) (void)g.add_node();
    std::vector<MinCostFlowGraph::ArcRef> refs;
    for (const test::ReferenceArc& arc : arcs) {
      refs.push_back(g.add_arc(arc.from, arc.to, arc.capacity, arc.cost));
    }
    const auto got = g.solve(0, sink, target);
    const test::ReferenceFlow want =
        test::reference_min_cost_flow(nodes, arcs, 0, sink, target);

    ASSERT_EQ(got.flow, want.flow);
    EXPECT_EQ(got.reached_target, want.flow >= target);
    ASSERT_NEAR(got.cost, want.cost, 1e-9);

    // Capacity and conservation on every arc and node; the arc flows must
    // also price out to the reported cost.
    std::vector<std::int64_t> net_out(nodes, 0);
    double priced = 0.0;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const std::int64_t f = g.flow_on(refs[i]);
      ASSERT_GE(f, 0) << "arc " << i;
      ASSERT_LE(f, arcs[i].capacity) << "arc " << i;
      net_out[arcs[i].from] += f;
      net_out[arcs[i].to] -= f;
      priced += static_cast<double>(f) * arcs[i].cost;
    }
    for (std::uint32_t v = 0; v < nodes; ++v) {
      const std::int64_t expected = v == 0 ? got.flow : (v == sink ? -got.flow : 0);
      ASSERT_EQ(net_out[v], expected) << "node " << v;
    }
    EXPECT_NEAR(priced, got.cost, 1e-9);
  }
}

TEST(AssignmentMcf, MatchesHandComputedOptimum) {
  AssignmentProblem p;
  p.group_counts = {10.0, 10.0};
  p.capacities = {12.0, 100.0};
  p.options = {
      {0, 0, 1.0, 1.0},  // cheap but shares resource 0
      {0, 1, 3.0, 1.0},
      {1, 0, 1.0, 1.0},
      {1, 1, 2.0, 1.0},
  };
  const Assignment a = solve_assignment_mcf(p, 1e6);
  EXPECT_TRUE(a.complete);
  EXPECT_NEAR(a.overflow_demand, 0.0, 1e-6);
  // Resource 0 fits 12 of the 20 clients; the marginal move to resource 1 is
  // cheaper for group 1 (2-1=1) than group 0 (3-1=2), so group 1 spills.
  // Optimum = 10*1 (g0@r0) + 2*1 (g1@r0) + 8*2 (g1@r1) = 28.
  EXPECT_NEAR(a.objective, 28.0, 1e-6);
}

TEST(AssignmentMcf, UsesOverflowWhenCheaperThanAlternative) {
  AssignmentProblem p;
  p.group_counts = {4.0};
  p.capacities = {2.0};
  p.options = {
      {0, 0, 1.0, 1.0},
      {0, kNoResource, 50.0, 1.0},
  };
  // With a small penalty (10), overloading resource 0 costs 1+10=11 per
  // client, cheaper than the 50-cost fallback.
  const Assignment cheap_penalty = solve_assignment_mcf(p, 10.0);
  EXPECT_TRUE(cheap_penalty.complete);
  EXPECT_NEAR(cheap_penalty.amounts[0], 4.0, 1e-6);
  EXPECT_NEAR(cheap_penalty.overflow_demand, 2.0, 1e-6);

  // With a large penalty the fallback wins for the excess.
  const Assignment big_penalty = solve_assignment_mcf(p, 1e6);
  EXPECT_NEAR(big_penalty.amounts[0], 2.0, 1e-6);
  EXPECT_NEAR(big_penalty.amounts[1], 2.0, 1e-6);
  EXPECT_NEAR(big_penalty.overflow_demand, 0.0, 1e-6);
}

TEST(AssignmentMcf, HandlesFractionalBitrates) {
  AssignmentProblem p;
  p.group_counts = {8.0};
  p.capacities = {3.0};
  p.options = {
      {0, 0, 1.0, 0.5},  // 0.5 demand per client -> 6 clients fit
      {0, kNoResource, 10.0, 0.5},
  };
  const Assignment a = solve_assignment_mcf(p, 1e6);
  EXPECT_TRUE(a.complete);
  EXPECT_NEAR(a.amounts[0], 6.0, 1e-5);
  EXPECT_NEAR(a.amounts[1], 2.0, 1e-5);
}

TEST(AssignmentMcf, RejectsMixedDemandWithinGroup) {
  AssignmentProblem p;
  p.group_counts = {1.0};
  p.capacities = {1.0};
  p.options = {{0, 0, 1.0, 1.0}, {0, 0, 1.0, 2.0}};
  EXPECT_THROW((void)solve_assignment_mcf(p, 1e6), std::invalid_argument);
}

TEST(AssignmentMcf, EmptyGroupsAreSkipped) {
  AssignmentProblem p;
  p.group_counts = {0.0, 5.0};
  p.capacities = {10.0};
  p.options = {{0, 0, 1.0, 1.0}, {1, 0, 2.0, 1.0}};
  const Assignment a = solve_assignment_mcf(p, 1e6);
  EXPECT_TRUE(a.complete);
  EXPECT_NEAR(a.amounts[0], 0.0, 1e-9);
  EXPECT_NEAR(a.amounts[1], 5.0, 1e-6);
}

TEST(AssignmentMcf, HugeCapacityIsClampedToTheTotalDemand) {
  // 1e16 times the default demand scale of 1000 does not fit int64. No flow
  // exceeds the total supply, so the solve matches one with ample capacity:
  // group 1 gains more from resource 1 (3 - 1) than group 0 (2 - 1) and takes
  // all of it. Optimum = 10*2 + 1*3 + 4*1 = 27.
  AssignmentProblem p;
  p.group_counts = {10.0, 5.0};
  p.capacities = {1e16, 4.0};
  p.options = {{0, 0, 2.0, 1.0}, {0, 1, 1.0, 1.0}, {1, 0, 3.0, 1.0}, {1, 1, 1.0, 1.0}};
  const Assignment huge = solve_assignment_mcf(p, 1e6);
  EXPECT_TRUE(huge.complete);
  EXPECT_NEAR(huge.objective, 27.0, 1e-9);
  EXPECT_EQ(huge.overflow_demand, 0.0);
  p.capacities[0] = 100.0;
  EXPECT_EQ(huge.amounts, solve_assignment_mcf(p, 1e6).amounts);
}

TEST(AssignmentMcf, RejectsDemandBeyondInt64FlowUnits) {
  const auto error = [](const AssignmentProblem& p) -> std::string {
    try {
      (void)solve_assignment_mcf(p, 1e6);
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "no error";
  };
  AssignmentProblem p;
  p.capacities = {1.0};
  p.options = {{0, 0, 1.0, 1.0}, {1, 0, 1.0, 1.0}, {2, 0, 1.0, 1.0}};
  // One group's 1e20 flow units.
  p.group_counts = {1.0, 1e17, 1.0};
  EXPECT_NE(error(p).find("group 1 "), std::string::npos) << error(p);
  // Groups that fit one by one but not in total: the sum breaks at group 2.
  p.group_counts = {1.0, 5e15, 5e15};
  EXPECT_NE(error(p).find("group 2 "), std::string::npos) << error(p);
}

}  // namespace
}  // namespace vdx::solver
