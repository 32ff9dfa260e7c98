// The network simplex behind solve_assignment_mcf(), checked two ways:
//   - graph level, against the Bellman-Ford successive-shortest-path
//     reference (tests/support/reference_mincost_flow.hpp);
//   - assignment level, against the successive-shortest-path solver that
//     produced every committed golden (tests/support/ssp_mincost_flow.hpp)
//     and, where the instance is small enough, the tableau simplex.
// On generic real costs the optimum is unique, so the amounts must match the
// oracle bit for bit; on degenerate instances (ties, zero groups, negative
// costs, overload) any optimum will do, so only the objective is compared.
#include "solver/mincost_flow.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "solver/lp_bridge.hpp"
#include "solver/simplex.hpp"
#include "support/reference_mincost_flow.hpp"
#include "support/ssp_mincost_flow.hpp"

namespace vdx::solver {
namespace {

TEST(NetworkSimplex, RoutesSuppliesAtMinimumCost) {
  // Two suppliers, two consumers. Every unit node 0 sends to node 3 forces a
  // unit over the dear 1 -> 2 arc, so node 0 sends node 3 only the one unit
  // node 1 cannot cover: cost 4*1 + 1*0.5 + 3*2 = 10.5.
  NetworkSimplex net{{5, 3, -4, -4}};
  const auto a02 = net.add_arc(0, 2, 10, 1.0);
  const auto a03 = net.add_arc(0, 3, 2, 0.5);
  const auto a12 = net.add_arc(1, 2, 10, 4.0);
  const auto a13 = net.add_arc(1, 3, 10, 2.0);
  net.solve();
  EXPECT_EQ(net.flow(a02), 4);
  EXPECT_EQ(net.flow(a03), 1);
  EXPECT_EQ(net.flow(a12), 0);
  EXPECT_EQ(net.flow(a13), 3);
  // Each call starts from scratch.
  net.solve();
  EXPECT_EQ(net.flow(a02), 4);
  EXPECT_EQ(net.flow(a13), 3);
}

TEST(NetworkSimplex, ReportsInfeasibleSupplies) {
  NetworkSimplex net{{4, 0, -4}};
  (void)net.add_arc(0, 1, 10, 1.0);
  (void)net.add_arc(1, 2, 3, 1.0);  // the cut holds 3 of the 4 units
  EXPECT_THROW(net.solve(), std::runtime_error);
}

TEST(NetworkSimplex, RejectsBadArguments) {
  NetworkSimplex net{{1, -1}};
  EXPECT_THROW((void)net.add_arc(0, 2, 1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)net.add_arc(0, 1, -1, 0.0), std::invalid_argument);
  EXPECT_THROW((void)net.add_arc(0, 1, INT64_MAX, 0.0), std::invalid_argument);
  EXPECT_THROW((void)net.add_arc(0, 1, 1, std::nan("")), std::invalid_argument);
  EXPECT_THROW((void)net.flow(0), std::out_of_range);
  EXPECT_THROW(NetworkSimplex({1, 0}), std::invalid_argument);
  EXPECT_THROW(NetworkSimplex({INT64_MAX, 1, -1}), std::invalid_argument);  // wraps to 0
  EXPECT_THROW(NetworkSimplex({INT64_MIN, INT64_MAX, 1}), std::invalid_argument);
}

// The successive-shortest-path differential's graphs, posed as a supply
// problem: the source supplies `target`, the sink absorbs it, and a bypass
// arc priced above any real path carries what the network cannot. The real
// arcs then hold a min-cost maximum flow, which the reference computes.
TEST(NetworkSimplex, MatchesBellmanFordReferenceOnRandomGraphs) {
  core::Rng rng{20171218};
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
    double max_abs_cost = 0.0;
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
      max_abs_cost = std::max(max_abs_cost, std::abs(arc.cost));
    }
    const std::int64_t target = rng.chance(0.2) ? 1000 : rng.range(1, 12);

    std::vector<std::int64_t> supply(nodes, 0);
    supply[0] = target;
    supply[sink] = -target;
    NetworkSimplex net{supply};
    for (const test::ReferenceArc& arc : arcs) {
      (void)net.add_arc(arc.from, arc.to, arc.capacity, arc.cost);
    }
    const auto bypass = net.add_arc(0, sink, target,
                                    (max_abs_cost + 1.0) * static_cast<double>(nodes));
    net.solve();
    const test::ReferenceFlow want =
        test::reference_min_cost_flow(nodes, arcs, 0, sink, target);

    ASSERT_EQ(target - net.flow(bypass), want.flow);
    std::vector<std::int64_t> net_out(nodes, 0);
    double cost = 0.0;
    for (std::size_t i = 0; i < arcs.size(); ++i) {
      const std::int64_t f = net.flow(static_cast<NetworkSimplex::ArcId>(i));
      ASSERT_GE(f, 0) << "arc " << i;
      ASSERT_LE(f, arcs[i].capacity) << "arc " << i;
      net_out[arcs[i].from] += f;
      net_out[arcs[i].to] -= f;
      cost += static_cast<double>(f) * arcs[i].cost;
    }
    for (std::uint32_t v = 0; v < nodes; ++v) {
      const std::int64_t expected = v == 0 ? want.flow : (v == sink ? -want.flow : 0);
      ASSERT_EQ(net_out[v], expected) << "node " << v;
    }
    EXPECT_NEAR(cost, want.cost, 1e-9);
  }
}

constexpr double kPenalty = 1e5;

enum class Costs { kGeneric, kAllEqual, kQuarterSteps, kNegative };

struct Shape {
  std::int64_t max_groups = 12;
  std::int64_t max_resources = 6;
  std::int64_t max_options = 5;  // per group
  std::int64_t max_count = 9;
  bool exact = false;  // sizes at their maxima rather than drawn up to them
};

// Demands step by 1/4 and capacities by 1/8, so the scaled integer network
// is the exact LP and the tableau simplex sees the same optimum.
AssignmentProblem random_problem(core::Rng& rng, Costs costs, bool degenerate,
                                 const Shape& shape) {
  AssignmentProblem p;
  const auto size = [&](std::int64_t max) {
    return shape.exact ? max : rng.range(1, max);
  };
  const auto groups = static_cast<std::size_t>(size(shape.max_groups));
  const auto resources = static_cast<std::size_t>(size(shape.max_resources));
  std::vector<double> demand(groups);
  double total_demand = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    // Degenerate instances get frequent zero-count groups.
    const std::int64_t count = rng.range(degenerate ? -2 : 1, shape.max_count);
    p.group_counts.push_back(static_cast<double>(std::max<std::int64_t>(0, count)));
    demand[g] = 0.25 * static_cast<double>(rng.range(1, 12));
    total_demand += p.group_counts[g] * demand[g];
  }
  // Headroom below 1 forces overload somewhere.
  const double headroom = rng.uniform(degenerate ? 0.2 : 0.5, 2.0);
  for (std::size_t r = 0; r < resources; ++r) {
    const double share = headroom * total_demand / static_cast<double>(resources);
    p.capacities.push_back(std::round(8.0 * share * rng.uniform(0.5, 1.5)) / 8.0);
  }
  const double equal_cost = 0.25 * static_cast<double>(rng.range(0, 20));
  for (std::size_t g = 0; g < groups; ++g) {
    const std::int64_t options = size(shape.max_options);
    for (std::int64_t k = 0; k < options; ++k) {
      Option o;
      o.group = static_cast<std::uint32_t>(g);
      o.resource = rng.chance(degenerate ? 0.25 : 0.1)
                       ? kNoResource
                       : static_cast<std::uint32_t>(rng.below(resources));
      o.unit_demand = demand[g];
      switch (costs) {
        case Costs::kGeneric:
          o.unit_cost = rng.uniform(1.0, 20.0);
          break;
        case Costs::kAllEqual:
          o.unit_cost = equal_cost;
          break;
        case Costs::kQuarterSteps:
          o.unit_cost = 0.25 * static_cast<double>(rng.range(0, 40));
          break;
        case Costs::kNegative:
          o.unit_cost = 0.25 * static_cast<double>(rng.range(-40, 40));
          break;
      }
      p.options.push_back(o);
    }
  }
  return p;
}

void expect_lp_objective(const AssignmentProblem& p, const Assignment& got, double penalty) {
  const LpSolution lp = solve_lp(build_assignment_lp(p, penalty));
  ASSERT_EQ(lp.status, LpStatus::kOptimal);
  const double value = got.penalized_objective(penalty);
  EXPECT_NEAR(value, lp.objective, 1e-7 * std::max(1.0, std::abs(lp.objective)));
}

TEST(AssignmentDifferential, GenericCostsMatchTheOracleBitForBit) {
  core::Rng rng{2017'1212'01};
  for (int instance = 0; instance < 2000; ++instance) {
    SCOPED_TRACE(instance);
    const AssignmentProblem p = random_problem(rng, Costs::kGeneric, false, Shape{});
    const Assignment got = solve_assignment_mcf(p, kPenalty);
    const Assignment want = solve_assignment_ssp(p, kPenalty);
    ASSERT_EQ(got.amounts, want.amounts);
    EXPECT_TRUE(got.complete);
    expect_lp_objective(p, got, kPenalty);
  }
}

TEST(AssignmentDifferential, DegenerateInstancesReachTheOptimum) {
  core::Rng rng{2017'1212'02};
  const Costs kinds[] = {Costs::kAllEqual, Costs::kQuarterSteps, Costs::kNegative};
  const double penalties[] = {3.0, 1e3, kPenalty};
  for (int instance = 0; instance < 3000; ++instance) {
    SCOPED_TRACE(instance);
    const AssignmentProblem p = random_problem(rng, kinds[instance % 3], true, Shape{});
    const double penalty = penalties[rng.below(3)];
    const Assignment got = solve_assignment_mcf(p, penalty);
    const Assignment want = solve_assignment_ssp(p, penalty);
    const double want_value = want.penalized_objective(penalty);
    EXPECT_NEAR(got.penalized_objective(penalty), want_value,
                1e-9 * std::max(1.0, std::abs(want_value)));
    EXPECT_TRUE(got.complete);
    for (const double amount : got.amounts) ASSERT_GE(amount, 0.0);
    expect_lp_objective(p, got, penalty);
  }
}

// The shard-churn round's size: 120 groups, 47 options each, 418 resources.
TEST(AssignmentDifferential, TraceSizedInstancesMatchTheOracleBitForBit) {
  core::Rng rng{2017'1212'03};
  const Shape trace{120, 418, 47, 400, true};
  for (int instance = 0; instance < 3; ++instance) {
    SCOPED_TRACE(instance);
    const AssignmentProblem p = random_problem(rng, Costs::kGeneric, false, trace);
    const Assignment got = solve_assignment_mcf(p, kPenalty);
    const Assignment want = solve_assignment_ssp(p, kPenalty);
    ASSERT_EQ(got.amounts, want.amounts);
    EXPECT_TRUE(got.complete);
  }
}

}  // namespace
}  // namespace vdx::solver
