// The network simplex behind solve_assignment_mcf(), checked two ways:
//   - graph level, against the Bellman-Ford successive-shortest-path
//     reference (tests/support/reference_mincost_flow.hpp);
//   - assignment level, against the successive-shortest-path solver that
//     produced every committed golden (tests/support/ssp_mincost_flow.hpp)
//     and, where the instance is small enough, the tableau simplex.
// On generic real costs the optimum is unique, so the amounts must match the
// oracle bit for bit; on degenerate instances (ties, zero groups, negative
// costs, overload) any optimum will do, so only the objective is compared.
// Every solve starts from an explicit basis: the assignment solve from its
// crash basis, whose corners are pinned on hand-made cases, and the graph
// tests from bases built here. Hints that must be refused are pinned too,
// including every basis of an instance that has no feasible flow.
#include "solver/mincost_flow.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
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
  // Start with 0 -> 3 full and the other 3 units of node 0 on 0 -> 2; node 2
  // hangs below 1 on the unit 1 -> 2 carries, and 1 sends the rest to 3.
  const NetworkSimplex::Basis start{{a02, a13, a12, NetworkSimplex::kRoot}, {a03}};
  net.solve(start);
  EXPECT_GT(net.pivots(), 0u);
  EXPECT_EQ(net.flow(a02), 4);
  EXPECT_EQ(net.flow(a03), 1);
  EXPECT_EQ(net.flow(a12), 0);
  EXPECT_EQ(net.flow(a13), 3);
  // Each call starts from its basis, not from the last optimum.
  const std::uint64_t pivots = net.pivots();
  net.solve(start);
  EXPECT_EQ(net.pivots(), pivots);
  EXPECT_EQ(net.flow(a02), 4);
  EXPECT_EQ(net.flow(a13), 3);
}

// No feasible flow, no accepted basis: the cut holds 3 of the 4 units, and
// each of the instance's 108 bases (each node's parent arc among the root
// and both arcs, with any set of arcs at capacity) is refused.
TEST(NetworkSimplex, InfeasibleInstanceHasNoAcceptedBasis) {
  NetworkSimplex net{{4, 0, -4}};
  (void)net.add_arc(0, 1, 10, 1.0);
  (void)net.add_arc(1, 2, 3, 1.0);
  const NetworkSimplex::ArcId parents[] = {NetworkSimplex::kRoot, 0, 1};
  for (const NetworkSimplex::ArcId p0 : parents) {
    for (const NetworkSimplex::ArcId p1 : parents) {
      for (const NetworkSimplex::ArcId p2 : parents) {
        for (unsigned upper = 0; upper < 4; ++upper) {
          NetworkSimplex::Basis basis{{p0, p1, p2}, {}};
          for (NetworkSimplex::ArcId a = 0; a < 2; ++a) {
            if (((upper >> a) & 1u) != 0) basis.at_upper.push_back(a);
          }
          SCOPED_TRACE(::testing::Message() << "parents " << p0 << ' ' << p1 << ' ' << p2
                                            << ", upper mask " << upper);
          EXPECT_THROW(net.solve(basis), std::invalid_argument);
        }
      }
    }
  }
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
// arcs then hold a min-cost maximum flow, which the reference computes. The
// solve starts with everything on the bypass and every node on the root, so
// each tree arc carries nothing and has room: a strongly feasible basis.
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
    const NetworkSimplex::Basis start{
        std::vector<NetworkSimplex::ArcId>(nodes, NetworkSimplex::kRoot), {bypass}};
    net.solve(start);
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

// Hand-made corners of the crash basis: each must be accepted and reach the
// oracle's optimum.
void expect_optimal_from_crash(const AssignmentProblem& p, double penalty) {
  const Assignment got = solve_assignment_mcf(p, penalty);
  const double want = solve_assignment_ssp(p, penalty).penalized_objective(penalty);
  EXPECT_NEAR(got.penalized_objective(penalty), want, 1e-9 * std::max(1.0, std::abs(want)));
  EXPECT_TRUE(got.complete);
}

TEST(CrashStart, OneGroupHoldingAllSupplyStartsOnTheRoot) {
  // The cheapest option's arc would be full, so it starts at its capacity.
  AssignmentProblem p;
  p.group_counts = {6.0, 0.0};
  p.capacities = {4.0, 10.0};
  p.options = {{0, 0, 1.0, 1.0}, {0, 1, 2.0, 1.0}, {1, 1, 1.0, 1.0}};
  const AssignmentNetwork built = build_assignment_network(p, kPenalty);
  EXPECT_EQ(built.crash.parent_arc[0], NetworkSimplex::kRoot);
  EXPECT_EQ(built.crash.at_upper.front(), 0u);
  expect_optimal_from_crash(p, kPenalty);
  expect_optimal_from_crash(p, 0.5);  // overloading resource 0 is cheaper
}

TEST(CrashStart, ZeroCapacityResourceTakingAllLoad) {
  // Both arcs of resource 0 would be full: they start at their capacities
  // and the resource hangs off the root.
  AssignmentProblem p;
  p.group_counts = {3.0, 2.0};
  p.capacities = {0.0, 10.0};
  p.options = {{0, 0, 1.0, 1.0}, {0, 1, 5.0, 1.0}, {1, 0, 1.0, 1.0}, {1, 1, 4.0, 1.0}};
  const AssignmentNetwork built = build_assignment_network(p, kPenalty);
  EXPECT_EQ(built.crash.parent_arc[2], NetworkSimplex::kRoot);
  expect_optimal_from_crash(p, kPenalty);
  expect_optimal_from_crash(p, 2.0);
}

TEST(CrashStart, LoadExactlyAtCapacity) {
  AssignmentProblem p;
  p.group_counts = {3.0, 2.0};
  p.capacities = {5.0, 10.0};
  p.options = {{0, 0, 1.0, 1.0}, {0, 1, 5.0, 1.0}, {1, 0, 1.0, 1.0}, {1, 1, 4.0, 1.0}};
  const AssignmentNetwork built = build_assignment_network(p, kPenalty);
  const auto overflow = static_cast<NetworkSimplex::ArcId>(p.options.size() + 1);
  EXPECT_EQ(built.crash.parent_arc[2], overflow);  // the full capacity arc is not a tree arc
  expect_optimal_from_crash(p, kPenalty);
}

TEST(CrashStart, OptionsStraightToTheSink) {
  AssignmentProblem p;
  p.group_counts = {4.0, 3.0, 2.0};
  p.capacities = {2.0};
  p.options = {{0, kNoResource, 1.0, 1.0}, {0, 0, 3.0, 1.0},
               {1, 0, 1.0, 1.0},           {1, kNoResource, 2.0, 1.0},
               {2, kNoResource, 7.0, 1.0}};
  expect_optimal_from_crash(p, kPenalty);
  expect_optimal_from_crash(p, 0.25);
}

TEST(CrashStart, ZeroCountGroups) {
  AssignmentProblem p;
  p.group_counts = {0.0, 5.0, 0.0};
  p.capacities = {3.0};
  p.options = {{0, 0, 1.0, 1.0}, {1, 0, 2.0, 1.0}, {1, kNoResource, 9.0, 1.0}};  // group 2 has none
  expect_optimal_from_crash(p, kPenalty);
  p.group_counts = {0.0, 0.0, 0.0};
  expect_optimal_from_crash(p, kPenalty);
}

TEST(CrashStart, TiesGoToTheLowestOption) {
  AssignmentProblem p;
  p.group_counts = {4.0, 4.0};
  p.capacities = {3.0, 3.0, 8.0};
  p.options = {{0, 1, 2.0, 1.0}, {0, 0, 2.0, 1.0}, {0, 2, 2.0, 1.0},
               {1, 2, 5.0, 1.0}, {1, 0, 1.0, 1.0}, {1, 1, 1.0, 1.0}};
  const AssignmentNetwork built = build_assignment_network(p, kPenalty);
  EXPECT_EQ(built.crash.parent_arc[0], 0u);
  EXPECT_EQ(built.crash.parent_arc[1], 4u);
  expect_optimal_from_crash(p, kPenalty);
}

TEST(CrashStart, NeedsNoPivotWhenEveryCheapestOptionFits) {
  AssignmentProblem p;
  p.group_counts = {4.0, 3.0, 5.0};
  p.capacities = {8.0, 6.0};
  p.options = {{0, 0, 1.0, 1.0}, {0, 1, 3.0, 1.0}, {1, 0, 2.0, 1.0},
               {1, 1, 2.5, 1.0}, {2, 1, 1.5, 1.0}, {2, kNoResource, 9.0, 1.0}};
  AssignmentNetwork built = build_assignment_network(p, kPenalty);
  built.network.solve(built.crash);
  EXPECT_EQ(built.network.pivots(), 0u);
  EXPECT_EQ(built.network.flow(0), 4000);
  EXPECT_EQ(built.network.flow(2), 3000);
  EXPECT_EQ(built.network.flow(4), 5000);
}

TEST(CrashStart, RefusesAnInvalidHintAndChangesNothing) {
  // Source 0 sends 4 to sink 3 over 0 -> 1 -> 3 or 0 -> 2 -> 3.
  NetworkSimplex net{{4, 0, 0, -4}};
  const auto a01 = net.add_arc(0, 1, 10, 1.0);
  const auto a02 = net.add_arc(0, 2, 10, 2.0);
  const auto a13 = net.add_arc(1, 3, 3, 1.0);
  const auto a23 = net.add_arc(2, 3, 10, 1.0);
  const auto a10 = net.add_arc(1, 0, 10, 1.0);
  const auto a11 = net.add_arc(1, 1, 10, 1.0);
  constexpr auto kRoot = NetworkSimplex::kRoot;
  // Valid: 0 -> 2 -> 3 carries everything, 1 hangs off 3, 3 off the root.
  const NetworkSimplex::Basis good{{a02, a13, a23, kRoot}, {}};
  net.solve(good);
  EXPECT_GT(net.pivots(), 0u);
  const std::vector<std::int64_t> solved = {3, 1, 3, 1};
  const auto expect_solved = [&] {
    for (NetworkSimplex::ArcId a = 0; a < 4; ++a) EXPECT_EQ(net.flow(a), solved[a]);
  };
  expect_solved();
  const auto refusal = [](NetworkSimplex& network, const NetworkSimplex::Basis& basis) {
    try {
      network.solve(basis);
    } catch (const std::invalid_argument& e) {
      return std::string{e.what()};
    }
    return std::string{"accepted"};
  };
  const std::pair<NetworkSimplex::Basis, const char*> bad[] = {
      {{{a02, a13, a23}, {}}, "one parent arc per node"},
      {{{a01, a10, a23, kRoot}, {}}, "does not span"},       // 0 and 1 form a cycle
      {{{a02, a11, a23, kRoot}, {}}, "does not span"},       // 1 hangs off itself
      {{{a23, a13, a23, kRoot}, {}}, "does not touch"},
      {{{a02, a13, 99, kRoot}, {}}, "unknown parent arc"},
      {{{a02, a13, a23, kRoot}, {a13}}, "at_upper"},         // a tree arc
      {{{a02, a13, a23, kRoot}, {a01, a01}}, "at_upper"},    // twice
      {{{a02, a13, a23, kRoot}, {a01}}, "leaves its bounds"},  // 0 sends 10 of its 4
      {{{kRoot, a13, kRoot, kRoot}, {}}, "leaves its bounds"},  // 3 draws on the root
      {{{a02, a01, a23, kRoot}, {}}, "strongly feasible"},  // 1 below 0 on an empty arc
  };
  for (const auto& [basis, why] : bad) {
    SCOPED_TRACE(why);
    EXPECT_NE(refusal(net, basis).find(why), std::string::npos) << refusal(net, basis);
    expect_solved();
  }
  // Not strongly feasible: with 0 -> 2 -> 3 full, the tree's 1 -> 3 must
  // carry 3 units and is full too, so nothing more can climb from 1.
  NetworkSimplex tight{{4, 0, 0, -4}};
  (void)tight.add_arc(0, 1, 10, 1.0);
  (void)tight.add_arc(0, 2, 1, 2.0);
  (void)tight.add_arc(1, 3, 3, 1.0);
  (void)tight.add_arc(2, 3, 1, 1.0);
  EXPECT_NE(refusal(tight, {{0, 2, kRoot, kRoot}, {1, 3}}).find("strongly feasible"),
            std::string::npos);
  net.solve(good);  // a valid hint still solves to the same optimum
  expect_solved();
}

}  // namespace
}  // namespace vdx::solver
