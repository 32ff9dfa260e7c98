// Cross-backend property tests: every backend must deliver a complete
// assignment, and on exactly-solvable instances the heuristics must land
// within a bounded optimality gap of the exact solvers (DESIGN.md §5).
#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.hpp"
#include "solver/branch_bound.hpp"
#include "solver/greedy.hpp"
#include "solver/lagrangian.hpp"
#include "solver/mincost_flow.hpp"
#include "solver/solver.hpp"

namespace vdx::solver {
namespace {

constexpr double kPenalty = 1e5;

/// Random capacitated assignment instance with per-group uniform demand
/// (the structure every broker problem has).
AssignmentProblem random_instance(std::uint64_t seed, std::size_t groups,
                                  std::size_t resources, std::size_t options_per_group,
                                  double capacity_headroom) {
  core::Rng rng{seed};
  AssignmentProblem p;
  p.group_counts.resize(groups);
  double total_demand = 0.0;
  std::vector<double> group_demand(groups);
  for (std::size_t g = 0; g < groups; ++g) {
    p.group_counts[g] = static_cast<double>(rng.range(1, 8));
    group_demand[g] = 0.5 + 0.5 * static_cast<double>(rng.range(1, 8));
    total_demand += p.group_counts[g] * group_demand[g];
  }
  p.capacities.assign(resources, capacity_headroom * total_demand /
                                     static_cast<double>(resources));
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::size_t o = 0; o < options_per_group; ++o) {
      Option opt;
      opt.group = static_cast<std::uint32_t>(g);
      opt.resource = static_cast<std::uint32_t>(rng.below(resources));
      opt.unit_cost = rng.uniform(1.0, 20.0);
      opt.unit_demand = group_demand[g];
      p.options.push_back(opt);
    }
    // Every group gets one uncapacitated escape hatch (expensive).
    p.options.push_back(
        {static_cast<std::uint32_t>(g), kNoResource, 40.0, group_demand[g]});
  }
  return p;
}

struct InstanceParams {
  std::uint64_t seed;
  std::size_t groups;
  std::size_t resources;
  std::size_t options_per_group;
  double headroom;
};

class BackendProperty : public ::testing::TestWithParam<InstanceParams> {};

TEST_P(BackendProperty, AllBackendsProduceCompleteAssignments) {
  const auto& prm = GetParam();
  const AssignmentProblem p = random_instance(prm.seed, prm.groups, prm.resources,
                                              prm.options_per_group, prm.headroom);
  for (const Backend backend :
       {Backend::kSimplex, Backend::kMinCostFlow, Backend::kGreedy,
        Backend::kLagrangian}) {
    SolveOptions options;
    options.backend = backend;
    options.overflow_penalty = kPenalty;
    const Assignment a = solve(p, options);
    EXPECT_TRUE(a.complete) << to_string(backend);
    for (const double amount : a.amounts) EXPECT_GE(amount, -1e-9) << to_string(backend);
  }
}

TEST_P(BackendProperty, McfMatchesSimplexLpOptimum) {
  const auto& prm = GetParam();
  const AssignmentProblem p = random_instance(prm.seed, prm.groups, prm.resources,
                                              prm.options_per_group, prm.headroom);
  SolveOptions simplex_options;
  simplex_options.backend = Backend::kSimplex;
  simplex_options.overflow_penalty = kPenalty;
  const Assignment lp = solve(p, simplex_options);

  const Assignment flow = solve_assignment_mcf(p, kPenalty);

  // Both solve the same LP; values agree up to demand-scaling quantization.
  const double lp_value = lp.penalized_objective(kPenalty);
  const double flow_value = flow.penalized_objective(kPenalty);
  const double tolerance = 1e-3 * std::max(1.0, std::abs(lp_value)) + 1e-3;
  EXPECT_NEAR(lp_value, flow_value, tolerance);
}

TEST_P(BackendProperty, HeuristicsWithinGapOfLp) {
  const auto& prm = GetParam();
  const AssignmentProblem p = random_instance(prm.seed, prm.groups, prm.resources,
                                              prm.options_per_group, prm.headroom);
  SolveOptions simplex_options;
  simplex_options.backend = Backend::kSimplex;
  simplex_options.overflow_penalty = kPenalty;
  const double lp_value = solve(p, simplex_options).penalized_objective(kPenalty);

  for (const Backend backend : {Backend::kGreedy, Backend::kLagrangian}) {
    SolveOptions options;
    options.backend = backend;
    options.overflow_penalty = kPenalty;
    const double value = solve(p, options).penalized_objective(kPenalty);
    EXPECT_GE(value, lp_value - 1e-6) << to_string(backend);  // LP is a lower bound
    // Calibrated bounds: on instances with capacity headroom the heuristics
    // track the LP within ~20%; on adversarially tight instances (headroom
    // < 1, i.e. overload is *forced*) construction order effects cost up to
    // ~50%. The evaluation pipeline uses the exact MCF backend at trace
    // scale, so these bounds document heuristic behaviour rather than gate
    // result quality.
    const double factor = prm.headroom <= 1.0 ? 1.5 : 1.2;
    EXPECT_LE(value, lp_value * factor + 1.0) << to_string(backend) << " gap too large";
  }
}

TEST_P(BackendProperty, IntegralRoundingPreservesCompleteness) {
  const auto& prm = GetParam();
  const AssignmentProblem p = random_instance(prm.seed, prm.groups, prm.resources,
                                              prm.options_per_group, prm.headroom);
  SolveOptions options;
  options.backend = Backend::kMinCostFlow;
  options.overflow_penalty = kPenalty;
  const Assignment a = evaluate(p, round_to_integers(p, solve(p, options).amounts));
  EXPECT_TRUE(a.complete);
  for (const double amount : a.amounts) {
    EXPECT_NEAR(amount, std::round(amount), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomInstances, BackendProperty,
    ::testing::Values(InstanceParams{1, 4, 3, 3, 1.5}, InstanceParams{2, 8, 4, 4, 1.2},
                      InstanceParams{3, 12, 5, 3, 1.0}, InstanceParams{4, 6, 2, 5, 0.8},
                      InstanceParams{5, 16, 6, 4, 2.0}, InstanceParams{6, 10, 3, 2, 0.6},
                      InstanceParams{7, 20, 8, 5, 1.1},
                      InstanceParams{8, 5, 5, 6, 3.0}));

TEST(BranchBound, ExactOnTinyInstanceBeatsOrMatchesRoundedLp) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const AssignmentProblem p = random_instance(seed, 3, 2, 3, 1.0);
    BranchBoundConfig config;
    config.overflow_penalty = kPenalty;
    const BranchBoundResult exact = solve_branch_bound(p, config);
    EXPECT_TRUE(exact.proved_optimal) << "seed " << seed;
    EXPECT_TRUE(exact.assignment.complete);

    SolveOptions rounded_options;
    rounded_options.backend = Backend::kMinCostFlow;
    rounded_options.overflow_penalty = kPenalty;
    const Assignment rounded =
        evaluate(p, round_to_integers(p, solve(p, rounded_options).amounts));
    EXPECT_LE(exact.assignment.penalized_objective(kPenalty),
              rounded.penalized_objective(kPenalty) + 1e-6)
        << "seed " << seed;
  }
}

TEST(BranchBound, LpBoundIsValid) {
  const AssignmentProblem p = random_instance(11, 4, 3, 3, 0.9);
  SolveOptions lp_options;
  lp_options.backend = Backend::kSimplex;
  lp_options.overflow_penalty = kPenalty;
  const double lp_value = solve(p, lp_options).penalized_objective(kPenalty);

  BranchBoundConfig config;
  config.overflow_penalty = kPenalty;
  const BranchBoundResult exact = solve_branch_bound(p, config);
  // Integral optimum >= LP relaxation.
  EXPECT_GE(exact.assignment.penalized_objective(kPenalty), lp_value - 1e-6);
}

TEST(BranchBound, RejectsFractionalCounts) {
  AssignmentProblem p;
  p.group_counts = {1.5};
  p.options = {{0, kNoResource, 1.0, 1.0}};
  EXPECT_THROW((void)solve_branch_bound(p), std::invalid_argument);
}

TEST(Solver, AutoPicksAndSolves) {
  const AssignmentProblem small = random_instance(21, 3, 2, 2, 1.5);
  const Assignment a = solve(small);  // auto -> simplex
  EXPECT_TRUE(a.complete);

  const AssignmentProblem big = random_instance(22, 300, 20, 8, 1.5);
  const Assignment b = solve(big);  // auto -> mcf
  EXPECT_TRUE(b.complete);
}

TEST(Solver, ToStringCoversAllBackends) {
  EXPECT_EQ(to_string(Backend::kAuto), "auto");
  EXPECT_EQ(to_string(Backend::kSimplex), "simplex");
  EXPECT_EQ(to_string(Backend::kBranchAndBound), "branch-and-bound");
  EXPECT_EQ(to_string(Backend::kMinCostFlow), "min-cost-flow");
  EXPECT_EQ(to_string(Backend::kGreedy), "greedy");
  EXPECT_EQ(to_string(Backend::kLagrangian), "lagrangian");
}

TEST(Lagrangian, DualBoundBelowPrimal) {
  const AssignmentProblem p = random_instance(31, 10, 4, 4, 1.0);
  const LagrangianResult result = solve_lagrangian(p);
  EXPECT_TRUE(result.assignment.complete);
  // Weak duality: dual bound <= optimal <= our primal value.
  EXPECT_LE(result.dual_bound, result.assignment.objective + 1e-6);
  for (const double dual : result.duals) EXPECT_GE(dual, 0.0);
}

TEST(Greedy, RespectsCapacityWhenFeasible) {
  AssignmentProblem p;
  p.group_counts = {5.0, 5.0};
  p.capacities = {5.0, 5.0};
  p.options = {
      {0, 0, 1.0, 1.0}, {0, 1, 2.0, 1.0},
      {1, 0, 1.0, 1.0}, {1, 1, 2.0, 1.0},
  };
  const Assignment a = solve_greedy(p);
  EXPECT_TRUE(a.complete);
  EXPECT_NEAR(a.overflow_demand, 0.0, 1e-9);
}

}  // namespace
}  // namespace vdx::solver
