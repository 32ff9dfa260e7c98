#include "solver/problem.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

namespace vdx::solver {
namespace {

AssignmentProblem tiny_problem() {
  AssignmentProblem p;
  p.group_counts = {3.0, 2.0};
  p.capacities = {4.0, 10.0};
  p.options = {
      {0, 0, 1.0, 1.0},           // group 0 -> resource 0
      {0, 1, 2.0, 1.0},           // group 0 -> resource 1
      {1, 0, 1.5, 2.0},           // group 1 -> resource 0 (demand 2/client)
      {1, kNoResource, 5.0, 1.0}, // group 1 -> uncapacitated
  };
  return p;
}

TEST(Problem, ValidateAcceptsWellFormed) {
  EXPECT_NO_THROW(tiny_problem().validate());
}

TEST(Problem, ValidateCatchesDefects) {
  AssignmentProblem p = tiny_problem();
  p.options[0].group = 9;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = tiny_problem();
  p.options[0].resource = 9;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = tiny_problem();
  p.group_counts[0] = -1.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = tiny_problem();
  p.capacities[0] = -2.0;
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = tiny_problem();
  p.options[2].unit_demand = 0.0;  // resource-consuming with zero demand
  EXPECT_THROW(p.validate(), std::invalid_argument);

  p = tiny_problem();
  p.options.clear();
  EXPECT_THROW(p.validate(), std::invalid_argument);  // groups with no options
}

TEST(Problem, TotalClients) {
  EXPECT_DOUBLE_EQ(tiny_problem().total_clients(), 5.0);
}

TEST(Evaluate, ObjectiveAndCompleteness) {
  const AssignmentProblem p = tiny_problem();
  const Assignment a = evaluate(p, {3.0, 0.0, 2.0, 0.0});
  EXPECT_DOUBLE_EQ(a.objective, 3.0 * 1.0 + 2.0 * 1.5);
  EXPECT_TRUE(a.complete);
  // Resource 0 load: 3*1 + 2*2 = 7 > cap 4 -> overflow 3.
  EXPECT_DOUBLE_EQ(a.overflow_demand, 3.0);
  EXPECT_DOUBLE_EQ(a.penalized_objective(10.0), a.objective + 30.0);
}

TEST(Evaluate, IncompleteWhenGroupUnderassigned) {
  const AssignmentProblem p = tiny_problem();
  const Assignment a = evaluate(p, {1.0, 0.0, 2.0, 0.0});
  EXPECT_FALSE(a.complete);
}

TEST(Evaluate, RejectsNegativeAmountsAndArityMismatch) {
  const AssignmentProblem p = tiny_problem();
  EXPECT_THROW(evaluate(p, {1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(evaluate(p, {-1.0, 0.0, 0.0, 0.0}), std::invalid_argument);
}

TEST(ResourceLoads, AccumulatesDemand) {
  const AssignmentProblem p = tiny_problem();
  const auto loads = resource_loads(p, std::vector<double>{1.0, 2.0, 1.0, 1.0});
  ASSERT_EQ(loads.size(), 2u);
  EXPECT_DOUBLE_EQ(loads[0], 1.0 * 1.0 + 1.0 * 2.0);
  EXPECT_DOUBLE_EQ(loads[1], 2.0 * 1.0);
}

TEST(RoundToIntegers, PreservesGroupTotals) {
  const AssignmentProblem p = tiny_problem();
  const auto rounded = round_to_integers(p, std::vector<double>{1.4, 1.6, 0.5, 1.5});
  double g0 = rounded[0] + rounded[1];
  double g1 = rounded[2] + rounded[3];
  EXPECT_DOUBLE_EQ(g0, 3.0);
  EXPECT_DOUBLE_EQ(g1, 2.0);
  for (const double r : rounded) {
    EXPECT_DOUBLE_EQ(r, std::round(r));  // integral
    EXPECT_GE(r, 0.0);
  }
}

TEST(RoundToIntegers, AlreadyIntegralIsUnchanged) {
  const AssignmentProblem p = tiny_problem();
  const std::vector<double> amounts{3.0, 0.0, 2.0, 0.0};
  const auto rounded = round_to_integers(p, amounts);
  EXPECT_EQ(rounded, amounts);
}

TEST(RoundToIntegers, LargestRemainderWins) {
  AssignmentProblem p;
  p.group_counts = {1.0};
  p.options = {{0, kNoResource, 1.0, 1.0}, {0, kNoResource, 2.0, 1.0}};
  // 0.3 vs 0.7 fractional: the 0.7 option should receive the unit.
  const auto rounded = round_to_integers(p, std::vector<double>{0.3, 0.7});
  EXPECT_DOUBLE_EQ(rounded[0], 0.0);
  EXPECT_DOUBLE_EQ(rounded[1], 1.0);
}

TEST(UniformGroupDemand, NegativeNoResourceDemandIsOrderIndependent) {
  // validate() accepts any demand on a kNoResource option, so a negative
  // first demand must not read as "no option seen yet".
  AssignmentProblem p;
  p.group_counts = {1.0};
  p.capacities = {10.0};
  p.options = {{0, kNoResource, 1.0, -0.5}, {0, 0, 1.0, 2.0}};
  ASSERT_NO_THROW(p.validate());
  EXPECT_FALSE(uniform_group_demand(p).has_value());
  std::swap(p.options[0], p.options[1]);
  ASSERT_NO_THROW(p.validate());
  EXPECT_FALSE(uniform_group_demand(p).has_value());
}

}  // namespace
}  // namespace vdx::solver
