#include "solver/problem.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace vdx::solver {

void AssignmentProblem::validate() const {
  std::vector<std::uint8_t> has_option(group_counts.size(), 0);
  for (std::size_t g = 0; g < group_counts.size(); ++g) {
    if (!(group_counts[g] >= 0.0) || !std::isfinite(group_counts[g])) {
      throw std::invalid_argument{"AssignmentProblem: group count must be finite >= 0"};
    }
  }
  for (const double cap : capacities) {
    if (!(cap >= 0.0) || !std::isfinite(cap)) {
      throw std::invalid_argument{"AssignmentProblem: capacity must be finite >= 0"};
    }
  }
  for (std::size_t i = 0; i < options.size(); ++i) {
    const Option& o = options[i];
    if (o.group >= group_counts.size()) {
      throw std::invalid_argument{"AssignmentProblem: option " + std::to_string(i) +
                                  " references unknown group"};
    }
    if (o.resource != kNoResource && o.resource >= capacities.size()) {
      throw std::invalid_argument{"AssignmentProblem: option " + std::to_string(i) +
                                  " references unknown resource"};
    }
    if (!std::isfinite(o.unit_cost)) {
      throw std::invalid_argument{"AssignmentProblem: option cost must be finite"};
    }
    if (o.resource != kNoResource && !(o.unit_demand > 0.0)) {
      throw std::invalid_argument{
          "AssignmentProblem: resource-consuming option needs unit_demand > 0"};
    }
    has_option[o.group] = 1;
  }
  for (std::size_t g = 0; g < group_counts.size(); ++g) {
    if (group_counts[g] > 0.0 && !has_option[g]) {
      throw std::invalid_argument{"AssignmentProblem: group " + std::to_string(g) +
                                  " has clients but no options"};
    }
  }
}

double AssignmentProblem::total_clients() const noexcept {
  return std::accumulate(group_counts.begin(), group_counts.end(), 0.0);
}

Assignment evaluate(const AssignmentProblem& problem, std::vector<double> amounts) {
  if (amounts.size() != problem.options.size()) {
    throw std::invalid_argument{"evaluate: amounts arity mismatch"};
  }
  Assignment out;
  out.amounts = std::move(amounts);

  std::vector<double> assigned(problem.group_count(), 0.0);
  std::vector<double> loads(problem.resource_count(), 0.0);
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const double a = out.amounts[i];
    if (a == 0.0) continue;
    if (!(a >= 0.0) || !std::isfinite(a)) {
      throw std::invalid_argument{"evaluate: negative or non-finite amount"};
    }
    const Option& o = problem.options[i];
    out.objective += a * o.unit_cost;
    assigned[o.group] += a;
    if (o.resource != kNoResource) loads[o.resource] += a * o.unit_demand;
  }

  out.complete = true;
  constexpr double kTol = 1e-6;
  for (std::size_t g = 0; g < problem.group_count(); ++g) {
    if (assigned[g] < problem.group_counts[g] * (1.0 - kTol) - kTol ||
        assigned[g] > problem.group_counts[g] * (1.0 + kTol) + kTol) {
      out.complete = false;
    }
  }
  for (std::size_t r = 0; r < problem.resource_count(); ++r) {
    out.overflow_demand += std::max(0.0, loads[r] - problem.capacities[r]);
  }
  return out;
}

std::optional<std::vector<double>> uniform_group_demand(const AssignmentProblem& problem) {
  std::vector<double> demand(problem.group_count(), -1.0);
  // "Seen" is its own flag: a kNoResource option may carry any demand,
  // negative included, so no demand value can double as the sentinel.
  std::vector<bool> seen(problem.group_count(), false);
  for (const Option& o : problem.options) {
    if (!seen[o.group]) {
      seen[o.group] = true;
      demand[o.group] = o.unit_demand;
    }
    if (std::abs(demand[o.group] - o.unit_demand) > 1e-9 * std::max(1.0, o.unit_demand)) {
      return std::nullopt;
    }
  }
  return demand;
}

std::vector<double> resource_loads(const AssignmentProblem& problem,
                                   std::span<const double> amounts) {
  if (amounts.size() != problem.options.size()) {
    throw std::invalid_argument{"resource_loads: amounts arity mismatch"};
  }
  std::vector<double> loads(problem.resource_count(), 0.0);
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    const Option& o = problem.options[i];
    if (o.resource != kNoResource) loads[o.resource] += amounts[i] * o.unit_demand;
  }
  return loads;
}

std::vector<double> round_to_integers(const AssignmentProblem& problem,
                                      std::span<const double> amounts) {
  if (amounts.size() != problem.options.size()) {
    throw std::invalid_argument{"round_to_integers: amounts arity mismatch"};
  }
  std::vector<double> rounded(amounts.size(), 0.0);

  // Options of each group, so remainders can be settled within the group.
  std::vector<std::vector<std::size_t>> by_group(problem.group_count());
  for (std::size_t i = 0; i < problem.options.size(); ++i) {
    by_group[problem.options[i].group].push_back(i);
  }

  for (std::size_t g = 0; g < problem.group_count(); ++g) {
    const auto target = static_cast<long long>(std::llround(problem.group_counts[g]));
    long long floored_total = 0;
    std::vector<std::pair<double, std::size_t>> remainders;  // (-frac, option)
    for (const std::size_t i : by_group[g]) {
      const double floored = std::floor(amounts[i] + 1e-9);
      rounded[i] = floored;
      floored_total += static_cast<long long>(floored);
      remainders.emplace_back(-(amounts[i] - floored), i);
    }
    std::sort(remainders.begin(), remainders.end());
    long long deficit = target - floored_total;
    for (const auto& [neg_frac, i] : remainders) {
      if (deficit <= 0) break;
      rounded[i] += 1.0;
      --deficit;
    }
    // If fp noise left a deficit beyond the number of options with nonzero
    // remainder, top up the cheapest option.
    while (deficit > 0 && !by_group[g].empty()) {
      std::size_t best = by_group[g].front();
      for (const std::size_t i : by_group[g]) {
        if (problem.options[i].unit_cost < problem.options[best].unit_cost) best = i;
      }
      rounded[best] += 1.0;
      --deficit;
    }
  }
  return rounded;
}

}  // namespace vdx::solver
