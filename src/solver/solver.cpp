#include "solver/solver.hpp"

#include <stdexcept>
#include <string>

#include "solver/branch_bound.hpp"
#include "solver/greedy.hpp"
#include "solver/lagrangian.hpp"
#include "solver/lp_bridge.hpp"
#include "solver/mincost_flow.hpp"
#include "solver/simplex.hpp"

namespace vdx::solver {

std::string_view to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::kAuto:
      return "auto";
    case Backend::kSimplex:
      return "simplex";
    case Backend::kBranchAndBound:
      return "branch-and-bound";
    case Backend::kMinCostFlow:
      return "min-cost-flow";
    case Backend::kGreedy:
      return "greedy";
    case Backend::kLagrangian:
      return "lagrangian";
  }
  return "unknown";
}

namespace {

Backend pick_backend(const AssignmentProblem& problem) {
  const std::size_t rows = problem.group_count() + problem.resource_count();
  const std::size_t cols = problem.options.size();
  if (cols <= 2000 && rows <= 300) return Backend::kSimplex;
  if (uniform_group_demand(problem).has_value()) return Backend::kMinCostFlow;
  return Backend::kLagrangian;
}

}  // namespace

Assignment solve(const AssignmentProblem& problem, const SolveOptions& options) {
  problem.validate();

  Backend backend = options.backend;
  if (backend == Backend::kAuto) backend = pick_backend(problem);

  const obs::SpanTracer::Scoped span{options.obs.tracer, "solver.solve"};
  if (options.obs.metrics != nullptr) {
    options.obs.metrics
        ->counter("solver.invocations", {{"backend", std::string{to_string(backend)}}})
        .add();
    options.obs.metrics->histogram("solver.instance_options")
        .observe(static_cast<double>(problem.options.size()));
  }
  options.obs.record(obs::EventKind::kSolve, static_cast<std::uint32_t>(backend),
                     static_cast<double>(problem.options.size()));

  Assignment result;
  switch (backend) {
    case Backend::kSimplex: {
      const LpSolution lp =
          solve_lp(build_assignment_lp(problem, options.overflow_penalty));
      if (lp.status != LpStatus::kOptimal) {
        throw std::runtime_error{"solve: simplex did not reach optimality"};
      }
      result = decode_assignment_lp(problem, lp);
      break;
    }
    case Backend::kBranchAndBound: {
      BranchBoundConfig config;
      config.overflow_penalty = options.overflow_penalty;
      result = solve_branch_bound(problem, config).assignment;
      break;
    }
    case Backend::kMinCostFlow:
      result = solve_assignment_mcf(problem, options.overflow_penalty);
      break;
    case Backend::kGreedy: {
      GreedyConfig config;
      config.overflow_penalty = options.overflow_penalty;
      result = solve_greedy(problem, config);
      break;
    }
    case Backend::kLagrangian: {
      LagrangianConfig config;
      config.overflow_penalty = options.overflow_penalty;
      result = solve_lagrangian(problem, config).assignment;
      break;
    }
    case Backend::kAuto:
      throw std::logic_error{"solve: unresolved auto backend"};
  }
  return result;
}

}  // namespace vdx::solver
