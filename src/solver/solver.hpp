// Unified front-end over the solver backends.
//
// Backend ladder (DESIGN.md §5):
//   kSimplex       exact LP relaxation (dense two-phase simplex)
//   kBranchAndBound exact integral solve (simplex + B&B) — small instances
//   kMinCostFlow   exact LP relaxation via network flow — needs per-group
//                  uniform demand (always true for Share-grouped clients)
//   kGreedy        regret greedy + local search — any size
//   kLagrangian    dual ascent + priced greedy — any size
//   kAuto          picks by instance size and structure
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/observe.hpp"
#include "solver/problem.hpp"

namespace vdx::solver {

enum class Backend : std::uint8_t {
  kAuto,
  kSimplex,
  kBranchAndBound,
  kMinCostFlow,
  kGreedy,
  kLagrangian,
};

[[nodiscard]] std::string_view to_string(Backend backend) noexcept;

struct SolveOptions {
  Backend backend = Backend::kAuto;
  /// Penalty per demand unit above capacity (soft-capacity price).
  double overflow_penalty = 1e5;
  /// Observability sinks (no-op by default): per-invocation span, a
  /// `solver.invocations{backend=...}` counter, instance-size histogram,
  /// and a kSolve journal event.
  obs::Observer obs;
};

/// Solves the assignment problem with the selected backend. Always returns a
/// complete assignment (every group fully placed); capacity excess shows up
/// in Assignment::overflow_demand.
[[nodiscard]] Assignment solve(const AssignmentProblem& problem,
                               const SolveOptions& options = {});

}  // namespace vdx::solver
