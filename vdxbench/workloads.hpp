// The five bench_vdx workloads, as three parameterised runners. Each one
// builds its inputs from Options::seed, measures, checks its outputs and
// returns the metrics of the requested mode (untraced or traced).
#pragma once

#include <cstddef>
#include <cstdio>

#include "bench.hpp"

namespace vdx::bench {

/// StreamingTimeline::run, Marketplace design, broker sessions plus 3x
/// background streamed over `hours` in 300 s epochs.
struct StreamShape {
  std::size_t broker_sessions = 0;
  double hours = 0.0;
};
[[nodiscard]] Result run_stream(const Options& options, const StreamShape& shape);

/// ServeDaemon (monolith) over a GeneratorFeed, one-minute rounds.
struct ServeShape {
  double sessions_per_hour = 0.0;
  double hours = 0.0;
  /// ExchangeConfig::overload.demand_budget_mbps (0 = no admission control).
  double budget_mbps = 0.0;
  /// Checkpoint period in rounds into an in-memory state::FaultFs (0 = off).
  std::size_t checkpoint_every = 0;
  /// Leading rounds, while the population fills up, left out of the
  /// end-to-end metrics.
  std::size_t warmup_rounds = 0;
};
[[nodiscard]] Result run_serve(const Options& options, const ServeShape& shape);

/// ShardedExchange fed session deltas: `population` prefilled sessions,
/// `churn` adds and `churn` removes before each of `rounds` rounds.
struct ShardShape {
  std::size_t population = 0;
  std::size_t churn = 0;
  std::size_t rounds = 0;
};
[[nodiscard]] Result run_shard(const Options& options, const ShardShape& shape);

/// Runs `repetition(index)` (which returns its measured seconds) at least
/// three times and until the measured seconds reach options.seconds;
/// exactly three times under --smoke.
template <typename Repetition>
void repeat_for(const Options& options, Repetition&& repetition) {
  constexpr std::size_t kMinRepetitions = 3;
  double measured = 0.0;
  std::size_t done = 0;
  do {
    const double seconds = repetition(done++);
    std::fprintf(stderr, "[%s] repetition %zu: %.4f s measured\n",
                 options.workload.c_str(), done, seconds);
    measured += seconds;
  } while (done < kMinRepetitions || (!options.smoke && measured < options.seconds));
}

}  // namespace vdx::bench
