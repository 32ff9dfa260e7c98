// bench_vdx shared plumbing: run options, the metric catalogue, exact-sample
// statistics and the Result every workload fills in.
//
// The catalogue below is the single list of metric names the binary can
// print; BENCHMARK.json at the repository root names the same metrics, and
// run.py refuses a run whose printed names differ from it.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace vdx::bench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// ScenarioConfig::seed of every workload. The deployment under test —
/// world, CDN catalog, mapping — stays the paper-scale one whatever the
/// run's seed; the seed drives the client demand. A per-seed world would
/// change the marketplace's size from run to run and swamp the spread the
/// benchmark's bounds are set from.
inline constexpr std::uint64_t kDeploymentSeed = 2017;

struct Options {
  std::string workload;
  /// Drives every generated client session (arrival streams, feeds and the
  /// shard churn stream).
  std::uint64_t seed = 2017;
  /// Measurement budget: repetitions run until their measured time reaches
  /// it (at least three; see repeat_for).
  double seconds = 20.0;
  /// Traced run: one untraced pass plus one traced pass; per-layer metrics.
  bool trace = false;
  /// Span JSONL destination of the traced pass ("" = not written).
  std::string trace_out;
  /// Shrunken sizes for the CI smoke test.
  bool smoke = false;
};

struct MetricSpec {
  std::string_view name;
  std::string_view unit;
};

/// Printed by untraced runs.
inline constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
    {"sessions_per_s", "1/s"},
    {"rounds_per_s", "1/s"},
    {"round_ms_p50", "ms"},
    {"round_ms_p90", "ms"},
};

/// Layers whose self time the traced run attributes; each becomes
/// `<layer>_s` (seconds) and `<layer>_share` (of the traced wall time).
inline constexpr std::string_view kTimedLayers[] = {
    "trace.generate",    "sim.store.admit",  "sim.store.drop",
    "sim.store.groups",  "sim.background.place", "sim.design_round",
    "sim.assign",        "sim.metrics",      "sim.churn",
    "cdn.menus.build",   "proto.gather",     "proto.share",
    "proto.matching",    "proto.announce",   "proto.optimize",
    "proto.accept",      "broker.optimize",  "solver.solve",
    "serve.feed",        "serve.daemon_self", "state.fs",
    "shard.push_delta",  "shard.run_round",  "unattributed",
};

/// Per-layer counts and ratios, printed by traced runs next to the timed
/// layers. A layer a workload does not exercise reads 0.
inline constexpr MetricSpec kPerLayerCounts[] = {
    {"wall_s", "s"},
    {"rounds", "count"},
    {"tracing.overhead_frac", "frac"},
    {"trace.sessions", "count"},
    {"sim.active_peak", "count"},
    {"sim.design_round_ms_p50", "ms"},
    {"sim.groups_per_round", "count"},
    {"sim.background.recomputes", "count"},
    {"proto.messages", "count"},
    {"proto.bids_received", "count"},
    {"proto.accepts_sent", "count"},
    {"proto.bytes_on_wire", "bytes"},
    {"proto.accept_fanout", "ratio"},
    {"market.shed_mbps", "Mbps"},
    {"market.shed_rounds", "count"},
    {"market.groups_per_round", "count"},
    {"market.refused_frac", "frac"},
    {"serve.queue_dropped", "count"},
    {"state.checkpoints", "count"},
    {"state.checkpoint_bytes", "bytes"},
    {"serve.checkpoint_round_extra_ms", "ms"},
    {"shard.delta_sessions", "count"},
};

/// Everything one workload run reports.
struct Result {
  std::map<std::string, double, std::less<>> metrics;
  /// One line per correctness check that did not hold.
  std::vector<std::string> failures;
  std::size_t checks = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// FNV-1a of the workload's deterministic output (hex).
  std::string output_digest;
  /// Rounds behind round_ms_p50/p90, and the repetitions of each.
  std::size_t round_samples = 0;
  std::size_t repetitions = 0;

  void set(std::string_view name, double value) {
    metrics.insert_or_assign(std::string{name}, value);
  }
  void check(bool ok, std::string_view what) {
    ++checks;
    if (!ok) failures.emplace_back(what);
  }
  [[nodiscard]] bool correct() const noexcept { return failures.empty(); }
};

/// Linear-interpolated quantile (q in [0, 1]) of exact samples; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> samples, double q);
[[nodiscard]] inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();

/// FNV-1a 64 (state::fnv1a) of `bytes`, as 16 hex digits.
[[nodiscard]] std::string digest_of(std::string_view bytes);

/// Timings of repetitions that do identical work: the same seed gives the
/// same inputs, so round i costs the same in every repetition. Interference
/// from other tenants of the machine only ever slows a round down, and it
/// comes and goes over seconds, so a round's time is its minimum over the
/// repetitions. The end-to-end metrics are computed from those per-round
/// times: throughput from their sum, latency as their median and p90.
class Repetitions {
 public:
  /// One repetition: its set-up, its rounds, and the wall time of the
  /// measured call (which may also spend time outside the rounds).
  void add(double setup_s, std::vector<double> round_ms, double wall_s);

  /// Sets setup_s, sessions_per_s (`sessions` per repetition), rounds_per_s,
  /// round_ms_p50/p90, round_samples and repetitions.
  void report(Result& result, double sessions) const;

 private:
  std::vector<double> setup_s_;
  std::vector<std::vector<double>> round_ms_;
  std::vector<double> outside_s_;
};

}  // namespace vdx::bench
