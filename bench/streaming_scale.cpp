// Streaming-scale bench (ROADMAP "millions of users"; DESIGN.md §9): drive
// the event-driven StreamingTimeline over a multi-hour, million-session
// horizon fed straight from chunked generators — the full trace never
// exists in memory. Reports end-to-end throughput as
// timeline.sessions_per_sec plus the engine's own timeline.* metrics.
//
//   bench_streaming_scale                       # 1M broker sessions, 6 hours
//   bench_streaming_scale --sessions 2e5 --hours 2 --epoch 300
#include "bench_common.hpp"

#include <cmath>

#include "sim/streaming.hpp"

namespace {


}  // namespace

int main(int argc, char** argv) {
  using namespace vdx;
  const auto [sessions, hours, epoch_s, threads] =
      bench::parse_flags(argc, argv, [](core::Flags& flags) {
        return std::tuple{flags.count("sessions", 1'000'000),
                          flags.positive("hours", 6.0),
                          flags.positive("epoch", 300.0), flags.count("threads", 0)};
      });

  // The scenario contributes world/catalog/mapping only; its own pilot trace
  // stays small regardless of the streamed session count.
  sim::ScenarioConfig scenario_config;
  scenario_config.trace.session_count = 10'000;
  scenario_config.trace.duration_s = hours * 3600.0;
  double setup_seconds = 0.0;
  const sim::Scenario scenario = [&] {
    const obs::ScopedTimer timer{&setup_seconds};
    return sim::Scenario::build(scenario_config);
  }();
  std::printf("[setup] world: %zu CDNs, %zu clusters (%.1fs); streaming %zu broker "
              "+ %zu background sessions over %.1f h\n",
              scenario.catalog().cdns().size(), scenario.catalog().clusters().size(),
              setup_seconds, sessions,
              static_cast<std::size_t>(std::llround(
                  scenario_config.background_multiplier *
                  static_cast<double>(sessions))),
              hours);

  core::Rng stream_root{scenario_config.seed};
  core::Rng broker_rng = stream_root.fork("stream-trace");
  core::Rng background_rng = stream_root.fork("stream-background");
  trace::TraceConfig broker_trace = scenario_config.trace;
  broker_trace.session_count = sessions;
  trace::TraceConfig background_trace = broker_trace;
  background_trace.session_count = static_cast<std::size_t>(std::llround(
      scenario_config.background_multiplier * static_cast<double>(sessions)));
  trace::BrokerTraceGenerator::Options background_options;
  background_options.broker_controlled = false;
  trace::BrokerTraceGenerator broker_generator{scenario.world(), broker_trace,
                                               broker_rng};
  trace::BrokerTraceGenerator background_generator{
      scenario.world(), background_trace, background_rng, background_options};

  bench::BenchReporter reporter{"streaming_scale"};
  sim::StreamingConfig config;
  config.design = sim::Design::kMarketplace;
  config.epoch_s = epoch_s;
  config.run.threads = threads;
  config.obs.metrics = &reporter.registry();

  sim::GeneratorStream broker_stream{broker_generator};
  sim::GeneratorStream background_stream{background_generator};
  double run_seconds = 0.0;
  const sim::StreamingResult result = [&] {
    const obs::ScopedTimer timer{&run_seconds};
    return sim::StreamingTimeline{scenario, config}.run(broker_stream,
                                                        background_stream);
  }();

  const double streamed =
      static_cast<double>(result.broker_sessions + result.background_sessions);
  std::printf("[run] %.1fs: %zu epochs, %zu decision rounds, %zu background "
              "recomputes, peak active %zu, %.0f sessions/s\n",
              run_seconds, result.timeline.epochs.size(), result.decision_rounds,
              result.background_recomputes, result.peak_active_sessions,
              streamed / run_seconds);

  reporter.gauge("timeline.sessions_per_sec").set(streamed / run_seconds);
  reporter.gauge("timeline.run_seconds").set(run_seconds);
  reporter.counter("timeline.broker_sessions")
      .add(static_cast<double>(result.broker_sessions));
  reporter.counter("timeline.background_sessions")
      .add(static_cast<double>(result.background_sessions));
  reporter.counter("timeline.epochs")
      .add(static_cast<double>(result.timeline.epochs.size()));
  reporter.emit();
  return 0;
}
