// Serving-load bench (DESIGN.md §12): drive the ServeDaemon's open-loop
// generator client across offered-load multipliers and report SLO-grade
// round-latency quantiles (serve.p50/p99/p999_ms) plus admission-control
// sheds at each point.
//
// The round budget is calibrated from a 1x pre-pass (1.5x the busiest
// round's demand), so sheds are strictly positive only above the baseline
// load and exactly zero at or below it — the signature the EXPERIMENTS.md
// table documents.
//
//   bench_serving_load                   # 10K sessions/x, 10s rounds, 4 points
//   bench_serving_load --sessions 2e4 --round 5
//   bench_serving_load --smoke           # CI-sized sweep, same shape
#include "bench_common.hpp"

#include <cmath>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "serve/daemon.hpp"
#include "serve/feed.hpp"

namespace {

using namespace vdx;



struct Point {
  double multiplier = 1.0;
  serve::ServeReport report;
  double max_demand_mbps = 0.0;
};

/// One serving run at `multiplier` x the baseline session count. Fresh
/// registry/feed/daemon per point so the serve.* histograms are per-point.
Point run_point(const sim::Scenario& scenario,
                const sim::ScenarioConfig& scenario_config, double round_s,
                std::size_t base_sessions, double multiplier,
                double budget_mbps) {
  trace::TraceConfig trace = scenario_config.trace;
  trace.session_count = static_cast<std::size_t>(std::llround(
      multiplier * static_cast<double>(base_sessions)));
  core::Rng root{scenario_config.seed};
  core::Rng rng = root.fork("stream-trace");
  serve::GeneratorFeed feed{scenario.world(), trace, rng};

  obs::MetricsRegistry metrics;
  serve::ServeConfig config;
  config.round_s = round_s;
  config.exchange.overload.demand_budget_mbps = budget_mbps;
  config.obs.metrics = &metrics;

  Point point;
  point.multiplier = multiplier;
  serve::ServeDaemon daemon{scenario, feed, std::move(config)};
  point.report = daemon.run();
  const auto demand = metrics.histogram_summary("serve.demand_mbps");
  point.max_demand_mbps = demand ? demand->max : 0.0;
  return point;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, base_sessions, round_s] =
      bench::parse_flags(argc, argv, [](core::Flags& flags) {
        const bool smoke = flags.boolean("smoke");
        return std::tuple{smoke, flags.count("sessions", smoke ? 1'500 : 10'000),
                          flags.positive("round", smoke ? 30.0 : 10.0)};
      });

  sim::ScenarioConfig scenario_config;
  scenario_config.trace.session_count = std::min<std::size_t>(base_sessions, 10'000);
  double setup_seconds = 0.0;
  const sim::Scenario scenario = [&] {
    const obs::ScopedTimer timer{&setup_seconds};
    return sim::Scenario::build(scenario_config);
  }();
  std::printf("[setup] world: %zu CDNs, %zu clusters (%.1fs); %zu sessions per "
              "1x over %.0fs, %.0fs rounds\n",
              scenario.catalog().cdns().size(),
              scenario.catalog().clusters().size(), setup_seconds, base_sessions,
              scenario_config.trace.duration_s, round_s);

  // Budget calibration: serve the 1x load unthrottled and take 1.5x its
  // busiest round. Every point at or below 1x then fits under the budget;
  // 2x and 4x overflow it.
  const Point baseline = run_point(scenario, scenario_config, round_s,
                                   base_sessions, 1.0, 0.0);
  const double budget_mbps = 1.5 * baseline.max_demand_mbps;
  std::printf("[calibrate] 1x peak round demand %.1f Mbps -> budget %.1f Mbps\n",
              baseline.max_demand_mbps, budget_mbps);

  bench::BenchReporter reporter{"serving_load"};
  core::Table table{{"Load", "Rounds", "Peak active", "p50 (ms)", "p99 (ms)",
                     "p999 (ms)", "Shed (Mbps)", "Shed rounds"}};
  table.set_title("Serving load sweep (budget " +
                  core::format_double(budget_mbps, 0) + " Mbps)");
  const std::vector<double> multipliers{0.5, 1.0, 2.0, 4.0};
  for (const double m : multipliers) {
    const Point point = run_point(scenario, scenario_config, round_s,
                                  base_sessions, m, budget_mbps);
    const serve::ServeReport& r = point.report;
    const std::string load = core::format_double(m, 1) + "x";
    table.add_row({load, std::to_string(r.decision_rounds),
                   std::to_string(r.peak_active_sessions),
                   core::format_double(r.slo.p50_ms, 3),
                   core::format_double(r.slo.p99_ms, 3),
                   core::format_double(r.slo.p999_ms, 3),
                   core::format_double(r.shed_mbps_total, 1),
                   std::to_string(r.shed_rounds)});
    const obs::Labels labels{{"load", load}};
    reporter.gauge("serve.p50_ms", labels).set(r.slo.p50_ms);
    reporter.gauge("serve.p99_ms", labels).set(r.slo.p99_ms);
    reporter.gauge("serve.p999_ms", labels).set(r.slo.p999_ms);
    reporter.gauge("serve.shed_mbps", labels).set(r.shed_mbps_total);
    reporter.gauge("serve.shed_rounds", labels)
        .set(static_cast<double>(r.shed_rounds));
    reporter.gauge("serve.decision_rounds", labels)
        .set(static_cast<double>(r.decision_rounds));
    reporter.gauge("serve.peak_active", labels)
        .set(static_cast<double>(r.peak_active_sessions));
  }
  table.print(std::cout);
  reporter.emit();
  return 0;
}
