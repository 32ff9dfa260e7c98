// Availability-under-compound-faults bench (DESIGN.md §15): for each feed
// seed, serve the same trace twice — once clean on a single shard, once
// through the full self-healing drill (2 shards under Gilbert-Elliott link
// bursts, per-link circuit breakers with stale-slice quarantine, a worker
// restart budget, a checkpoint disk outage behind the checkpointer breaker,
// and the brownout ladder capped at its byte-transparent step 2).
//
// Reports the fraction of clean rounds the faulted daemon still completed
// (avail.rounds_pct — the CI smoke gate requires >= 99) and the fraction of
// seeds whose decision streams stayed byte-identical through the drill
// (avail.identical_pct), plus the per-seed fault-machinery counters proving
// the drill actually bit: breaker opens, stale settlements, checkpoint
// skips, brownout rounds.
//
//   bench_availability                    # 2000 sessions, 5 seeds
//   bench_availability --sessions 4e3 --seeds 8
//   bench_availability --smoke            # CI-sized drill, same shape
#include "bench_common.hpp"

#include <cstdint>
#include <string>
#include <vector>

#include "core/table.hpp"
#include "serve/daemon.hpp"
#include "serve/feed.hpp"
#include "state/fault_fs.hpp"

namespace {

using namespace vdx;



struct RunResult {
  serve::ServeReport report;
  std::string decisions;
  std::size_t breaker_opens = 0;
  std::size_t stale_bids = 0;
  std::size_t restarts_denied = 0;
};

/// One serve over the seeded trace. `faulted` layers the compound drill on
/// top; the clean run uses the identical feed with none of it.
RunResult run_once(const sim::Scenario& scenario, std::uint64_t seed,
                   std::size_t sessions, double round_s, bool faulted) {
  trace::TraceConfig trace;
  trace.session_count = sessions;
  core::Rng root{seed};
  core::Rng rng = root.fork("stream-trace");
  serve::GeneratorFeed feed{scenario.world(), trace, rng};

  obs::MetricsRegistry metrics;
  obs::RunJournal journal;
  std::ostringstream decisions;

  serve::ServeConfig config;
  config.round_s = round_s;
  config.obs = obs::Observer{&metrics, nullptr, &journal};
  config.decisions = &decisions;
  config.fingerprint.seed = seed;
  config.fingerprint.broker_sessions = sessions;
  config.fingerprint.epoch_s = round_s;

  state::FaultFs fault_fs;
  if (faulted) {
    config.shards = 2;
    // Gilbert-Elliott black bursts: the bad state drops every frame
    // (0.25 * 4 caps at 1.0) and lingers (exit 0.02), so a burst can
    // outlast the 64-attempt link retry budget and trip the breaker.
    config.shard_link_faults.drop_rate = 0.25;
    config.shard_link_faults.corrupt_rate = 0.02;
    config.shard_link_faults.burst_enter = 0.05;
    config.shard_link_faults.burst_exit = 0.02;
    config.shard_link_faults.burst_multiplier = 4.0;
    config.shard_link_breaker.failure_threshold = 1;
    config.shard_link_breaker.open_ticks = 2;
    config.shard_worker_restart.max_restarts = 2;
    config.shard_worker_restart.window_ticks = 8;
    config.checkpoint_every_rounds = 2;
    config.checkpoint_dir = "bench_avail_ckpt";  // virtual: lives in FaultFs
    config.checkpoint_fs = &fault_fs;
    config.checkpoint_breaker.failure_threshold = 1;
    config.checkpoint_breaker.open_ticks = 3;
    config.brownout.max_step = 2;  // byte-transparency ceiling
    config.round_hook = [&fault_fs](std::uint64_t r) {
      fault_fs.set_failing(r >= 8 && r < 16);  // disk outage mid-drill
    };
  }

  RunResult out;
  serve::ServeDaemon daemon{scenario, feed, std::move(config)};
  out.report = daemon.run();
  out.decisions = decisions.str();
  for (const obs::Event& event : journal.events()) {
    if (event.kind == obs::EventKind::kBreakerOpen) ++out.breaker_opens;
    if (event.kind == obs::EventKind::kStaleBid) ++out.stale_bids;
    if (event.kind == obs::EventKind::kRestartDenied) ++out.restarts_denied;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto [smoke, sessions, seed_count, round_s] =
      bench::parse_flags(argc, argv, [](core::Flags& flags) {
        const bool smoke = flags.boolean("smoke");
        return std::tuple{smoke, flags.count("sessions", smoke ? 600 : 2'000),
                          flags.count("seeds", smoke ? 2 : 5, 1),
                          flags.positive("round", 120.0)};
      });

  sim::ScenarioConfig scenario_config;
  scenario_config.trace.session_count = smoke ? 1'500 : 4'000;
  scenario_config.seed = 11;
  double setup_seconds = 0.0;
  const sim::Scenario scenario = [&] {
    const obs::ScopedTimer timer{&setup_seconds};
    return sim::Scenario::build(scenario_config);
  }();
  std::printf("[setup] world: %zu CDNs, %zu clusters (%.1fs); %zu sessions "
              "per seed, %.0fs rounds\n",
              scenario.catalog().cdns().size(),
              scenario.catalog().clusters().size(), setup_seconds, sessions,
              round_s);

  const std::vector<std::uint64_t> all_seeds{11, 23, 37, 41, 59, 61, 73, 89};
  const std::vector<std::uint64_t> seeds{
      all_seeds.begin(),
      all_seeds.begin() +
          static_cast<std::ptrdiff_t>(std::min(seed_count, all_seeds.size()))};

  bench::BenchReporter reporter{"availability"};
  core::Table table{{"Seed", "Clean rounds", "Drill rounds", "Avail %",
                     "Identical", "Breaker opens", "Stale bids", "Ckpt skips",
                     "Brownout rounds"}};
  table.set_title("Availability under compound faults (2 shards, GE bursts, "
                  "disk outage rounds 8-16)");

  std::uint64_t clean_rounds_total = 0;
  std::uint64_t drill_rounds_total = 0;
  std::size_t identical_seeds = 0;
  for (const std::uint64_t seed : seeds) {
    const RunResult clean = run_once(scenario, seed, sessions, round_s, false);
    const RunResult drill = run_once(scenario, seed, sessions, round_s, true);
    clean_rounds_total += clean.report.rounds;
    drill_rounds_total += drill.report.rounds;
    const bool identical = clean.decisions == drill.decisions &&
                           clean.report.decision_rounds ==
                               drill.report.decision_rounds;
    if (identical) ++identical_seeds;
    const double pct =
        clean.report.rounds == 0
            ? 100.0
            : 100.0 * static_cast<double>(drill.report.rounds) /
                  static_cast<double>(clean.report.rounds);
    table.add_row({std::to_string(seed), std::to_string(clean.report.rounds),
                   std::to_string(drill.report.rounds),
                   core::format_double(pct, 1), identical ? "yes" : "NO",
                   std::to_string(drill.breaker_opens),
                   std::to_string(drill.stale_bids),
                   std::to_string(drill.report.checkpoint_skips),
                   std::to_string(drill.report.brownout_rounds)});
    const obs::Labels labels{{"seed", std::to_string(seed)}};
    reporter.gauge("avail.seed_rounds_pct", labels).set(pct);
    reporter.gauge("avail.breaker_opens", labels)
        .set(static_cast<double>(drill.breaker_opens));
    reporter.gauge("avail.stale_bids", labels)
        .set(static_cast<double>(drill.stale_bids));
    reporter.gauge("avail.checkpoint_skips", labels)
        .set(static_cast<double>(drill.report.checkpoint_skips));
    reporter.gauge("avail.brownout_rounds", labels)
        .set(static_cast<double>(drill.report.brownout_rounds));
  }

  const double rounds_pct =
      clean_rounds_total == 0
          ? 100.0
          : 100.0 * static_cast<double>(drill_rounds_total) /
                static_cast<double>(clean_rounds_total);
  const double identical_pct =
      seeds.empty() ? 100.0
                    : 100.0 * static_cast<double>(identical_seeds) /
                          static_cast<double>(seeds.size());
  reporter.gauge("avail.rounds_pct").set(rounds_pct);
  reporter.gauge("avail.identical_pct").set(identical_pct);

  table.print(std::cout);
  std::printf("[avail] rounds completed %.2f%% (%llu/%llu), decision streams "
              "identical on %zu/%zu seeds\n",
              rounds_pct,
              static_cast<unsigned long long>(drill_rounds_total),
              static_cast<unsigned long long>(clean_rounds_total),
              identical_seeds, seeds.size());
  reporter.emit();
  return 0;
}
