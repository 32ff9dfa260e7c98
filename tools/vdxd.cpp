// vdxd — the long-lived VDX serving daemon (DESIGN.md §12).
//
// Owns a VdxExchange plus an online active-session population, admits
// arrivals continuously, and answers Decision-Protocol rounds on the
// logical-clock engine, one decision line per round on stdout:
//
//   vdxd --sim-clock --sessions 33400 --seed 2017 --round 5
//   vdxload --sessions 5000 | vdxd --stdin --budget 8000
//   vdxd --sim-clock --checkpoint-dir ckpt --checkpoint-every 50
//   vdxd --sim-clock --resume-from ckpt
//   vdxd --sim-clock --http-port 0        # scrape GET /metrics
//
// Determinism contract: with --sim-clock (the built-in generator feed) the
// decision log, journal, and every checkpoint are a pure function of the
// flags — two same-seed runs are byte-identical, including --resume-from
// continuations. Wall-clock latency lives only in the serve.* histograms
// and the end-of-run SLO summary (stderr), never in a deterministic output.
//
// Run `vdxd --help` for the generated flag reference.
#include <algorithm>
#include <atomic>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/flags.hpp"
#include "obs/observe.hpp"
#include "proto/wire.hpp"
#include "serve/daemon.hpp"
#include "serve/export_guard.hpp"
#include "serve/feed.hpp"
#include "serve/httpd.hpp"
#include "sim/scenario.hpp"
#include "state/checkpoint.hpp"
#include "state/snapshot.hpp"
#include "state/store.hpp"

namespace {

using namespace vdx;

// SIGTERM/SIGINT flip this; the daemon sees it between rounds, records
// kDrain, snapshots, and returns (graceful drain, DESIGN.md §12).
std::atomic<bool> g_stop{false};

extern "C" void vdxd_on_signal(int) {
  g_stop.store(true, std::memory_order_relaxed);
}

struct Options {
  std::size_t sessions = 0;
  std::uint64_t seed = 0;
  double hours = 0.0;
  std::size_t city_cdns = 0;
  double round_s = 5.0;
  double budget_mbps = 0.0;
  std::size_t queue_capacity = 0;
  double wp = 1.0;
  double wc = 2.0;
  bool sim_clock = false;
  bool stdin_feed = false;
  std::size_t checkpoint_every = 0;
  std::string checkpoint_dir;
  std::size_t keep = 3;
  std::string resume_from;
  std::uint64_t halt_after = 0;
  std::uint64_t throw_after = 0;
  bool http = false;
  std::size_t http_port = 0;
  std::string decisions_out;
  std::string metrics_out;
  std::string journal_out;
  std::string trace_out;
  double p99_slo_ms = 0.0;
  std::size_t breaker_threshold = 0;
  std::size_t breaker_open_rounds = 4;
};

// The single accessor sequence: parses a real command line, and — run over
// an empty Flags — declares every flag for the generated --help.
Options options_from(core::Flags& flags) {
  Options opt;
  opt.sessions = flags.count("sessions", 33'400, 1);
  opt.seed = static_cast<std::uint64_t>(flags.number("seed", 2017));
  opt.hours = flags.positive("hours", 0.0);
  opt.city_cdns = flags.count("city-cdns", 0);
  opt.round_s = flags.positive("round", 5.0);
  opt.budget_mbps = flags.number("budget", 0.0);
  opt.queue_capacity = flags.count("queue-capacity", 0);
  opt.wp = flags.number("wp", 1.0);
  opt.wc = flags.number("wc", 2.0);
  opt.sim_clock = flags.boolean("sim-clock");
  opt.stdin_feed = flags.boolean("stdin");
  opt.checkpoint_every = flags.count("checkpoint-every", 0, 1);
  opt.checkpoint_dir = flags.text("checkpoint-dir", "");
  opt.keep = flags.count("keep", 3, 1);
  opt.resume_from = flags.existing_path("resume-from");
  opt.halt_after = flags.count("halt-after", 0, 1);
  opt.throw_after = flags.count("throw-after", 0, 1);
  opt.http = flags.has("http-port");
  opt.http_port = flags.count("http-port", 0);
  opt.decisions_out = flags.text("decisions-out", "");
  opt.metrics_out = flags.text("metrics-out", "");
  opt.journal_out = flags.text("journal-out", "");
  opt.trace_out = flags.text("trace-out", "");
  opt.p99_slo_ms = flags.positive("p99-slo-ms", 0.0);
  opt.breaker_threshold = flags.count("breaker-threshold", 0);
  opt.breaker_open_rounds = flags.count("breaker-open-rounds", 4, 1);
  return opt;
}

void print_help() {
  std::puts(
      "vdxd — long-lived VDX serving daemon\n"
      "\n"
      "usage: vdxd [--flag value | --flag=value ...]\n"
      "\n"
      "Feeds: the built-in deterministic generator client (--sim-clock, the\n"
      "default) or live arrival JSONL on stdin (--stdin; vdxload emits the\n"
      "format). Decision lines go to stdout (or --decisions-out); the run\n"
      "summary and SLO quantiles go to stderr. SIGTERM/SIGINT drain\n"
      "gracefully with a final snapshot when checkpointing is on.\n"
      "\n"
      "flags:");
  core::Flags empty{std::vector<std::string>{}};
  (void)options_from(empty);
  empty.write_help(std::cout);
}

int run(core::Flags& flags) {
  const Options opt = options_from(flags);
  flags.check_all_used();
  if (opt.stdin_feed && opt.sim_clock) {
    throw std::invalid_argument{
        "--stdin and --sim-clock are mutually exclusive (a live feed has no "
        "simulated clock horizon)"};
  }
  if (opt.stdin_feed && !opt.resume_from.empty()) {
    throw std::invalid_argument{
        "--resume-from requires the generator feed (a live --stdin feed "
        "cannot be replayed)"};
  }
  if (opt.checkpoint_every > 0 && opt.checkpoint_dir.empty()) {
    throw std::invalid_argument{"--checkpoint-every requires --checkpoint-dir"};
  }

  // The scenario contributes world/catalog/mapping only; the arrival volume
  // lives in the feed, so the pilot trace stays small (same policy as
  // `vdxsim timeline --stream`).
  sim::ScenarioConfig scenario_config;
  scenario_config.trace.session_count = opt.sessions;
  scenario_config.seed = opt.seed;
  scenario_config.city_cdn_count = opt.city_cdns;
  if (opt.hours > 0.0) scenario_config.trace.duration_s = opt.hours * 3600.0;
  sim::ScenarioConfig pilot = scenario_config;
  pilot.trace.session_count = std::min<std::size_t>(opt.sessions, 10'000);
  const sim::Scenario scenario = sim::Scenario::build(pilot);

  std::unique_ptr<serve::ArrivalFeed> feed;
  serve::JsonlFeed* live = nullptr;
  if (opt.stdin_feed) {
    auto jsonl = std::make_unique<serve::JsonlFeed>(std::cin);
    live = jsonl.get();
    feed = std::move(jsonl);
  } else {
    // Same stream derivation as vdxsim/vdxload, so `vdxload --seed S |
    // vdxd --stdin` replays exactly what `vdxd --sim-clock --seed S` serves.
    core::Rng root{scenario_config.seed};
    core::Rng rng = root.fork("stream-trace");
    feed = std::make_unique<serve::GeneratorFeed>(scenario.world(),
                                                  scenario_config.trace, rng);
  }

  obs::MetricsRegistry metrics;
  obs::SpanTracer tracer;
  obs::RunJournal journal;
  obs::Observer obs;
  obs.metrics = &metrics;
  obs.tracer = &tracer;
  obs.journal = &journal;

  // The guard outlives the daemon: any exit path — drain, horizon, a thrown
  // round — flushes the configured exports atomically.
  serve::ExportGuard guard{
      {opt.metrics_out, opt.journal_out, opt.trace_out}, obs};

  std::ofstream decisions_file;
  std::ostream* decisions = &std::cout;
  if (!opt.decisions_out.empty()) {
    decisions_file.open(opt.decisions_out);
    if (!decisions_file) {
      throw std::runtime_error{"cannot write " + opt.decisions_out};
    }
    decisions = &decisions_file;
  }

  serve::ServeConfig config;
  config.round_s = opt.round_s;
  config.queue_capacity = opt.queue_capacity;
  config.checkpoint_every_rounds = opt.checkpoint_every;
  config.checkpoint_dir = opt.checkpoint_dir;
  config.checkpoint_keep = opt.keep;
  config.halt_after_rounds = opt.halt_after;
  config.throw_after_rounds = opt.throw_after;
  config.stop = &g_stop;
  config.decisions = decisions;
  config.exchange.overload.demand_budget_mbps = opt.budget_mbps;
  config.exchange.broker.weights = {opt.wp, opt.wc};
  config.obs = obs;
  // Self-healing knobs (DESIGN.md §15). --breaker-threshold arms the
  // checkpointer breaker; the brownout ladder reacts when it opens or the
  // round p99 breaches --p99-slo-ms. All default off: vdxd without these
  // flags behaves exactly as before this layer existed.
  config.brownout.p99_slo_ms = opt.p99_slo_ms;
  if (opt.breaker_threshold > 0) {
    config.checkpoint_breaker.failure_threshold = opt.breaker_threshold;
    config.checkpoint_breaker.open_ticks = opt.breaker_open_rounds;
  }
  serve::HealthState health;
  config.health = &health;

  // The fingerprint binds snapshots to this exact serving configuration;
  // resuming under different flags is rejected instead of diverging.
  state::RunFingerprint fingerprint;
  fingerprint.seed = scenario_config.seed;
  fingerprint.design = serve::kDaemonDesign;
  fingerprint.broker_sessions = opt.sessions;
  fingerprint.background_sessions = 0;
  fingerprint.duration_s = scenario_config.trace.duration_s;
  fingerprint.epoch_s = opt.round_s;
  {
    proto::ByteWriter hashed;
    hashed.write_f64(opt.budget_mbps);
    hashed.write_u64(opt.queue_capacity);
    hashed.write_f64(opt.wp);
    hashed.write_f64(opt.wc);
    hashed.write_u64(opt.city_cdns);
    const std::vector<std::uint8_t> bytes = hashed.take();
    fingerprint.config_hash = state::fnv1a(bytes);
  }
  config.fingerprint = fingerprint;

  std::signal(SIGTERM, vdxd_on_signal);
  std::signal(SIGINT, vdxd_on_signal);

  serve::ServeDaemon daemon{scenario, *feed, std::move(config)};

  std::optional<serve::Httpd> httpd;
  if (opt.http) {
    httpd.emplace(metrics, static_cast<std::uint16_t>(opt.http_port), &health);
    std::fprintf(stderr, "[http] listening on 127.0.0.1:%u\n",
                 static_cast<unsigned>(httpd->port()));
  }

  serve::ServeReport report;
  if (!opt.resume_from.empty()) {
    std::vector<std::uint8_t> snapshot;
    if (std::filesystem::is_directory(opt.resume_from)) {
      // A directory means "latest valid snapshot in this checkpoint dir",
      // falling back across corrupted files.
      const state::CheckpointStore source{opt.resume_from, opt.keep};
      auto loaded = source.load_latest([&](std::span<const std::uint8_t> bytes) {
        auto decoded = state::decode_daemon(bytes);
        if (!decoded.ok()) return core::Status{decoded.error()};
        if (!(decoded.value().fingerprint == fingerprint)) {
          return core::Status::failure(
              core::Errc::kInvalidArgument,
              "snapshot fingerprint does not match these flags");
        }
        return core::ok_status();
      });
      if (!loaded.ok()) {
        std::fprintf(stderr, "vdxd: --resume-from: %s (%s)\n",
                     loaded.error().message.c_str(),
                     errc_name(loaded.error().code));
        return 1;
      }
      for (const std::string& line : loaded.value().rejected) {
        std::fprintf(stderr, "[resume] skipped %s\n", line.c_str());
      }
      std::fprintf(stderr, "[resume] %s (round %llu)\n",
                   loaded.value().path.string().c_str(),
                   static_cast<unsigned long long>(loaded.value().epoch));
      snapshot = std::move(loaded).value().bytes;
    } else {
      auto bytes = state::read_file(opt.resume_from);
      if (!bytes.ok()) {
        std::fprintf(stderr, "vdxd: --resume-from: %s\n",
                     bytes.error().message.c_str());
        return 1;
      }
      snapshot = std::move(bytes).value();
    }
    auto resumed = daemon.resume(snapshot);
    if (!resumed.ok()) {
      std::fprintf(stderr, "vdxd: resume rejected: %s (%s)\n",
                   resumed.error().message.c_str(),
                   errc_name(resumed.error().code));
      return 1;
    }
    report = std::move(resumed).value();
  } else {
    report = daemon.run();
  }

  if (httpd) {
    std::fprintf(stderr, "[http] %llu requests served\n",
                 static_cast<unsigned long long>(httpd->requests()));
    httpd->stop();
  }
  if (live != nullptr && live->malformed() > 0) {
    std::fprintf(stderr, "[stdin] skipped %llu malformed arrival lines\n",
                 static_cast<unsigned long long>(live->malformed()));
  }

  // Summary on stderr: stdout stays a pure decision-line stream.
  std::fprintf(stderr,
               "served: rounds=%llu decisions=%llu skipped=%llu arrivals=%llu "
               "peak-active=%llu queue-dropped=%llu shed-rounds=%llu "
               "shed-mbps=%.1f shed-clients=%.0f checkpoints=%llu "
               "checkpoint-skips=%llu brownout-rounds=%llu%s%s\n",
               static_cast<unsigned long long>(report.rounds),
               static_cast<unsigned long long>(report.decision_rounds),
               static_cast<unsigned long long>(report.skipped_rounds),
               static_cast<unsigned long long>(report.arrivals),
               static_cast<unsigned long long>(report.peak_active_sessions),
               static_cast<unsigned long long>(report.queue_dropped),
               static_cast<unsigned long long>(report.shed_rounds),
               report.shed_mbps_total, report.shed_clients_total,
               static_cast<unsigned long long>(report.checkpoints_written),
               static_cast<unsigned long long>(report.checkpoint_skips),
               static_cast<unsigned long long>(report.brownout_rounds),
               report.drained ? " drained" : "",
               report.halted ? " halted" : "");
  std::fprintf(stderr,
               "slo: rounds=%llu p50=%.3fms p99=%.3fms p999=%.3fms max=%.3fms\n",
               static_cast<unsigned long long>(report.slo.rounds),
               report.slo.p50_ms, report.slo.p99_ms, report.slo.p999_ms,
               report.slo.max_ms);

  guard.flush();
  for (const std::string& error : guard.errors()) {
    std::fprintf(stderr, "vdxd: export failed: %s\n", error.c_str());
  }
  return guard.errors().empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    core::Flags flags{argc, argv, 1};
    if (flags.boolean("help")) {
      print_help();
      return 0;
    }
    return run(flags);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vdxd: %s\n", error.what());
    return 1;
  }
}
