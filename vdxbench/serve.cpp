// Serve workloads: the vdxd serving loop (ServeDaemon, monolith) answering
// Decision-Protocol rounds over a generated arrival feed — the operator's
// view, measured as round-service latency.
//
// Rounds are marked from outside: the daemon pulls its feed once per round,
// so the benchmark's RoundFeed decorator timestamps each pull. Checkpoints
// go through a RecordingFs over an in-memory state::FaultFs with faults off,
// so the state layer's writes are measured without disk noise. The traced
// run hands the same obs::SpanTracer to the decorators and, through
// ServeConfig::obs, to the daemon, whose decision.* spans then nest inside
// the benchmark's serve.round spans.
#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>

#include "profile.hpp"
#include "seams.hpp"
#include "serve/codec.hpp"
#include "serve/daemon.hpp"
#include "state/fault_fs.hpp"
#include "workloads.hpp"

namespace vdx::bench {

namespace {

/// Decision-round period. A minute per round lets one run sample hours of
/// demand, so the population the daemon prices takes many independent
/// states instead of a handful; with 10 s rounds the same number of rounds
/// covers 20 minutes and the cost of a run swings with its seed.
constexpr double kRoundS = 60.0;

struct ServePass {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> round_ms;
  std::vector<std::size_t> round_arrivals;
  std::string decisions;
  serve::ServeReport report;
  std::size_t cdns = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::vector<std::size_t> checkpoint_rounds;
  ProtocolCounts protocol;
};

/// One serving run from scratch. Untraced (tracer == nullptr), the daemon
/// still gets a tracer, of capacity 0: its logical clock, which the decision
/// lines carry, lives in the tracer, and vdxd always attaches one.
ServePass serve_once(const ServeShape& shape, std::uint64_t seed,
                     obs::SpanTracer* tracer) {
  ServePass pass;
  const auto start = Clock::now();
  sim::ScenarioConfig config;
  config.seed = kDeploymentSeed;
  config.trace.session_count =
      static_cast<std::size_t>(std::llround(shape.sessions_per_hour * shape.hours));
  config.trace.duration_s = shape.hours * 3600.0;
  sim::ScenarioConfig pilot = config;
  pilot.trace.session_count = std::min<std::size_t>(config.trace.session_count, 10'000);
  const sim::Scenario scenario = sim::Scenario::build(pilot);
  core::Rng root{seed};
  serve::GeneratorFeed generator{scenario.world(), config.trace, root.fork("stream-trace")};
  RoundFeed feed{generator, tracer};
  state::FaultFs disk;
  RecordingFs fs{disk, feed, tracer};

  obs::MetricsRegistry metrics;
  obs::SpanTracer quiet{0};
  obs::RunJournal journal;
  std::ostringstream decisions;
  serve::ServeConfig serve_config;
  serve_config.round_s = kRoundS;
  serve_config.decisions = &decisions;
  serve_config.exchange.overload.demand_budget_mbps = shape.budget_mbps;
  if (shape.checkpoint_every > 0) {
    serve_config.checkpoint_every_rounds = shape.checkpoint_every;
    serve_config.checkpoint_dir = "checkpoints";
    serve_config.checkpoint_fs = &fs;
  }
  serve_config.fingerprint.seed = seed;
  serve_config.obs.metrics = &metrics;
  serve_config.obs.tracer = tracer != nullptr ? tracer : &quiet;
  serve_config.obs.journal = &journal;
  serve::ServeDaemon daemon{scenario, feed, std::move(serve_config)};
  pass.setup_s = seconds_between(start, Clock::now());

  const auto run_start = Clock::now();
  pass.report = daemon.run();
  feed.finish();
  pass.wall_s = seconds_between(run_start, Clock::now());

  pass.round_ms = feed.round_ms();
  pass.round_arrivals = feed.round_arrivals();
  pass.decisions = decisions.str();
  pass.cdns = scenario.catalog().cdns().size();
  pass.checkpoint_bytes = fs.bytes_written();
  pass.checkpoint_rounds = fs.write_rounds();
  pass.protocol = ProtocolCounts::read(metrics);
  return pass;
}

/// Totals read back from the decision lines.
struct DecisionTotals {
  std::uint64_t lines = 0;
  double offered_clients = 0.0;
  double shed_clients = 0.0;
  double shed_mbps = 0.0;
  bool parsed = true;
};

DecisionTotals read_decisions(const std::string& decisions) {
  DecisionTotals totals;
  std::istringstream in{decisions};
  for (std::string line; std::getline(in, line);) {
    const auto parsed = serve::parse_decision(line);
    if (!parsed.ok()) {
      totals.parsed = false;
      continue;
    }
    ++totals.lines;
    totals.offered_clients += static_cast<double>(parsed.value().active_sessions);
    totals.shed_clients += parsed.value().shed_clients;
    totals.shed_mbps += parsed.value().shed_mbps;
  }
  return totals;
}

void check_pass(Result& result, const ServeShape& shape, const ServePass& pass,
                const DecisionTotals& totals) {
  const serve::ServeReport& r = pass.report;
  const auto horizon =
      static_cast<std::uint64_t>(std::ceil(shape.hours * 3600.0 / kRoundS));
  result.check(!r.drained && !r.halted && r.rounds <= horizon &&
                   r.decision_rounds + r.skipped_rounds == r.rounds,
               "serve: the daemon served its horizon");
  result.check(pass.round_ms.size() >= r.rounds,
               "serve: one feed pull per round");
  result.check(totals.parsed && totals.lines == r.decision_rounds,
               "serve: one well-formed decision line per decision round");
  // The report sums the same per-round values in the same order.
  result.check(totals.shed_clients == r.shed_clients_total &&
                   totals.shed_mbps == r.shed_mbps_total,
               "serve: decision lines account for every shed client and Mbps");
  if (shape.budget_mbps == 0.0) {
    result.check(r.shed_rounds == 0, "serve: no budget, nothing shed");
  }
  if (shape.checkpoint_every > 0) {
    result.check(r.checkpoints_written == r.rounds / shape.checkpoint_every &&
                     r.checkpoint_skips == 0,
                 "serve: every checkpoint period wrote one snapshot");
  }
}

void set_layer_counts(Result& result, const ServePass& pass, const DecisionTotals& totals) {
  const serve::ServeReport& r = pass.report;
  result.set("rounds", static_cast<double>(r.rounds));
  pass.protocol.report(result, static_cast<double>(pass.cdns),
                       static_cast<double>(r.decision_rounds));
  result.set("market.shed_mbps", r.shed_mbps_total);
  result.set("market.shed_rounds", static_cast<double>(r.shed_rounds));
  const double offered = totals.offered_clients + static_cast<double>(r.queue_dropped);
  result.set("market.refused_frac",
             offered > 0.0
                 ? (totals.shed_clients + static_cast<double>(r.queue_dropped)) / offered
                 : 0.0);
  result.set("serve.queue_dropped", static_cast<double>(r.queue_dropped));
  result.set("state.checkpoints", static_cast<double>(r.checkpoints_written));
  result.set("state.checkpoint_bytes", static_cast<double>(pass.checkpoint_bytes));

  std::vector<double> checkpoint_ms;
  std::vector<double> plain_ms;
  for (std::size_t i = 0; i < pass.round_ms.size(); ++i) {
    const bool wrote = std::find(pass.checkpoint_rounds.begin(),
                                 pass.checkpoint_rounds.end(),
                                 i) != pass.checkpoint_rounds.end();
    (wrote ? checkpoint_ms : plain_ms).push_back(pass.round_ms[i]);
  }
  result.set("serve.checkpoint_round_extra_ms",
             checkpoint_ms.empty() ? 0.0 : median(checkpoint_ms) - median(plain_ms));
}

void account(Result& result, const ServePass& pass, const DecisionTotals& totals) {
  result.attempted += static_cast<std::uint64_t>(totals.offered_clients) +
                      pass.report.queue_dropped;
  result.failed += pass.report.checkpoint_skips;
}

Result traced_run(const Options& options, const ServeShape& shape) {
  Result result;
  const ServePass plain = serve_once(shape, options.seed, nullptr);
  const DecisionTotals plain_totals = read_decisions(plain.decisions);
  check_pass(result, shape, plain, plain_totals);
  account(result, plain, plain_totals);
  result.output_digest = digest_of(plain.decisions);

  obs::SpanTracer tracer{1 << 18};
  const ServePass traced = serve_once(shape, options.seed, &tracer);
  const DecisionTotals traced_totals = read_decisions(traced.decisions);
  check_pass(result, shape, traced, traced_totals);
  result.check(digest_of(traced.decisions) == result.output_digest,
               "serve: traced and untraced runs write identical decision lines");

  add_layer_times(result, tracer, traced.wall_s);
  set_layer_counts(result, traced, traced_totals);
  result.set("tracing.overhead_frac", traced.wall_s / plain.wall_s - 1.0);
  save_spans(options, tracer, "serve.round");
  result.repetitions = 1;
  return result;
}

}  // namespace

Result run_serve(const Options& options, const ServeShape& shape) {
  if (options.trace) return traced_run(options, shape);

  Result result;
  Repetitions repetitions;
  double sessions = 0.0;
  repeat_for(options, [&](std::size_t rep) {
    const ServePass pass = serve_once(shape, options.seed, nullptr);
    // The population fills up over the warm-up rounds; only the rounds
    // after it are measured.
    const std::size_t warmup = std::min(shape.warmup_rounds, pass.round_ms.size());
    const std::vector<double> measured(pass.round_ms.begin() + warmup,
                                       pass.round_ms.end());
    double measured_s = 0.0;
    for (const double ms : measured) measured_s += ms / 1e3;
    sessions = 0.0;
    for (std::size_t i = warmup; i < pass.round_arrivals.size(); ++i) {
      sessions += static_cast<double>(pass.round_arrivals[i]);
    }
    const DecisionTotals totals = read_decisions(pass.decisions);
    check_pass(result, shape, pass, totals);
    account(result, pass, totals);
    const std::string digest = digest_of(pass.decisions);
    if (rep == 0) result.output_digest = digest;
    result.check(digest == result.output_digest,
                 "serve: decision lines identical across repetitions");
    repetitions.add(pass.setup_s, measured, measured_s);
    return pass.wall_s;
  });
  result.set("peak_rss_mb", peak_rss_mb());
  repetitions.report(result, sessions);
  return result;
}

}  // namespace vdx::bench
