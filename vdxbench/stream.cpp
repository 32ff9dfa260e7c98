// Stream workloads: StreamingTimeline::run over generated broker and
// background streams — the researcher's replay, measured in sessions/s.
//
// The traced run replays the engine's epoch loop through the public calls
// it is made of (SessionStore, place_background_over, run_design_over,
// detail::assign_sessions, compute_metrics_over, ChurnTracker) and times
// each call. The replay must reproduce the engine's epoch reports
// byte-for-byte, so the profile describes the engine's work and not a
// lookalike.
#include <algorithm>
#include <cmath>
#include <deque>
#include <iterator>
#include <memory>
#include <optional>

#include "cdn/menu_cache.hpp"
#include "obs/tracer.hpp"
#include "profile.hpp"
#include "seams.hpp"
#include "sim/session_store.hpp"
#include "sim/streaming.hpp"
#include "sim/timeline_detail.hpp"
#include "sim/timeline_io.hpp"
#include "workloads.hpp"

namespace vdx::bench {

namespace {

constexpr sim::Design kDesign = sim::Design::kMarketplace;
constexpr double kEpochS = 300.0;
constexpr std::size_t kThreads = 2;
/// StreamingConfig::batch_sessions' default; the replay pulls the same chunks.
constexpr std::size_t kBatchSessions = 8192;

/// One repetition's inputs: the scenario and both stream generators.
struct StreamInputs {
  std::unique_ptr<sim::Scenario> scenario;
  std::unique_ptr<trace::BrokerTraceGenerator> broker;
  std::unique_ptr<trace::BrokerTraceGenerator> background;
};

StreamInputs build_inputs(const StreamShape& shape, std::uint64_t seed) {
  // The scenario contributes world, catalog and mapping; its own pilot trace
  // stays small whatever the streamed session count.
  sim::ScenarioConfig config;
  config.seed = kDeploymentSeed;
  config.trace.session_count = 10'000;
  config.trace.duration_s = shape.hours * 3600.0;

  StreamInputs in;
  in.scenario = std::make_unique<sim::Scenario>(sim::Scenario::build(config));
  core::Rng root{seed};
  core::Rng broker_rng = root.fork("stream-trace");
  core::Rng background_rng = root.fork("stream-background");
  trace::TraceConfig broker_trace = config.trace;
  broker_trace.session_count = shape.broker_sessions;
  trace::TraceConfig background_trace = broker_trace;
  background_trace.session_count = static_cast<std::size_t>(std::llround(
      config.background_multiplier * static_cast<double>(shape.broker_sessions)));
  trace::BrokerTraceGenerator::Options background_options;
  background_options.broker_controlled = false;
  in.broker = std::make_unique<trace::BrokerTraceGenerator>(
      in.scenario->world(), broker_trace, broker_rng);
  in.background = std::make_unique<trace::BrokerTraceGenerator>(
      in.scenario->world(), background_trace, background_rng, background_options);
  return in;
}

struct EnginePass {
  double wall_s = 0.0;
  /// One sample per epoch, from the engine's own timeline.epoch spans.
  std::vector<double> epoch_ms;
  std::string reports;
  sim::StreamingResult result;
};

EnginePass run_engine(StreamInputs& in) {
  obs::SpanTracer epochs{1 << 12};
  sim::StreamingConfig config;
  config.design = kDesign;
  config.epoch_s = kEpochS;
  config.run.threads = kThreads;
  config.obs.tracer = &epochs;
  sim::GeneratorStream broker{*in.broker};
  sim::GeneratorStream background{*in.background};
  const sim::StreamingTimeline engine{*in.scenario, config};

  EnginePass pass;
  const auto start = Clock::now();
  pass.result = engine.run(broker, background);
  pass.wall_s = seconds_between(start, Clock::now());
  pass.epoch_ms = span_ms(epochs, "timeline.epoch");
  pass.reports = sim::epoch_reports_jsonl(pass.result.timeline);
  return pass;
}

void check_engine(Result& result, const StreamInputs& in, const EnginePass& pass) {
  const sim::StreamingResult& r = pass.result;
  const auto epochs = static_cast<std::size_t>(
      std::ceil(in.broker->duration_s() / kEpochS));
  // Sessions arriving after the last epoch's midpoint are never pulled.
  result.check(r.broker_sessions == in.broker->emitted() &&
                   r.background_sessions == in.background->emitted() &&
                   r.broker_sessions <= in.broker->total_sessions(),
               "stream: the engine accounts for every session it pulled");
  result.check(pass.epoch_ms.size() == epochs, "stream: one timed span per epoch");
  result.check(r.decision_rounds == r.timeline.epochs.size() &&
                   r.decision_rounds <= epochs,
               "stream: one epoch report per decision round");
  result.check(r.shed_sessions == 0, "stream: no admission policy, nothing shed");
  bool conserved = true;
  for (const sim::EpochReport& epoch : r.timeline.epochs) {
    conserved &= epoch.assigned_sessions <= epoch.active_sessions;
  }
  result.check(conserved, "stream: assigned sessions never exceed active ones");
}

/// The engine's active set rebuilt from public parts: an arrival deque in
/// front of a SessionStore, filled in the engine's chunk size.
class ReplaySet {
 public:
  ReplaySet(sim::SessionStream& stream, obs::SpanTracer& tracer)
      : stream_(&stream), tracer_(&tracer) {}

  /// Admits arrivals up to t and drops departures; true if anything changed.
  bool advance_to(double t) {
    bool changed = false;
    {
      const obs::SpanTracer::Scoped span{tracer_, "sim.store.admit"};
      while (true) {
        while (!pending_.empty() && pending_.front().arrival_s <= t) {
          const trace::Session& s = pending_.front();
          changed |= store_.admit(s.id.value(), s.city, s.bitrate_mbps, s.end_s(), t);
          pending_.pop_front();
        }
        if (!pending_.empty() || stream_->exhausted()) break;
        std::vector<trace::Session> batch = stream_->next_batch(kBatchSessions);
        if (batch.empty()) break;
        pending_.insert(pending_.end(), std::make_move_iterator(batch.begin()),
                        std::make_move_iterator(batch.end()));
      }
    }
    const obs::SpanTracer::Scoped span{tracer_, "sim.store.drop"};
    changed |= store_.drop_until(t) > 0;
    return changed;
  }

  [[nodiscard]] std::span<const broker::ClientGroup> groups() {
    const obs::SpanTracer::Scoped span{tracer_, "sim.store.groups"};
    return store_.groups();
  }
  [[nodiscard]] sim::SessionStore& store() noexcept { return store_; }

 private:
  sim::SessionStream* stream_;
  obs::SpanTracer* tracer_;
  std::deque<trace::Session> pending_;
  sim::SessionStore store_;
};

struct ReplayPass {
  double wall_s = 0.0;
  std::string reports;
  std::uint64_t sessions = 0;
  std::size_t peak_active = 0;
  std::size_t recomputes = 0;
  std::size_t rounds = 0;
  double groups = 0.0;
};

ReplayPass run_replay(StreamInputs& in, obs::SpanTracer& tracer) {
  const sim::Scenario& scenario = *in.scenario;
  sim::GeneratorStream broker_source{*in.broker};
  sim::GeneratorStream background_source{*in.background};
  TracedStream broker_stream{broker_source, tracer};
  TracedStream background_stream{background_source, tracer};
  const auto epochs = static_cast<std::size_t>(
      std::ceil(broker_stream.duration_s() / kEpochS));

  ReplayPass pass;
  const auto start = Clock::now();
  sim::RunConfig base_run;
  base_run.threads = kThreads;
  std::optional<cdn::CandidateMenuCache> design_menus;
  std::optional<cdn::CandidateMenuCache> background_cache;
  const cdn::CandidateMenuCache* background_menus = nullptr;
  {
    const obs::SpanTracer::Scoped span{&tracer, "cdn.menus.build"};
    const std::size_t cities = scenario.world().cities().size();
    design_menus.emplace(scenario.catalog(), scenario.mapping(), cities,
                         sim::menu_config_for(kDesign, base_run));
    background_menus = &*design_menus;
    if (!(design_menus->config() == cdn::MatchingConfig{})) {
      background_cache.emplace(scenario.catalog(), scenario.mapping(), cities,
                               cdn::MatchingConfig{});
      background_menus = &*background_cache;
    }
  }
  base_run.menus = &*design_menus;

  ReplaySet broker{broker_stream, tracer};
  ReplaySet background{background_stream, tracer};
  std::vector<double> background_loads;
  bool background_stale = true;
  sim::detail::ChurnTracker churn;
  sim::TimelineResult timeline;
  for (std::size_t e = 0; e < epochs; ++e) {
    const obs::SpanTracer::Scoped epoch_span{&tracer, "sim.epoch"};
    const double mid = (static_cast<double>(e) + 0.5) * kEpochS;
    broker.advance_to(mid);
    background_stale |= background.advance_to(mid);
    pass.peak_active =
        std::max(pass.peak_active, broker.store().size() + background.store().size());
    if (broker.store().size() == 0) continue;

    const auto groups = broker.groups();
    if (background_stale) {
      const obs::SpanTracer::Scoped span{&tracer, "sim.background.place"};
      background_loads =
          sim::place_background_over(scenario, background.groups(), background_menus);
      background_stale = false;
      ++pass.recomputes;
    }
    sim::RunConfig run = base_run;
    run.qoe_epoch = e + 1;
    sim::DesignOutcome outcome;
    {
      const obs::SpanTracer::Scoped span{&tracer, "sim.design_round"};
      outcome = sim::run_design_over(scenario, kDesign, run, groups, background_loads);
    }
    sim::detail::Assignment assignment;
    {
      const obs::SpanTracer::Scoped span{&tracer, "sim.assign"};
      assignment = sim::detail::assign_sessions(broker.store(), outcome);
      broker.store().apply_assignment(assignment);
    }
    sim::EpochReport report;
    report.epoch = e;
    report.time_s = mid;
    report.active_sessions = broker.store().size();
    report.assigned_sessions = assignment.size();
    {
      const obs::SpanTracer::Scoped span{&tracer, "sim.metrics"};
      report.metrics = sim::compute_metrics_over(scenario, outcome, groups);
    }
    {
      const obs::SpanTracer::Scoped span{&tracer, "sim.churn"};
      churn.observe(scenario.catalog(), std::move(assignment), report);
    }
    timeline.epochs.push_back(std::move(report));
    ++pass.rounds;
    pass.groups += static_cast<double>(groups.size());
  }
  timeline.mean_cdn_switch_fraction = churn.mean_cdn_switch_fraction();
  pass.wall_s = seconds_between(start, Clock::now());
  pass.reports = sim::epoch_reports_jsonl(timeline);
  pass.sessions = broker_stream.pulled() + background_stream.pulled();
  return pass;
}

Result traced_run(const Options& options, const StreamShape& shape) {
  Result result;
  StreamInputs in = build_inputs(shape, options.seed);
  const EnginePass engine = run_engine(in);
  check_engine(result, in, engine);
  result.output_digest = digest_of(engine.reports);
  result.attempted = engine.result.broker_sessions;

  in.broker->reset();
  in.background->reset();
  obs::SpanTracer tracer{1 << 18};
  const ReplayPass replay = run_replay(in, tracer);
  result.check(replay.reports == engine.reports,
               "stream: traced replay reproduces the engine's epoch reports "
               "byte-for-byte");

  add_layer_times(result, tracer, replay.wall_s);
  result.set("rounds", static_cast<double>(replay.rounds));
  result.set("tracing.overhead_frac", replay.wall_s / engine.wall_s - 1.0);
  result.set("trace.sessions", static_cast<double>(replay.sessions));
  result.set("sim.active_peak", static_cast<double>(replay.peak_active));
  result.set("sim.design_round_ms_p50", median(span_ms(tracer, "sim.design_round")));
  result.set("sim.groups_per_round",
             replay.rounds > 0 ? replay.groups / static_cast<double>(replay.rounds) : 0.0);
  result.set("sim.background.recomputes", static_cast<double>(replay.recomputes));
  save_spans(options, tracer, "sim.epoch");
  result.repetitions = 1;
  return result;
}

}  // namespace

Result run_stream(const Options& options, const StreamShape& shape) {
  if (options.trace) return traced_run(options, shape);

  Result result;
  Repetitions repetitions;
  double sessions = 0.0;
  repeat_for(options, [&](std::size_t rep) {
    const auto start = Clock::now();
    StreamInputs in = build_inputs(shape, options.seed);
    const double setup_s = seconds_between(start, Clock::now());

    EnginePass pass = run_engine(in);
    const sim::StreamingResult& r = pass.result;
    sessions = static_cast<double>(r.broker_sessions + r.background_sessions);
    check_engine(result, in, pass);
    const std::string digest = digest_of(pass.reports);
    if (rep == 0) result.output_digest = digest;
    result.check(digest == result.output_digest,
                 "stream: epoch reports identical across repetitions");
    result.attempted += r.broker_sessions;
    repetitions.add(setup_s, std::move(pass.epoch_ms), pass.wall_s);
    return pass.wall_s;
  });
  result.set("peak_rss_mb", peak_rss_mb());
  repetitions.report(result, sessions);
  return result;
}

}  // namespace vdx::bench
