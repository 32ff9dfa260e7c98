// Shard workload: market::ShardedExchange (4 in-process shards) fed session
// deltas — the only workload that writes adds and removes into a persistent
// session book before each settlement. One round is push_session_delta plus
// run_round, timed by the benchmark around its own calls. The prefill of
// the initial population is set-up.
//
// Correctness oracle: a monolithic VdxExchange fed broker::group_sessions
// of the same population must settle to the same placements — on round 0
// from scratch, and on the last round from the settlement state the sharded
// exchange had before it.
#include <cstdio>
#include <memory>
#include <string>

#include "broker/grouping.hpp"
#include "market/shard.hpp"
#include "profile.hpp"
#include "sim/designs.hpp"
#include "workloads.hpp"

namespace vdx::bench {

namespace {

constexpr std::size_t kShards = 4;
constexpr std::size_t kCollectThreads = 2;
/// Small bid menus keep settlement from drowning the delta path.
constexpr std::size_t kBidCount = 4;
constexpr double kRungs[] = {1.2, 3.6};

/// Synthetic sessions: id -> (city, bitrate), a pure function of (seed, id).
class ChurnStream {
 public:
  ChurnStream(std::uint64_t seed, std::size_t cities) : seed_(seed), cities_(cities) {}

  [[nodiscard]] proto::ShardSessionAdd add_of(std::uint64_t id) const {
    const std::uint64_t bits = mix(id);
    return proto::ShardSessionAdd{static_cast<std::uint32_t>(id),
                                  static_cast<std::uint32_t>(bits % cities_),
                                  kRungs[(bits >> 32) & 1]};
  }
  [[nodiscard]] trace::Session session_of(std::uint64_t id) const {
    const proto::ShardSessionAdd add = add_of(id);
    trace::Session s;
    s.id = trace::SessionId{add.id};
    s.city = geo::CityId{add.city};
    s.bitrate_mbps = add.bitrate_mbps;
    s.duration_s = 600.0;
    return s;
  }

 private:
  [[nodiscard]] std::uint64_t mix(std::uint64_t id) const {
    std::uint64_t state = seed_ ^ (id * 0x9E3779B97F4A7C15ULL);
    return core::split_mix64(state);
  }

  std::uint64_t seed_;
  std::size_t cities_;
};

market::ExchangeConfig exchange_config() {
  market::ExchangeConfig config;
  config.agent.bid_count = kBidCount;
  return config;
}

std::unique_ptr<sim::Scenario> build_scenario() {
  sim::ScenarioConfig config;
  config.seed = kDeploymentSeed;
  config.trace.session_count = 10'000;  // pilot only; demand is synthetic
  return std::make_unique<sim::Scenario>(sim::Scenario::build(config));
}

struct ShardPass {
  std::unique_ptr<sim::Scenario> scenario;
  double setup_s = 0.0;
  /// Sum of the timed rounds.
  double wall_s = 0.0;
  std::vector<double> round_ms;
  std::size_t operations = 0;
  std::size_t not_ok = 0;
  std::vector<sim::Placement> first_placements;
  std::vector<sim::Placement> last_placements;
  std::vector<std::uint8_t> state_before_last;
  std::string outputs;
  ProtocolCounts protocol;
};

void append_placements(std::string& out, std::span<const sim::Placement> placements) {
  char line[160];
  for (const sim::Placement& p : placements) {
    std::snprintf(line, sizeof line, "%zu %u %.17g %.17g %.17g\n", p.group,
                  p.cluster.value(), p.clients, p.price, p.score);
    out += line;
  }
}

ShardPass shard_once(const ShardShape& shape, std::uint64_t seed,
                     obs::SpanTracer* tracer) {
  ShardPass pass;
  obs::MetricsRegistry metrics;
  const auto start = Clock::now();
  pass.scenario = build_scenario();
  const ChurnStream stream{seed, pass.scenario->world().cities().size()};
  market::ShardedConfig config;
  config.shards = kShards;
  config.collect_threads = kCollectThreads;
  config.exchange = exchange_config();
  if (tracer != nullptr) {
    config.exchange.obs.tracer = tracer;
    config.exchange.obs.metrics = &metrics;
  }
  market::ShardedExchange exchange{*pass.scenario, config};
  {
    std::vector<proto::ShardSessionAdd> prefill;
    prefill.reserve(shape.population);
    for (std::uint64_t id = 0; id < shape.population; ++id) {
      prefill.push_back(stream.add_of(id));
    }
    ++pass.operations;
    if (!exchange.push_session_delta(prefill, {}).ok()) ++pass.not_ok;
  }
  pass.setup_s = seconds_between(start, Clock::now());

  std::uint64_t head = 0;
  std::uint64_t tail = shape.population;
  std::vector<proto::ShardSessionAdd> adds(shape.churn);
  std::vector<std::uint32_t> removes(shape.churn);
  for (std::size_t r = 0; r < shape.rounds; ++r) {
    for (std::size_t k = 0; k < shape.churn; ++k) {
      adds[k] = stream.add_of(tail++);
      removes[k] = static_cast<std::uint32_t>(head++);
    }
    if (r + 1 == shape.rounds) pass.state_before_last = exchange.settlement().save_state();

    core::Result<market::RoundReport> report = market::RoundReport{};
    core::Status pushed = core::ok_status();
    double round_s = 0.0;
    {
      const obs::SpanTracer::Scoped round_span{tracer, "shard.round"};
      const auto round_start = Clock::now();
      {
        const obs::SpanTracer::Scoped span{tracer, "shard.push_delta"};
        pushed = exchange.push_session_delta(adds, removes);
      }
      {
        const obs::SpanTracer::Scoped span{tracer, "shard.run_round"};
        report = exchange.try_run_round();
      }
      round_s = seconds_between(round_start, Clock::now());
    }
    pass.operations += 2;
    pass.not_ok += (pushed.ok() ? 0 : 1) + (report.ok() ? 0 : 1);
    pass.wall_s += round_s;
    pass.round_ms.push_back(round_s * 1e3);
    if (report.ok()) {
      char line[96];
      std::snprintf(line, sizeof line, "round %zu %.17g %.17g\n", r,
                    report.value().mean_score, report.value().mean_cost);
      pass.outputs += line;
    }
    if (r == 0) {
      const auto placements = exchange.settlement().placements();
      pass.first_placements.assign(placements.begin(), placements.end());
    }
  }
  const auto placements = exchange.settlement().placements();
  pass.last_placements.assign(placements.begin(), placements.end());
  append_placements(pass.outputs, pass.last_placements);

  pass.protocol = ProtocolCounts::read(metrics);
  return pass;
}

bool same_placements(std::span<const sim::Placement> a, std::span<const sim::Placement> b) {
  std::string left;
  std::string right;
  append_placements(left, a);
  append_placements(right, b);
  return left == right;
}

/// Settles the population active after round `round` on a monolith (from
/// `state` when given) and compares with the sharded exchange's placements.
bool monolith_agrees(const ShardPass& pass, const ShardShape& shape, std::uint64_t seed,
                     std::size_t round, std::span<const std::uint8_t> state,
                     std::span<const sim::Placement> expected) {
  const sim::Scenario& scenario = *pass.scenario;
  const ChurnStream stream{seed, scenario.world().cities().size()};
  std::vector<trace::Session> sessions;
  sessions.reserve(shape.population);
  const std::uint64_t head = (round + 1) * shape.churn;
  for (std::uint64_t id = head; id < head + shape.population; ++id) {
    sessions.push_back(stream.session_of(id));
  }
  market::VdxExchange mono{scenario, exchange_config()};
  if (!state.empty() && !mono.restore_state(state).ok()) return false;
  mono.set_active_load(broker::group_sessions(sessions), sim::place_background(scenario));
  (void)mono.run_round();
  return same_placements(mono.placements(), expected);
}

void check_pass(Result& result, const ShardPass& pass) {
  result.check(pass.not_ok == 0, "shard: every delta push and round returned ok");
}

void check_against_monolith(Result& result, const ShardPass& pass,
                            const ShardShape& shape, std::uint64_t seed) {
  result.check(monolith_agrees(pass, shape, seed, 0, {}, pass.first_placements),
               "shard: round-0 placements equal a monolith fed "
               "broker::group_sessions");
  result.check(monolith_agrees(pass, shape, seed, shape.rounds - 1,
                               pass.state_before_last, pass.last_placements),
               "shard: last-round placements equal a monolith fed "
               "broker::group_sessions from the same settlement state");
}

Result traced_run(const Options& options, const ShardShape& shape) {
  Result result;
  const ShardPass plain = shard_once(shape, options.seed, nullptr);
  check_pass(result, plain);
  result.output_digest = digest_of(plain.outputs);
  result.attempted = plain.operations;
  result.failed = plain.not_ok;

  obs::SpanTracer tracer{1 << 18};
  const ShardPass traced = shard_once(shape, options.seed, &tracer);
  check_pass(result, traced);
  result.check(digest_of(traced.outputs) == result.output_digest,
               "shard: traced and untraced runs settle identically");
  check_against_monolith(result, plain, shape, options.seed);

  add_layer_times(result, tracer, traced.wall_s);
  const auto rounds = static_cast<double>(shape.rounds);
  const auto cdns = static_cast<double>(traced.scenario->catalog().cdns().size());
  result.set("rounds", rounds);
  result.set("tracing.overhead_frac", traced.wall_s / plain.wall_s - 1.0);
  result.set("shard.delta_sessions", 2.0 * static_cast<double>(shape.churn) * rounds);
  traced.protocol.report(result, cdns, rounds);
  save_spans(options, tracer, "shard.round");
  result.repetitions = 1;
  return result;
}

}  // namespace

Result run_shard(const Options& options, const ShardShape& shape) {
  if (options.trace) return traced_run(options, shape);

  Result result;
  Repetitions repetitions;
  ShardPass first;
  repeat_for(options, [&](std::size_t rep) {
    ShardPass pass = shard_once(shape, options.seed, nullptr);
    check_pass(result, pass);
    const std::string digest = digest_of(pass.outputs);
    if (rep == 0) result.output_digest = digest;
    result.check(digest == result.output_digest,
                 "shard: settlement identical across repetitions");
    result.attempted += pass.operations;
    result.failed += pass.not_ok;
    const double measured = pass.wall_s;
    repetitions.add(pass.setup_s, pass.round_ms, pass.wall_s);
    if (rep == 0) first = std::move(pass);
    return measured;
  });
  result.set("peak_rss_mb", peak_rss_mb());
  // After the RSS reading: the oracle materialises the whole population.
  check_against_monolith(result, first, shape, options.seed);
  repetitions.report(result, 2.0 * static_cast<double>(shape.churn * shape.rounds));
  return result;
}

}  // namespace vdx::bench
