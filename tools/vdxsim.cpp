// vdxsim — command-line front end for the VDX simulation stack.
//
// A downstream operator's tool: run any paper experiment or extension with
// custom scenario parameters, print the tables, optionally export CSV.
//
//   vdxsim table3  --sessions 33400 --seed 2017 --wc 2
//   vdxsim design  --name marketplace --wc 4
//   vdxsim timeline --name brokered --epoch 300
//   vdxsim exchange --rounds 10 --fraud 2
//   vdxsim federation --regions 8
//   vdxsim transactions --veto 0.3
//   vdxsim multibroker --brokers 4 --name bestlookup
//   vdxsim world
//
// Run `vdxsim help` for the full reference.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/flags.hpp"
#include "core/table.hpp"
#include "market/exchange.hpp"
#include "obs/observe.hpp"
#include "market/federation.hpp"
#include "market/transactions.hpp"
#include "proto/wire.hpp"
#include "sim/experiments.hpp"
#include "sim/hybrid.hpp"
#include "sim/multibroker.hpp"
#include "sim/streaming.hpp"
#include "sim/stress.hpp"
#include "sim/timeline.hpp"
#include "state/checkpoint.hpp"
#include "state/snapshot.hpp"
#include "state/store.hpp"
#include "trace/stats.hpp"

namespace {

using namespace vdx;

// Strict `--flag value` parsing with typed validation lives in core::Flags;
// every accessor below throws a one-line std::invalid_argument on a bad
// value, which main() prints as `vdxsim <command>: <message>`.
using core::Flags;

sim::ScenarioConfig scenario_config_from(Flags& flags) {
  sim::ScenarioConfig config;
  config.trace.session_count = flags.count("sessions", 33'400, 1);
  config.seed = static_cast<std::uint64_t>(flags.number("seed", 2017));
  config.background_multiplier = flags.number("background", 3.0);
  config.city_cdn_count = flags.count("city-cdns", 0);
  return config;
}

sim::RunConfig run_config_from(Flags& flags) {
  sim::RunConfig config;
  config.weights.performance = flags.number("wp", config.weights.performance);
  config.weights.cost = flags.number("wc", config.weights.cost);
  config.bid_count = flags.count("bids", 100, 1);
  config.menu_tolerance = flags.number("menu-tolerance", config.menu_tolerance);
  // Absent = hardware_concurrency (the internal 0 sentinel), 1 = legacy
  // serial. Output is byte-identical at any value (DESIGN.md §8), so an
  // explicit `--threads 0` is a mistake, not a request — rejected.
  config.threads = flags.count("threads", 0, 1);
  return config;
}

std::optional<sim::Design> design_by_name(const std::string& name) {
  for (const sim::Design design : sim::kAllDesigns) {
    std::string lowered{sim::to_string(design)};
    std::string compact;
    for (const char c : lowered) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        compact += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    }
    std::string want;
    for (const char c : name) {
      if (std::isalnum(static_cast<unsigned char>(c))) {
        want += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
    }
    if (compact == want) return design;
  }
  return std::nullopt;
}

void maybe_export_csv(const core::Table& table, Flags& flags) {
  const std::string path = flags.text("csv", "");
  if (path.empty()) return;
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write " + path};
  table.write_csv(out);
  std::printf("[csv] wrote %s\n", path.c_str());
}

int cmd_world(Flags& flags) {
  const sim::Scenario scenario = sim::Scenario::build(scenario_config_from(flags));
  core::Table table{{"Country", "Cost factor", "Colo factor", "Demand share",
                     "Cities", "Clusters"}};
  table.set_title("Synthetic world");
  std::vector<std::size_t> clusters_per_country(scenario.world().countries().size(), 0);
  for (const cdn::Cluster& cluster : scenario.catalog().clusters()) {
    ++clusters_per_country[scenario.world().country_of(cluster.city).id.value()];
  }
  for (const geo::Country& country : scenario.world().countries()) {
    table.add_row({country.name, core::format_double(country.bandwidth_cost_factor, 2),
                   core::format_double(country.colo_cost_factor, 2),
                   core::format_percent(country.demand_share, 1),
                   std::to_string(scenario.world().cities_in(country.id).size()),
                   std::to_string(clusters_per_country[country.id.value()])});
  }
  table.print(std::cout);
  maybe_export_csv(table, flags);
  flags.check_all_used();
  return 0;
}

int cmd_design(Flags& flags) {
  const std::string name = flags.text("name", "marketplace");
  const auto design = design_by_name(name);
  if (!design) {
    std::fprintf(stderr, "unknown design '%s'\n", name.c_str());
    return 2;
  }
  const sim::Scenario scenario = sim::Scenario::build(scenario_config_from(flags));
  const sim::RunConfig run = run_config_from(flags);
  const sim::DesignOutcome outcome = sim::run_design(scenario, *design, run);
  const sim::DesignMetrics metrics = sim::compute_metrics(scenario, outcome);

  core::Table table{{"Metric", "Value"}};
  table.set_title(std::string{sim::to_string(*design)});
  table.add_row({"median cost ($/client)", core::format_double(metrics.median_cost, 3)});
  table.add_row({"median score", core::format_double(metrics.median_score, 1)});
  table.add_row({"median distance (mi)",
                 core::format_double(metrics.median_distance_miles, 0)});
  table.add_row({"median cluster load", core::format_percent(metrics.median_load, 1)});
  table.add_row({"congested clients", core::format_percent(metrics.congested_fraction, 1)});
  table.add_row({"broker traffic (Mbps)",
                 core::format_double(metrics.broker_traffic_mbps, 0)});
  table.print(std::cout);

  core::Table accounts{{"CDN", "Traffic (Mbps)", "Revenue", "Cost", "Profit"}};
  accounts.set_title("Per-CDN settlement");
  for (const sim::CdnAccount& account : sim::per_cdn_accounts(scenario, outcome)) {
    if (account.traffic_mbps <= 0.0) continue;
    accounts.add_row({scenario.catalog().cdn(account.cdn).name,
                      core::format_double(account.traffic_mbps, 0),
                      account.revenue.to_string(), account.cost.to_string(),
                      account.profit.to_string()});
  }
  accounts.print(std::cout);
  maybe_export_csv(accounts, flags);
  flags.check_all_used();
  return 0;
}

int cmd_table3(Flags& flags) {
  const sim::Scenario scenario = sim::Scenario::build(scenario_config_from(flags));
  const sim::RunConfig run = run_config_from(flags);
  const auto rows = sim::table3_design_comparison(scenario, run);
  core::Table table{{"Design", "Cost", "Score", "Distance (mi)", "Load", "Congested"}};
  table.set_title("Table 3");
  for (const sim::Table3Row& row : rows) {
    table.add_row({std::string{sim::to_string(row.design)},
                   core::format_double(row.metrics.median_cost, 3),
                   core::format_double(row.metrics.median_score, 1),
                   core::format_double(row.metrics.median_distance_miles, 0),
                   core::format_percent(row.metrics.median_load, 0),
                   core::format_percent(row.metrics.congested_fraction, 0)});
  }
  table.print(std::cout);
  maybe_export_csv(table, flags);
  flags.check_all_used();
  return 0;
}

void print_timeline_table(const sim::TimelineResult& result, sim::Design design,
                          Flags& flags) {
  core::Table table{{"Epoch", "Time (s)", "Active", "CDN switch", "Cluster switch",
                     "Mean score"}};
  table.set_title("Timeline: " + std::string{sim::to_string(design)});
  for (const sim::EpochReport& epoch : result.epochs) {
    table.add_row({std::to_string(epoch.epoch), core::format_double(epoch.time_s, 0),
                   std::to_string(epoch.active_sessions),
                   core::format_percent(epoch.cdn_switch_fraction, 1),
                   core::format_percent(epoch.cluster_switch_fraction, 1),
                   core::format_double(epoch.metrics.mean_score, 1)});
  }
  table.print(std::cout);
  std::printf("mean CDN switch fraction: %s\n",
              core::format_percent(result.mean_cdn_switch_fraction, 1).c_str());
  maybe_export_csv(table, flags);
}

int cmd_timeline(Flags& flags) {
  if (flags.boolean("list-scenarios")) {
    for (const std::string_view scenario : sim::stress_scenario_names()) {
      std::printf("%.*s\n", static_cast<int>(scenario.size()), scenario.data());
    }
    flags.check_all_used();
    return 0;
  }
  const std::string name = flags.text("name", "marketplace");
  const auto design = design_by_name(name);
  if (!design) {
    std::fprintf(stderr, "unknown design '%s'\n", name.c_str());
    return 2;
  }
  sim::ScenarioConfig scenario_config = scenario_config_from(flags);
  // 0 sentinel = keep the trace default; an explicit `--hours 0` (or a
  // negative) is rejected by positive() with a one-line error.
  const double hours = flags.positive("hours", 0.0);
  if (hours > 0.0) scenario_config.trace.duration_s = hours * 3600.0;
  const double epoch_s = flags.positive("epoch", 300.0);

  // Both paths run sim::StreamingTimeline; --stream only picks the source.
  // Without it the engine replays the scenario's materialized traces.
  if (!flags.boolean("stream")) {
    for (const char* checkpoint_flag :
         {"checkpoint-every", "checkpoint-dir", "keep", "resume-from"}) {
      if (flags.has(checkpoint_flag)) {
        throw std::invalid_argument{std::string{"--"} + checkpoint_flag +
                                    " requires --stream (checkpoints fingerprint "
                                    "the generator-fed run)"};
      }
    }
    for (const char* stress_flag : {"scenario", "spike-city", "spike-factor",
                                    "blackout-region", "shock-factor",
                                    "shed-budget"}) {
      if (flags.has(stress_flag)) {
        throw std::invalid_argument{std::string{"--"} + stress_flag +
                                    " requires --stream (stress scenarios are "
                                    "wired to the generator-fed run)"};
      }
    }
    const sim::Scenario scenario = sim::Scenario::build(scenario_config);
    sim::StreamingConfig config;
    config.design = *design;
    config.run = run_config_from(flags);
    config.epoch_s = epoch_s;
    print_timeline_table(sim::run_timeline(scenario, config), *design, flags);
    flags.check_all_used();
    return 0;
  }

  // --stream: the event-driven engine fed from chunked generators. The
  // scenario only contributes world/catalog/mapping here, so it is built
  // with a small pilot trace — the requested session count lives in the
  // streams and is never resident in memory all at once.
  const std::size_t sessions = scenario_config.trace.session_count;
  sim::ScenarioConfig pilot = scenario_config;
  pilot.trace.session_count = std::min<std::size_t>(sessions, 10'000);
  sim::Scenario scenario = sim::Scenario::build(pilot);

  // Adversarial stress (DESIGN.md §11): demand-side modulators attach to the
  // broker generator; supply-side events mutate the catalog through a
  // controller the engine drives at each epoch midpoint.
  const sim::StressConfig stress_config = sim::stress_config_from_flags(flags);
  const sim::StressProfile stress_profile = sim::make_stress_profile(
      scenario.world(), stress_config, scenario_config.trace.duration_s);

  core::Rng stream_root{scenario_config.seed};
  core::Rng broker_rng = stream_root.fork("stream-trace");
  core::Rng background_rng = stream_root.fork("stream-background");
  trace::TraceConfig broker_trace = scenario_config.trace;
  trace::TraceConfig background_trace = broker_trace;
  background_trace.session_count = static_cast<std::size_t>(std::llround(
      scenario_config.background_multiplier * static_cast<double>(sessions)));
  trace::BrokerTraceGenerator::Options broker_options;
  broker_options.modulation = &stress_profile.demand;
  trace::BrokerTraceGenerator::Options background_options;
  background_options.broker_controlled = false;
  trace::BrokerTraceGenerator broker_generator{scenario.world(), broker_trace,
                                               broker_rng, broker_options};
  trace::BrokerTraceGenerator background_generator{
      scenario.world(), background_trace, background_rng, background_options};

  sim::StreamingConfig config;
  config.design = *design;
  config.run = run_config_from(flags);
  config.epoch_s = epoch_s;
  config.overload.max_active_sessions = stress_config.shed_budget;
  std::optional<sim::SupplyStressController> stress;
  if (stress_profile.supply_active()) {
    stress.emplace(scenario, stress_profile);
    config.stress = &*stress;
  }

  // Crash-consistency flags (DESIGN.md §10). The fingerprint binds every
  // snapshot to this exact run configuration: resuming under different
  // flags is rejected instead of silently diverging.
  const std::size_t checkpoint_every = flags.count("checkpoint-every", 0, 1);
  const std::string checkpoint_dir = flags.text("checkpoint-dir", "");
  const std::size_t keep = flags.count("keep", 3, 1);
  const std::string resume_from = flags.existing_path("resume-from");
  if (checkpoint_every > 0 && checkpoint_dir.empty()) {
    throw std::invalid_argument{"--checkpoint-every requires --checkpoint-dir"};
  }
  state::RunFingerprint fingerprint;
  fingerprint.seed = scenario_config.seed;
  fingerprint.design = static_cast<std::uint8_t>(*design);
  fingerprint.broker_sessions = sessions;
  fingerprint.background_sessions = background_trace.session_count;
  fingerprint.duration_s = broker_trace.duration_s;
  fingerprint.epoch_s = epoch_s;
  {
    proto::ByteWriter hashed;
    hashed.write_f64(config.run.weights.performance);
    hashed.write_f64(config.run.weights.cost);
    hashed.write_u64(config.run.bid_count);
    hashed.write_f64(config.run.menu_tolerance);
    hashed.write_f64(scenario_config.background_multiplier);
    hashed.write_u64(scenario_config.city_cdn_count);
    // A checkpoint taken under one stress scenario must refuse to resume
    // under another — the scenario reshapes both streams and the catalog.
    hashed.write_u64(sim::stress_config_hash(stress_config));
    const std::vector<std::uint8_t> bytes = hashed.take();
    fingerprint.config_hash = state::fnv1a(bytes);
  }
  // The engine validates every resumed snapshot against this fingerprint,
  // so it is set even when this invocation writes no checkpoints itself.
  config.checkpoint.fingerprint = fingerprint;
  std::optional<state::CheckpointStore> store;
  if (!checkpoint_dir.empty()) {
    store.emplace(checkpoint_dir, keep);
    config.checkpoint.every_epochs = checkpoint_every > 0 ? checkpoint_every : 1;
    config.checkpoint.store = &*store;
  }

  sim::GeneratorStream broker_stream{broker_generator};
  sim::GeneratorStream background_stream{background_generator};
  const sim::StreamingTimeline timeline{scenario, config};

  sim::StreamingResult result;
  if (!resume_from.empty()) {
    std::vector<std::uint8_t> snapshot;
    if (std::filesystem::is_directory(resume_from)) {
      // A directory means "latest valid snapshot in this checkpoint dir",
      // falling back across corrupted files.
      const state::CheckpointStore source{resume_from, keep};
      auto loaded = source.load_latest([&](std::span<const std::uint8_t> bytes) {
        auto decoded = state::decode_timeline(bytes);
        if (!decoded.ok()) return core::Status{decoded.error()};
        if (!(decoded.value().fingerprint == fingerprint)) {
          return core::Status::failure(
              core::Errc::kInvalidArgument,
              "snapshot fingerprint does not match these flags");
        }
        return core::ok_status();
      });
      if (!loaded.ok()) {
        std::fprintf(stderr, "vdxsim timeline: --resume-from: %s (%s)\n",
                     loaded.error().message.c_str(), errc_name(loaded.error().code));
        return 1;
      }
      for (const std::string& line : loaded.value().rejected) {
        std::fprintf(stderr, "[resume] skipped %s\n", line.c_str());
      }
      std::printf("[resume] %s (epoch %llu)\n",
                  loaded.value().path.string().c_str(),
                  static_cast<unsigned long long>(loaded.value().epoch));
      snapshot = std::move(loaded).value().bytes;
    } else {
      auto bytes = state::read_file(resume_from);
      if (!bytes.ok()) {
        std::fprintf(stderr, "vdxsim timeline: --resume-from: %s\n",
                     bytes.error().message.c_str());
        return 1;
      }
      snapshot = std::move(bytes).value();
    }
    auto resumed = timeline.resume(broker_stream, background_stream, snapshot);
    if (!resumed.ok()) {
      std::fprintf(stderr, "vdxsim timeline: resume rejected: %s (%s)\n",
                   resumed.error().message.c_str(), errc_name(resumed.error().code));
      return 1;
    }
    result = std::move(resumed).value();
  } else {
    result = timeline.run(broker_stream, background_stream);
  }

  print_timeline_table(result.timeline, *design, flags);
  std::printf("streamed: broker=%zu background=%zu peak-active=%zu "
              "decision-rounds=%zu background-recomputes=%zu shed=%zu\n",
              result.broker_sessions, result.background_sessions,
              result.peak_active_sessions, result.decision_rounds,
              result.background_recomputes, result.shed_sessions);
  flags.check_all_used();
  return 0;
}

int cmd_exchange(Flags& flags) {
  const sim::Scenario scenario = sim::Scenario::build(scenario_config_from(flags));
  market::ExchangeConfig config;
  if (flags.text("strategy", "risk-averse") == "static") {
    config.strategy = market::StrategyKind::kStatic;
  }
  // Chaos transport (§6.3): --drop/--corrupt per-frame rates switch the
  // exchange onto the deadline/retry engine with stale-bid fallback.
  config.chaos.faults.drop_rate = flags.number("drop", 0.0);
  config.chaos.faults.corrupt_rate = flags.number("corrupt", 0.0);
  config.chaos.faults.seed =
      static_cast<std::uint64_t>(flags.number("chaos-seed", 0xC4A05));

  // Observability exports (DESIGN.md §7). Traces use the logical clock only,
  // so two same-seed runs produce byte-identical files.
  const std::string metrics_path = flags.text("metrics-out", "");
  const std::string trace_path = flags.text("trace-out", "");
  const std::string journal_path = flags.text("journal-out", "");
  obs::MetricsRegistry metrics;
  obs::SpanTracer tracer;
  obs::RunJournal journal;
  config.obs.metrics = &metrics;
  if (!trace_path.empty()) config.obs.tracer = &tracer;
  if (!journal_path.empty()) config.obs.journal = &journal;

  market::VdxExchange exchange{scenario, config};
  const bool chaos = config.chaos.faults.any();
  const double fraud = flags.number("fraud", -1.0);
  const double fail = flags.number("fail", -1.0);
  if (fraud >= 0) {
    exchange.set_fraudulent(cdn::CdnId{static_cast<std::uint32_t>(fraud)}, true);
  }
  if (fail >= 0) {
    exchange.set_failed(cdn::CdnId{static_cast<std::uint32_t>(fail)}, true);
  }

  const auto rounds = static_cast<std::size_t>(flags.number("rounds", 5));
  std::vector<std::string> header{"Round",      "Bids",        "Wire MB",
                                  "Mean score", "Mean cost",   "Pred. error",
                                  "Congested"};
  if (chaos) {
    header.insert(header.end(), {"Timeouts", "Retries", "Stale", "Degraded"});
  }
  core::Table table{header};
  table.set_title(chaos ? "VDX exchange rounds (chaos transport)"
                        : "VDX exchange rounds");
  for (std::size_t r = 0; r < rounds; ++r) {
    const market::RoundReport report = exchange.run_round();
    std::vector<std::string> row{
        std::to_string(r + 1), std::to_string(report.wire.bids_received),
        core::format_double(static_cast<double>(report.wire.bytes_on_wire) / 1e6, 1),
        core::format_double(report.mean_score, 1),
        core::format_double(report.mean_cost, 3),
        core::format_double(report.mean_prediction_error, 3),
        core::format_percent(report.congested_fraction, 1)};
    if (chaos) {
      row.push_back(std::to_string(report.wire.chaos.timeouts));
      row.push_back(std::to_string(report.wire.chaos.retries));
      row.push_back(std::to_string(report.stale_bids_used));
      row.push_back(report.degraded ? "yes" : "no");
    }
    table.add_row(row);
  }
  table.print(std::cout);

  const auto export_file = [](const std::string& path, const auto& writer) {
    std::ofstream out{path};
    if (!out) throw std::runtime_error{"cannot write " + path};
    writer(out);
    std::printf("[obs] wrote %s\n", path.c_str());
  };
  if (!metrics_path.empty()) {
    export_file(metrics_path,
                [&](std::ostream& out) { metrics.write_jsonl(out); });
  }
  if (!trace_path.empty()) {
    export_file(trace_path, [&](std::ostream& out) { tracer.write_jsonl(out); });
  }
  if (!journal_path.empty()) {
    export_file(journal_path,
                [&](std::ostream& out) { journal.write_jsonl(out); });
    journal.summary_table().print(std::cout);
  }

  maybe_export_csv(table, flags);
  flags.check_all_used();
  return 0;
}

int cmd_federation(Flags& flags) {
  const sim::Scenario scenario = sim::Scenario::build(scenario_config_from(flags));
  market::FederationConfig config;
  config.region_count = static_cast<std::size_t>(flags.number("regions", 4));
  config.run = run_config_from(flags);
  config.threads = config.run.threads;  // --threads parallelizes region solves
  config.run.threads = 1;
  const market::FederationResult result =
      market::run_federated_marketplace(scenario, config);
  std::printf("regions=%zu largest-instance=%zu bids optimize=%.2fs "
              "mean-cost=%.3f mean-score=%.1f fallback-clients=%.0f\n",
              result.region_count, result.largest_instance_options,
              result.optimize_seconds, result.metrics.mean_cost,
              result.metrics.mean_score, result.fallback_clients);
  flags.check_all_used();
  return 0;
}

int cmd_transactions(Flags& flags) {
  const sim::Scenario scenario = sim::Scenario::build(scenario_config_from(flags));
  market::TransactionConfig config;
  config.veto_threshold = flags.number("veto", 0.2);
  config.max_rounds = static_cast<std::size_t>(flags.number("rounds", 12));
  const market::TransactionResult result = market::run_transactions(scenario, config);
  std::printf("committed=%s rounds=%zu withdrawn=%zu final-score=%.2f "
              "final-cost=%.3f\n",
              result.committed ? "yes" : "NO", result.rounds_used,
              result.withdrawn_cdns, result.final_mean_score, result.final_mean_cost);
  flags.check_all_used();
  return 0;
}

int cmd_multibroker(Flags& flags) {
  const std::string name = flags.text("name", "bestlookup");
  const auto design = design_by_name(name);
  if (!design) {
    std::fprintf(stderr, "unknown design '%s'\n", name.c_str());
    return 2;
  }
  const sim::Scenario scenario = sim::Scenario::build(scenario_config_from(flags));
  sim::MultiBrokerConfig config;
  config.design = *design;
  config.broker_count = static_cast<std::size_t>(flags.number("brokers", 2));
  config.run = run_config_from(flags);
  const sim::MultiBrokerResult result = sim::run_multibroker(scenario, config);
  std::printf("design=%s brokers=%zu congested=%s overbooked-clusters=%zu "
              "mean-score=%.1f\n",
              std::string{sim::to_string(result.design)}.c_str(), result.broker_count,
              core::format_percent(result.metrics.congested_fraction, 1).c_str(),
              result.overbooked_clusters, result.metrics.mean_score);
  flags.check_all_used();
  return 0;
}

int cmd_trace(Flags& flags) {
  const sim::Scenario scenario = sim::Scenario::build(scenario_config_from(flags));
  const trace::BrokerTrace& trace = scenario.broker_trace();

  core::Table table{{"Statistic", "Value", "Paper (§3.1)"}};
  table.set_title("Broker trace characterization");
  table.add_row({"sessions", std::to_string(trace.size()), "33.4K"});
  table.add_row({"abandonment rate",
                 core::format_percent(trace::abandonment_rate(trace), 1), "~78%"});
  const auto slope = trace::video_zipf_slope(trace);
  table.add_row({"video rank-frequency slope",
                 slope ? core::format_double(*slope, 2) : "n/a", "Zipf"});
  table.add_row({"sessions moved at least once",
                 core::format_percent(trace::moved_fraction_overall(trace), 1),
                 "high (Fig. 4)"});
  const auto series = trace::moved_fraction_timeseries(trace);
  std::vector<double> steady(series.begin() + series.size() / 6, series.end());
  double mean = 0.0;
  for (const double v : steady) mean += v;
  mean /= static_cast<double>(steady.size());
  table.add_row({"moved fraction per 5s bin (steady mean)",
                 core::format_percent(mean, 1), "~40%"});
  table.print(std::cout);

  const auto usage = trace::country_usage(trace, scenario.world(), 100);
  core::Table countries{{"Country", "Requests", "CDN A", "CDN B", "CDN C", "other"}};
  countries.set_title("Per-country CDN usage (Fig. 7)");
  for (const auto& u : usage) {
    countries.add_row({scenario.world().countries()[u.country.value()].name,
                       std::to_string(u.requests),
                       core::format_percent(u.share[0], 0),
                       core::format_percent(u.share[1], 0),
                       core::format_percent(u.share[2], 0),
                       core::format_percent(u.share[3], 0)});
  }
  countries.print(std::cout);
  maybe_export_csv(countries, flags);
  flags.check_all_used();
  return 0;
}

int cmd_hybrid(Flags& flags) {
  const sim::Scenario scenario = sim::Scenario::build(scenario_config_from(flags));
  const sim::HybridOutcome result =
      sim::run_hybrid_pricing(scenario, run_config_from(flags));
  const double total = result.flat_clients + result.dynamic_clients;
  std::printf("flat=%.1f%% dynamic=%.1f%% mean-cost=%.3f mean-score=%.1f "
              "congested=%s\n",
              100.0 * result.flat_clients / total,
              100.0 * result.dynamic_clients / total, result.metrics.mean_cost,
              result.metrics.mean_score,
              core::format_percent(result.metrics.congested_fraction, 1).c_str());
  flags.check_all_used();
  return 0;
}

void print_help() {
  std::puts(
      "vdxsim — VDX marketplace simulation front end\n"
      "\n"
      "usage: vdxsim <command> [--flag value ...]\n"
      "\n"
      "commands:\n"
      "  world          print the synthetic world (countries, costs, clusters)\n"
      "  design         run one design snapshot   (--name brokered|marketplace|...)\n"
      "  table3         run the full design comparison\n"
      "  timeline       per-epoch decision churn  (--name X --epoch 300\n"
      "                 --hours H --stream: event-driven engine over chunked\n"
      "                 session generators — memory stays bounded at any\n"
      "                 --sessions)\n"
      "                 crash consistency (--stream only):\n"
      "                   --checkpoint-dir D    snapshot directory\n"
      "                   --checkpoint-every N  epochs between snapshots (default 1)\n"
      "                   --keep K              snapshots retained (default 3)\n"
      "                   --resume-from PATH    snapshot file, or a checkpoint\n"
      "                                         dir (= latest valid snapshot)\n"
      "                 adversarial stress (--stream only):\n"
      "                   --scenario S          steady|flash-crowd|diurnal|\n"
      "                                         blackout|price-shock|perfect-storm\n"
      "                   --spike-city I        flash-crowd city (default busiest)\n"
      "                   --spike-factor X      flash-crowd demand multiplier (50)\n"
      "                   --blackout-region R   country name (default highest-demand)\n"
      "                   --shock-factor X      price-shock multiplier (3)\n"
      "                   --shed-budget N       max active sessions per round (0=off)\n"
      "                   --list-scenarios      print scenario names and exit\n"
      "  exchange       multi-round VDX exchange  (--rounds N --fraud I --fail I\n"
      "                 --strategy static|risk-averse --drop P --corrupt P\n"
      "                 --chaos-seed S --metrics-out F --trace-out F\n"
      "                 --journal-out F)\n"
      "  federation     regional marketplaces     (--regions R)\n"
      "  transactions   all-CDN-approval protocol (--veto T --rounds N)\n"
      "  multibroker    overbooking study         (--brokers B --name X)\n"
      "  hybrid         flat+dynamic pricing blend\n"
      "  trace          broker-trace characterization (Figs. 4/7, §3.1)\n"
      "  help           this text\n"
      "\n"
      "scenario flags (all commands): --sessions N --seed S --background X\n"
      "                               --city-cdns N\n"
      "optimizer flags:               --wp W --wc W --bids K --menu-tolerance T\n"
      "parallelism:                   --threads N (0 = all cores, the default;\n"
      "                               1 = serial; same seed gives byte-identical\n"
      "                               output at any N)\n"
      "output flags:                  --csv FILE (where the command prints a table)\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_help();
    return 2;
  }
  const std::string command = argv[1];
  try {
    Flags flags{argc, argv, 2};
    if (command == "world") return cmd_world(flags);
    if (command == "design") return cmd_design(flags);
    if (command == "table3") return cmd_table3(flags);
    if (command == "timeline") return cmd_timeline(flags);
    if (command == "exchange") return cmd_exchange(flags);
    if (command == "federation") return cmd_federation(flags);
    if (command == "transactions") return cmd_transactions(flags);
    if (command == "multibroker") return cmd_multibroker(flags);
    if (command == "hybrid") return cmd_hybrid(flags);
    if (command == "trace") return cmd_trace(flags);
    if (command == "help" || command == "--help" || command == "-h") {
      print_help();
      return 0;
    }
    std::fprintf(stderr, "unknown command '%s' (try 'vdxsim help')\n", command.c_str());
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "vdxsim %s: %s\n", command.c_str(), error.what());
    return 1;
  }
}
