// Differential equivalence suite (DESIGN.md §14): a ShardedExchange at
// N in {1, 2, 4, 7} must be byte-identical to the monolithic VdxExchange —
// RoundReports, settled placements, journal JSONL, metrics JSONL — for the
// steady workload and all five adversarial stress scenarios, over both
// backends, with link chaos on, and with the pooled in-process allocation
// broadcast.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "market/shard.hpp"
#include "proto/wire.hpp"
#include "shard/shard_test_util.hpp"
#include "sim/designs.hpp"
#include "state/snapshot.hpp"

namespace vdx::market {
namespace {

using shard_test::RoundAction;
using shard_test::RunCapture;

constexpr std::size_t kShardCounts[] = {1, 2, 4, 7};
constexpr std::size_t kRounds = 4;

class ShardEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig config;
    config.trace.session_count = 1200;
    config.seed = 17;
    scenario_ = new sim::Scenario(sim::Scenario::build(config));
    background_ = new std::vector<double>(sim::place_background(*scenario_));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
    delete background_;
    background_ = nullptr;
  }
  static const sim::Scenario& scenario() { return *scenario_; }
  static std::span<const double> background() { return *background_; }

  /// The monolithic reference for `script`.
  static RunCapture run_mono(const std::vector<RoundAction>& script) {
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    ExchangeConfig config;
    config.obs = obs::Observer{&metrics, nullptr, &journal};
    VdxExchange exchange{scenario(), config};
    return shard_test::drive(exchange, script, background(), journal, metrics);
  }

  static RunCapture run_sharded(const std::vector<RoundAction>& script,
                                ShardedConfig config) {
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
    ShardedExchange exchange{scenario(), config};
    return shard_test::drive(exchange, script, background(), journal, metrics);
  }

  /// The core differential: one scenario, every shard count, inproc backend.
  static void expect_scenario_identical(sim::StressScenario kind) {
    const auto script = shard_test::make_script(scenario(), kind, kRounds);
    const RunCapture mono = run_mono(script);
    ASSERT_FALSE(mono.placements.empty());
    for (const std::size_t shards : kShardCounts) {
      ShardedConfig config;
      config.shards = shards;
      const RunCapture sharded = run_sharded(script, config);
      shard_test::expect_identical(
          mono, sharded,
          std::string{to_string(kind)} + " shards=" + std::to_string(shards));
    }
  }

 private:
  static sim::Scenario* scenario_;
  static std::vector<double>* background_;
};

sim::Scenario* ShardEquivalence::scenario_ = nullptr;
std::vector<double>* ShardEquivalence::background_ = nullptr;

/// Every worker's shard.rounds counter, read from the embedded worker
/// states (section 33) of the coordinator's snapshot.
std::vector<double> worker_rounds(const ShardedExchange& exchange) {
  const auto view = state::SnapshotView::parse(exchange.save_state());
  EXPECT_TRUE(view.ok());
  proto::ByteReader workers{view.value().find(33)->bytes};
  std::vector<double> rounds(workers.read_u32(), 0.0);
  for (double& value : rounds) {
    const std::uint32_t len = workers.read_u32();
    const auto worker = state::SnapshotView::parse(workers.read_bytes(len));
    EXPECT_TRUE(worker.ok());
    proto::ByteReader counters{worker.value().find(22)->bytes};  // worker counters
    for (std::uint32_t n = counters.read_u32(); n > 0; --n) {
      const std::string name = counters.read_string();
      const double counted = counters.read_f64();
      if (name == "shard.rounds") value = counted;
    }
  }
  return rounds;
}

TEST_F(ShardEquivalence, SteadyMatchesMonolithAtEveryShardCount) {
  expect_scenario_identical(sim::StressScenario::kSteady);
}

TEST_F(ShardEquivalence, FlashCrowdMatchesMonolithAtEveryShardCount) {
  expect_scenario_identical(sim::StressScenario::kFlashCrowd);
}

TEST_F(ShardEquivalence, DiurnalMatchesMonolithAtEveryShardCount) {
  expect_scenario_identical(sim::StressScenario::kDiurnal);
}

TEST_F(ShardEquivalence, BlackoutMatchesMonolithAtEveryShardCount) {
  expect_scenario_identical(sim::StressScenario::kBlackout);
}

TEST_F(ShardEquivalence, PriceShockMatchesMonolithAtEveryShardCount) {
  expect_scenario_identical(sim::StressScenario::kPriceShock);
}

TEST_F(ShardEquivalence, PerfectStormMatchesMonolithAtEveryShardCount) {
  expect_scenario_identical(sim::StressScenario::kPerfectStorm);
}

TEST_F(ShardEquivalence, ProcessBackendMatchesMonolith) {
  for (const sim::StressScenario kind :
       {sim::StressScenario::kSteady, sim::StressScenario::kPerfectStorm}) {
    const auto script = shard_test::make_script(scenario(), kind, kRounds);
    const RunCapture mono = run_mono(script);
    for (const std::size_t shards : {std::size_t{2}, std::size_t{4}}) {
      ShardedConfig config;
      config.shards = shards;
      config.backend = ShardBackend::kProcess;
      const RunCapture sharded = run_sharded(script, config);
      shard_test::expect_identical(mono, sharded,
                                   std::string{"process "} +
                                       std::string{to_string(kind)} +
                                       " shards=" + std::to_string(shards));
    }
  }
}

// Link chaos costs retries, never settlement bytes: with drop + corrupt +
// duplicate on every coordinator<->worker link, the output must still be
// byte-identical — and the injector must demonstrably have fired.
TEST_F(ShardEquivalence, LinkChaosNeverChangesSettlementBytes) {
  for (const sim::StressScenario kind :
       {sim::StressScenario::kSteady, sim::StressScenario::kFlashCrowd}) {
    const auto script = shard_test::make_script(scenario(), kind, kRounds);
    const RunCapture mono = run_mono(script);
    ShardedConfig config;
    config.shards = 7;
    config.link_faults.drop_rate = 0.2;
    config.link_faults.corrupt_rate = 0.1;
    config.link_faults.duplicate_rate = 0.1;

    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
    ShardedExchange exchange{scenario(), config};
    const RunCapture sharded =
        shard_test::drive(exchange, script, background(), journal, metrics);
    shard_test::expect_identical(mono, sharded,
                                 std::string{"chaos "} +
                                     std::string{to_string(kind)});

    const proto::FaultCounters link = exchange.link_fault_counters();
    EXPECT_GT(link.frames, 0u);
    EXPECT_GT(link.dropped + link.corrupted + link.duplicated, 0u);
  }
}

// Duplicate-only chaos: every duplicated frame is delivered to its worker
// TWICE — no collapsing at the coordinator — so per-round idempotency is
// exercised end to end, and the settlement bytes still must not move.
TEST_F(ShardEquivalence, DuplicatedFramesAreDeliveredWithoutChangingBytes) {
  const auto script =
      shard_test::make_script(scenario(), sim::StressScenario::kSteady, kRounds);
  const RunCapture mono = run_mono(script);
  ShardedConfig config;
  config.shards = 4;
  config.link_faults.duplicate_rate = 1.0;  // EVERY data-plane frame, twice

  obs::MetricsRegistry metrics;
  obs::RunJournal journal;
  config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
  ShardedExchange exchange{scenario(), config};
  const RunCapture sharded =
      shard_test::drive(exchange, script, background(), journal, metrics);
  shard_test::expect_identical(mono, sharded, "duplicate-only chaos");

  const proto::FaultCounters link = exchange.link_fault_counters();
  EXPECT_GT(link.duplicated, 0u);
  // Each apply emitted both copies and none were dropped: everything the
  // injector produced really went to (or came back from) a worker.
  EXPECT_EQ(link.delivered, link.frames + link.duplicated);

  // Every allocation reached its worker twice, yet each worker booked each
  // round once: one shard.rounds count and one round-start event per round.
  const std::vector<double> rounds = worker_rounds(exchange);
  ASSERT_EQ(rounds.size(), config.shards);
  const auto merged = exchange.merged_worker_journal();
  ASSERT_TRUE(merged.ok());
  for (std::size_t s = 0; s < rounds.size(); ++s) {
    EXPECT_EQ(rounds[s], static_cast<double>(kRounds)) << "shard " << s;
    std::vector<std::uint32_t> starts;
    for (const obs::Event& e : merged.value()) {
      if (e.kind == obs::EventKind::kRoundStart && e.subject == s) {
        starts.push_back(e.round);
      }
    }
    ASSERT_EQ(starts.size(), kRounds) << "shard " << s;
    for (std::size_t r = 0; r < kRounds; ++r) EXPECT_EQ(starts[r], r) << "shard " << s;
  }
}

// Settlement reads the coordinator's own demand: a fault-free round costs
// each shard one slice push and one allocation, and no frame carries demand
// back to the coordinator.
TEST_F(ShardEquivalence, FaultFreeSessionRoundSendsTwoFramesPerShard) {
  const auto cities = static_cast<std::uint32_t>(scenario().world().cities().size());
  for (const std::size_t shards : kShardCounts) {
    ShardedConfig config;
    config.shards = shards;
    ShardedExchange exchange{scenario(), config};
    const auto frames = [&] {
      return exchange.shard_metrics().find("exchange.shard.frames")->value;
    };
    for (std::uint32_t r = 0; r < 3; ++r) {
      std::vector<proto::ShardSessionAdd> adds;
      for (std::uint32_t k = 0; k < 200; ++k) {
        const std::uint32_t id = r * 200 + k;
        adds.push_back({id, id % cities, k % 2 == 0 ? 1.2 : 3.6});
      }
      std::vector<std::uint32_t> removes;
      for (std::uint32_t k = 0; r > 0 && k < 50; ++k) {
        removes.push_back((r - 1) * 200 + k);
      }

      const double before = frames();
      ASSERT_TRUE(exchange.push_session_delta(adds, removes).ok());
      (void)exchange.run_round();
      EXPECT_EQ(frames() - before, 2.0 * static_cast<double>(exchange.plan().shard_count))
          << "shards=" << shards << " round " << r;
    }
  }
}

// Session-fed mode: the coordinator folds deltas into its one session book
// and slices the book's groups across the shards; a monolith fed
// broker::group_sessions of the same live sessions each round must settle
// identically.
TEST_F(ShardEquivalence, SessionFedMatchesGlobalLedgerAtEveryShardCount) {
  constexpr double kLadder[] = {0.8, 1.6, 3.2};
  const std::size_t cities = scenario().world().cities().size();
  const auto add_of = [&](std::uint32_t id) {
    return proto::ShardSessionAdd{id, id % static_cast<std::uint32_t>(cities),
                                  kLadder[(id / cities) % std::size(kLadder)]};
  };

  // Round r: admit [400r, 400r+400), retire [200(r-1), 200r).
  constexpr std::size_t kAdds = 400;
  constexpr std::size_t kDrops = 200;
  const auto deltas_of = [&](std::size_t r) {
    std::pair<std::vector<proto::ShardSessionAdd>, std::vector<std::uint32_t>> d;
    for (std::size_t k = 0; k < kAdds; ++k) {
      d.first.push_back(add_of(static_cast<std::uint32_t>(r * kAdds + k)));
    }
    if (r > 0) {
      for (std::size_t k = 0; k < kDrops; ++k) {
        d.second.push_back(static_cast<std::uint32_t>((r - 1) * kDrops + k));
      }
    }
    return d;
  };

  // Monolithic reference: the live sessions, regrouped per round. Session
  // mode prices against the scenario's placed background load.
  obs::MetricsRegistry mono_metrics;
  obs::RunJournal mono_journal;
  ExchangeConfig mono_config;
  mono_config.obs = obs::Observer{&mono_metrics, nullptr, &mono_journal};
  VdxExchange mono{scenario(), mono_config};
  shard_test::HeldSessions global;
  std::vector<RoundReport> mono_reports;
  for (std::size_t r = 0; r < kRounds; ++r) {
    const auto [adds, removes] = deltas_of(r);
    global.apply(adds, removes);
    mono.set_active_load(global.groups(), background());
    mono_reports.push_back(mono.run_round());
  }
  std::ostringstream mono_journal_out;
  mono_journal.write_jsonl(mono_journal_out);
  std::ostringstream mono_metrics_out;
  mono_metrics.write_jsonl(mono_metrics_out);

  for (const std::size_t shards : kShardCounts) {
    ShardedConfig config;
    config.shards = shards;
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
    ShardedExchange exchange{scenario(), config};
    std::vector<RoundReport> reports;
    for (std::size_t r = 0; r < kRounds; ++r) {
      const auto [adds, removes] = deltas_of(r);
      ASSERT_TRUE(exchange.push_session_delta(adds, removes).ok());
      reports.push_back(exchange.run_round());
    }
    const std::string at = "sessions shards=" + std::to_string(shards);
    ASSERT_EQ(mono_reports.size(), reports.size()) << at;
    for (std::size_t r = 0; r < reports.size(); ++r) {
      EXPECT_EQ(mono_reports[r].awarded_mbps, reports[r].awarded_mbps)
          << at << " round " << r;
      EXPECT_EQ(mono_reports[r].mean_score, reports[r].mean_score)
          << at << " round " << r;
      EXPECT_EQ(mono_reports[r].wire.bytes_on_wire, reports[r].wire.bytes_on_wire)
          << at << " round " << r;
    }
    std::ostringstream journal_out;
    journal.write_jsonl(journal_out);
    EXPECT_EQ(mono_journal_out.str(), journal_out.str()) << at;
    std::ostringstream metrics_out;
    metrics.write_jsonl(metrics_out);
    EXPECT_EQ(mono_metrics_out.str(), metrics_out.str()) << at;
  }
}

// A batch whose removes target ids added in the SAME batch: adds apply
// before removes, so each such pair cancels and no phantom session is left
// for a later delta to trip over — pinned differentially.
TEST_F(ShardEquivalence, SameBatchAddRemoveMatchesGlobalLedger) {
  const auto cities =
      static_cast<std::uint32_t>(scenario().world().cities().size());
  constexpr std::uint32_t kAdds = 120;
  constexpr std::size_t kBatchRounds = 4;
  const auto add_of = [&](std::uint32_t id) {
    return proto::ShardSessionAdd{id, id % cities, id % 2 == 0 ? 1.1 : 2.7};
  };
  // Round r adds a block and, in the SAME batch, removes every third id of
  // that block — plus a slice of the previous round's ids, some of which
  // were already removed (idempotent re-remove coverage).
  const auto deltas_of = [&](std::size_t r) {
    std::pair<std::vector<proto::ShardSessionAdd>, std::vector<std::uint32_t>> d;
    const auto base = static_cast<std::uint32_t>(r) * kAdds;
    for (std::uint32_t k = 0; k < kAdds; ++k) d.first.push_back(add_of(base + k));
    for (std::uint32_t k = 0; k < kAdds; k += 3) d.second.push_back(base + k);
    if (r > 0) {
      for (std::uint32_t k = 1; k < kAdds; k += 4) {
        d.second.push_back(base - kAdds + k);
      }
    }
    return d;
  };

  std::vector<RoundReport> mono_reports;
  {
    VdxExchange mono{scenario()};
    shard_test::HeldSessions global;
    for (std::size_t r = 0; r < kBatchRounds; ++r) {
      const auto [adds, removes] = deltas_of(r);
      global.apply(adds, removes);
      mono.set_active_load(global.groups(), background());
      mono_reports.push_back(mono.run_round());
    }
  }

  for (const std::size_t shards : kShardCounts) {
    ShardedConfig config;
    config.shards = shards;
    ShardedExchange exchange{scenario(), config};
    for (std::size_t r = 0; r < kBatchRounds; ++r) {
      const auto [adds, removes] = deltas_of(r);
      ASSERT_TRUE(exchange.push_session_delta(adds, removes).ok());
      const RoundReport report = exchange.run_round();
      const std::string at = "same-batch shards=" + std::to_string(shards) +
                             " round " + std::to_string(r);
      EXPECT_EQ(mono_reports[r].awarded_mbps, report.awarded_mbps) << at;
      EXPECT_EQ(mono_reports[r].mean_score, report.mean_score) << at;
      EXPECT_EQ(mono_reports[r].wire.bytes_on_wire, report.wire.bytes_on_wire)
          << at;
    }
  }
}

// Coordinator bookkeeping lands in the separate exchange.shard.* registry —
// never in the settlement registry, whose export must stay monolith-shaped.
TEST_F(ShardEquivalence, ShardMetricsStayOutOfTheSettlementRegistry) {
  const auto script =
      shard_test::make_script(scenario(), sim::StressScenario::kSteady, 2);
  ShardedConfig config;
  config.shards = 4;
  obs::MetricsRegistry metrics;
  obs::RunJournal journal;
  config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
  ShardedExchange exchange{scenario(), config};
  (void)shard_test::drive(exchange, script, background(), journal, metrics);

  for (const auto& row : metrics.rows()) {
    EXPECT_EQ(row.name.rfind("exchange.shard.", 0), std::string::npos)
        << row.name << " leaked into the settlement registry";
  }
  const auto rounds = exchange.shard_metrics().find("exchange.shard.rounds");
  ASSERT_TRUE(rounds.has_value());
  EXPECT_DOUBLE_EQ(rounds->value, 2.0);
  const auto shards = exchange.shard_metrics().find("exchange.shard.shards");
  ASSERT_TRUE(shards.has_value());
  EXPECT_DOUBLE_EQ(shards->value, 4.0);
}

}  // namespace
}  // namespace vdx::market
