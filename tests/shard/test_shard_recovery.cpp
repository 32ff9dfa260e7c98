// Kill-and-resume drill (DESIGN.md §14): hard-kill every worker shard (a
// real SIGKILL under the process backend) after every settlement round,
// resume from the per-shard checkpoint stores, and byte-compare the
// settlement against the monolithic reference. A killed coordinator
// rebuilds from its own store with resume_from_stores(). Crash tolerance
// must cost restarts — never settlement bytes.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "market/shard.hpp"
#include "shard/shard_test_util.hpp"
#include "sim/designs.hpp"
#include "state/snapshot.hpp"

namespace vdx::market {
namespace {

using shard_test::RoundAction;
using shard_test::RunCapture;

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() / ("vdx_shard_" + tag)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

class ShardRecovery : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig config;
    config.trace.session_count = 900;
    config.seed = 29;
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

  static RunCapture run_mono(const std::vector<RoundAction>& script) {
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    ExchangeConfig config;
    config.obs = obs::Observer{&metrics, nullptr, &journal};
    VdxExchange exchange{scenario(), config};
    return shard_test::drive(exchange, script, background(), journal, metrics);
  }

 private:
  static sim::Scenario* scenario_;
  static std::vector<double>* background_;
};

sim::Scenario* ShardRecovery::scenario_ = nullptr;
std::vector<double>* ShardRecovery::background_ = nullptr;

constexpr std::size_t kRounds = 5;

// Demand mode needs no store at all: the coordinator's cached slice is
// authoritative, so a storeless worker death costs one respawn + re-push.
TEST_F(ShardRecovery, StorelessWorkerDeathInDemandModeIsInvisible) {
  const auto script = shard_test::make_script(
      scenario(), sim::StressScenario::kFlashCrowd, kRounds);
  const RunCapture mono = run_mono(script);

  for (const ShardBackend backend :
       {ShardBackend::kInproc, ShardBackend::kProcess}) {
    ShardedConfig config;
    config.shards = 4;
    config.backend = backend;
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
    ShardedExchange exchange{scenario(), config};

    RunCapture capture;
    for (std::size_t r = 0; r < script.size(); ++r) {
      const RoundAction& action = script[r];
      if (action.fail.has_value()) exchange.set_failed(cdn::CdnId{1}, *action.fail);
      if (action.budget.has_value()) exchange.set_demand_budget(*action.budget);
      exchange.set_active_load(action.groups, background());
      capture.reports.push_back(exchange.run_round());
      exchange.kill_worker(r % config.shards);
      EXPECT_FALSE(exchange.worker_alive(r % config.shards));
    }
    const auto placed = exchange.settlement().placements();
    capture.placements.assign(placed.begin(), placed.end());
    std::ostringstream journal_out;
    journal.write_jsonl(journal_out);
    capture.journal_jsonl = journal_out.str();
    std::ostringstream metrics_out;
    metrics.write_jsonl(metrics_out);
    capture.metrics_jsonl = metrics_out.str();

    shard_test::expect_identical(
        mono, capture,
        std::string{"storeless kill "} + std::string{to_string(backend)});
    EXPECT_EQ(exchange.worker_restarts(), kRounds - 1);  // last kill never recovered
  }
}

// Session mode with per-shard stores: with checkpoint_every_rounds=1 a
// SIGKILL after every settlement round is byte-invisible — the respawned
// worker reloads its journal from its store and the coordinator re-pushes
// its slice of the one session book.
TEST_F(ShardRecovery, SessionModeResumesFromPerShardStoresAfterEveryRoundKill) {
  const std::size_t cities = scenario().world().cities().size();
  const auto add_of = [&](std::uint32_t id) {
    return proto::ShardSessionAdd{id, id % static_cast<std::uint32_t>(cities),
                                  id % 2 == 0 ? 1.2 : 3.6};
  };

  // Monolithic reference over the same deltas (live sessions, regrouped).
  std::vector<RoundReport> mono_reports;
  {
    VdxExchange mono{scenario()};
    shard_test::HeldSessions global;
    for (std::size_t r = 0; r < kRounds; ++r) {
      std::vector<proto::ShardSessionAdd> adds;
      for (std::uint32_t k = 0; k < 300; ++k) {
        adds.push_back(add_of(static_cast<std::uint32_t>(r) * 300 + k));
      }
      global.apply(adds, {});
      mono.set_active_load(global.groups(), background());
      mono_reports.push_back(mono.run_round());
    }
  }

  for (const ShardBackend backend :
       {ShardBackend::kInproc, ShardBackend::kProcess}) {
    TempDir dir{std::string{"sessions_"} + std::string{to_string(backend)}};
    ShardedConfig config;
    config.shards = 4;
    config.backend = backend;
    config.checkpoint_dir = dir.path();
    config.checkpoint_every_rounds = 1;
    ShardedExchange exchange{scenario(), config};

    for (std::size_t r = 0; r < kRounds; ++r) {
      std::vector<proto::ShardSessionAdd> adds;
      for (std::uint32_t k = 0; k < 300; ++k) {
        adds.push_back(add_of(static_cast<std::uint32_t>(r) * 300 + k));
      }
      ASSERT_TRUE(exchange.push_session_delta(adds, {}).ok());
      const RoundReport report = exchange.run_round();
      EXPECT_EQ(mono_reports[r].awarded_mbps, report.awarded_mbps)
          << to_string(backend) << " round " << r;
      EXPECT_EQ(mono_reports[r].mean_score, report.mean_score)
          << to_string(backend) << " round " << r;
      // The auto-checkpoint has landed; now the shard dies for real.
      exchange.kill_worker(r % config.shards);
    }
    EXPECT_GT(exchange.worker_restarts(), 0u);
  }
}

/// Session deltas for the storeless and failed-push drills: round r admits
/// 250 sessions and retires the oldest 100 of round r - 1.
std::pair<std::vector<proto::ShardSessionAdd>, std::vector<std::uint32_t>>
churn_delta(const sim::Scenario& scenario, std::size_t r) {
  const auto cities = static_cast<std::uint32_t>(scenario.world().cities().size());
  std::pair<std::vector<proto::ShardSessionAdd>, std::vector<std::uint32_t>> d;
  for (std::uint32_t k = 0; k < 250; ++k) {
    const auto id = static_cast<std::uint32_t>(r) * 250 + k;
    d.first.push_back({id, id % cities, id % 3 == 0 ? 1.2 : 3.6});
  }
  for (std::uint32_t k = 0; r > 0 && k < 100; ++k) {
    d.second.push_back(static_cast<std::uint32_t>(r - 1) * 250 + k);
  }
  return d;
}

/// Monolith fed broker::group_sessions of the live set after each delta.
RunCapture session_fed_mono(const sim::Scenario& scenario,
                            std::span<const double> background, std::size_t rounds) {
  obs::MetricsRegistry metrics;
  obs::RunJournal journal;
  ExchangeConfig config;
  config.obs = obs::Observer{&metrics, nullptr, &journal};
  VdxExchange mono{scenario, config};
  shard_test::HeldSessions held;
  std::vector<RoundAction> script(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto [adds, removes] = churn_delta(scenario, r);
    held.apply(adds, removes);
    script[r].groups = held.groups();
  }
  return shard_test::drive(mono, script, background, journal, metrics);
}

/// Reports, placements, journal and metrics of a finished sharded run.
RunCapture capture_of(const ShardedExchange& exchange, std::vector<RoundReport> reports,
                      const obs::RunJournal& journal,
                      const obs::MetricsRegistry& metrics) {
  RunCapture capture;
  capture.reports = std::move(reports);
  const auto placed = exchange.settlement().placements();
  capture.placements.assign(placed.begin(), placed.end());
  std::ostringstream journal_out;
  journal.write_jsonl(journal_out);
  capture.journal_jsonl = journal_out.str();
  std::ostringstream metrics_out;
  metrics.write_jsonl(metrics_out);
  capture.metrics_jsonl = metrics_out.str();
  return capture;
}

// The session book lives at the coordinator, so a session-fed worker holds
// nothing that cannot be re-pushed: a storeless kill after every round is
// as invisible as in demand mode.
TEST_F(ShardRecovery, StorelessWorkerDeathInSessionModeIsInvisible) {
  const RunCapture mono = session_fed_mono(scenario(), background(), kRounds);
  for (const ShardBackend backend :
       {ShardBackend::kInproc, ShardBackend::kProcess}) {
    ShardedConfig config;
    config.shards = 3;
    config.backend = backend;
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
    ShardedExchange exchange{scenario(), config};
    std::vector<RoundReport> reports;
    for (std::size_t r = 0; r < kRounds; ++r) {
      const auto [adds, removes] = churn_delta(scenario(), r);
      ASSERT_TRUE(exchange.push_session_delta(adds, removes).ok());
      reports.push_back(exchange.run_round());
      exchange.kill_worker(r % config.shards);
    }
    shard_test::expect_identical(
        mono, capture_of(exchange, std::move(reports), journal, metrics),
        std::string{"storeless session kill "} + std::string{to_string(backend)});
    EXPECT_EQ(exchange.worker_restarts(), kRounds - 1);  // last kill never recovered
  }
}

/// Link chaos harsh enough, with a retry budget small enough, that slice
/// pushes sometimes fail outright.
ShardedConfig flaky_links(std::uint64_t seed) {
  ShardedConfig config;
  config.shards = 2;
  config.link_faults.drop_rate = 0.3;
  config.link_faults.seed = seed;
  config.max_link_retries = 1;
  return config;
}

// A failed slice push leaves the shards it never reached (and the one it
// failed on) echoing their previous slice. With the same (city, bitrate)
// cells and only client counts changed, such a stale slice passes the
// merge's id check, so it must never reach a collect: every shard stays
// flagged until its push lands, and the round re-pushes flagged shards
// before it collects.
TEST_F(ShardRecovery, FailedSlicePushIsRepushedBeforeTheNextCollect) {
  const auto script = shard_test::make_script(
      scenario(), sim::StressScenario::kDiurnal, 2);
  ASSERT_EQ(script[0].groups.size(), script[1].groups.size());
  ASSERT_NE(script[0].groups[0].client_count, script[1].groups[0].client_count);
  const RunCapture mono = run_mono(script);

  // The first seed whose link faults fail round 1's push and nothing else.
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    ShardedConfig config = flaky_links(seed);
    config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
    ShardedExchange exchange{scenario(), config};
    try {
      exchange.set_active_load(script[0].groups, background());
    } catch (const std::runtime_error&) {
      continue;
    }
    auto first = exchange.try_run_round();
    if (!first.ok()) continue;
    bool push_failed = false;
    try {
      exchange.set_active_load(script[1].groups, background());
    } catch (const std::runtime_error&) {
      push_failed = true;  // the caller catches and carries on
    }
    if (!push_failed) continue;
    auto second = exchange.try_run_round();
    if (!second.ok()) continue;

    shard_test::expect_identical(
        mono,
        capture_of(exchange, {first.value(), second.value()}, journal, metrics),
        "failed slice push, link seed " + std::to_string(seed));
    return;
  }
  FAIL() << "no link seed in range failed only round 1's slice push";
}

// The same rule covers session deltas: the batch is applied to the book in
// one step, so a failed slice push cannot leave it half-applied; the
// round re-pushes the shards that missed their slice and settles exactly
// what a monolith fed the live sessions settles.
TEST_F(ShardRecovery, FailedDeltaPushIsRepushedAndSettlesLikeTheMonolith) {
  const RunCapture mono = session_fed_mono(scenario(), background(), 2);
  for (std::uint64_t seed = 1; seed <= 400; ++seed) {
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    ShardedConfig config = flaky_links(seed);
    config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
    ShardedExchange exchange{scenario(), config};
    const auto [adds0, removes0] = churn_delta(scenario(), 0);
    if (!exchange.push_session_delta(adds0, removes0).ok()) continue;
    auto first = exchange.try_run_round();
    if (!first.ok()) continue;
    const auto [adds1, removes1] = churn_delta(scenario(), 1);
    const auto pushed = exchange.push_session_delta(adds1, removes1);
    if (pushed.ok()) continue;
    EXPECT_EQ(pushed.error().code, core::Errc::kTimeout);
    auto second = exchange.try_run_round();
    if (!second.ok()) continue;

    shard_test::expect_identical(
        mono,
        capture_of(exchange, {first.value(), second.value()}, journal, metrics),
        "failed delta push, link seed " + std::to_string(seed));
    return;
  }
  FAIL() << "no link seed in range failed only round 1's delta push";
}

// Without the breaker, a shard that still cannot take its slice fails the
// round typed instead of settling whatever it held before.
TEST_F(ShardRecovery, UnrecoverableResyncFailsTheRoundTyped) {
  ShardedConfig config;
  config.shards = 2;
  config.worker_restart.max_restarts = 1;  // one respawn, then it stays dead
  ShardedExchange exchange{scenario(), config};
  const auto [adds, removes] = churn_delta(scenario(), 0);
  ASSERT_TRUE(exchange.push_session_delta(adds, removes).ok());
  exchange.kill_worker(1);
  (void)exchange.run_round();  // spends the one respawn
  ASSERT_EQ(exchange.worker_restarts(), 1u);

  exchange.kill_worker(1);
  const auto [adds1, removes1] = churn_delta(scenario(), 1);
  const auto pushed = exchange.push_session_delta(adds1, removes1);
  ASSERT_FALSE(pushed.ok());
  EXPECT_EQ(pushed.error().code, core::Errc::kUnavailable);
  const auto round = exchange.try_run_round();
  ASSERT_FALSE(round.ok());
  EXPECT_EQ(round.error().code, core::Errc::kUnavailable);
  EXPECT_EQ(exchange.rounds_completed(), 1u);
}

// Coordinator crash: a FRESH ShardedExchange over the same stores resumes
// via resume_from_stores() and the tail is byte-identical to the
// uninterrupted run — for both backends, killing a worker mid-tail too.
TEST_F(ShardRecovery, CoordinatorResumesFromStoreWithIdenticalTail) {
  const auto script = shard_test::make_script(
      scenario(), sim::StressScenario::kPerfectStorm, kRounds);
  const RunCapture uninterrupted = run_mono(script);
  constexpr std::size_t kCrashAfter = 2;

  for (const ShardBackend backend :
       {ShardBackend::kInproc, ShardBackend::kProcess}) {
    TempDir dir{std::string{"coord_"} + std::string{to_string(backend)}};
    ShardedConfig config;
    config.shards = 4;
    config.backend = backend;
    config.checkpoint_dir = dir.path();
    config.checkpoint_every_rounds = 1;

    std::vector<RoundReport> head;
    {
      ShardedExchange first{scenario(), config};
      for (std::size_t r = 0; r < kCrashAfter; ++r) {
        const RoundAction& action = script[r];
        if (action.fail.has_value()) first.set_failed(cdn::CdnId{1}, *action.fail);
        if (action.budget.has_value()) first.set_demand_budget(*action.budget);
        first.set_active_load(action.groups, background());
        head.push_back(first.run_round());
      }
      // ~first: the coordinator process "dies" (stores survive on disk).
    }

    ShardedExchange resumed{scenario(), config};
    ASSERT_TRUE(resumed.resume_from_stores().ok()) << to_string(backend);
    ASSERT_EQ(resumed.rounds_completed(), kCrashAfter);
    // The resumed coordinator must re-learn the failure/budget knobs the
    // script had applied before the crash (external control state, exactly
    // like the daemon re-applies its own config on resume).
    bool fail_on = false;
    double budget = 0.0;
    for (std::size_t r = 0; r < kCrashAfter; ++r) {
      if (script[r].fail.has_value()) fail_on = *script[r].fail;
      if (script[r].budget.has_value()) budget = *script[r].budget;
    }
    resumed.set_failed(cdn::CdnId{1}, fail_on);
    resumed.set_demand_budget(budget);

    std::vector<RoundReport> tail;
    for (std::size_t r = kCrashAfter; r < script.size(); ++r) {
      const RoundAction& action = script[r];
      if (action.fail.has_value()) resumed.set_failed(cdn::CdnId{1}, *action.fail);
      if (action.budget.has_value()) resumed.set_demand_budget(*action.budget);
      resumed.set_active_load(action.groups, background());
      tail.push_back(resumed.run_round());
      resumed.kill_worker(r % config.shards);  // and workers keep dying
    }

    for (std::size_t r = 0; r < script.size(); ++r) {
      const RoundReport& expected = uninterrupted.reports[r];
      const RoundReport& actual =
          r < kCrashAfter ? head[r] : tail[r - kCrashAfter];
      const std::string at = std::string{to_string(backend)} + " resumed round " +
                             std::to_string(r);
      EXPECT_EQ(expected.awarded_mbps, actual.awarded_mbps) << at;
      EXPECT_EQ(expected.mean_score, actual.mean_score) << at;
      EXPECT_EQ(expected.mean_cost, actual.mean_cost) << at;
      EXPECT_EQ(expected.shed_mbps, actual.shed_mbps) << at;
      EXPECT_EQ(expected.wire.bytes_on_wire, actual.wire.bytes_on_wire) << at;
    }
  }
}

// The embedded snapshot path (the daemon's checkpoint file): save_state()
// bundles coordinator + settlement + every worker; restore_state() on a
// fresh exchange continues byte-identically.
TEST_F(ShardRecovery, EmbeddedSnapshotRoundTripsAcrossAFreshExchange) {
  const auto script = shard_test::make_script(
      scenario(), sim::StressScenario::kDiurnal, kRounds);
  const RunCapture uninterrupted = run_mono(script);
  constexpr std::size_t kCrashAfter = 3;

  ShardedConfig config;
  config.shards = 3;
  std::vector<std::uint8_t> snapshot;
  {
    ShardedExchange first{scenario(), config};
    for (std::size_t r = 0; r < kCrashAfter; ++r) {
      first.set_active_load(script[r].groups, background());
      (void)first.run_round();
    }
    snapshot = first.save_state();
  }
  ASSERT_FALSE(snapshot.empty());

  ShardedExchange resumed{scenario(), config};
  ASSERT_TRUE(resumed.restore_state(snapshot).ok());
  ASSERT_EQ(resumed.rounds_completed(), kCrashAfter);
  for (std::size_t r = kCrashAfter; r < script.size(); ++r) {
    resumed.set_active_load(script[r].groups, background());
    const RoundReport report = resumed.run_round();
    EXPECT_EQ(uninterrupted.reports[r].awarded_mbps, report.awarded_mbps)
        << "embedded round " << r;
    EXPECT_EQ(uninterrupted.reports[r].mean_score, report.mean_score)
        << "embedded round " << r;
  }

  // A snapshot from a different shard topology must be refused.
  ShardedConfig other = config;
  other.shards = 2;
  ShardedExchange wrong_plan{scenario(), other};
  EXPECT_FALSE(wrong_plan.restore_state(snapshot).ok());
}

// The session book moved into the coordinator snapshot in format version
// 2. A version-1 snapshot (no version section) fails typed instead of
// being misread, and the refused restore leaves the exchange untouched.
TEST_F(ShardRecovery, VersionOneCoordinatorSnapshotFailsWithVersionMismatch) {
  ShardedConfig config;
  config.shards = 2;
  ShardedExchange first{scenario(), config};
  const auto [adds, removes] = churn_delta(scenario(), 0);
  ASSERT_TRUE(first.push_session_delta(adds, removes).ok());
  (void)first.run_round();
  const auto current = state::SnapshotView::parse(first.save_state());
  ASSERT_TRUE(current.ok());

  state::SnapshotWriter old_format;
  for (const state::Section& section : current.value().sections()) {
    if (section.id != 29) old_format.add_section(section.id, section.bytes);
  }
  ShardedExchange resumed{scenario(), config};
  const auto before = resumed.save_state();
  const auto status = resumed.restore_state(old_format.finish());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kVersionMismatch);
  EXPECT_EQ(resumed.save_state(), before);
}

}  // namespace
}  // namespace vdx::market
