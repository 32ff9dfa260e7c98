// Kill-and-resume drill (DESIGN.md §14): hard-kill worker shards (a real
// SIGKILL under the process backend) after settlement rounds, let the
// coordinator respawn them and re-push their cached slices, and
// byte-compare the settlement against the monolithic reference. A killed
// coordinator is rebuilt from the one embedded snapshot (save_state() ->
// fresh exchange -> restore_state()). Crash tolerance must cost restarts —
// never settlement bytes.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
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

// The coordinator's cached slice is authoritative, so a worker death costs
// one respawn + re-push and nothing else.
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

/// Session deltas for the worker-kill and failed-push drills: round r admits
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
// nothing that cannot be re-pushed: a kill after every round is as
// invisible as in demand mode.
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
// failed on) holding their previous slice, with the same (city, bitrate)
// cells and only client counts changed. Every shard stays flagged until its
// push lands and the round re-pushes flagged shards before it settles, so
// the settlement matches the monolith and no worker books the round's
// allocation against the older slice.
TEST_F(ShardRecovery, FailedSlicePushIsRepushedBeforeTheNextSettlement) {
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

// Coordinator crash: a FRESH ShardedExchange restored from the crashed
// coordinator's save_state() bytes continues with a tail byte-identical to
// the uninterrupted run — for both backends, killing a worker mid-tail too.
TEST_F(ShardRecovery, CoordinatorResumesFromSnapshotWithIdenticalTail) {
  const auto script = shard_test::make_script(
      scenario(), sim::StressScenario::kPerfectStorm, kRounds);
  const RunCapture uninterrupted = run_mono(script);
  constexpr std::size_t kCrashAfter = 2;

  for (const ShardBackend backend :
       {ShardBackend::kInproc, ShardBackend::kProcess}) {
    ShardedConfig config;
    config.shards = 4;
    config.backend = backend;

    std::vector<RoundReport> head;
    std::vector<std::uint8_t> snapshot;
    {
      ShardedExchange first{scenario(), config};
      for (std::size_t r = 0; r < kCrashAfter; ++r) {
        const RoundAction& action = script[r];
        if (action.fail.has_value()) first.set_failed(cdn::CdnId{1}, *action.fail);
        if (action.budget.has_value()) first.set_demand_budget(*action.budget);
        first.set_active_load(action.groups, background());
        head.push_back(first.run_round());
      }
      snapshot = first.save_state();
      // ~first: the coordinator process "dies" (its last snapshot survives).
    }

    ShardedExchange resumed{scenario(), config};
    ASSERT_TRUE(resumed.restore_state(snapshot).ok()) << to_string(backend);
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

// The snapshot the daemon persists in its checkpoint file: save_state()
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
// 2, and version 3 dropped the demand-dirty byte with the collect round
// trip. A version-1 snapshot (no version section) and a version-2 one fail
// typed instead of being misread, and the refused restore leaves the
// exchange untouched.
TEST_F(ShardRecovery, VersionOneCoordinatorSnapshotFailsWithVersionMismatch) {
  ShardedConfig config;
  config.shards = 2;
  ShardedExchange first{scenario(), config};
  const auto [adds, removes] = churn_delta(scenario(), 0);
  ASSERT_TRUE(first.push_session_delta(adds, removes).ok());
  (void)first.run_round();
  const auto current = state::SnapshotView::parse(first.save_state());
  ASSERT_TRUE(current.ok());

  // Version 1 has no version section; version 2 says 2 in it.
  std::vector<std::vector<std::uint8_t>> old_formats;
  for (const std::uint32_t version : {1u, 2u}) {
    state::SnapshotWriter old_format;
    for (const state::Section& section : current.value().sections()) {
      if (section.id != 29) {
        old_format.add_section(section.id, section.bytes);
      } else if (version > 1) {
        proto::ByteWriter w;
        w.write_u32(version);
        old_format.add_section(section.id, w.take());
      }
    }
    old_formats.push_back(old_format.finish());
  }
  ShardedExchange resumed{scenario(), config};
  const auto before = resumed.save_state();
  for (std::size_t i = 0; i < old_formats.size(); ++i) {
    const auto status = resumed.restore_state(old_formats[i]);
    ASSERT_FALSE(status.ok()) << "version " << i + 1;
    EXPECT_EQ(status.error().code, core::Errc::kVersionMismatch) << "version " << i + 1;
    EXPECT_EQ(resumed.save_state(), before) << "version " << i + 1;
  }
}

/// `snapshot` with section `id` swapped for `bytes`, in a fresh envelope:
/// every checksum is valid, so only the section's content is wrong.
std::vector<std::uint8_t> with_section(std::span<const std::uint8_t> snapshot,
                                       std::uint32_t id,
                                       const std::vector<std::uint8_t>& bytes) {
  const auto view = state::SnapshotView::parse(snapshot);
  EXPECT_TRUE(view.ok());
  state::SnapshotWriter writer;
  for (const state::Section& section : view.value().sections()) {
    writer.add_section(section.id, section.id == id ? bytes : section.bytes);
  }
  return writer.finish();
}

// Coordinator snapshot sections (shard.cpp): the core, the slice cache and
// the embedded worker states.
constexpr std::uint32_t kCoreSection = 30;
constexpr std::uint32_t kSlicesSection = 32;
constexpr std::uint32_t kWorkersSection = 33;
/// The first background load follows rounds, shard count, plan hash, two
/// flags and the load count in the core section.
constexpr std::size_t kFirstLoadOffset = 8 + 4 + 8 + 2 + 4;

using Slices = std::vector<std::vector<proto::ShardGroup>>;

Slices decode_slices(std::span<const std::uint8_t> snapshot) {
  const auto view = state::SnapshotView::parse(snapshot);
  EXPECT_TRUE(view.ok());
  proto::ByteReader r{view.value().find(kSlicesSection)->bytes};
  Slices slices(r.read_u32());
  for (auto& slice : slices) {
    const std::uint32_t len = r.read_u32();
    slice = proto::decode_shard_groups(r.read_bytes(len)).value();
  }
  return slices;
}

std::vector<std::uint8_t> encode_slices(const Slices& slices) {
  proto::ByteWriter w;
  w.write_u32(static_cast<std::uint32_t>(slices.size()));
  for (const auto& slice : slices) {
    const auto bytes = proto::encode_shard_groups(slice);
    w.write_u32(static_cast<std::uint32_t>(bytes.size()));
    w.write_bytes(bytes);
  }
  return w.take();
}

// A checksum-valid snapshot can still carry a slice cache no coordinator
// could have built. Restore refuses it before applying anything: with the
// link breaker on, a quarantined shard would otherwise settle the bad
// group straight from the cache and the round would report ok.
TEST_F(ShardRecovery, RestoreRejectsSlicesThatCanNeverSettle) {
  ShardedConfig config;
  config.shards = 2;
  config.link_breaker.failure_threshold = 2;
  std::vector<std::uint8_t> good;
  {
    ShardedExchange first{scenario(), config};
    first.set_active_load(scenario().broker_groups(), background());
    (void)first.run_round();
    good = first.save_state();
  }
  const Slices slices = decode_slices(good);
  ASSERT_EQ(slices.size(), 2u);
  ASSERT_FALSE(slices[0].empty());
  ASSERT_FALSE(slices[1].empty());

  const auto with_slices = [&](const Slices& changed) {
    return with_section(good, kSlicesSection, encode_slices(changed));
  };
  const auto with_first_load = [&](double load) {
    const auto view = state::SnapshotView::parse(good);
    std::vector<std::uint8_t> core_bytes = view.value().find(kCoreSection)->bytes;
    proto::ByteWriter w;
    w.write_f64(load);
    std::copy(w.data().begin(), w.data().end(), core_bytes.begin() + kFirstLoadOffset);
    return with_section(good, kCoreSection, core_bytes);
  };

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases;
  {
    Slices s = slices;
    s[0][0].group.city = geo::CityId{9999};
    cases.emplace_back("unknown city", with_slices(s));
  }
  {
    Slices s = slices;
    s[0][0].group.bitrate_mbps = std::numeric_limits<double>::quiet_NaN();
    cases.emplace_back("non-finite bitrate", with_slices(s));
  }
  {
    Slices s = slices;
    s[1].push_back(s[0].front());
    s[0].erase(s[0].begin());
    cases.emplace_back("group on another shard's slice", with_slices(s));
  }
  {
    Slices s = slices;
    s[0].push_back(s[0].back());
    cases.emplace_back("duplicated group id", with_slices(s));
  }
  {
    Slices s = slices;
    for (auto& slice : s) {
      std::erase_if(slice, [](const proto::ShardGroup& g) { return g.global_id == 0; });
    }
    cases.emplace_back("lost group id", with_slices(s));
  }
  cases.emplace_back("non-finite background load",
                     with_first_load(std::numeric_limits<double>::infinity()));
  cases.emplace_back("negative background load", with_first_load(-1.0));

  ShardedExchange resumed{scenario(), config};
  const auto before = resumed.save_state();
  for (const auto& [what, bytes] : cases) {
    const core::Status status = resumed.restore_state(bytes);
    ASSERT_FALSE(status.ok()) << what;
    EXPECT_EQ(status.error().code, core::Errc::kCorruptSnapshot) << what;
    EXPECT_EQ(resumed.save_state(), before) << what;
  }
  // The untouched snapshot restores, so each rejection was about its one
  // change.
  EXPECT_TRUE(resumed.restore_state(good).ok());
}

// A worker state its worker would reject fails the whole restore before
// the settlement or any coordinator field is touched: the refused restore
// leaves rounds and snapshot bytes exactly as they were.
TEST_F(ShardRecovery, RestoreRejectsAWorkerStateBeforeChangingAnything) {
  ShardedConfig config;
  config.shards = 2;
  std::vector<std::uint8_t> good;
  {
    ShardedExchange first{scenario(), config};
    first.set_active_load(scenario().broker_groups(), background());
    for (int r = 0; r < 3; ++r) (void)first.run_round();
    good = first.save_state();
  }
  // Worker 1's embedded state swapped for 16 junk bytes, inside a valid
  // envelope.
  const auto view = state::SnapshotView::parse(good);
  ASSERT_TRUE(view.ok());
  proto::ByteReader r{view.value().find(kWorkersSection)->bytes};
  ASSERT_EQ(r.read_u32(), 2u);
  const auto worker0 = r.read_bytes(r.read_u32());
  proto::ByteWriter w;
  w.write_u32(2);
  w.write_u32(static_cast<std::uint32_t>(worker0.size()));
  w.write_bytes(worker0);
  const std::vector<std::uint8_t> junk(16, 0x5A);
  w.write_u32(static_cast<std::uint32_t>(junk.size()));
  w.write_bytes(junk);
  const auto bad = with_section(good, kWorkersSection, w.take());

  ShardedExchange resumed{scenario(), config};
  resumed.set_active_load(scenario().broker_groups(), background());
  (void)resumed.run_round();
  const auto before = resumed.save_state();
  const core::Status status = resumed.restore_state(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("shard 1"), std::string::npos)
      << status.error().message;
  EXPECT_EQ(resumed.rounds_completed(), 1u);
  EXPECT_EQ(resumed.save_state(), before);
  // The untouched snapshot restores, so the rejection was about worker 1.
  EXPECT_TRUE(resumed.restore_state(good).ok());
  EXPECT_EQ(resumed.rounds_completed(), 3u);
}

}  // namespace
}  // namespace vdx::market
