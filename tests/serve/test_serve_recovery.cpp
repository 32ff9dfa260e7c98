// Mid-serve checkpoint/resume equivalence (the serving lane of the
// crash-consistency contract): halt a checkpointing serve partway, resume
// from the latest snapshot with a fresh daemon, and assert the continued
// decision stream and journal are byte-identical to an uninterrupted run.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "serve/codec.hpp"
#include "serve/daemon.hpp"
#include "serve_util.hpp"
#include "state/checkpoint.hpp"
#include "state/store.hpp"

namespace vdx::serve {
namespace {

using test::HarnessOptions;
using test::RunOutput;
using test::TempDir;
using test::run_serve;

/// Decision lines of `decisions` with round >= first_round, re-serialized.
std::string decision_tail(const std::string& decisions,
                          std::uint64_t first_round) {
  std::ostringstream tail;
  std::istringstream in{decisions};
  std::string line;
  while (std::getline(in, line)) {
    const auto parsed = parse_decision(line);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message;
    if (parsed.ok() && parsed.value().round >= first_round) {
      tail << line << '\n';
    }
  }
  return tail.str();
}

/// Journals must agree event-for-event except the one seq slot where the
/// uninterrupted run recorded kCheckpoint and the resumed run kResume (the
/// same convention as the streaming recovery drill).
void expect_journal_tail_identical(const std::vector<obs::Event>& full,
                                   const std::vector<obs::Event>& resumed) {
  ASSERT_EQ(full.size(), resumed.size());
  std::size_t differences = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (full[i] == resumed[i]) continue;
    ++differences;
    EXPECT_EQ(full[i].kind, obs::EventKind::kCheckpoint);
    EXPECT_EQ(resumed[i].kind, obs::EventKind::kResume);
    obs::Event renamed = full[i];
    renamed.kind = obs::EventKind::kResume;
    EXPECT_EQ(renamed, resumed[i])
        << "event " << i << " differs beyond the checkpoint/resume kind";
  }
  EXPECT_LE(differences, 1u);
}

struct ResumedRun {
  core::Result<ServeReport> result{
      core::Error{core::Errc::kNotReady, "not run"}};
  std::string decisions;
  std::vector<obs::Event> journal;
  std::uint64_t resumed_round = 0;
};

ResumedRun resume_from_dir(const HarnessOptions& options) {
  ResumedRun out;
  const state::CheckpointStore store{options.checkpoint_dir};
  auto loaded = store.load_latest(
      [](std::span<const std::uint8_t>) { return core::ok_status(); });
  if (!loaded.ok()) {
    out.result = core::Result<ServeReport>{loaded.error()};
    return out;
  }
  out.resumed_round = loaded.value().epoch;

  GeneratorFeed feed = test::make_feed(options);
  obs::MetricsRegistry metrics;
  obs::SpanTracer tracer;
  obs::RunJournal journal;
  const obs::Observer obs{&metrics, &tracer, &journal};
  std::ostringstream decisions;
  ServeDaemon daemon{test::test_scenario(), feed,
                     test::config_for(options, obs, &decisions)};
  out.result = daemon.resume(loaded.value().bytes);
  out.decisions = decisions.str();
  out.journal = journal.events();
  return out;
}

TEST(ServeRecovery, HaltResumeContinuesByteIdentically) {
  TempDir full_dir{"resume_full"};
  TempDir crash_dir{"resume_crash"};

  HarnessOptions options;
  options.budget_mbps = 150.0;  // sheds must survive the resume too
  options.checkpoint_every = 7;
  options.checkpoint_dir = full_dir.path();
  const RunOutput full = run_serve(options);
  ASSERT_GT(full.report.checkpoints_written, 0u);

  options.checkpoint_dir = crash_dir.path();
  options.halt_after = 17;
  const RunOutput crashed = run_serve(options);
  EXPECT_TRUE(crashed.report.halted);
  EXPECT_EQ(crashed.report.rounds, 17u);

  options.halt_after = 0;
  const ResumedRun resumed = resume_from_dir(options);
  ASSERT_TRUE(resumed.result.ok()) << resumed.result.error().message;
  EXPECT_EQ(resumed.resumed_round, 14u);  // latest multiple of 7 before 17

  // The resumed decision stream replays rounds 14.. exactly as the
  // uninterrupted run emitted them.
  EXPECT_EQ(resumed.decisions, decision_tail(full.decisions, 14));
  expect_journal_tail_identical(full.journal, resumed.journal);

  // Cross-resume accumulators cover the whole serve, not just the tail.
  EXPECT_EQ(resumed.result.value().rounds, full.report.rounds);
  EXPECT_EQ(resumed.result.value().decision_rounds, full.report.decision_rounds);
  EXPECT_EQ(resumed.result.value().arrivals, full.report.arrivals);
  EXPECT_EQ(resumed.result.value().shed_mbps_total, full.report.shed_mbps_total);
  EXPECT_EQ(resumed.result.value().shed_rounds, full.report.shed_rounds);
}

TEST(ServeRecovery, ResumeRejectsMismatchedFingerprint) {
  TempDir dir{"resume_fingerprint"};
  HarnessOptions options;
  options.checkpoint_every = 7;
  options.checkpoint_dir = dir.path();
  options.halt_after = 10;
  (void)run_serve(options);

  options.halt_after = 0;
  options.budget_mbps = 999.0;  // config change -> different serving run
  HarnessOptions mismatched = options;
  mismatched.seed = 12;
  const ResumedRun resumed = resume_from_dir(mismatched);
  ASSERT_FALSE(resumed.result.ok());
  EXPECT_EQ(resumed.result.error().code, core::Errc::kInvalidArgument);
}

TEST(ServeRecovery, ResumeRejectsLiveFeed) {
  TempDir dir{"resume_live"};
  HarnessOptions options;
  options.checkpoint_every = 7;
  options.checkpoint_dir = dir.path();
  options.halt_after = 10;
  const RunOutput crashed = run_serve(options);
  ASSERT_TRUE(crashed.report.halted);

  const state::CheckpointStore store{dir.path()};
  auto loaded = store.load_latest(
      [](std::span<const std::uint8_t>) { return core::ok_status(); });
  ASSERT_TRUE(loaded.ok());

  std::istringstream empty_stream;
  JsonlFeed live{empty_stream};
  ServeDaemon daemon{test::test_scenario(), live,
                     test::config_for(options, {}, nullptr)};
  const auto resumed = daemon.resume(loaded.value().bytes);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, core::Errc::kInvalidArgument);
}

TEST(ServeRecovery, ResumeRejectsCorruptSnapshot) {
  TempDir dir{"resume_corrupt"};
  HarnessOptions options;
  options.checkpoint_every = 7;
  options.checkpoint_dir = dir.path();
  options.halt_after = 10;
  (void)run_serve(options);

  const state::CheckpointStore store{dir.path()};
  auto loaded = store.load_latest(
      [](std::span<const std::uint8_t>) { return core::ok_status(); });
  ASSERT_TRUE(loaded.ok());
  std::vector<std::uint8_t> bytes = loaded.value().bytes;
  bytes[bytes.size() / 2] ^= 0xFF;

  options.halt_after = 0;
  GeneratorFeed feed = test::make_feed(options);
  ServeDaemon daemon{test::test_scenario(), feed,
                     test::config_for(options, {}, nullptr)};
  const auto resumed = daemon.resume(bytes);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, core::Errc::kCorruptSnapshot);
}

TEST(ServeRecovery, ResumeRejectsOutOfRangeCursorWithoutApplyingAnything) {
  TempDir dir{"resume_out_of_range"};
  HarnessOptions options;
  options.checkpoint_every = 7;
  options.checkpoint_dir = dir.path();
  options.halt_after = 10;
  (void)run_serve(options);

  const state::CheckpointStore store{dir.path()};
  auto loaded = store.load_latest(
      [](std::span<const std::uint8_t>) { return core::ok_status(); });
  ASSERT_TRUE(loaded.ok());
  auto decoded = state::decode_daemon(loaded.value().bytes);
  ASSERT_TRUE(decoded.ok());
  const state::DaemonCheckpoint checkpoint = decoded.value();
  ASSERT_FALSE(checkpoint.feed.active.empty());

  options.halt_after = 0;
  options.checkpoint_every = 0;
  std::ostringstream clean_decisions;
  {
    GeneratorFeed feed = test::make_feed(options);
    ServeDaemon daemon{test::test_scenario(), feed,
                       test::config_for(options, {}, &clean_decisions)};
    (void)daemon.run();
  }

  const auto cities =
      static_cast<std::uint32_t>(test::test_scenario().world().cities().size());
  const struct {
    const char* what;
    std::uint32_t city;
    double bitrate;
  } cases[] = {
      {"city far outside the world", 100'000, 1.0},
      {"city one past the world", cities, 1.0},
      {"zero bitrate", 0, 0.0},
      {"NaN bitrate", 0, std::nan("")},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.what);
    state::DaemonCheckpoint bad = checkpoint;
    bad.feed.active.front().city = c.city;
    bad.feed.active.front().bitrate_mbps = c.bitrate;

    GeneratorFeed feed = test::make_feed(options);
    std::ostringstream decisions;
    ServeDaemon daemon{test::test_scenario(), feed,
                       test::config_for(options, {}, &decisions)};
    const auto resumed = daemon.resume(state::encode(bad));
    ASSERT_FALSE(resumed.ok());
    EXPECT_EQ(resumed.error().code, core::Errc::kCorruptSnapshot);
    // Nothing was applied — not the exchange state either: the same daemon
    // then serves from round 0 exactly like one that never saw the snapshot.
    (void)daemon.run();
    EXPECT_EQ(decisions.str(), clean_decisions.str());
  }
}

}  // namespace
}  // namespace vdx::serve
