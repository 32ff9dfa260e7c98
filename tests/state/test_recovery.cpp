// Recovery drill (ISSUE 5 acceptance): crash the streaming engine after
// every epoch k across 3 seeds, resume from the latest snapshot, and assert
// the remaining epoch reports (the golden byte-compare surface), the
// horizon-wide churn mean, and the journal tail are byte-identical to an
// uninterrupted run — at serial and parallel thread counts. Corrupted /
// mismatched snapshots must be rejected with typed errors (or fall back to
// the next-oldest valid snapshot), never resumed divergently.
#include "sim/streaming.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "obs/observe.hpp"
#include "sim/timeline_io.hpp"
#include "state/checkpoint.hpp"
#include "state/snapshot.hpp"
#include "state/store.hpp"

namespace vdx::sim {
namespace {

constexpr double kEpochSeconds = 600.0;  // 3600s trace horizon -> 6 epochs

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() / ("vdx_recovery_" + tag)) {
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

state::RunFingerprint fingerprint_for(std::uint64_t seed) {
  state::RunFingerprint fingerprint;
  fingerprint.seed = seed;
  fingerprint.design = static_cast<std::uint8_t>(Design::kMarketplace);
  fingerprint.broker_sessions = 800;
  fingerprint.duration_s = 3600.0;
  fingerprint.epoch_s = kEpochSeconds;
  fingerprint.config_hash = 0x5EED;
  return fingerprint;
}

Scenario build_scenario(std::uint64_t seed) {
  ScenarioConfig config;
  config.trace.session_count = 800;
  config.seed = seed;
  return Scenario::build(config);
}

struct DrillOptions {
  std::uint64_t seed = 11;
  std::size_t threads = 1;
  std::size_t journal_capacity = 512;
  /// 0 = run to completion; k = simulated crash after k executed epochs.
  std::size_t halt_after = 0;
  std::size_t keep = 16;
};

struct DrillRun {
  StreamingResult result;
  std::vector<obs::Event> journal;
};

StreamingConfig drill_config(const DrillOptions& options, state::CheckpointStore* store,
                             obs::Observer obs) {
  StreamingConfig config;
  config.design = Design::kMarketplace;
  config.run.threads = options.threads;
  config.epoch_s = kEpochSeconds;
  config.obs = obs;
  config.checkpoint.every_epochs = 1;
  config.checkpoint.store = store;
  config.checkpoint.fingerprint = fingerprint_for(options.seed);
  config.halt_after_epochs = options.halt_after;
  return config;
}

/// Runs (or crashes) a checkpointed streaming run into `dir`.
DrillRun run_drill(const Scenario& scenario, const std::filesystem::path& dir,
                   const DrillOptions& options) {
  obs::MetricsRegistry metrics;
  obs::RunJournal journal{options.journal_capacity};
  const obs::Observer obs{&metrics, nullptr, &journal};
  state::CheckpointStore store{dir, options.keep, obs};
  const StreamingConfig config = drill_config(options, &store, obs);

  TraceStream broker{scenario.broker_trace()};
  TraceStream background{scenario.background_trace()};
  DrillRun run;
  run.result = StreamingTimeline{scenario, config}.run(broker, background);
  run.journal = journal.events();
  return run;
}

/// Resumes from the latest valid snapshot in `dir` and plays to the end.
core::Result<DrillRun> resume_drill(const Scenario& scenario,
                                    const std::filesystem::path& dir,
                                    const DrillOptions& options) {
  obs::MetricsRegistry metrics;
  obs::RunJournal journal{options.journal_capacity};
  const obs::Observer obs{&metrics, nullptr, &journal};
  state::CheckpointStore store{dir, options.keep, obs};
  const StreamingConfig config = drill_config(options, &store, obs);

  const auto loaded = store.load_latest([&](std::span<const std::uint8_t> bytes) {
    auto decoded = state::decode_timeline(bytes);
    if (!decoded.ok()) return core::Status{decoded.error()};
    if (!(decoded.value().fingerprint == config.checkpoint.fingerprint)) {
      return core::Status::failure(core::Errc::kInvalidArgument,
                                   "fingerprint mismatch");
    }
    return core::ok_status();
  });
  if (!loaded.ok()) return core::Result<DrillRun>{loaded.error()};

  TraceStream broker{scenario.broker_trace()};
  TraceStream background{scenario.background_trace()};
  auto resumed = StreamingTimeline{scenario, config}.resume(broker, background,
                                                            loaded.value().bytes);
  if (!resumed.ok()) return core::Result<DrillRun>{resumed.error()};
  DrillRun run;
  run.result = std::move(resumed).value();
  run.journal = journal.events();
  EXPECT_DOUBLE_EQ(metrics.counter("state.resumes").value(), 1.0);
  return run;
}

/// The golden byte-compare surface restricted to epochs >= start_epoch, with
/// the horizon-wide churn mean (which the resumed run must also reproduce).
std::string tail_jsonl(const DrillRun& full, std::size_t start_epoch) {
  TimelineResult tail;
  for (const EpochReport& report : full.result.timeline.epochs) {
    if (report.epoch >= start_epoch) tail.epochs.push_back(report);
  }
  tail.mean_cdn_switch_fraction = full.result.timeline.mean_cdn_switch_fraction;
  return epoch_reports_jsonl(tail);
}

/// Journals must agree event-for-event except the one seq slot where the
/// uninterrupted run recorded kCheckpoint and the resumed run kResume (same
/// seq, subject, value — the snapshot is byte-deterministic). A small ring
/// may have already overwritten that slot, leaving zero differences.
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
    EXPECT_EQ(renamed, resumed[i]) << "event " << i
                                   << " differs beyond the checkpoint/resume kind";
  }
  EXPECT_LE(differences, 1u);
}

void expect_crash_resume_equivalent(const Scenario& scenario, const DrillRun& full,
                                    std::uint64_t seed, std::size_t crash_after,
                                    std::size_t threads,
                                    const std::filesystem::path& full_dir) {
  TempDir crash_dir{"crash_s" + std::to_string(seed) + "_k" +
                    std::to_string(crash_after) + "_t" + std::to_string(threads)};
  DrillOptions options;
  options.seed = seed;
  options.threads = threads;

  options.halt_after = crash_after;
  (void)run_drill(scenario, crash_dir.path(), options);

  options.halt_after = 0;
  const auto resumed = resume_drill(scenario, crash_dir.path(), options);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;

  // The crash landed after epoch crash_after - 1, whose snapshot resumes at
  // crash_after; the tail and the horizon-wide mean must match bytewise.
  EXPECT_EQ(epoch_reports_jsonl(resumed.value().result.timeline),
            tail_jsonl(full, crash_after))
      << "seed=" << seed << " crash_after=" << crash_after << " threads=" << threads;
  expect_journal_tail_identical(full.journal, resumed.value().journal);

  // Crash+resume must also reproduce the uninterrupted run's snapshots
  // wherever the two directories hold the same epoch. The embedded journal
  // is the one legitimate difference — a post-resume snapshot's history
  // contains the kResume event where the uninterrupted run's has
  // kCheckpoint — so compare the decoded state with journals factored out.
  for (const auto& entry : std::filesystem::directory_iterator{crash_dir.path()}) {
    const std::filesystem::path twin = full_dir / entry.path().filename();
    if (!std::filesystem::exists(twin)) continue;
    const auto ours = state::read_file(entry.path());
    const auto theirs = state::read_file(twin);
    ASSERT_TRUE(ours.ok() && theirs.ok());
    auto resumed_side = state::decode_timeline(ours.value());
    auto full_side = state::decode_timeline(theirs.value());
    ASSERT_TRUE(resumed_side.ok() && full_side.ok());
    expect_journal_tail_identical(full_side.value().journal.events,
                                  resumed_side.value().journal.events);
    EXPECT_EQ(resumed_side.value().journal.total, full_side.value().journal.total);
    EXPECT_EQ(resumed_side.value().journal.round, full_side.value().journal.round);
    resumed_side.value().journal = state::JournalState{};
    full_side.value().journal = state::JournalState{};
    EXPECT_EQ(state::encode(resumed_side.value()), state::encode(full_side.value()))
        << entry.path().filename() << " diverged after resume";
  }
}

TEST(RecoveryDrill, CrashAtEveryEpochMatchesUninterruptedRun) {
  for (const std::uint64_t seed : {11ULL, 22ULL, 33ULL}) {
    const Scenario scenario = build_scenario(seed);
    TempDir full_dir{"full_s" + std::to_string(seed)};
    DrillOptions options;
    options.seed = seed;
    const DrillRun full = run_drill(scenario, full_dir.path(), options);
    ASSERT_GE(full.result.timeline.epochs.size(), 4u);

    const auto epochs = static_cast<std::size_t>(
        std::ceil(scenario.broker_trace().duration_s() / kEpochSeconds));
    for (std::size_t crash_after = 1; crash_after < epochs; ++crash_after) {
      expect_crash_resume_equivalent(scenario, full, seed, crash_after, 1,
                                     full_dir.path());
    }
  }
}

TEST(RecoveryDrill, CrashResumeIsThreadCountInvariant) {
  const std::uint64_t seed = 11;
  const Scenario scenario = build_scenario(seed);
  TempDir full_dir{"full_threads"};
  DrillOptions options;
  options.seed = seed;
  const DrillRun full = run_drill(scenario, full_dir.path(), options);

  // The serial uninterrupted run is the reference; the crashed and resumed
  // halves both run parallel. Byte-identity across thread counts is the
  // engine's standing guarantee and must survive a checkpoint boundary.
  expect_crash_resume_equivalent(scenario, full, seed, 2, 4, full_dir.path());
}

TEST(RecoveryDrill, JournalSurvivesRingWrapAcrossResume) {
  // Capacity 8 forces the ring to wrap during the run, so the restore path
  // re-seats a wrapped window rather than a from-the-start one.
  const std::uint64_t seed = 22;
  const Scenario scenario = build_scenario(seed);
  TempDir full_dir{"full_wrap"};
  DrillOptions options;
  options.seed = seed;
  options.journal_capacity = 8;
  const DrillRun full = run_drill(scenario, full_dir.path(), options);

  TempDir crash_dir{"crash_wrap"};
  options.halt_after = 4;
  (void)run_drill(scenario, crash_dir.path(), options);
  options.halt_after = 0;
  const auto resumed = resume_drill(scenario, crash_dir.path(), options);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  expect_journal_tail_identical(full.journal, resumed.value().journal);
  // Seqs stay strictly monotone and dense across crash + wrap.
  for (std::size_t i = 1; i < resumed.value().journal.size(); ++i) {
    EXPECT_EQ(resumed.value().journal[i].seq, resumed.value().journal[i - 1].seq + 1);
  }
}

TEST(RecoveryDrill, CorruptedLatestSnapshotFallsBackOneInterval) {
  const std::uint64_t seed = 33;
  const Scenario scenario = build_scenario(seed);
  TempDir full_dir{"full_fallback"};
  DrillOptions options;
  options.seed = seed;
  const DrillRun full = run_drill(scenario, full_dir.path(), options);

  TempDir crash_dir{"crash_fallback"};
  options.halt_after = 3;  // snapshots after epochs 0, 1, 2
  (void)run_drill(scenario, crash_dir.path(), options);

  // Flip one payload bit in the newest snapshot: recovery must reject it and
  // resume from epoch 1's snapshot instead — one interval earlier, still
  // byte-identical from epoch 2 onward.
  {
    const std::filesystem::path newest = crash_dir.path() / "checkpoint-00000002.vdxsnap";
    ASSERT_TRUE(std::filesystem::exists(newest));
    std::fstream file{newest, std::ios::in | std::ios::out | std::ios::binary};
    file.seekg(20);
    const char original = static_cast<char>(file.get());
    file.seekp(20);
    file.put(static_cast<char>(original ^ 0x10));
  }

  options.halt_after = 0;
  const auto resumed = resume_drill(scenario, crash_dir.path(), options);
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_EQ(epoch_reports_jsonl(resumed.value().result.timeline), tail_jsonl(full, 2));
}

TEST(RecoveryDrill, ResumeRejectsFingerprintMismatch) {
  const Scenario scenario = build_scenario(11);
  TempDir dir{"fingerprint"};
  DrillOptions options;
  options.seed = 11;
  options.halt_after = 2;
  (void)run_drill(scenario, dir.path(), options);

  // A run configured with a different seed must refuse the snapshot.
  options.seed = 999;
  options.halt_after = 0;
  const auto resumed = resume_drill(scenario, dir.path(), options);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, core::Errc::kInvalidArgument);
}

TEST(RecoveryDrill, ResumeRejectsOutOfHorizonCheckpoint) {
  const Scenario scenario = build_scenario(11);
  state::TimelineCheckpoint checkpoint;
  checkpoint.fingerprint = fingerprint_for(11);
  checkpoint.next_epoch = 999;  // far past the 6-epoch horizon
  const std::vector<std::uint8_t> bytes = state::encode(checkpoint);

  StreamingConfig config;
  config.epoch_s = kEpochSeconds;
  config.checkpoint.fingerprint = fingerprint_for(11);
  TraceStream broker{scenario.broker_trace()};
  TraceStream background{scenario.background_trace()};
  const auto resumed =
      StreamingTimeline{scenario, config}.resume(broker, background, bytes);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, core::Errc::kCorruptSnapshot);
}

/// An epoch-1 checkpoint whose every range-checked value sits just inside
/// the scenario: the last city and cluster, a positive bitrate, zero churn
/// weight, one finite background load per cluster. Each cursor has consumed
/// one session (the decoder requires consumed >= active); the active id lies
/// past the trace, so it never collides with a session the stream pulls.
state::TimelineCheckpoint in_range_checkpoint(const Scenario& scenario) {
  const auto cities = static_cast<std::uint32_t>(scenario.world().cities().size());
  const auto clusters = static_cast<std::uint32_t>(scenario.catalog().clusters().size());
  state::TimelineCheckpoint checkpoint;
  checkpoint.fingerprint = fingerprint_for(11);
  checkpoint.next_epoch = 1;
  checkpoint.broker.consumed = 1;
  checkpoint.broker.active = {{5'000'000, cities - 1, 1.5, 1e9}};
  checkpoint.background.consumed = 1;
  checkpoint.background.active = {{5'000'000, cities - 1, 0.8, 1e9}};
  checkpoint.churn.previous = {{5'000'000, clusters - 1}};
  checkpoint.background_loads.assign(clusters, 0.0);
  checkpoint.background_stale = false;
  return checkpoint;
}

core::Result<StreamingResult> resume_checkpoint(const Scenario& scenario,
                                                const state::TimelineCheckpoint& cp) {
  StreamingConfig config;
  config.epoch_s = kEpochSeconds;
  config.checkpoint.fingerprint = fingerprint_for(11);
  TraceStream broker{scenario.broker_trace()};
  TraceStream background{scenario.background_trace()};
  return StreamingTimeline{scenario, config}.resume(broker, background,
                                                    state::encode(cp));
}

void expect_corrupt(const Scenario& scenario, const state::TimelineCheckpoint& cp) {
  const auto resumed = resume_checkpoint(scenario, cp);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, core::Errc::kCorruptSnapshot)
      << resumed.error().message;
}

TEST(RecoveryDrill, ResumeAcceptsCheckpointValuesAtTheEdgeOfTheScenario) {
  // The control for the out-of-range cases below: each of them breaks one
  // value of this checkpoint, which resumes and runs to the horizon.
  const Scenario scenario = build_scenario(11);
  const auto resumed = resume_checkpoint(scenario, in_range_checkpoint(scenario));
  ASSERT_TRUE(resumed.ok()) << resumed.error().message;
  EXPECT_FALSE(resumed.value().timeline.epochs.empty());
}

TEST(RecoveryDrill, ResumeRejectsCursorSessionOutsideTheWorld) {
  const Scenario scenario = build_scenario(11);
  const auto cities = static_cast<std::uint32_t>(scenario.world().cities().size());
  for (const std::uint32_t city : {cities, std::uint32_t{100'000}}) {
    SCOPED_TRACE(::testing::Message() << "city=" << city);
    state::TimelineCheckpoint broker = in_range_checkpoint(scenario);
    broker.broker.active.front().city = city;
    expect_corrupt(scenario, broker);
    state::TimelineCheckpoint background = in_range_checkpoint(scenario);
    background.background.active.front().city = city;
    expect_corrupt(scenario, background);
  }
}

TEST(RecoveryDrill, ResumeRejectsCursorBitrateThatIsNotFinitePositive) {
  const Scenario scenario = build_scenario(11);
  for (const double bitrate : {0.0, -1.5, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(::testing::Message() << "bitrate=" << bitrate);
    state::TimelineCheckpoint checkpoint = in_range_checkpoint(scenario);
    checkpoint.broker.active.front().bitrate_mbps = bitrate;
    expect_corrupt(scenario, checkpoint);
  }
}

TEST(RecoveryDrill, ResumeRejectsChurnClusterOutsideTheCatalog) {
  const Scenario scenario = build_scenario(11);
  const auto clusters = static_cast<std::uint32_t>(scenario.catalog().clusters().size());
  for (const std::uint32_t cluster : {clusters, std::uint32_t{999'999}}) {
    SCOPED_TRACE(::testing::Message() << "cluster=" << cluster);
    state::TimelineCheckpoint checkpoint = in_range_checkpoint(scenario);
    checkpoint.churn.previous.front().second = cluster;
    expect_corrupt(scenario, checkpoint);
  }
}

TEST(RecoveryDrill, ResumeRejectsChurnMeanThatIsNotFinite) {
  const Scenario scenario = build_scenario(11);
  state::TimelineCheckpoint nan_sum = in_range_checkpoint(scenario);
  nan_sum.churn.sum = std::nan("");
  expect_corrupt(scenario, nan_sum);
  state::TimelineCheckpoint infinite_weight = in_range_checkpoint(scenario);
  infinite_weight.churn.weight = HUGE_VAL;
  expect_corrupt(scenario, infinite_weight);
  state::TimelineCheckpoint negative_weight = in_range_checkpoint(scenario);
  negative_weight.churn.weight = -1.0;
  expect_corrupt(scenario, negative_weight);
}

TEST(RecoveryDrill, ResumeRejectsBackgroundLoadsThatAreNotOnePerCluster) {
  const Scenario scenario = build_scenario(11);
  // Three loads marked fresh: the round would index past them.
  state::TimelineCheckpoint short_fresh = in_range_checkpoint(scenario);
  short_fresh.background_loads = {1.0, 2.0, 3.0};
  expect_corrupt(scenario, short_fresh);
  // A stale mark does not excuse a wrong size either.
  state::TimelineCheckpoint short_stale = short_fresh;
  short_stale.background_stale = true;
  expect_corrupt(scenario, short_stale);
  // Empty loads are only meaningful when they are to be recomputed.
  state::TimelineCheckpoint empty_fresh = in_range_checkpoint(scenario);
  empty_fresh.background_loads.clear();
  expect_corrupt(scenario, empty_fresh);
  for (const double load : {-1.0, std::nan(""), HUGE_VAL}) {
    SCOPED_TRACE(::testing::Message() << "load=" << load);
    state::TimelineCheckpoint bad_value = in_range_checkpoint(scenario);
    bad_value.background_loads.back() = load;
    expect_corrupt(scenario, bad_value);
  }
  // Empty and stale is how every run starts: accepted.
  state::TimelineCheckpoint empty_stale = empty_fresh;
  empty_stale.background_stale = true;
  EXPECT_TRUE(resume_checkpoint(scenario, empty_stale).ok());
}

TEST(RecoveryDrill, ResumeRejectsInternallyInconsistentCursor) {
  const Scenario scenario = build_scenario(11);
  state::TimelineCheckpoint checkpoint;
  checkpoint.fingerprint = fingerprint_for(11);
  checkpoint.next_epoch = 1;
  // Cursor positioned past the trace horizon: decode succeeds (the envelope
  // and section grammar are fine) but the stream seek must reject it, and
  // resume() surfaces that as typed corruption rather than a crash.
  checkpoint.broker.consumed = 1'000'000;
  const std::vector<std::uint8_t> bytes = state::encode(checkpoint);

  StreamingConfig config;
  config.epoch_s = kEpochSeconds;
  config.checkpoint.fingerprint = fingerprint_for(11);
  TraceStream broker{scenario.broker_trace()};
  TraceStream background{scenario.background_trace()};
  const auto resumed =
      StreamingTimeline{scenario, config}.resume(broker, background, bytes);
  ASSERT_FALSE(resumed.ok());
  EXPECT_EQ(resumed.error().code, core::Errc::kCorruptSnapshot);
}

}  // namespace
}  // namespace vdx::sim
