// StreamingTimeline acceptance: the engine reproduces the from-scratch
// reference timeline's epoch reports byte-identically (DESIGN.md §9), at
// --threads 1 and --threads 8, for several designs and pull sizes; plus the
// engine's resource-accounting invariants.
#include "sim/streaming.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/fnv1a.hpp"
#include "obs/observe.hpp"
#include "sim/timeline_io.hpp"
#include "state/checkpoint.hpp"
#include "state/fault_fs.hpp"
#include "state/store.hpp"
#include "support/reference_timeline.hpp"

namespace vdx::sim {
namespace {

std::size_t env_threads(std::size_t fallback) {
  // The TSan CI lane pins thread counts via VDX_TEST_THREADS.
  if (const char* env = std::getenv("VDX_TEST_THREADS")) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

/// Runs the engine and the reference oracle over the same scenario and diffs
/// the serialized epoch reports byte-for-byte.
void expect_equivalent(const Scenario& scenario, Design design, std::size_t threads,
                       std::size_t batch_sessions) {
  StreamingConfig streaming;
  streaming.design = design;
  streaming.run.threads = threads;
  streaming.batch_sessions = batch_sessions;
  TraceStream broker{scenario.broker_trace()};
  TraceStream background{scenario.background_trace()};
  const StreamingResult streamed =
      StreamingTimeline{scenario, streaming}.run(broker, background);

  EXPECT_EQ(epoch_reports_jsonl(streamed.timeline),
            epoch_reports_jsonl(test::reference_timeline(scenario, streaming)))
      << "design=" << to_string(design) << " threads=" << threads
      << " batch_sessions=" << batch_sessions;
}

// -- Seed-scale equivalence (the labeled acceptance ctest) -------------------

class StreamingSeedScaleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config;
    config.trace.session_count = 5000;
    config.seed = 55;
    scenario_ = new Scenario(Scenario::build(config));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const Scenario& scenario() { return *scenario_; }

 private:
  static Scenario* scenario_;
};

Scenario* StreamingSeedScaleTest::scenario_ = nullptr;

TEST_F(StreamingSeedScaleTest, MatchesReferenceByteForByteSingleThread) {
  expect_equivalent(scenario(), Design::kMarketplace, 1, 512);
}

TEST_F(StreamingSeedScaleTest, MatchesReferenceByteForByteEightThreads) {
  expect_equivalent(scenario(), Design::kMarketplace, 8, 512);
}

TEST_F(StreamingSeedScaleTest, MatchesReferenceForBrokeredDesign) {
  // Brokered exercises the blurred-QoE path (qoe_epoch-dependent scores).
  expect_equivalent(scenario(), Design::kBrokered, 1, 512);
}

TEST_F(StreamingSeedScaleTest, PullGranularityNeverChangesResults) {
  StreamingConfig config;
  config.batch_sessions = 7;  // pathological pull size
  TraceStream broker7{scenario().broker_trace()};
  TraceStream background7{scenario().background_trace()};
  const auto tiny = StreamingTimeline{scenario(), config}.run(broker7, background7);

  config.batch_sessions = 100'000;  // one pull
  TraceStream broker_all{scenario().broker_trace()};
  TraceStream background_all{scenario().background_trace()};
  const auto whole =
      StreamingTimeline{scenario(), config}.run(broker_all, background_all);

  EXPECT_EQ(epoch_reports_jsonl(tiny.timeline), epoch_reports_jsonl(whole.timeline));
  EXPECT_EQ(tiny.peak_active_sessions, whole.peak_active_sessions);
}

// -- Small-scenario equivalence (fast enough for the asan/tsan lanes) --------

class StreamingSmallTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ScenarioConfig config;
    config.trace.session_count = 1200;
    config.seed = 7;
    scenario_ = new Scenario(Scenario::build(config));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const Scenario& scenario() { return *scenario_; }

 private:
  static Scenario* scenario_;
};

Scenario* StreamingSmallTest::scenario_ = nullptr;

TEST_F(StreamingSmallTest, EquivalenceSmallSerialAndParallel) {
  expect_equivalent(scenario(), Design::kMarketplace, 1, 256);
  expect_equivalent(scenario(), Design::kMarketplace, env_threads(8), 256);
}

TEST_F(StreamingSmallTest, PerSessionPullsMatchBulkPullsByteForByte) {
  // Regression for the count-map churn bug: pulling one session at a time
  // maximizes erase-on-zero/reinsert churn in the active population between
  // epochs. With the dense count arrays the export must not depend on that
  // history at all — byte-identical to one-big-pull, and to the reference.
  expect_equivalent(scenario(), Design::kMarketplace, 1, 1);

  StreamingConfig config;
  config.batch_sessions = 1;
  TraceStream broker1{scenario().broker_trace()};
  TraceStream background1{scenario().background_trace()};
  const auto drip = StreamingTimeline{scenario(), config}.run(broker1, background1);

  config.batch_sessions = 4096;
  TraceStream broker_bulk{scenario().broker_trace()};
  TraceStream background_bulk{scenario().background_trace()};
  const auto bulk =
      StreamingTimeline{scenario(), config}.run(broker_bulk, background_bulk);

  EXPECT_EQ(epoch_reports_jsonl(drip.timeline), epoch_reports_jsonl(bulk.timeline));
  EXPECT_EQ(drip.peak_active_sessions, bulk.peak_active_sessions);
}

TEST_F(StreamingSmallTest, ResourceAccountingInvariants) {
  StreamingConfig config;
  config.batch_sessions = 128;
  TraceStream broker{scenario().broker_trace()};
  TraceStream background{scenario().background_trace()};
  const StreamingResult result =
      StreamingTimeline{scenario(), config}.run(broker, background);

  // Every broker session arrives within the horizon, so the stream drains
  // fully (minus any sessions arriving after the last epoch midpoint).
  EXPECT_LE(result.broker_sessions, scenario().broker_trace().size());
  EXPECT_GT(result.broker_sessions, 0u);
  EXPECT_GT(result.background_sessions, 0u);
  // The concurrent population is a fraction of the horizon total: the whole
  // point of streaming.
  EXPECT_LT(result.peak_active_sessions,
            scenario().broker_trace().size() + scenario().background_trace().size());
  EXPECT_GT(result.peak_active_sessions, 0u);
  EXPECT_EQ(result.decision_rounds, result.timeline.epochs.size());
  EXPECT_LE(result.background_recomputes, result.decision_rounds);
}

TEST_F(StreamingSmallTest, EmitsTimelineObservability) {
  obs::MetricsRegistry metrics;
  obs::SpanTracer tracer;
  obs::RunJournal journal{256};

  StreamingConfig config;
  config.obs = obs::Observer{&metrics, &tracer, &journal};
  TraceStream broker{scenario().broker_trace()};
  TraceStream background{scenario().background_trace()};
  const StreamingResult result =
      StreamingTimeline{scenario(), config}.run(broker, background);

  EXPECT_DOUBLE_EQ(metrics.counter("timeline.decision_rounds").value(),
                   static_cast<double>(result.decision_rounds));
  EXPECT_DOUBLE_EQ(metrics.gauge("timeline.peak_active_sessions").value(),
                   static_cast<double>(result.peak_active_sessions));
  // One journal event per executed round, carrying the active count.
  std::size_t epoch_events = 0;
  for (const obs::Event& event : journal.events()) {
    if (event.kind == obs::EventKind::kEpoch) ++epoch_events;
  }
  EXPECT_EQ(epoch_events, result.decision_rounds);
}

TEST_F(StreamingSmallTest, StageTimersAccountForTheEpochTime) {
  obs::MetricsRegistry metrics;
  StreamingConfig config;
  config.obs.metrics = &metrics;
  TraceStream broker{scenario().broker_trace()};
  TraceStream background{scenario().background_trace()};
  const StreamingResult result =
      StreamingTimeline{scenario(), config}.run(broker, background);
  ASSERT_GT(result.decision_rounds, 0u);

  const auto epoch = metrics.histogram_summary("timeline.epoch_seconds");
  ASSERT_TRUE(epoch.has_value());
  double stages = 0.0;
  for (const char* stage : {"arrivals", "drop", "groups", "background", "design",
                            "assign", "metrics", "churn"}) {
    const auto summary =
        metrics.histogram_summary("timeline.stage_seconds", {{"stage", stage}});
    ASSERT_TRUE(summary.has_value()) << stage;
    EXPECT_GT(summary->count, 0u) << stage;
    stages += summary->sum;
  }
  // The stages cover the epoch body but its bookkeeping, so they take
  // nearly all of it and never more.
  EXPECT_LE(stages, epoch->sum);
  EXPECT_GE(stages, 0.95 * epoch->sum);
}

/// A stream that only implements next_batch, so next_arrivals is the base
/// class's projection.
class BatchOnlyStream final : public SessionStream {
 public:
  explicit BatchOnlyStream(const trace::BrokerTrace& trace) : inner_(trace) {}
  [[nodiscard]] std::vector<trace::Session> next_batch(
      std::size_t max_sessions) override {
    return inner_.next_batch(max_sessions);
  }
  [[nodiscard]] bool exhausted() const override { return inner_.exhausted(); }
  [[nodiscard]] double duration_s() const override { return inner_.duration_s(); }
  void seek(std::uint64_t consumed) override { inner_.seek(consumed); }

 private:
  TraceStream inner_;
};

/// Reads `stream` to its end alternating next_arrivals and next_batch and
/// checks every record against the projection of `sessions`.
void expect_arrivals_project(SessionStream& stream,
                             std::span<const trace::Session> sessions) {
  std::vector<trace::Arrival> buffer;
  std::size_t position = 0;
  for (std::size_t call = 0; position < sessions.size(); ++call) {
    const std::size_t n = call % 3 == 0 ? 7 : 64;
    const std::size_t take = std::min(n, sessions.size() - position);
    if (call % 4 == 3) {
      const auto batch = stream.next_batch(n);
      ASSERT_EQ(batch.size(), take);
      for (std::size_t i = 0; i < take; ++i) {
        ASSERT_EQ(batch[i].id.value(), sessions[position + i].id.value());
      }
    } else {
      stream.next_arrivals(n, buffer);
      ASSERT_EQ(buffer.size(), take);
      for (std::size_t i = 0; i < take; ++i) {
        const trace::Session& s = sessions[position + i];
        ASSERT_EQ(buffer[i].id.value(), s.id.value());
        ASSERT_EQ(buffer[i].city.value(), s.city.value());
        ASSERT_EQ(std::bit_cast<std::uint64_t>(buffer[i].arrival_s),
                  std::bit_cast<std::uint64_t>(s.arrival_s));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(buffer[i].bitrate_mbps),
                  std::bit_cast<std::uint64_t>(s.bitrate_mbps));
        ASSERT_EQ(std::bit_cast<std::uint64_t>(buffer[i].end_s),
                  std::bit_cast<std::uint64_t>(s.end_s()));
      }
    }
    position += take;
  }
  stream.next_arrivals(8, buffer);
  EXPECT_TRUE(buffer.empty());
  EXPECT_TRUE(stream.exhausted());
}

TEST_F(StreamingSmallTest, EveryStreamAdapterProjectsNextBatchAsArrivals) {
  const auto sessions = scenario().broker_trace().sessions();
  TraceStream traced{scenario().broker_trace()};
  expect_arrivals_project(traced, sessions);
  traced.seek(500);
  expect_arrivals_project(traced, sessions.subspan(500));

  BatchOnlyStream batch_only{scenario().broker_trace()};
  expect_arrivals_project(batch_only, sessions);

  trace::BrokerTraceGenerator::Options options;
  options.block_sessions = 100;
  trace::BrokerTraceGenerator reference{scenario().world(), scenario().config().trace,
                                        core::Rng{3}, options};
  std::vector<trace::Session> generated;
  while (!reference.exhausted()) {
    for (auto& s : reference.next_batch(256)) generated.push_back(std::move(s));
  }
  trace::BrokerTraceGenerator generator{scenario().world(), scenario().config().trace,
                                        core::Rng{3}, options};
  GeneratorStream stream{generator};
  expect_arrivals_project(stream, generated);
  stream.seek(333);
  expect_arrivals_project(stream, std::span<const trace::Session>{generated}.subspan(333));
  EXPECT_EQ(generator.emitted(), generated.size());
}

/// Forwards to a GeneratorStream and records the cumulative session count
/// after every non-empty pull, so a test can tell which pulled sessions a
/// checkpoint left pending.
class CountingStream final : public SessionStream {
 public:
  explicit CountingStream(SessionStream& inner) : inner_(&inner) {}

  [[nodiscard]] std::vector<trace::Session> next_batch(
      std::size_t max_sessions) override {
    auto batch = inner_->next_batch(max_sessions);
    record(batch.size());
    return batch;
  }
  void next_arrivals(std::size_t max_sessions,
                     std::vector<trace::Arrival>& out) override {
    inner_->next_arrivals(max_sessions, out);
    record(out.size());
  }
  [[nodiscard]] bool exhausted() const override { return inner_->exhausted(); }
  [[nodiscard]] double duration_s() const override { return inner_->duration_s(); }
  void seek(std::uint64_t consumed) override { inner_->seek(consumed); }

  /// Cumulative pulled totals, one per non-empty pull.
  [[nodiscard]] const std::vector<std::uint64_t>& pulls() const { return pulls_; }

 private:
  void record(std::size_t n) {
    if (n == 0) return;
    pulls_.push_back((pulls_.empty() ? 0 : pulls_.back()) + n);
  }

  SessionStream* inner_;
  std::vector<std::uint64_t> pulls_;
};

std::string hex64(std::uint64_t value) {
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(value));
  return text;
}

TEST_F(StreamingSmallTest, CheckpointBytesArePinnedAtEveryEpoch) {
  // FNV-1a 64 of each epoch's snapshot, recorded on the engine that pulled
  // whole Sessions into a deque and drained departures from a binary heap.
  // The arrival cursor (consumed = pulled - pending) and the id-ordered
  // active list must not move by a byte under any arrival or departure
  // structure.
  const std::vector<std::string> expected{
      "a04e1a114c8f8556", "9586288caeb1062a", "26fdd0a25154dd44",
      "56f6c181514bad1b", "9a57666afb35fba9", "60768b0dd89300b1",
      "3aef6a55da22bbae", "05a2c9e7b846cc6f", "7592e18d94e4f19d",
      "61175c90df3b0ba4", "45d9361bba0814ad",
  };
  constexpr std::size_t kBlock = 100;  // 12 generator blocks over 1200 sessions
  constexpr std::size_t kBatch = 64;   // pulls that cross block boundaries

  trace::BrokerTraceGenerator::Options broker_options;
  broker_options.block_sessions = kBlock;
  trace::BrokerTraceGenerator broker_generator{
      scenario().world(), scenario().config().trace, core::Rng{7}, broker_options};
  trace::TraceConfig background_config = scenario().config().trace;
  background_config.session_count *= 3;
  trace::BrokerTraceGenerator::Options background_options;
  background_options.block_sessions = kBlock * 3;
  background_options.broker_controlled = false;
  trace::BrokerTraceGenerator background_generator{
      scenario().world(), background_config, core::Rng{8}, background_options};
  GeneratorStream broker_inner{broker_generator};
  GeneratorStream background_inner{background_generator};
  CountingStream broker{broker_inner};
  CountingStream background{background_inner};

  state::FaultFs fs;
  state::CheckpointStore store{"/ckpt", 64, {}, &fs};
  StreamingConfig config;
  config.batch_sessions = kBatch;
  config.checkpoint.every_epochs = 1;
  config.checkpoint.store = &store;
  config.checkpoint.fingerprint.seed = 7;
  config.checkpoint.fingerprint.broker_sessions = 1200;
  config.checkpoint.fingerprint.duration_s = 3600.0;
  config.checkpoint.fingerprint.epoch_s = config.epoch_s;
  (void)StreamingTimeline{scenario(), config}.run(broker, background);

  auto paths = store.list();
  std::reverse(paths.begin(), paths.end());  // oldest epoch first
  std::vector<std::string> digests;
  bool straddled = false;
  for (const auto& path : paths) {
    const auto bytes = fs.read_file(path);
    ASSERT_TRUE(bytes.ok()) << path;
    digests.push_back(hex64(core::fnv1a64(bytes.value())));
    const auto cp = state::decode_timeline(bytes.value());
    ASSERT_TRUE(cp.ok()) << path;
    // Sessions pulled but not yet admitted: [consumed, first pull total past
    // it). Pulls happen only once the pending buffer ran dry.
    const std::uint64_t consumed = cp.value().broker.consumed;
    const auto& pulls = broker.pulls();
    const auto pulled = std::upper_bound(pulls.begin(), pulls.end(), consumed);
    if (pulled == pulls.end()) continue;
    const std::uint64_t next_boundary = (consumed / kBlock + 1) * kBlock;
    straddled |= next_boundary < *pulled;
  }
  EXPECT_EQ(digests.size(), 11u);
  EXPECT_TRUE(straddled)
      << "no checkpoint left a pending buffer across a generator block boundary";
  EXPECT_EQ(digests, expected);
}

}  // namespace
}  // namespace vdx::sim
