// StreamingTimeline acceptance: the engine reproduces the from-scratch
// reference timeline's epoch reports byte-identically (DESIGN.md §9), at
// --threads 1 and --threads 8, for several designs and pull sizes; plus the
// engine's resource-accounting invariants.
#include "sim/streaming.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "obs/observe.hpp"
#include "sim/timeline_io.hpp"
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

}  // namespace
}  // namespace vdx::sim
