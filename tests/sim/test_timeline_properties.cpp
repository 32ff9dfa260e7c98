// Property-based invariants of the timeline engine: across randomized
// seeds/configs — conservation (every active session assigned exactly once
// per epoch), monotone session clocks, churn fractions in [0,1], engine-vs-
// reference equivalence (the from-scratch oracle, support/
// reference_timeline.hpp) — plus the epoch-boundary regression tests
// pinning the half-open activity convention (the audited "double-counted
// churn denominator" off-by-one: the audit found the half-open midpoint
// sampling cannot double-count, and these tests keep it that way).
#include <gtest/gtest.h>

#include <vector>

#include "sim/streaming.hpp"
#include "sim/timeline_detail.hpp"
#include "sim/timeline_io.hpp"
#include "support/reference_timeline.hpp"

namespace vdx::sim {
namespace {

Scenario small_scenario(std::uint64_t seed, std::size_t sessions) {
  ScenarioConfig config;
  config.trace.session_count = sessions;
  config.seed = seed;
  return Scenario::build(config);
}

void expect_report_invariants(const TimelineResult& result, double epoch_s) {
  double previous_time = -1.0;
  std::size_t previous_epoch = 0;
  bool first = true;
  for (const EpochReport& r : result.epochs) {
    // Monotone session clocks: epoch indices and midpoints strictly
    // increase, and the midpoint is the epoch's.
    EXPECT_GT(r.time_s, previous_time);
    EXPECT_DOUBLE_EQ(r.time_s, (static_cast<double>(r.epoch) + 0.5) * epoch_s);
    if (!first) {
      EXPECT_GT(r.epoch, previous_epoch);
    }
    previous_time = r.time_s;
    previous_epoch = r.epoch;
    first = false;

    // Conservation: every active session is assigned exactly once (the
    // assignment is a map keyed by session id, so "at most once" holds by
    // construction; equality makes it "exactly once").
    EXPECT_EQ(r.assigned_sessions, r.active_sessions);

    // Churn fractions are fractions.
    EXPECT_GE(r.cdn_switch_fraction, 0.0);
    EXPECT_LE(r.cdn_switch_fraction, 1.0);
    EXPECT_GE(r.cluster_switch_fraction, 0.0);
    EXPECT_LE(r.cluster_switch_fraction, 1.0);
    // Cluster switching subsumes CDN switching.
    EXPECT_GE(r.cluster_switch_fraction, r.cdn_switch_fraction - 1e-12);
  }
  EXPECT_GE(result.mean_cdn_switch_fraction, 0.0);
  EXPECT_LE(result.mean_cdn_switch_fraction, 1.0);
}

TEST(TimelineProperties, HoldAcrossSeedsConfigsAndBothEngines) {
  const struct {
    std::uint64_t seed;
    std::size_t sessions;
    Design design;
    double epoch_s;
  } cases[] = {
      {1, 700, Design::kMarketplace, 300.0},
      {2, 900, Design::kBrokered, 240.0},
      {3, 1100, Design::kDynamicMulticluster, 450.0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "seed=" << c.seed
                                      << " design=" << to_string(c.design));
    const Scenario scenario = small_scenario(c.seed, c.sessions);

    StreamingConfig streaming;
    streaming.design = c.design;
    streaming.epoch_s = c.epoch_s;
    streaming.batch_sessions = 128;
    const TimelineResult reference = test::reference_timeline(scenario, streaming);
    expect_report_invariants(reference, c.epoch_s);

    TraceStream broker{scenario.broker_trace()};
    TraceStream background{scenario.background_trace()};
    const StreamingResult streamed =
        StreamingTimeline{scenario, streaming}.run(broker, background);
    expect_report_invariants(streamed.timeline, c.epoch_s);

    // Engine-vs-reference equivalence, byte-for-byte.
    EXPECT_EQ(epoch_reports_jsonl(streamed.timeline), epoch_reports_jsonl(reference));
  }
}

TEST(TimelineProperties, ConservationHoldsUnderShedding) {
  // With admission control the exact-assignment invariant relaxes to
  // assigned + shed <= active, and the admitted population never exceeds
  // the budget — across seeds, designs, and budgets.
  const struct {
    std::uint64_t seed;
    std::size_t sessions;
    Design design;
    std::size_t budget;
  } cases[] = {
      {1, 700, Design::kMarketplace, 50},
      {2, 900, Design::kBrokered, 120},
      {3, 1100, Design::kDynamicMulticluster, 1},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(::testing::Message() << "seed=" << c.seed << " budget=" << c.budget);
    const Scenario scenario = small_scenario(c.seed, c.sessions);
    StreamingConfig streaming;
    streaming.design = c.design;
    streaming.epoch_s = 300.0;
    streaming.overload.max_active_sessions = c.budget;
    TraceStream broker{scenario.broker_trace()};
    TraceStream background{scenario.background_trace()};
    const StreamingResult streamed =
        StreamingTimeline{scenario, streaming}.run(broker, background);

    std::size_t total_shed = 0;
    for (const EpochReport& r : streamed.timeline.epochs) {
      EXPECT_LE(r.assigned_sessions + r.shed_sessions, r.active_sessions);
      EXPECT_LE(r.active_sessions - r.shed_sessions, c.budget);
      // Shedding only ever removes the overflow, never more.
      if (r.active_sessions > c.budget) {
        EXPECT_EQ(r.shed_sessions, r.active_sessions - c.budget);
      } else {
        EXPECT_EQ(r.shed_sessions, 0u);
      }
      total_shed += r.shed_sessions;
    }
    EXPECT_EQ(streamed.shed_sessions, total_shed);
  }
}

// -- Epoch-boundary regression (the satellite-4 audit) -----------------------

/// Hand-built arrival-ordered stream for boundary cases.
class VectorStream final : public SessionStream {
 public:
  VectorStream(std::vector<trace::Session> sessions, double duration_s)
      : sessions_(std::move(sessions)), duration_s_(duration_s) {}

  [[nodiscard]] std::vector<trace::Session> next_batch(
      std::size_t max_sessions) override {
    std::vector<trace::Session> out;
    while (pos_ < sessions_.size() && out.size() < max_sessions) {
      out.push_back(sessions_[pos_++]);
    }
    return out;
  }
  [[nodiscard]] bool exhausted() const override { return pos_ >= sessions_.size(); }
  [[nodiscard]] double duration_s() const override { return duration_s_; }
  void seek(std::uint64_t consumed) override {
    pos_ = static_cast<std::size_t>(consumed);
  }

 private:
  std::vector<trace::Session> sessions_;
  double duration_s_;
  std::size_t pos_ = 0;
};

trace::Session make_session(std::uint32_t id, double arrival, double duration,
                            geo::CityId city, double bitrate) {
  trace::Session s;
  s.id = trace::SessionId{id};
  s.arrival_s = arrival;
  s.duration_s = duration;
  s.city = city;
  s.bitrate_mbps = bitrate;
  return s;
}

TEST(TimelineBoundaryRegression, ActiveAtIsHalfOpenAtSessionEnd) {
  const trace::Session s = make_session(0, 100.0, 200.0, geo::CityId{0}, 1.5);
  EXPECT_DOUBLE_EQ(s.end_s(), 300.0);
  EXPECT_TRUE(s.active_at(100.0));   // arrival inclusive
  EXPECT_TRUE(s.active_at(299.999));
  EXPECT_FALSE(s.active_at(300.0));  // end exclusive
}

TEST(TimelineBoundaryRegression, SessionEndingOnEpochBoundaryCountsInOneEpoch) {
  // epoch_s = 300: midpoints at 150, 450, 750, ... A session ending exactly
  // at the epoch-1/epoch-2 boundary (t = 600) must be active at midpoint
  // 450 and NOT at 750 — it appears in exactly one epoch's churn
  // denominator, never two (the audited off-by-one).
  const Scenario scenario = small_scenario(5, 400);
  const geo::CityId city = scenario.broker_trace().sessions()[0].city;
  const double bitrate = scenario.broker_trace().sessions()[0].bitrate_mbps;

  std::vector<trace::Session> sessions;
  // One long-lived anchor so no epoch is empty.
  sessions.push_back(make_session(0, 0.0, 1200.0, city, bitrate));
  // The boundary session: [300, 600) — ends exactly on an epoch boundary.
  sessions.push_back(make_session(1, 300.0, 300.0, city, bitrate));

  StreamingConfig config;
  config.epoch_s = 300.0;
  VectorStream broker{sessions, 1200.0};
  VectorStream background{{}, 1200.0};
  const StreamingResult result =
      StreamingTimeline{scenario, config}.run(broker, background);

  ASSERT_EQ(result.timeline.epochs.size(), 4u);
  EXPECT_EQ(result.timeline.epochs[0].active_sessions, 1u);  // mid 150
  EXPECT_EQ(result.timeline.epochs[1].active_sessions, 2u);  // mid 450
  EXPECT_EQ(result.timeline.epochs[2].active_sessions, 1u);  // mid 750: gone
  EXPECT_EQ(result.timeline.epochs[3].active_sessions, 1u);
  for (const EpochReport& r : result.timeline.epochs) {
    EXPECT_EQ(r.assigned_sessions, r.active_sessions);
  }
}

TEST(TimelineBoundaryRegression, SessionEndingOnMidpointIsExcludedThatEpoch) {
  // End exactly at a sample midpoint (t = 450): half-open ⇒ not active.
  const Scenario scenario = small_scenario(5, 400);
  const geo::CityId city = scenario.broker_trace().sessions()[0].city;
  const double bitrate = scenario.broker_trace().sessions()[0].bitrate_mbps;

  std::vector<trace::Session> sessions;
  sessions.push_back(make_session(0, 0.0, 900.0, city, bitrate));
  sessions.push_back(make_session(1, 120.0, 330.0, city, bitrate));  // ends 450

  StreamingConfig config;
  config.epoch_s = 300.0;
  VectorStream broker{sessions, 900.0};
  VectorStream background{{}, 900.0};
  const StreamingResult result =
      StreamingTimeline{scenario, config}.run(broker, background);

  ASSERT_EQ(result.timeline.epochs.size(), 3u);
  EXPECT_EQ(result.timeline.epochs[0].active_sessions, 2u);  // mid 150
  EXPECT_EQ(result.timeline.epochs[1].active_sessions, 1u);  // mid 450: excluded
  EXPECT_EQ(result.timeline.epochs[2].active_sessions, 1u);
}

TEST(TimelineBoundaryRegression, ChurnDenominatorCountsEachSurvivorOnce) {
  // Direct ChurnTracker check: a session present in consecutive assignments
  // contributes exactly 1 to the denominator; disappeared or newly arrived
  // sessions contribute 0.
  const Scenario scenario = small_scenario(5, 400);
  const auto& catalog = scenario.catalog();
  // Two clusters of different CDNs (the scenario has 4 CDNs).
  const cdn::ClusterId a = catalog.cdns()[0].clusters.front();
  const cdn::ClusterId b = catalog.cdns()[1].clusters.front();

  detail::ChurnTracker tracker;
  EpochReport first;
  tracker.observe(catalog, detail::Assignment{{1, a}, {2, a}, {3, a}}, first);
  EXPECT_DOUBLE_EQ(first.cdn_switch_fraction, 0.0);  // no prior epoch

  EpochReport second;
  // Session 1 survives and switches CDN; session 2 survives and stays;
  // session 3 departed; session 4 is new.
  tracker.observe(catalog, detail::Assignment{{1, b}, {2, a}, {4, b}}, second);
  // Denominator is exactly the 2 survivors — 3 and 4 don't count.
  EXPECT_DOUBLE_EQ(second.cdn_switch_fraction, 0.5);
  EXPECT_DOUBLE_EQ(second.cluster_switch_fraction, 0.5);
  EXPECT_DOUBLE_EQ(tracker.mean_cdn_switch_fraction(), 0.5);
}

}  // namespace
}  // namespace vdx::sim
