#include "trace/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "trace/stats.hpp"

namespace vdx::trace {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : world_(geo::World::generate({})) {}

  BrokerTrace make_trace(std::uint64_t seed = 2017) {
    core::Rng rng{seed};
    return generate_trace(world_, config_, rng);
  }

  geo::World world_;
  TraceConfig config_;
};

TEST_F(TraceTest, GeneratesConfiguredSessionCount) {
  const BrokerTrace trace = make_trace();
  EXPECT_EQ(trace.size(), 33'400u);
  EXPECT_DOUBLE_EQ(trace.duration_s(), 3600.0);
}

TEST_F(TraceTest, SessionsAreWellFormedAndArrivalOrdered) {
  const BrokerTrace trace = make_trace();
  double previous = 0.0;
  for (const Session& s : trace.sessions()) {
    EXPECT_GE(s.arrival_s, previous);
    previous = s.arrival_s;
    EXPECT_GE(s.duration_s, 0.0);
    EXPECT_LE(s.end_s(), trace.duration_s() + 1e-9);
    EXPECT_GT(s.bitrate_mbps, 0.0);
    EXPECT_LT(s.city.value(), world_.cities().size());
    // Switch events are time-ordered, within the session, and chain.
    double t = s.arrival_s;
    TraceCdn current = s.initial_cdn;
    for (const SwitchEvent& e : s.switches) {
      EXPECT_GE(e.time_s, t);
      EXPECT_LE(e.time_s, s.end_s());
      EXPECT_EQ(e.from, current);
      EXPECT_NE(e.to, e.from);
      current = e.to;
      t = e.time_s;
    }
  }
}

TEST_F(TraceTest, AbandonmentRateMatchesPaper) {
  const BrokerTrace trace = make_trace();
  EXPECT_NEAR(abandonment_rate(trace), 0.78, 0.01);
}

TEST_F(TraceTest, BitrateDistributionIsBimodal) {
  const BrokerTrace trace = make_trace();
  std::size_t lowest = 0;
  std::size_t highest = 0;
  for (const Session& s : trace.sessions()) {
    if (s.bitrate_mbps == config_.bitrate_ladder.front()) ++lowest;
    if (s.bitrate_mbps == config_.bitrate_ladder.back()) ++highest;
  }
  const double n = static_cast<double>(trace.size());
  EXPECT_GT(lowest / n, 0.25);   // peak at the lowest rung
  EXPECT_GT(highest / n, 0.25);  // peak at the highest rung
}

TEST_F(TraceTest, VideoPopularityIsZipfLike) {
  const BrokerTrace trace = make_trace();
  const auto slope = video_zipf_slope(trace);
  ASSERT_TRUE(slope.has_value());
  // Configured exponent 0.8; the head fit should land in the neighbourhood.
  EXPECT_LT(*slope, -0.5);
  EXPECT_GT(*slope, -1.2);
}

TEST_F(TraceTest, CityDistributionIsHeavyTailed) {
  const BrokerTrace trace = make_trace();
  auto counts = requests_per_city(trace, world_);
  std::sort(counts.rbegin(), counts.rend());
  std::size_t top3 = counts[0] + counts[1] + counts[2];
  EXPECT_GT(static_cast<double>(top3) / static_cast<double>(trace.size()), 0.3);
}

TEST_F(TraceTest, MovedFractionMatchesFigure4Band) {
  const BrokerTrace trace = make_trace();
  const auto series = moved_fraction_timeseries(trace, 5.0);
  ASSERT_EQ(series.size(), 720u);

  // Skip the warm-up (no session has had time to move yet).
  std::vector<double> steady(series.begin() + 120, series.end());
  double sum = 0.0;
  double lo = 1.0;
  double hi = 0.0;
  for (const double v : steady) {
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double avg = sum / static_cast<double>(steady.size());
  // Paper Fig. 4: mean ~40%, dips to ~20%, rises above ~60%.
  EXPECT_NEAR(avg, 0.40, 0.10);
  EXPECT_LT(lo, 0.35);
  EXPECT_GT(hi, 0.50);
}

TEST_F(TraceTest, CdnAFavoredInSmallCities) {
  const BrokerTrace trace = make_trace();
  const auto usage = city_usage(trace, world_);
  ASSERT_GT(usage.size(), 10u);
  const auto fit_a = usage_fit(usage, TraceCdn::kCdnA);
  ASSERT_TRUE(fit_a.has_value());
  // Fig. 5: CDN A's usage *declines* with city size...
  EXPECT_LT(fit_a->slope, 0.0);
  // ...while B and C stay roughly flat (|slope| much smaller than A's).
  const auto fit_b = usage_fit(usage, TraceCdn::kCdnB);
  const auto fit_c = usage_fit(usage, TraceCdn::kCdnC);
  ASSERT_TRUE(fit_b.has_value());
  ASSERT_TRUE(fit_c.has_value());
  EXPECT_LT(std::abs(fit_b->slope), std::abs(fit_a->slope));
  EXPECT_LT(std::abs(fit_c->slope), std::abs(fit_a->slope));
}

TEST_F(TraceTest, CountryUsageVariesWidely) {
  const BrokerTrace trace = make_trace();
  const auto usage = country_usage(trace, world_, 100);
  ASSERT_GT(usage.size(), 5u);
  // Fig. 7: usage varies significantly across countries — some country gives
  // one CDN a dominant share while another nearly starves it.
  for (const std::size_t cdn :
       {static_cast<std::size_t>(TraceCdn::kCdnA), static_cast<std::size_t>(TraceCdn::kCdnB)}) {
    double lo = 1.0;
    double hi = 0.0;
    for (const auto& u : usage) {
      lo = std::min(lo, u.share[cdn]);
      hi = std::max(hi, u.share[cdn]);
    }
    EXPECT_GT(hi - lo, 0.3) << "cdn index " << cdn;
  }
  for (const auto& u : usage) {
    double total = 0.0;
    for (const double s : u.share) total += s;
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_GE(u.requests, 100u);
  }
}

TEST_F(TraceTest, DeterministicForSeed) {
  const BrokerTrace a = make_trace(5);
  const BrokerTrace b = make_trace(5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.sessions()[i].arrival_s, b.sessions()[i].arrival_s);
    EXPECT_EQ(a.sessions()[i].city, b.sessions()[i].city);
    EXPECT_EQ(a.sessions()[i].switches.size(), b.sessions()[i].switches.size());
  }
}

TEST_F(TraceTest, BackgroundTrafficIsUncontrolled) {
  core::Rng rng{9};
  const BrokerTrace background = generate_background(world_, config_, 3.0, rng);
  EXPECT_EQ(background.size(), 3u * config_.session_count);
  for (const Session& s : background.sessions()) {
    EXPECT_EQ(s.initial_cdn, TraceCdn::kOther);
    EXPECT_TRUE(s.switches.empty());
  }
  EXPECT_DOUBLE_EQ(moved_fraction_overall(background), 0.0);
}

TEST_F(TraceTest, RejectsBadConfigs) {
  core::Rng rng{1};
  TraceConfig bad = config_;
  bad.session_count = 0;
  EXPECT_THROW((void)generate_trace(world_, bad, rng), std::invalid_argument);
  bad = config_;
  bad.bitrate_weights.pop_back();
  EXPECT_THROW((void)generate_trace(world_, bad, rng), std::invalid_argument);
  bad = config_;
  bad.abandonment_rate = 1.5;
  EXPECT_THROW((void)generate_trace(world_, bad, rng), std::invalid_argument);
  // A block record keeps the bitrate as a 16-bit ladder index.
  bad = config_;
  bad.bitrate_ladder.assign(65'537, 1.0);
  bad.bitrate_weights.assign(65'537, 1.0);
  EXPECT_THROW((void)generate_trace(world_, bad, rng), std::invalid_argument);
  EXPECT_THROW((BrokerTraceGenerator{world_, bad, core::Rng{1}}), std::invalid_argument);
  EXPECT_THROW((void)generate_background(world_, config_, 0.0, rng),
               std::invalid_argument);
}

TEST(SessionRecord, CdnAtAndMovedBy) {
  Session s;
  s.arrival_s = 10.0;
  s.duration_s = 100.0;
  s.initial_cdn = TraceCdn::kCdnA;
  s.switches = {{40.0, TraceCdn::kCdnA, TraceCdn::kCdnB},
                {80.0, TraceCdn::kCdnB, TraceCdn::kCdnC}};
  EXPECT_EQ(s.cdn_at(20.0), TraceCdn::kCdnA);
  EXPECT_EQ(s.cdn_at(50.0), TraceCdn::kCdnB);
  EXPECT_EQ(s.cdn_at(90.0), TraceCdn::kCdnC);
  EXPECT_EQ(s.final_cdn(), TraceCdn::kCdnC);
  EXPECT_FALSE(s.moved_by(30.0));
  EXPECT_TRUE(s.moved_by(45.0));
  EXPECT_TRUE(s.active_at(50.0));
  EXPECT_FALSE(s.active_at(200.0));
}

}  // namespace
}  // namespace vdx::trace
