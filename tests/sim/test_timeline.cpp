#include "sim/streaming.hpp"

#include <gtest/gtest.h>

namespace vdx::sim {
namespace {

class TimelineTest : public ::testing::Test {
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

Scenario* TimelineTest::scenario_ = nullptr;

TEST_F(TimelineTest, CoversTheFullTraceHour) {
  StreamingConfig config;
  config.epoch_s = 300.0;
  const TimelineResult result = run_timeline(scenario(), config);
  EXPECT_EQ(result.epochs.size(), 12u);  // 3600 / 300
  for (const EpochReport& epoch : result.epochs) {
    EXPECT_GT(epoch.active_sessions, 0u);
    EXPECT_GE(epoch.cdn_switch_fraction, 0.0);
    EXPECT_LE(epoch.cdn_switch_fraction, 1.0);
    // Cluster switching subsumes CDN switching.
    EXPECT_GE(epoch.cluster_switch_fraction, epoch.cdn_switch_fraction - 1e-12);
  }
  EXPECT_DOUBLE_EQ(result.epochs.front().cdn_switch_fraction, 0.0);  // no prior
}

TEST_F(TimelineTest, BrokeredChurnsLikeFigure4) {
  StreamingConfig config;
  config.design = Design::kBrokered;
  const TimelineResult result = run_timeline(scenario(), config);
  // Fig. 4: ~40% of sessions moved; our per-epoch re-decisions land in a
  // generous band around that.
  EXPECT_GT(result.mean_cdn_switch_fraction, 0.20);
  EXPECT_LT(result.mean_cdn_switch_fraction, 0.70);
}

TEST_F(TimelineTest, MarketplaceIsDramaticallyMoreStable) {
  StreamingConfig brokered;
  brokered.design = Design::kBrokered;
  StreamingConfig marketplace;
  marketplace.design = Design::kMarketplace;
  const TimelineResult churny = run_timeline(scenario(), brokered);
  const TimelineResult stable = run_timeline(scenario(), marketplace);
  // §6.2: "Traffic unpredictability is greatly reduced in VDX".
  EXPECT_LT(stable.mean_cdn_switch_fraction,
            0.25 * churny.mean_cdn_switch_fraction);
}

TEST_F(TimelineTest, RejectsBadEpoch) {
  StreamingConfig config;
  config.epoch_s = 0.0;
  EXPECT_THROW((void)run_timeline(scenario(), config), std::invalid_argument);
}

TEST_F(TimelineTest, DeterministicAcrossRuns) {
  StreamingConfig config;
  const TimelineResult a = run_timeline(scenario(), config);
  const TimelineResult b = run_timeline(scenario(), config);
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.epochs[e].cdn_switch_fraction, b.epochs[e].cdn_switch_fraction);
  }
}

}  // namespace
}  // namespace vdx::sim
