// Golden-snapshot regression suite: canonical JSONL outputs — timeline
// epoch reports (run_timeline, i.e. the StreamingTimeline engine over the
// scenario's materialized traces) and snapshot placement summaries — for
// three seeds, diffed byte-for-byte against tests/golden/. Any change to
// the decision pipeline's numerics shows up here as a reviewable line diff;
// intentional changes regenerate with --update-golden.
#include <gtest/gtest.h>

#include "sim/streaming.hpp"
#include "sim/timeline_io.hpp"
#include "support/golden.hpp"

namespace vdx::sim {
namespace {

Scenario golden_scenario(std::uint64_t seed) {
  ScenarioConfig config;
  config.trace.session_count = 600;  // small: goldens stay reviewable & fast
  config.seed = seed;
  return Scenario::build(config);
}

std::string timeline_jsonl(const Scenario& scenario, Design design) {
  StreamingConfig config;
  config.design = design;
  return epoch_reports_jsonl(run_timeline(scenario, config));
}

class GoldenTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GoldenTest, MarketplaceTimelineMatchesSnapshot) {
  const Scenario scenario = golden_scenario(GetParam());
  const std::string name =
      "timeline_marketplace_seed" + std::to_string(GetParam()) + ".jsonl";
  EXPECT_TRUE(test::golden_compare(name, timeline_jsonl(scenario, Design::kMarketplace)));
}

TEST_P(GoldenTest, BrokeredTimelineMatchesSnapshot) {
  const Scenario scenario = golden_scenario(GetParam());
  const std::string name =
      "timeline_brokered_seed" + std::to_string(GetParam()) + ".jsonl";
  EXPECT_TRUE(test::golden_compare(name, timeline_jsonl(scenario, Design::kBrokered)));
}

TEST_P(GoldenTest, PlacementSummaryMatchesSnapshot) {
  const Scenario scenario = golden_scenario(GetParam());
  const DesignOutcome outcome = run_design(scenario, Design::kMarketplace);
  const std::string name =
      "placements_marketplace_seed" + std::to_string(GetParam()) + ".jsonl";
  EXPECT_TRUE(test::golden_compare(name, placement_summary_jsonl(outcome)));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenTest, ::testing::Values(7u, 55u, 2017u));

}  // namespace
}  // namespace vdx::sim
