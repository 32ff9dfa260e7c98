// Pooled in-process allocation broadcast (DESIGN.md §14): with
// collect_threads > 1 the coordinator fans the per-shard allocation frames
// across a ThreadPool — the TSan lane's target for the shard subsystem.
// Byte-identity must survive the pool, and the pool must be refused
// whenever the link injector (ordered state) is on.
#include <gtest/gtest.h>

#include <vector>

#include "market/shard.hpp"
#include "shard/shard_test_util.hpp"
#include "sim/designs.hpp"

namespace vdx::market {
namespace {

using shard_test::RunCapture;

TEST(ShardParallel, PooledBroadcastMatchesSerialByteForByte) {
  sim::ScenarioConfig scenario_config;
  scenario_config.trace.session_count = 900;
  scenario_config.seed = 23;
  const sim::Scenario scenario = sim::Scenario::build(scenario_config);
  const std::vector<double> background = sim::place_background(scenario);
  const auto script =
      shard_test::make_script(scenario, sim::StressScenario::kFlashCrowd, 3);

  const auto run = [&](std::size_t collect_threads) {
    ShardedConfig config;
    config.shards = 4;
    config.collect_threads = collect_threads;
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
    ShardedExchange exchange{scenario, config};
    return shard_test::drive(exchange, script, background, journal, metrics);
  };

  const RunCapture serial = run(1);
  const RunCapture pooled = run(4);
  ASSERT_FALSE(serial.placements.empty());
  shard_test::expect_identical(serial, pooled, "pooled broadcast");
}

TEST(ShardParallel, ChaosForcesTheSerialPath) {
  sim::ScenarioConfig scenario_config;
  scenario_config.trace.session_count = 600;
  scenario_config.seed = 23;
  const sim::Scenario scenario = sim::Scenario::build(scenario_config);
  const std::vector<double> background = sim::place_background(scenario);
  const auto script =
      shard_test::make_script(scenario, sim::StressScenario::kSteady, 2);

  // collect_threads > 1 AND link faults: the injector streams are ordered
  // state, so the coordinator must walk shards serially — and the output
  // must still match the fault-free pooled run.
  const auto run = [&](bool chaos, std::size_t collect_threads) {
    ShardedConfig config;
    config.shards = 4;
    config.collect_threads = collect_threads;
    if (chaos) {
      config.link_faults.drop_rate = 0.15;
      config.link_faults.corrupt_rate = 0.1;
    }
    obs::MetricsRegistry metrics;
    obs::RunJournal journal;
    config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
    ShardedExchange exchange{scenario, config};
    return shard_test::drive(exchange, script, background, journal, metrics);
  };

  const RunCapture clean = run(false, 4);
  const RunCapture chaotic = run(true, 4);
  shard_test::expect_identical(clean, chaotic, "chaos over pooled config");
}

}  // namespace
}  // namespace vdx::market
