// Differential equivalence suite (DESIGN.md §14): a session-fed
// VdxExchange must settle byte-identically to a monolithic VdxExchange fed
// broker::group_sessions of the same live sessions.
#include <gtest/gtest.h>

#include "shard/shard_test_util.hpp"

namespace vdx::market {
namespace {

constexpr std::size_t kRounds = 4;

class ShardEquivalence : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig config;
    config.trace.session_count = 1200;
    config.seed = 17;
    scenario_ = new sim::Scenario(sim::Scenario::build(config));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const sim::Scenario& scenario() { return *scenario_; }

 private:
  static sim::Scenario* scenario_;
};

sim::Scenario* ShardEquivalence::scenario_ = nullptr;

// The exchange folds deltas into its one session book and hands the book's
// groups to the settlement; a monolith fed broker::group_sessions of the
// same live sessions each round must settle identically.
TEST_F(ShardEquivalence, SessionFedMatchesGlobalLedger) {
  constexpr double kLadder[] = {0.8, 1.6, 3.2};
  const std::size_t cities = scenario().world().cities().size();
  const auto add_of = [&](std::uint32_t id) {
    return SessionAdd{id, id % static_cast<std::uint32_t>(cities),
                                  kLadder[(id / cities) % std::size(kLadder)]};
  };

  // Round r: admit [400r, 400r+400), retire [200(r-1), 200r).
  constexpr std::size_t kAdds = 400;
  constexpr std::size_t kDrops = 200;
  const auto deltas_of = [&](std::size_t r) {
    shard_test::Delta d;
    for (std::size_t k = 0; k < kAdds; ++k) {
      d.first.push_back(add_of(static_cast<std::uint32_t>(r * kAdds + k)));
    }
    if (r > 0) {
      for (std::size_t k = 0; k < kDrops; ++k) {
        d.second.push_back(static_cast<std::uint32_t>((r - 1) * kDrops + k));
      }
    }
    return d;
  };

  const shard_test::RunCapture mono =
      shard_test::run_monolith(scenario(), deltas_of, kRounds);
  ASSERT_FALSE(mono.placements.empty());
  shard_test::expect_identical(
      mono, shard_test::run_session_fed(scenario(), deltas_of, kRounds), "sessions");
}

// A batch whose removes target ids added in the SAME batch: adds apply
// before removes, so each such pair cancels and no phantom session is left
// for a later delta to trip over — pinned differentially.
TEST_F(ShardEquivalence, SameBatchAddRemoveMatchesGlobalLedger) {
  const auto cities =
      static_cast<std::uint32_t>(scenario().world().cities().size());
  constexpr std::uint32_t kAdds = 120;
  constexpr std::size_t kBatchRounds = 4;
  const auto add_of = [&](std::uint32_t id) {
    return SessionAdd{id, id % cities, id % 2 == 0 ? 1.1 : 2.7};
  };
  // Round r adds a block and, in the SAME batch, removes every third id of
  // that block — plus a slice of the previous round's ids, some of which
  // were already removed (idempotent re-remove coverage).
  const auto deltas_of = [&](std::size_t r) {
    shard_test::Delta d;
    const auto base = static_cast<std::uint32_t>(r) * kAdds;
    for (std::uint32_t k = 0; k < kAdds; ++k) d.first.push_back(add_of(base + k));
    for (std::uint32_t k = 0; k < kAdds; k += 3) d.second.push_back(base + k);
    if (r > 0) {
      for (std::uint32_t k = 1; k < kAdds; k += 4) {
        d.second.push_back(base - kAdds + k);
      }
    }
    return d;
  };

  const shard_test::RunCapture mono =
      shard_test::run_monolith(scenario(), deltas_of, kBatchRounds);
  shard_test::expect_identical(
      mono, shard_test::run_session_fed(scenario(), deltas_of, kBatchRounds),
      "same-batch");
}

}  // namespace
}  // namespace vdx::market
