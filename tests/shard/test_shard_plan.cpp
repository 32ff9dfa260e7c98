// ShardPlan partition + coordinator session-book units (DESIGN.md §14).
// The plan must be a total, deterministic function of (world, shard count);
// push_session_delta must apply batches atomically against the one session
// book, treat identical retries as no-ops, and hand the settlement the
// book's groups in the canonical (city, bitrate) order.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "broker/grouping.hpp"
#include "market/shard.hpp"
#include "sim/designs.hpp"
#include "sim/scenario.hpp"

namespace vdx::market {
namespace {

const sim::Scenario& scenario() {
  static const sim::Scenario* built = [] {
    sim::ScenarioConfig config;
    config.trace.session_count = 400;
    config.seed = 7;
    return new sim::Scenario(sim::Scenario::build(config));
  }();
  return *built;
}

const geo::World& world() { return scenario().world(); }

TEST(ShardPlanTest, EveryCityLandsOnExactlyOneShard) {
  for (const std::size_t shards : {1u, 2u, 4u, 7u}) {
    const ShardPlan plan = ShardPlan::build(world(), shards);
    ASSERT_EQ(plan.shard_count, shards);
    ASSERT_EQ(plan.shard_of_city.size(), world().cities().size());
    std::vector<std::size_t> counted(shards, 0);
    for (const std::uint32_t owner : plan.shard_of_city) {
      ASSERT_LT(owner, shards);
      ++counted[owner];
    }
    ASSERT_EQ(plan.city_counts.size(), shards);
    for (std::size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(plan.city_counts[s], counted[s]);
      EXPECT_GT(plan.city_counts[s], 0u)
          << "farthest-point seeding left shard " << s << " empty";
    }
  }
}

TEST(ShardPlanTest, BuildIsDeterministicAndHashDiscriminates) {
  const ShardPlan a = ShardPlan::build(world(), 4);
  const ShardPlan b = ShardPlan::build(world(), 4);
  EXPECT_EQ(a.shard_of_city, b.shard_of_city);
  EXPECT_EQ(a.hash(), b.hash());
  const ShardPlan other = ShardPlan::build(world(), 3);
  EXPECT_NE(a.hash(), other.hash());
}

TEST(ShardPlanTest, ShardCountClampsToCityCount) {
  const std::size_t cities = world().cities().size();
  const ShardPlan plan = ShardPlan::build(world(), cities + 50);
  EXPECT_EQ(plan.shard_count, cities);
  const ShardPlan zero = ShardPlan::build(world(), 0);
  EXPECT_EQ(zero.shard_count, 1u);  // floor at one shard
}

/// A fresh two-shard exchange over the shared scenario.
std::unique_ptr<ShardedExchange> two_shards() {
  ShardedConfig config;
  config.shards = 2;
  return std::make_unique<ShardedExchange>(scenario(), config);
}

/// One city owned by each of the first two shards.
std::pair<std::uint32_t, std::uint32_t> cities_on_two_shards(const ShardPlan& plan) {
  std::uint32_t city0 = UINT32_MAX;
  std::uint32_t city1 = UINT32_MAX;
  for (std::uint32_t c = 0; c < plan.shard_of_city.size(); ++c) {
    (plan.shard_of_city[c] == 0 ? city0 : city1) = c;
  }
  return {city0, city1};
}

// Whatever order a batch arrives in, the settlement sees the book's groups
// in the canonical (city, bitrate) order with dense ids — exactly what
// broker::group_sessions makes of the same live sessions.
TEST(ShardSessionDelta, SettledDemandIsTheBookInCanonicalOrder) {
  auto exchange = two_shards();
  const std::vector<proto::ShardSessionAdd> adds = {
      {9, 3, 2.4}, {1, 1, 1.2}, {4, 3, 1.2}, {3, 1, 1.2}, {0, 0, 4.8},
  };
  ASSERT_TRUE(exchange->push_session_delta(adds, {}).ok());
  (void)exchange->run_round();

  std::vector<trace::Session> sessions;
  for (const proto::ShardSessionAdd& add : adds) {
    trace::Session s;
    s.id = trace::SessionId{add.id};
    s.city = geo::CityId{add.city};
    s.bitrate_mbps = add.bitrate_mbps;
    sessions.push_back(s);
  }
  const auto want = broker::group_sessions(sessions);
  const auto got = exchange->settlement().active_demand();
  ASSERT_EQ(got.size(), 4u);  // (0,4.8) (1,1.2)x2 (3,1.2) (3,2.4)
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id.value(), i);
    EXPECT_EQ(got[i].city.value(), want[i].city.value()) << i;
    EXPECT_EQ(got[i].bitrate_mbps, want[i].bitrate_mbps) << i;
    EXPECT_EQ(got[i].client_count, want[i].client_count) << i;
  }
}

TEST(ShardSessionDelta, RejectedBatchMutatesNothing) {
  auto exchange = two_shards();
  const std::vector<proto::ShardSessionAdd> seed = {{0, 0, 1.0}, {1, 1, 2.0}};
  ASSERT_TRUE(exchange->push_session_delta(seed, {}).ok());
  const auto before = exchange->save_state();

  const auto expect_rejected = [&](std::vector<proto::ShardSessionAdd> adds) {
    const std::vector<std::uint32_t> removes = {0};
    const auto status = exchange->push_session_delta(adds, removes);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, core::Errc::kInvalidArgument);
    EXPECT_EQ(exchange->save_state(), before);
  };
  // Valid adds plus one conflicting re-add: the WHOLE batch must bounce,
  // and its remove must not land either.
  expect_rejected({{2, 0, 1.0}, {3, 1, 2.0}, {0, 1, 9.0}});
  expect_rejected({{2, 0, 1.0}, {4, 0, std::numeric_limits<double>::quiet_NaN()}});
  expect_rejected({{2, 0, 1.0}, {5, 0, 0.0}});
  expect_rejected({{2, 0, 1.0}, {6, 100'000, 1.0}});  // unknown city
  expect_rejected({{2, 0, 1.0}, {UINT32_MAX, 0, 1.0}});  // the store's free marker
}

TEST(ShardSessionDelta, IdenticalRetryIsANoOp) {
  auto exchange = two_shards();
  const std::vector<proto::ShardSessionAdd> adds = {{5, 2, 1.6}, {8, 0, 3.2}};
  const std::vector<std::uint32_t> removes = {8, 777};  // 777 was never added
  ASSERT_TRUE(exchange->push_session_delta(adds, removes).ok());
  const auto once = exchange->save_state();
  ASSERT_TRUE(exchange->push_session_delta(adds, removes).ok());
  EXPECT_EQ(exchange->save_state(), once);

  // Remove then re-add round-trips to the same book.
  const std::vector<std::uint32_t> five = {5};
  ASSERT_TRUE(exchange->push_session_delta({}, five).ok());
  EXPECT_NE(exchange->save_state(), once);
  ASSERT_TRUE(exchange->push_session_delta(std::span{adds.data(), 1}, {}).ok());
  EXPECT_EQ(exchange->save_state(), once);
}

TEST(ShardSessionDelta, RemoveInTheSameBatchAsItsAddCancelsIt) {
  const auto [city0, city1] = cities_on_two_shards(ShardPlan::build(world(), 2));
  const std::vector<proto::ShardSessionAdd> kept = {{1, city0, 1.0}, {2, city1, 2.0}};
  std::vector<proto::ShardSessionAdd> with_transients = kept;
  with_transients.push_back({3, city0, 4.0});
  with_transients.push_back({4, city1, 4.0});
  const std::vector<std::uint32_t> transients = {3, 4};

  auto plain = two_shards();
  ASSERT_TRUE(plain->push_session_delta(kept, {}).ok());
  auto cancelled = two_shards();
  ASSERT_TRUE(cancelled->push_session_delta(with_transients, transients).ok());
  EXPECT_EQ(cancelled->save_state(), plain->save_state());
}

TEST(ShardSessionDelta, ConflictingDuplicateAcrossShardsIsRejected) {
  auto exchange = two_shards();
  const auto [city0, city1] = cities_on_two_shards(exchange->plan());
  ASSERT_NE(city0, UINT32_MAX);
  ASSERT_NE(city1, UINT32_MAX);
  const auto empty = exchange->save_state();

  // One id twice in a batch, with cities owned by different shards.
  const std::vector<proto::ShardSessionAdd> twice = {{7, city0, 1.0}, {7, city1, 1.0}};
  auto status = exchange->push_session_delta(twice, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kInvalidArgument);
  EXPECT_EQ(exchange->save_state(), empty);

  // A live id re-added with a city on the other shard.
  const std::vector<proto::ShardSessionAdd> first = {{7, city0, 1.0}};
  ASSERT_TRUE(exchange->push_session_delta(first, {}).ok());
  const std::vector<proto::ShardSessionAdd> moved = {{7, city1, 1.0}};
  status = exchange->push_session_delta(moved, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kInvalidArgument);
}

TEST(ShardSessionDelta, DemandAndSessionFeedsAreExclusive) {
  const auto groups = scenario().broker_groups();
  const auto background = sim::place_background(scenario());
  const std::vector<proto::ShardSessionAdd> adds = {{1, 0, 1.0}};

  auto demand_fed = two_shards();
  demand_fed->set_active_load(groups, background);
  const auto status = demand_fed->push_session_delta(adds, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kInvalidArgument);

  auto session_fed = two_shards();
  ASSERT_TRUE(session_fed->push_session_delta(adds, {}).ok());
  EXPECT_THROW(session_fed->set_active_load(groups, background), std::logic_error);
}

TEST(ShardBackendTest, NamesRoundTrip) {
  EXPECT_EQ(to_string(ShardBackend::kInproc), "inproc");
  EXPECT_EQ(to_string(ShardBackend::kProcess), "process");
  EXPECT_EQ(shard_backend_from("inproc"), ShardBackend::kInproc);
  EXPECT_EQ(shard_backend_from("process"), ShardBackend::kProcess);
  EXPECT_FALSE(shard_backend_from("threads").has_value());
  EXPECT_FALSE(shard_backend_from("").has_value());
}

}  // namespace
}  // namespace vdx::market
