// Session-book units of the session-fed exchange (DESIGN.md §14):
// VdxExchange::push_session_delta must apply batches atomically against the
// one session book, treat identical retries as no-ops, and hand the broker
// the whole book's groups in the canonical (city, bitrate) order every
// round.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <vector>

#include "broker/grouping.hpp"
#include "market/exchange.hpp"
#include "shard/shard_test_util.hpp"
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

/// A fresh exchange over the shared scenario.
std::unique_ptr<VdxExchange> fresh_exchange() {
  return std::make_unique<VdxExchange>(scenario());
}

using shard_test::save;

// Whatever order a batch arrives in, the settlement sees the book's groups
// in the canonical (city, bitrate) order with dense ids — exactly what
// broker::group_sessions makes of the same live sessions.
TEST(ShardSessionDelta, SettledDemandIsTheBookInCanonicalOrder) {
  auto exchange = fresh_exchange();
  const std::vector<SessionAdd> adds = {
      {9, 3, 2.4}, {1, 1, 1.2}, {4, 3, 1.2}, {3, 1, 1.2}, {0, 0, 4.8},
  };
  ASSERT_TRUE(exchange->push_session_delta(adds, {}).ok());
  (void)exchange->run_round();

  std::vector<trace::Session> sessions;
  for (const SessionAdd& add : adds) {
    trace::Session s;
    s.id = trace::SessionId{add.id};
    s.city = geo::CityId{add.city};
    s.bitrate_mbps = add.bitrate_mbps;
    sessions.push_back(s);
  }
  const auto want = broker::group_sessions(sessions);
  const auto got = exchange->active_demand();
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
  auto exchange = fresh_exchange();
  const std::vector<SessionAdd> seed = {{0, 0, 1.0}, {1, 1, 2.0}};
  ASSERT_TRUE(exchange->push_session_delta(seed, {}).ok());
  const auto before = save(*exchange);

  const auto expect_rejected = [&](std::vector<SessionAdd> adds) {
    const std::vector<std::uint32_t> removes = {0};
    const auto status = exchange->push_session_delta(adds, removes);
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.error().code, core::Errc::kInvalidArgument);
    EXPECT_EQ(save(*exchange), before);
  };
  // Valid adds plus one conflicting re-add: the WHOLE batch must bounce,
  // and its remove must not land either.
  expect_rejected({{2, 0, 1.0}, {3, 1, 2.0}, {0, 1, 9.0}});
  expect_rejected({{2, 0, 1.0}, {4, 0, std::numeric_limits<double>::quiet_NaN()}});
  expect_rejected({{2, 0, 1.0}, {5, 0, 0.0}});
  expect_rejected({{2, 0, 1.0}, {6, 100'000, 1.0}});  // unknown city
  expect_rejected({{2, 0, 1.0}, {UINT32_MAX, 0, 1.0}});  // the store's free marker
  expect_rejected({{2, 0, 1.0}, {7, 0, 1.0, std::numeric_limits<double>::quiet_NaN()}});
  expect_rejected({{2, 0, 1.0}, {0, 0, 1.0, 50.0}});  // live id, another end
}

TEST(ShardSessionDelta, IdenticalRetryIsANoOp) {
  auto exchange = fresh_exchange();
  const std::vector<SessionAdd> adds = {{5, 2, 1.6}, {8, 0, 3.2}};
  const std::vector<std::uint32_t> removes = {8, 777};  // 777 was never added
  ASSERT_TRUE(exchange->push_session_delta(adds, removes).ok());
  const auto once = save(*exchange);
  ASSERT_TRUE(exchange->push_session_delta(adds, removes).ok());
  EXPECT_EQ(save(*exchange), once);

  // Remove then re-add round-trips to the same book.
  const std::vector<std::uint32_t> five = {5};
  ASSERT_TRUE(exchange->push_session_delta({}, five).ok());
  EXPECT_NE(save(*exchange), once);
  ASSERT_TRUE(exchange->push_session_delta(std::span{adds.data(), 1}, {}).ok());
  EXPECT_EQ(save(*exchange), once);
}

TEST(ShardSessionDelta, RemoveInTheSameBatchAsItsAddCancelsIt) {
  constexpr std::uint32_t city0 = 0;
  constexpr std::uint32_t city1 = 1;
  const std::vector<SessionAdd> kept = {{1, city0, 1.0}, {2, city1, 2.0}};
  std::vector<SessionAdd> with_transients = kept;
  with_transients.push_back({3, city0, 4.0});
  with_transients.push_back({4, city1, 4.0});
  const std::vector<std::uint32_t> transients = {3, 4};

  auto plain = fresh_exchange();
  ASSERT_TRUE(plain->push_session_delta(kept, {}).ok());
  auto cancelled = fresh_exchange();
  ASSERT_TRUE(cancelled->push_session_delta(with_transients, transients).ok());
  EXPECT_EQ(save(*cancelled), save(*plain));
}

// One id must not name two different sessions, whether the copies share a
// batch or the second arrives later.
TEST(ShardSessionDelta, ConflictingDuplicateAcrossShardsIsRejected) {
  auto exchange = fresh_exchange();
  constexpr std::uint32_t city0 = 0;
  constexpr std::uint32_t city1 = 1;
  const auto empty = save(*exchange);

  // One id twice in a batch, with two different cities.
  const std::vector<SessionAdd> twice = {{7, city0, 1.0}, {7, city1, 1.0}};
  auto status = exchange->push_session_delta(twice, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kInvalidArgument);
  EXPECT_EQ(save(*exchange), empty);

  // A live id re-added with another city.
  const std::vector<SessionAdd> first = {{7, city0, 1.0}};
  ASSERT_TRUE(exchange->push_session_delta(first, {}).ok());
  const std::vector<SessionAdd> moved = {{7, city1, 1.0}};
  status = exchange->push_session_delta(moved, {});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kInvalidArgument);
}

// A book-fed round prices the whole book, so a demand budget trims each
// round afresh: with no delta between them, two budgeted rounds shed the
// same Mbps and price the same demand. (Were the first round's trim left
// in the broker, the second would find nothing over budget.)
TEST(ShardSessionDelta, BudgetedRoundsRepriceTheWholeBook) {
  const auto cities = static_cast<std::uint32_t>(scenario().world().cities().size());
  std::vector<SessionAdd> adds;
  double demand_mbps = 0.0;
  for (std::uint32_t id = 0; id < 300; ++id) {
    adds.push_back({id, id % cities, id % 2 == 0 ? 1.2 : 3.6});
    demand_mbps += adds.back().bitrate_mbps;
  }
  ExchangeConfig config;
  config.overload.demand_budget_mbps = demand_mbps / 2.0;
  VdxExchange exchange{scenario(), config};
  ASSERT_TRUE(exchange.push_session_delta(adds, {}).ok());

  const RoundReport first = exchange.run_round();
  const auto priced = exchange.active_demand();
  const std::vector<broker::ClientGroup> first_priced{priced.begin(), priced.end()};
  const RoundReport second = exchange.run_round();
  const auto again = exchange.active_demand();

  EXPECT_GT(first.shed_mbps, 0.0);
  EXPECT_EQ(second.shed_mbps, first.shed_mbps);
  EXPECT_EQ(second.shed_clients, first.shed_clients);
  ASSERT_EQ(again.size(), first_priced.size());
  for (std::size_t i = 0; i < again.size(); ++i) {
    EXPECT_EQ(again[i].city.value(), first_priced[i].city.value()) << i;
    EXPECT_EQ(again[i].bitrate_mbps, first_priced[i].bitrate_mbps) << i;
    EXPECT_EQ(again[i].client_count, first_priced[i].client_count) << i;
  }
}

}  // namespace
}  // namespace vdx::market
