#include "market/agents.hpp"

#include <gtest/gtest.h>

#include "cdn/menu_cache.hpp"
#include "sim/designs.hpp"

namespace vdx::market {
namespace {

class AgentTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig config;
    config.trace.session_count = 2000;
    config.seed = 77;
    scenario_ = new sim::Scenario(sim::Scenario::build(config));
    background_ = new std::vector<double>(sim::place_background(*scenario_));
    menus_ = new cdn::CandidateMenuCache{scenario_->catalog(), scenario_->mapping(),
                                         scenario_->world().cities().size(),
                                         CdnAgentConfig{}.matching()};
  }
  static void TearDownTestSuite() {
    delete menus_;
    delete background_;
    delete scenario_;
    scenario_ = nullptr;
    background_ = nullptr;
    menus_ = nullptr;
  }
  static const sim::Scenario& scenario() { return *scenario_; }
  static const std::vector<double>& background() { return *background_; }
  static const cdn::CandidateMenuCache& menus() { return *menus_; }

  static std::vector<proto::ShareMessage> gather_shares() {
    VdxBrokerAgent broker{scenario()};
    return broker.gather();
  }

 private:
  static sim::Scenario* scenario_;
  static std::vector<double>* background_;
  static cdn::CandidateMenuCache* menus_;
};

sim::Scenario* AgentTest::scenario_ = nullptr;
std::vector<double>* AgentTest::background_ = nullptr;
cdn::CandidateMenuCache* AgentTest::menus_ = nullptr;

TEST_F(AgentTest, BrokerGatherMatchesGroups) {
  const auto shares = gather_shares();
  ASSERT_EQ(shares.size(), scenario().broker_groups().size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const broker::ClientGroup& group = scenario().broker_groups()[i];
    EXPECT_EQ(shares[i].share_id, group.id.value());
    EXPECT_EQ(shares[i].location, group.city.value());
    EXPECT_DOUBLE_EQ(shares[i].data_size_mbps, group.bitrate_mbps);
    EXPECT_EQ(shares[i].client_count,
              static_cast<std::uint32_t>(std::llround(group.client_count)));
  }
}

TEST_F(AgentTest, CdnAgentBidsOnlyWithSpareCapacity) {
  cdn::StaticStrategy strategy;
  VdxCdnAgent agent{scenario(), cdn::CdnId{0}, strategy, background(), menus()};
  agent.handle_share(gather_shares());
  const auto bids = agent.announce();
  ASSERT_FALSE(bids.empty());
  for (const proto::BidMessage& bid : bids) {
    EXPECT_EQ(bid.cdn_id, 0u);
    EXPECT_GT(bid.capacity_mbps, 0.0);
    EXPECT_GT(bid.price, 0.0);
    EXPECT_GT(bid.performance_estimate, 0.0);
    const cdn::Cluster& cluster =
        scenario().catalog().cluster(cdn::ClusterId{bid.cluster_id});
    EXPECT_EQ(cluster.cdn, cdn::CdnId{0});
    // Committed capacity never exceeds capacity net of background.
    EXPECT_LE(bid.capacity_mbps,
              cluster.capacity - background()[bid.cluster_id] + 1e-9);
  }
}

TEST_F(AgentTest, StaticStrategyPricesAtMarkup) {
  cdn::StaticStrategy strategy{1.2};
  VdxCdnAgent agent{scenario(), cdn::CdnId{0}, strategy, background(), menus()};
  agent.handle_share(gather_shares());
  for (const proto::BidMessage& bid : agent.announce()) {
    const cdn::Cluster& cluster =
        scenario().catalog().cluster(cdn::ClusterId{bid.cluster_id});
    EXPECT_NEAR(bid.price, cluster.unit_cost() * 1.2, 1e-9);
  }
}

TEST_F(AgentTest, FailedAgentGoesSilent) {
  cdn::StaticStrategy strategy;
  VdxCdnAgent agent{scenario(), cdn::CdnId{0}, strategy, background(), menus()};
  agent.handle_share(gather_shares());
  agent.set_failed(true);
  EXPECT_TRUE(agent.announce().empty());
  agent.set_failed(false);
  EXPECT_FALSE(agent.announce().empty());
}

TEST_F(AgentTest, FraudulentAgentMisreports) {
  cdn::StaticStrategy strategy;
  VdxCdnAgent honest{scenario(), cdn::CdnId{0}, strategy, background(), menus()};
  honest.handle_share(gather_shares());
  const auto honest_bids = honest.announce();

  cdn::StaticStrategy strategy2;
  VdxCdnAgent liar{scenario(), cdn::CdnId{0}, strategy2, background(), menus()};
  liar.handle_share(gather_shares());
  liar.set_fraudulent(true);
  const auto fraud_bids = liar.announce();

  ASSERT_EQ(honest_bids.size(), fraud_bids.size());
  for (std::size_t i = 0; i < honest_bids.size(); ++i) {
    EXPECT_LT(fraud_bids[i].performance_estimate,
              honest_bids[i].performance_estimate);
    EXPECT_LT(fraud_bids[i].price, honest_bids[i].price);
  }
}

TEST_F(AgentTest, AcceptFeedbackReachesStrategy) {
  cdn::RiskAverseStrategy strategy;
  VdxCdnAgent agent{scenario(), cdn::CdnId{0}, strategy, background(), menus()};
  agent.handle_share(gather_shares());
  const auto bids = agent.announce();
  ASSERT_FALSE(bids.empty());

  // Feed back: everything lost.
  std::vector<proto::AcceptMessage> accepts;
  for (const proto::BidMessage& bid : bids) {
    proto::AcceptMessage accept;
    accept.cluster_id = bid.cluster_id;
    accept.share_id = bid.share_id;
    accept.cdn_id = bid.cdn_id;
    accept.awarded_mbps = 0.0;
    accepts.push_back(accept);
  }
  agent.handle_accept(accepts);
  EXPECT_DOUBLE_EQ(agent.awarded_mbps(), 0.0);

  // After losses, the learner shades its capacity commitments down.
  const auto shaded = agent.announce();
  double before = 0.0;
  double after = 0.0;
  for (const auto& b : bids) before += b.capacity_mbps;
  for (const auto& b : shaded) after += b.capacity_mbps;
  EXPECT_LT(after, before);
}

TEST_F(AgentTest, AcceptIgnoresOtherCdns) {
  cdn::RiskAverseStrategy strategy;
  VdxCdnAgent agent{scenario(), cdn::CdnId{0}, strategy, background(), menus()};
  agent.handle_share(gather_shares());
  (void)agent.announce();
  proto::AcceptMessage foreign;
  foreign.cdn_id = 5;
  foreign.awarded_mbps = 1000.0;
  agent.handle_accept(std::vector<proto::AcceptMessage>{foreign});
  EXPECT_DOUBLE_EQ(agent.awarded_mbps(), 0.0);
}

TEST_F(AgentTest, BrokerOptimizeProducesAcceptPerBid) {
  VdxBrokerAgent broker{scenario()};
  (void)broker.gather();

  cdn::StaticStrategy strategy;
  VdxCdnAgent agent{scenario(), cdn::CdnId{0}, strategy, background(), menus()};
  agent.handle_share(gather_shares());
  const auto bids = agent.announce();

  const auto accepts = broker.optimize(bids);
  EXPECT_EQ(accepts.size(), bids.size());
  double awarded = 0.0;
  for (const proto::AcceptMessage& accept : accepts) awarded += accept.awarded_mbps;
  EXPECT_GT(awarded, 0.0);  // the lone bidder wins everything it can host
  EXPECT_FALSE(broker.placements().empty());
}

TEST_F(AgentTest, ResolveReturnsWinningClusters) {
  VdxBrokerAgent broker{scenario()};
  (void)broker.gather();
  cdn::StaticStrategy strategy;
  VdxCdnAgent agent{scenario(), cdn::CdnId{0}, strategy, background(), menus()};
  agent.handle_share(gather_shares());
  (void)broker.optimize(agent.announce());

  const broker::ClientGroup& group = scenario().broker_groups().front();
  proto::QueryMessage query;
  query.session_id = 9;
  query.location = group.city.value();
  const proto::ResultMessage result = broker.resolve(query);
  EXPECT_EQ(result.session_id, 9u);
  ASSERT_NE(result.cluster_id, cdn::ClusterId::invalid_value);
  EXPECT_EQ(scenario().catalog().cluster(cdn::ClusterId{result.cluster_id}).cdn,
            cdn::CdnId{0});
}

TEST_F(AgentTest, ResolveFailsGracefullyWithoutDecision) {
  VdxBrokerAgent broker{scenario()};
  proto::QueryMessage query;
  query.location = 0;
  const proto::ResultMessage result = broker.resolve(query);
  EXPECT_EQ(result.cluster_id, cdn::ClusterId::invalid_value);
}

TEST_F(AgentTest, ClusterServiceDegradesWhenOverloaded) {
  std::vector<double> loads(scenario().catalog().clusters().size(), 0.0);
  const cdn::Cluster& cluster = scenario().catalog().clusters().front();
  loads[cluster.id.value()] = cluster.capacity * 2.0;  // 200% loaded

  ClusterService service{scenario(), loads};
  service.register_session(1, 4.0);
  proto::RequestMessage request;
  request.session_id = 1;
  request.cluster_id = cluster.id.value();
  const proto::DeliveryMessage delivery = service.serve(request);
  EXPECT_NEAR(delivery.delivered_mbps, 2.0, 1e-9);  // fair-share halved

  // Unknown cluster: delivery fails, no crash.
  request.cluster_id = 999999;
  EXPECT_DOUBLE_EQ(service.serve(request).delivered_mbps, 0.0);
}

TEST_F(AgentTest, BackgroundArityValidated) {
  cdn::StaticStrategy strategy;
  std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(
      (VdxCdnAgent{scenario(), cdn::CdnId{0}, strategy, wrong, menus()}),
      std::invalid_argument);
}

}  // namespace
}  // namespace vdx::market
