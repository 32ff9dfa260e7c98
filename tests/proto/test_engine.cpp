#include "proto/engine.hpp"

#include <gtest/gtest.h>

namespace vdx::proto {
namespace {

/// Scripted CDN: bids a fixed price per share, records what it saw.
class ScriptedCdn final : public CdnParticipant {
 public:
  explicit ScriptedCdn(std::uint32_t id, double price) : id_(id), price_(price) {}

  void handle_share(std::span<const ShareMessage> shares) override {
    shares_.assign(shares.begin(), shares.end());
  }

  std::vector<BidMessage> announce() override {
    std::vector<BidMessage> bids;
    for (const ShareMessage& share : shares_) {
      BidMessage bid;
      bid.cluster_id = id_ * 100;
      bid.share_id = share.share_id;
      bid.performance_estimate = 10.0;
      bid.capacity_mbps = 1000.0;
      bid.price = price_;
      bid.cdn_id = id_;
      bids.push_back(bid);
    }
    return bids;
  }

  void handle_accept(std::span<const AcceptMessage> accepts) override {
    accepts_.assign(accepts.begin(), accepts.end());
  }

  std::vector<ShareMessage> shares_;
  std::vector<AcceptMessage> accepts_;
  std::uint32_t id_;
  double price_;
};

/// Scripted broker: `share_count` shares (ids 1..n), accepts the cheapest bid
/// fully.
class ScriptedBroker final : public BrokerParticipant {
 public:
  explicit ScriptedBroker(std::uint32_t share_count = 1) : share_count_(share_count) {}

  std::vector<ShareMessage> gather() override {
    std::vector<ShareMessage> shares;
    for (std::uint32_t i = 1; i <= share_count_; ++i) {
      ShareMessage share;
      share.share_id = i;
      share.location = 3 * i;
      share.data_size_mbps = 2.0 * i;
      share.client_count = 50 * i;
      shares.push_back(share);
    }
    gathered_ = shares;
    return shares;
  }

  std::vector<AcceptMessage> optimize(std::span<const BidMessage> bids) override {
    seen_bids_.assign(bids.begin(), bids.end());
    std::vector<AcceptMessage> accepts;
    const BidMessage* cheapest = nullptr;
    for (const BidMessage& bid : bids) {
      if (cheapest == nullptr || bid.price < cheapest->price) cheapest = &bid;
    }
    for (const BidMessage& bid : bids) {
      AcceptMessage accept;
      accept.cluster_id = bid.cluster_id;
      accept.share_id = bid.share_id;
      accept.performance_estimate = bid.performance_estimate;
      accept.capacity_mbps = bid.capacity_mbps;
      accept.price = bid.price;
      accept.cdn_id = bid.cdn_id;
      accept.awarded_mbps = (&bid == cheapest) ? 100.0 : 0.0;
      accepts.push_back(accept);
    }
    accepted_ = accepts;
    return accepts;
  }

  std::uint32_t share_count_;
  std::vector<ShareMessage> gathered_;
  std::vector<BidMessage> seen_bids_;
  std::vector<AcceptMessage> accepted_;
};

TEST(DecisionEngine, RunsFullRoundWithShares) {
  ScriptedBroker broker;
  ScriptedCdn cheap{1, 1.0};
  ScriptedCdn pricey{2, 3.0};
  std::vector<CdnParticipant*> cdns{&cheap, &pricey};

  const RoundStats stats = run_decision_round(broker, cdns);

  // Both CDNs received the share.
  ASSERT_EQ(cheap.shares_.size(), 1u);
  EXPECT_EQ(cheap.shares_[0].share_id, 1u);
  ASSERT_EQ(pricey.shares_.size(), 1u);

  // Broker saw both bids.
  EXPECT_EQ(broker.seen_bids_.size(), 2u);

  // Both CDNs got the full accept feed, and the cheap one won.
  ASSERT_EQ(cheap.accepts_.size(), 2u);
  double cheap_award = 0.0;
  double pricey_award = 0.0;
  for (const AcceptMessage& accept : cheap.accepts_) {
    if (accept.cdn_id == 1) cheap_award += accept.awarded_mbps;
    if (accept.cdn_id == 2) pricey_award += accept.awarded_mbps;
  }
  EXPECT_GT(cheap_award, 0.0);
  EXPECT_EQ(pricey_award, 0.0);

  EXPECT_EQ(stats.shares_sent, 2u);   // 1 share x 2 CDNs
  EXPECT_EQ(stats.bids_received, 2u);
  EXPECT_EQ(stats.accepts_sent, 4u);  // 2 accepts x 2 CDNs
  EXPECT_GT(stats.bytes_on_wire, 0u);
}

template <typename T>
std::vector<std::vector<std::uint8_t>> frames(const std::vector<T>& messages) {
  std::vector<std::vector<std::uint8_t>> out;
  for (const T& m : messages) out.push_back(encode(Message{m}));
  return out;
}

/// Wire bytes of `messages`, each encoded once.
template <typename T>
std::size_t frame_bytes(const std::vector<T>& messages) {
  std::size_t bytes = 0;
  for (const auto& frame : frames(messages)) bytes += frame.size();
  return bytes;
}

TEST(DecisionEngine, BroadcastsReachEveryCdnAndCountPerReceiver) {
  ScriptedBroker broker{2};
  ScriptedCdn first{1, 1.0};
  ScriptedCdn second{2, 2.0};
  ScriptedCdn third{3, 3.0};
  std::vector<CdnParticipant*> cdns{&first, &second, &third};
  constexpr std::size_t kFanout = 3;

  const RoundStats stats = run_decision_round(broker, cdns);

  ASSERT_EQ(broker.gathered_.size(), 2u);
  ASSERT_EQ(broker.accepted_.size(), 6u);  // 2 shares x 3 bidding CDNs
  for (const ScriptedCdn* cdn : {&first, &second, &third}) {
    EXPECT_EQ(frames(cdn->shares_), frames(broker.gathered_)) << "cdn " << cdn->id_;
    EXPECT_EQ(frames(cdn->accepts_), frames(broker.accepted_)) << "cdn " << cdn->id_;
  }

  EXPECT_EQ(stats.shares_sent, broker.gathered_.size() * kFanout);
  EXPECT_EQ(stats.bids_received, broker.seen_bids_.size());
  EXPECT_EQ(stats.accepts_sent, broker.accepted_.size() * kFanout);
  EXPECT_EQ(stats.bytes_on_wire, frame_bytes(broker.gathered_) * kFanout +
                                     frame_bytes(broker.seen_bids_) +
                                     frame_bytes(broker.accepted_) * kFanout);
}

TEST(DecisionEngine, NoShareModeDeliversEmptySpans) {
  ScriptedBroker broker;
  ScriptedCdn cdn{1, 1.0};
  cdn.shares_ = {ShareMessage{9, 9, 9, 9, 9.0, 9}};  // stale state to be cleared
  std::vector<CdnParticipant*> cdns{&cdn};

  DecisionEngineConfig config;
  config.share_client_data = false;
  const RoundStats stats = run_decision_round(broker, cdns, config);
  EXPECT_TRUE(cdn.shares_.empty());
  EXPECT_EQ(stats.shares_sent, 0u);
}

TEST(DecisionEngine, NullParticipantRejected) {
  ScriptedBroker broker;
  std::vector<CdnParticipant*> cdns{nullptr};
  EXPECT_THROW((void)run_decision_round(broker, cdns), std::invalid_argument);
}

class ScriptedDirectory final : public DeliveryDirectory {
 public:
  ResultMessage resolve(const QueryMessage& query) override {
    last_query_ = query;
    return ResultMessage{query.session_id, 7, 42};
  }
  QueryMessage last_query_;
};

class ScriptedFrontend final : public ClusterFrontend {
 public:
  DeliveryMessage serve(const RequestMessage& request) override {
    last_request_ = request;
    return DeliveryMessage{request.session_id, request.cluster_id, 2.5};
  }
  RequestMessage last_request_;
};

TEST(ChaosEngine, ZeroProfileInjectorMatchesPerfectTransport) {
  ScriptedBroker perfect_broker;
  ScriptedCdn perfect_cdn{1, 1.0};
  std::vector<CdnParticipant*> perfect_cdns{&perfect_cdn};
  const RoundStats perfect = run_decision_round(perfect_broker, perfect_cdns);

  FaultInjector injector;  // empty profile: chaos path must not engage
  DecisionEngineConfig config;
  config.faults = &injector;
  ScriptedBroker broker;
  ScriptedCdn cdn{1, 1.0};
  std::vector<CdnParticipant*> cdns{&cdn};
  const RoundStats stats = run_decision_round(broker, cdns, config);

  EXPECT_EQ(stats.shares_sent, perfect.shares_sent);
  EXPECT_EQ(stats.bids_received, perfect.bids_received);
  EXPECT_EQ(stats.accepts_sent, perfect.accepts_sent);
  EXPECT_EQ(stats.bytes_on_wire, perfect.bytes_on_wire);
  EXPECT_EQ(stats.chaos.messages, 0u);
  EXPECT_EQ(stats.chaos.timeouts, 0u);
}

TEST(ChaosEngine, TotalLossTimesOutEveryMessageButCompletes) {
  FaultProfile profile;
  profile.drop_rate = 1.0;
  FaultInjector injector{profile};
  DecisionEngineConfig config;
  config.faults = &injector;

  ScriptedBroker broker;
  ScriptedCdn cdn{1, 1.0};
  std::vector<CdnParticipant*> cdns{&cdn};
  const RoundStats stats = run_decision_round(broker, cdns, config);

  // Nothing gets through, yet the round terminates: shares lost, no bids,
  // no accepts to send.
  EXPECT_TRUE(cdn.shares_.empty());
  EXPECT_TRUE(broker.seen_bids_.empty());
  EXPECT_EQ(stats.bids_received, 0u);
  EXPECT_GT(stats.chaos.messages, 0u);
  EXPECT_EQ(stats.chaos.timeouts, stats.chaos.messages);
  EXPECT_GT(stats.chaos.retries, 0u);
  // Each timed-out step is pinned to its deadline.
  EXPECT_GT(stats.chaos.ticks_elapsed, 0u);
}

TEST(ChaosEngine, ModerateLossRetriesAndIsDeterministic) {
  FaultProfile profile;
  profile.drop_rate = 0.4;
  profile.seed = 2024;

  const auto run_once = [&profile]() {
    FaultInjector injector{profile};
    DecisionEngineConfig config;
    config.faults = &injector;
    ScriptedBroker broker;
    ScriptedCdn a{1, 1.0};
    ScriptedCdn b{2, 3.0};
    std::vector<CdnParticipant*> cdns{&a, &b};
    return run_decision_round(broker, cdns, config);
  };

  const RoundStats first = run_once();
  const RoundStats second = run_once();
  EXPECT_GT(first.chaos.retries, 0u);
  EXPECT_EQ(first.chaos.retries, second.chaos.retries);
  EXPECT_EQ(first.chaos.timeouts, second.chaos.timeouts);
  EXPECT_EQ(first.chaos.frames_dropped, second.chaos.frames_dropped);
  EXPECT_EQ(first.bids_received, second.bids_received);
  EXPECT_EQ(first.bytes_on_wire, second.bytes_on_wire);
  // Pinned from the ByteWriter-based codec: the frames, and so the injector's
  // streams, must not move when the codec does.
  EXPECT_EQ(first.chaos.retries, 4u);
  EXPECT_EQ(first.chaos.timeouts, 1u);
  EXPECT_EQ(first.chaos.decode_rejects, 0u);
  EXPECT_EQ(first.chaos.frames_dropped, 5u);
  EXPECT_EQ(first.bids_received, 1u);
  EXPECT_EQ(first.bytes_on_wire, 235u);
}

TEST(ChaosEngine, CorruptedFramesAreRejectedNotThrown) {
  FaultProfile profile;
  profile.corrupt_rate = 1.0;  // every frame mutated: checksum rejects all
  profile.seed = 5;
  FaultInjector injector{profile};
  DecisionEngineConfig config;
  config.faults = &injector;

  ScriptedBroker broker;
  ScriptedCdn cdn{1, 1.0};
  std::vector<CdnParticipant*> cdns{&cdn};
  RoundStats stats;
  ASSERT_NO_THROW(stats = run_decision_round(broker, cdns, config));
  EXPECT_GT(stats.chaos.decode_rejects, 0u);
  EXPECT_EQ(stats.chaos.timeouts, stats.chaos.messages);
  EXPECT_TRUE(broker.seen_bids_.empty());
  // Pinned from the ByteWriter-based codec, as in the test above.
  EXPECT_EQ(stats.chaos.retries, 2u);
  EXPECT_EQ(stats.chaos.timeouts, 1u);
  EXPECT_EQ(stats.chaos.decode_rejects, 3u);
  EXPECT_EQ(stats.chaos.frames_dropped, 0u);
  EXPECT_EQ(stats.bids_received, 0u);
  EXPECT_EQ(stats.bytes_on_wire, 117u);
}

TEST(DeliveryEngine, RunsFourSteps) {
  ScriptedDirectory directory;
  ScriptedFrontend frontend;
  const QueryMessage query{11, 3, 2.5};
  const DeliveryOutcome outcome = run_delivery(query, directory, frontend);

  EXPECT_EQ(directory.last_query_.session_id, 11u);
  EXPECT_EQ(frontend.last_request_.cluster_id, 42u);
  EXPECT_EQ(outcome.result.cluster_id, 42u);
  EXPECT_EQ(outcome.result.cdn_id, 7u);
  EXPECT_EQ(outcome.delivery.session_id, 11u);
  EXPECT_DOUBLE_EQ(outcome.delivery.delivered_mbps, 2.5);
  EXPECT_GT(outcome.bytes_on_wire, 0u);
}

/// Directory whose primary answer is a dark cluster; the failover points at
/// a healthy one (or nowhere, when exhausted=true).
class FailoverDirectory final : public DeliveryDirectory {
 public:
  ResultMessage resolve(const QueryMessage& query) override {
    return ResultMessage{query.session_id, 7, 42};
  }
  ResultMessage resolve_excluding(const QueryMessage& query,
                                  std::uint32_t dark_cluster) override {
    excluded_ = dark_cluster;
    if (exhausted_) return ResultMessage{query.session_id, UINT32_MAX, UINT32_MAX};
    return ResultMessage{query.session_id, 8, 43};
  }
  std::uint32_t excluded_ = 0;
  bool exhausted_ = false;
};

/// Frontend where cluster 42 is dark (delivers nothing).
class DarkClusterFrontend final : public ClusterFrontend {
 public:
  DeliveryMessage serve(const RequestMessage& request) override {
    const double mbps = request.cluster_id == 42 ? 0.0 : 2.5;
    return DeliveryMessage{request.session_id, request.cluster_id, mbps};
  }
};

TEST(DeliveryEngine, DarkClusterFailsOverToAlternative) {
  FailoverDirectory directory;
  DarkClusterFrontend frontend;
  const QueryMessage query{11, 3, 2.5};
  const DeliveryOutcome outcome = run_delivery(query, directory, frontend);

  EXPECT_TRUE(outcome.rehomed);
  EXPECT_EQ(outcome.failed_cluster, 42u);
  EXPECT_EQ(directory.excluded_, 42u);
  EXPECT_EQ(outcome.result.cluster_id, 43u);
  EXPECT_EQ(outcome.result.cdn_id, 8u);
  EXPECT_DOUBLE_EQ(outcome.delivery.delivered_mbps, 2.5);
}

TEST(DeliveryEngine, FailoverGivesUpWhenNoAlternativeExists) {
  FailoverDirectory directory;
  directory.exhausted_ = true;
  DarkClusterFrontend frontend;
  const QueryMessage query{12, 3, 2.5};
  const DeliveryOutcome outcome = run_delivery(query, directory, frontend);

  EXPECT_FALSE(outcome.rehomed);
  EXPECT_EQ(outcome.result.cluster_id, 42u);  // still pointing at the failure
  EXPECT_DOUBLE_EQ(outcome.delivery.delivered_mbps, 0.0);
}

}  // namespace
}  // namespace vdx::proto
