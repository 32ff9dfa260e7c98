// Concrete VDX marketplace participants (paper §6).
//
// VdxCdnAgent implements the CDN side of the Decision Protocol: it consumes
// Shares, runs Matching over its clusters, applies its bidding strategy's
// shading, and learns from Accepts. VdxBrokerAgent implements the broker
// side: Gather from the scenario's client groups, Optimize via the Fig.-9
// solver, Accept feedback for every bid — and doubles as the Delivery
// Protocol directory. Fraud and failure switches implement §6.3's threat
// model for the reputation system to react to.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "broker/optimizer.hpp"
#include "broker/reputation.hpp"
#include "cdn/matching.hpp"
#include "cdn/strategy.hpp"
#include "proto/engine.hpp"
#include "sim/designs.hpp"

namespace vdx::cdn {
class CandidateMenuCache;
}

namespace vdx::market {

/// The Matching config the CDN agents of one exchange share: whoever owns
/// the agents builds one cdn::CandidateMenuCache from it.
struct CdnAgentConfig {
  /// Bids per share (menu size).
  std::size_t bid_count = 8;
  /// Menu score tolerance (see sim::RunConfig::menu_tolerance).
  double menu_tolerance = 1.35;

  [[nodiscard]] cdn::MatchingConfig matching() const noexcept {
    cdn::MatchingConfig config;
    config.max_candidates = bid_count;
    config.score_tolerance = menu_tolerance;
    return config;
  }
};

class VdxCdnAgent final : public proto::CdnParticipant {
 public:
  /// `menus` (non-owning, typically the exchange's) supplies every menu the
  /// agent bids from, under its MatchingConfig.
  VdxCdnAgent(const sim::Scenario& scenario, cdn::CdnId cdn,
              cdn::BiddingStrategy& strategy, std::span<const double> background_loads,
              const cdn::CandidateMenuCache& menus);

  // proto::CdnParticipant
  void handle_share(std::span<const proto::ShareMessage> shares) override;
  [[nodiscard]] std::vector<proto::BidMessage> announce() override;
  void handle_accept(std::span<const proto::AcceptMessage> accepts) override;

  /// §6.3 switches.
  void set_failed(bool failed) noexcept { failed_ = failed; }
  void set_fraudulent(bool fraudulent) noexcept { fraudulent_ = fraudulent; }

  /// Replaces the background load vector (Mbps per cluster), effective from
  /// the next announce(). Incremental feeds — a streaming timeline moving
  /// the exchange between epochs — update this as ambient traffic shifts.
  void set_background_loads(std::span<const double> background_loads);
  [[nodiscard]] bool failed() const noexcept { return failed_; }
  [[nodiscard]] bool fraudulent() const noexcept { return fraudulent_; }

  /// Traffic-predictability bookkeeping for the last completed round.
  [[nodiscard]] double expected_win_mbps() const noexcept { return expected_mbps_; }
  [[nodiscard]] double awarded_mbps() const noexcept { return awarded_mbps_; }
  [[nodiscard]] double bid_mbps() const noexcept { return bid_mbps_; }

  [[nodiscard]] cdn::CdnId id() const noexcept { return cdn_; }

  /// Cross-round agent state for checkpoint/restore. awarded_mbps_ matters:
  /// it is reset only by handle_accept, which a chaos transport can skip
  /// (dropped Accepts), so it genuinely carries across rounds. The
  /// per-round share/commitment maps are rebuilt by the next handle_share
  /// and need no serialization.
  struct Saved {
    bool failed = false;
    bool fraudulent = false;
    double expected_mbps = 0.0;
    double awarded_mbps = 0.0;
    double bid_mbps = 0.0;

    friend bool operator==(const Saved&, const Saved&) = default;
  };
  [[nodiscard]] Saved save_state() const {
    return Saved{failed_, fraudulent_, expected_mbps_, awarded_mbps_, bid_mbps_};
  }
  void restore_state(const Saved& saved) {
    failed_ = saved.failed;
    fraudulent_ = saved.fraudulent;
    expected_mbps_ = saved.expected_mbps;
    awarded_mbps_ = saved.awarded_mbps;
    bid_mbps_ = saved.bid_mbps;
  }

 private:
  const sim::Scenario& scenario_;
  cdn::CdnId cdn_;
  cdn::BiddingStrategy& strategy_;
  std::vector<double> background_loads_;
  const cdn::CandidateMenuCache& menus_;

  std::vector<proto::ShareMessage> shares_;
  /// share_id -> city for Accept attribution.
  std::unordered_map<std::uint32_t, geo::CityId> city_of_share_;
  /// (share_id, cluster_id) -> committed capacity of the announced bid.
  std::unordered_map<std::uint64_t, double> committed_;

  bool failed_ = false;
  bool fraudulent_ = false;
  double expected_mbps_ = 0.0;
  double awarded_mbps_ = 0.0;
  double bid_mbps_ = 0.0;
};

struct BrokerAgentConfig {
  broker::OptimizeWeights weights{1.0, 2.0};
  solver::SolveOptions solve;
  bool enable_reputation = true;
  /// Degraded-round fallback (chaos transport, §6.3): when a CDN bid on a
  /// (share, cluster) pair last round but no fresh bid arrived this round,
  /// substitute the cached bid at a reputation-discounted weight instead of
  /// letting the pair go dark. Off for the perfect transport.
  bool enable_stale_bids = false;
  /// Cached bids older than this many rounds are evicted, not substituted.
  std::size_t stale_ttl_rounds = 2;
  /// Tolerate demand groups no CDN bid on (see
  /// broker::OptimizerConfig::allow_unbid_groups). Incremental demand can
  /// momentarily present groups every CDN is too loaded to bid for.
  bool allow_unbid_groups = false;
  /// Capacity haircut on substituted stale bids (the CDN's spare capacity
  /// may have moved since it was announced).
  double stale_capacity_fraction = 0.5;
  /// Observability sinks (no-op by default); forwarded into the Optimize
  /// pipeline (broker::optimize -> solver::solve).
  obs::Observer obs;
};

class VdxBrokerAgent final : public proto::BrokerParticipant,
                             public proto::DeliveryDirectory {
 public:
  explicit VdxBrokerAgent(const sim::Scenario& scenario, BrokerAgentConfig config = {});

  // proto::BrokerParticipant
  [[nodiscard]] std::vector<proto::ShareMessage> gather() override;
  [[nodiscard]] std::vector<proto::AcceptMessage> optimize(
      std::span<const proto::BidMessage> bids) override;

  // proto::DeliveryDirectory
  [[nodiscard]] proto::ResultMessage resolve(const proto::QueryMessage& query) override;
  [[nodiscard]] proto::ResultMessage resolve_excluding(
      const proto::QueryMessage& query, std::uint32_t dark_cluster) override;

  [[nodiscard]] const broker::ReputationSystem& reputation() const noexcept {
    return reputation_;
  }

  /// Overrides the demand Gathered each round (default: the scenario's
  /// static broker groups). Group ids must be dense and equal to the group's
  /// index, exactly as broker::group_sessions produces them. An empty vector
  /// is a valid override (nobody watching right now).
  void set_demand(std::vector<broker::ClientGroup> groups);

  /// The demand the next gather()/optimize() round will see: the
  /// set_demand override when present, the scenario's groups otherwise.
  [[nodiscard]] std::span<const broker::ClientGroup> demand() const noexcept {
    return demand_ ? std::span<const broker::ClientGroup>{*demand_}
                   : scenario_.broker_groups();
  }

  /// Winning allocations of the last Optimize (for metric computation):
  /// (group index, cluster, clients, price, true score).
  [[nodiscard]] std::span<const sim::Placement> placements() const noexcept {
    return placements_;
  }

  /// Broker-side award accounting for the last Optimize, indexed by CDN id.
  /// Unlike the agents' own view, this stays correct when Accept messages
  /// are lost on a faulty transport.
  [[nodiscard]] std::span<const double> awarded_by_cdn() const noexcept {
    return awarded_by_cdn_;
  }

  /// Degraded-round telemetry for the last Optimize.
  [[nodiscard]] std::size_t stale_bids_substituted() const noexcept {
    return stale_substituted_;
  }
  [[nodiscard]] std::size_t stale_cdn_count() const noexcept { return stale_cdns_; }
  [[nodiscard]] std::size_t fresh_cdn_count() const noexcept { return fresh_cdns_; }
  [[nodiscard]] double stale_awarded_mbps() const noexcept { return stale_awarded_; }
  [[nodiscard]] double total_awarded_mbps() const noexcept { return total_awarded_; }

  /// Cross-round broker state for checkpoint/restore: the reputation
  /// ledger, the Optimize round counter (drives stale-bid TTLs), the
  /// demand override, and the stale-bid cache (key-ascending). Per-round
  /// telemetry and the delivery directory are rebuilt by the next round.
  struct SavedStale {
    std::uint32_t cdn = 0;
    std::uint32_t share = 0;
    std::uint32_t cluster = 0;
    proto::BidMessage bid;
    std::uint64_t round = 0;
  };
  struct Saved {
    std::vector<broker::ReputationSystem::State> reputation;
    std::uint64_t optimize_round = 0;
    bool has_demand_override = false;
    std::vector<broker::ClientGroup> demand;
    std::vector<SavedStale> stale_bids;
  };
  [[nodiscard]] Saved save_state() const;
  /// Rejects (kInvalidArgument) a snapshot whose reputation vector does not
  /// match this scenario's CDN count.
  [[nodiscard]] core::Status restore_state(Saved saved);

 private:
  /// (cdn, share, cluster) — the identity of a bid across rounds.
  using StaleKey = std::array<std::uint32_t, 3>;
  struct StaleEntry {
    proto::BidMessage bid;
    std::size_t round = 0;
  };

  const sim::Scenario& scenario_;
  BrokerAgentConfig config_;
  broker::ReputationSystem reputation_;
  std::optional<std::vector<broker::ClientGroup>> demand_;
  std::vector<sim::Placement> placements_;
  std::vector<double> awarded_by_cdn_;
  /// Stale-bid cache (ordered so degraded-round substitution is
  /// deterministic), plus per-round telemetry.
  std::map<StaleKey, StaleEntry> stale_cache_;
  std::size_t optimize_round_ = 0;
  std::size_t stale_substituted_ = 0;
  std::size_t stale_cdns_ = 0;
  std::size_t fresh_cdns_ = 0;
  double stale_awarded_ = 0.0;
  double total_awarded_ = 0.0;
  /// Per city: winning clusters with cumulative client weights, for
  /// Delivery-Protocol resolution.
  struct CityChoice {
    std::vector<std::pair<cdn::ClusterId, double>> weighted_clusters;
    double total = 0.0;
    double cursor = 0.0;
  };
  std::vector<CityChoice> city_choices_;
};

/// Delivery-Protocol cluster frontend: serves at the requested bitrate,
/// degraded proportionally when the cluster is overloaded, and not at all
/// from clusters marked dark (their CDN failed mid-stream).
class ClusterService final : public proto::ClusterFrontend {
 public:
  ClusterService(const sim::Scenario& scenario, std::span<const double> cluster_loads);

  [[nodiscard]] proto::DeliveryMessage serve(const proto::RequestMessage& request) override;

  /// Bitrate requested per session must be registered before serve().
  void register_session(std::uint32_t session_id, double bitrate_mbps);

  /// Marks a cluster dark: serve() delivers 0 Mbps from it, which triggers
  /// the Delivery-Protocol failover (§6.3).
  void set_dark(cdn::ClusterId cluster, bool dark = true);

 private:
  const sim::Scenario& scenario_;
  std::vector<double> loads_;
  std::vector<bool> dark_;
  std::unordered_map<std::uint32_t, double> session_bitrate_;
};

}  // namespace vdx::market
