// The Video Delivery eXchange: repeated Decision-Protocol rounds between one
// broker and the catalog's CDNs (paper §6).
//
// The snapshot evaluation (sim::run_design) answers "what does one round
// decide"; the exchange answers the *dynamic* questions: do risk-averse
// bidding strategies learn traffic predictability over rounds (§6.3's
// "weak TP" argument), does the reputation system squeeze out fraudulent
// CDNs, and does the market keep functioning through CDN failures.
//
// Demand reaches the broker one of two ways. set_active_load hands it a
// ready-made snapshot of client groups. push_session_delta instead folds
// validated session adds and removes into the exchange's session book (a
// sim::SessionStore); a book-fed exchange prices the whole book's groups
// every round (DESIGN.md §14). The serving daemon and the session-fed
// benchmark both feed the book.
#pragma once

#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "core/result.hpp"
#include "market/agents.hpp"
#include "obs/observe.hpp"
#include "sim/session_store.hpp"

namespace vdx::market {

enum class StrategyKind : std::uint8_t { kStatic, kRiskAverse };

/// Chaos-transport knobs (§6.3). A profile with any non-zero fault rate
/// switches the exchange onto the logical-clock chaos transport with
/// deadlines, retries, and the broker's stale-bid degraded-round fallback.
struct ChaosConfig {
  proto::FaultProfile faults;
  proto::DeadlineConfig deadlines;
  /// A round is quorate when at least this fraction of live (non-failed)
  /// CDNs delivered fresh bids within their deadlines.
  double quorum_fraction = 0.67;
};

/// Overload-graceful exchange policy (DESIGN.md §11): per-round admission
/// control on the broker's Gathered demand, plus the Pathan/Buyya-style
/// QoS-driven peering response in the Delivery Protocol.
struct OverloadConfig {
  /// Demand budget per round, Mbps; when the broker's total demand exceeds
  /// it, the overflow is shed lowest-bitrate-groups-first before the
  /// decision round ever prices it. 0 disables admission control.
  double demand_budget_mbps = 0.0;
  /// Delivery-side saturation threshold as a fraction of cluster capacity:
  /// clusters whose post-round load exceeds threshold x capacity are
  /// treated as dark in deliver(), re-homing sessions to healthy clusters
  /// (QoS peering). A session no healthy cluster can take fails with
  /// Errc::kOverloaded instead of landing on a saturated one. 0 disables.
  double saturation_threshold = 0.0;
};

/// What one shed_to_budget() pass removed.
struct AdmissionReport {
  double shed_mbps = 0.0;
  double shed_clients = 0.0;
  /// Groups fully drained (and removed) by the trim.
  std::size_t groups_dropped = 0;
};

/// Trims `groups` in place to `budget_mbps` total demand, shedding the
/// lowest-value demand first (ascending bitrate, group id as the
/// deterministic tiebreak; the marginal group is shrunk, not dropped).
/// Emptied groups are removed and ids renumbered densely, so the result is
/// a valid broker demand set. Fails with Errc::kInvalidArgument on a
/// non-finite or negative budget; budget 0 sheds everything.
[[nodiscard]] core::Result<AdmissionReport> shed_to_budget(
    std::vector<broker::ClientGroup>& groups, double budget_mbps);

/// One session of a push_session_delta batch. A session with the default
/// end_s stays in the book until a batch removes it; a finite end_s also
/// lets expire_sessions retire it.
struct SessionAdd {
  std::uint32_t id = 0;
  std::uint32_t city = 0;
  double bitrate_mbps = 1.0;
  double end_s = std::numeric_limits<double>::infinity();

  friend bool operator==(const SessionAdd&, const SessionAdd&) = default;
};

struct ExchangeConfig {
  CdnAgentConfig agent;
  BrokerAgentConfig broker;
  StrategyKind strategy = StrategyKind::kRiskAverse;
  ChaosConfig chaos;
  OverloadConfig overload;
  /// Observability sinks, threaded through the protocol engine, broker
  /// optimize pipeline, and solver. The exchange always maintains an
  /// `exchange.*` metrics registry (an internal one when none is supplied);
  /// RoundReport's fault telemetry is *read back* from those counters, so
  /// the report, the registry, and the journal cannot drift apart.
  obs::Observer obs;
};

/// Per-round outcome report.
struct RoundReport {
  std::size_t round = 0;
  proto::RoundStats wire;
  /// Broker-side quality (true scores) and delivery cost, client-weighted.
  double mean_score = 0.0;
  double mean_cost = 0.0;
  /// Fraction of broker clients on clusters loaded above capacity.
  double congested_fraction = 0.0;
  /// Demand offered to this round before admission control, Mbps.
  double demand_mbps = 0.0;
  /// Demand shed by admission control before this round (0 with the policy
  /// off or under budget).
  double shed_mbps = 0.0;
  double shed_clients = 0.0;
  /// Groups fully drained by admission control this round.
  std::size_t shed_groups = 0;
  /// Traffic predictability: mean over CDNs of
  /// |expected win - actual win| / max(bid traffic, 1). Lower = more
  /// predictable. Static bidders expect to win everything, so they start
  /// (and stay) high; risk-averse bidders learn.
  double mean_prediction_error = 0.0;
  /// Per-CDN awarded traffic (Mbps). Under chaos this is the broker-side
  /// ledger, which stays correct when Accept messages are lost.
  std::vector<double> awarded_mbps;

  /// Fault telemetry (all zero / false / quorate on a perfect transport).
  /// A round is degraded when any message timed out, any stale cached bid
  /// was substituted, or the fresh-bidder quorum was missed.
  bool degraded = false;
  bool quorum_met = true;
  std::size_t stale_bids_used = 0;
  /// Fraction of awarded traffic that went to stale (cached) bids.
  double stale_bid_share = 0.0;
  /// Timed-out messages / attempted messages.
  double timeout_rate = 0.0;
};

class VdxExchange {
 public:
  VdxExchange(const sim::Scenario& scenario, ExchangeConfig config = {});
  ~VdxExchange();
  VdxExchange(const VdxExchange&) = delete;
  VdxExchange& operator=(const VdxExchange&) = delete;

  /// Runs one Decision-Protocol round end to end over the wire codec.
  RoundReport run_round();
  /// Runs `rounds` rounds and returns all reports.
  std::vector<RoundReport> run(std::size_t rounds);

  /// §6.3 switches, effective from the next round.
  void set_failed(cdn::CdnId cdn, bool failed);
  void set_fraudulent(cdn::CdnId cdn, bool fraudulent);

  /// Feeds the exchange an incremental load snapshot, effective from the
  /// next round: `groups` replaces the broker's Gathered demand (ids dense,
  /// equal to index — what broker::group_sessions emits) and
  /// `background_loads` (Mbps per cluster) replaces the ambient traffic the
  /// CDN agents net out of their spare capacity, so each decision round
  /// prices the *current* audience, not the whole-trace snapshot. A monolith
  /// fed this way every round is the session-fed differential's oracle.
  /// Once the session book has been fed, each round replaces `groups` with
  /// the book's; `background_loads` stays.
  void set_active_load(std::span<const broker::ClientGroup> groups,
                       std::span<const double> background_loads);
  /// The background half of set_active_load: replaces the ambient traffic
  /// (Mbps per cluster) and leaves the demand alone. Throws
  /// std::invalid_argument unless there is one load per cluster.
  void set_background_loads(std::span<const double> background_loads);

  /// Validates the whole batch against the session book, applies it (adds
  /// before removes, so a remove cancels an add of the same batch) and makes
  /// the exchange book-fed: every later round prices the whole book's
  /// groups, exactly what broker::group_sessions makes of the live sessions.
  /// A rejected batch (kInvalidArgument: unknown city, a non-finite or
  /// non-positive bitrate, a NaN end, the reserved id UINT32_MAX, a live or
  /// same-batch id added again with different data) changes nothing.
  /// Re-adding a live session with identical data and removing an unknown
  /// id are no-ops, so a retried batch is harmless.
  [[nodiscard]] core::Status push_session_delta(std::span<const SessionAdd> adds,
                                                std::span<const std::uint32_t> removes);
  /// Retires every book session whose end_s <= t; returns how many left.
  std::size_t expire_sessions(double t) { return book_.drop_until(t); }
  /// Sessions in the book.
  [[nodiscard]] std::size_t live_sessions() const noexcept { return book_.size(); }
  /// The book in canonical id order; save_state() does not carry it, so a
  /// book-fed exchange resumes from the pair (save_state(), book_cursor()).
  [[nodiscard]] state::StreamCursor book_cursor() const { return book_.cursor(); }

  /// Retunes the per-round admission budget (Mbps), effective from the next
  /// round; 0 disables admission control. The serving daemon uses this to
  /// adjust backpressure on a live exchange without rebuilding it. Throws
  /// std::invalid_argument on a non-finite or negative budget.
  void set_demand_budget(double budget_mbps);
  [[nodiscard]] double demand_budget() const noexcept {
    return config_.overload.demand_budget_mbps;
  }

  /// Decision rounds completed since construction (restored by
  /// restore_state, so a resumed exchange keeps counting where it left off).
  [[nodiscard]] std::size_t rounds_completed() const noexcept {
    return rounds_completed_;
  }

  [[nodiscard]] const broker::ReputationSystem& reputation() const;
  [[nodiscard]] const sim::Scenario& scenario() const noexcept { return scenario_; }

  /// Runs the Delivery Protocol for one client against the latest round's
  /// decisions. Fails with Errc::kNotReady if no round has been run yet.
  /// Clusters of CDNs currently marked failed are dark: sessions resolved to
  /// them are re-homed via the directory failover (outcome records it).
  [[nodiscard]] core::Result<proto::DeliveryOutcome> deliver(
      std::uint32_t session_id, geo::CityId city, double bitrate_mbps);

  /// Winning allocations of the last Optimize — (group index into the
  /// current demand, cluster, clients, price, true score).
  [[nodiscard]] std::span<const sim::Placement> placements() const noexcept {
    return broker_agent_->placements();
  }

  /// The broker's current demand: the last round's (post-admission-shed if a
  /// budgeted round trimmed it), or a set_active_load override given since.
  /// Placement group indices refer into this span.
  [[nodiscard]] std::span<const broker::ClientGroup> active_demand() const noexcept {
    return broker_agent_->demand();
  }

  /// Chaos-transport counters accumulated since construction (empty profile:
  /// all zero).
  [[nodiscard]] const proto::FaultCounters& fault_counters() const;

  /// The registry backing RoundReport telemetry: the external one from
  /// ExchangeConfig::obs when provided, the exchange's own otherwise.
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept {
    return *obs_.metrics;
  }

  /// Serializes every piece of cross-round exchange state — the broker's
  /// reputation ledger / stale-bid cache / demand override, each strategy's
  /// learned market state, the CDN agents' fault switches and award
  /// bookkeeping, the chaos injector's RNG positions, the round counter, and
  /// the logical clock — into a checksummed state::Snapshot envelope. A
  /// fresh exchange built from the same Scenario + ExchangeConfig that
  /// restore_state()s these bytes produces byte-identical RoundReports from
  /// the next round onward.
  [[nodiscard]] std::vector<std::uint8_t> save_state() const;
  /// Restores a save_state() image and replaces the session book with
  /// `book` (a book_cursor() list); a non-empty book makes the exchange
  /// book-fed. Both are checked before either is applied: a book no batch
  /// could have built (ids not strictly ascending, the reserved id, or a
  /// session sim::check_restorable refuses) fails with kCorruptSnapshot;
  /// corrupt bytes fail with kCorruptSnapshot / kVersionMismatch via the
  /// envelope, and an image from an incompatible configuration (different
  /// CDN count, cluster count, or transport kind) with kInvalidArgument. On
  /// failure the exchange is unchanged.
  [[nodiscard]] core::Status restore_state(
      std::span<const std::uint8_t> bytes,
      std::span<const state::ActiveSession> book = {});

 private:
  const sim::Scenario& scenario_;
  ExchangeConfig config_;
  std::vector<double> background_loads_;
  /// Menus are identical every round (the catalog and mapping are fixed for
  /// the exchange's lifetime): built once here, shared read-only by all CDN
  /// agents instead of each agent re-matching per announce().
  std::unique_ptr<cdn::CandidateMenuCache> menu_cache_;
  std::vector<std::unique_ptr<cdn::BiddingStrategy>> strategies_;
  std::vector<std::unique_ptr<VdxCdnAgent>> cdn_agents_;
  std::unique_ptr<VdxBrokerAgent> broker_agent_;
  std::unique_ptr<proto::FaultInjector> injector_;
  std::size_t rounds_completed_ = 0;
  std::vector<double> last_cluster_loads_;
  /// Live sessions fed through push_session_delta; the broker's demand at
  /// every round once book_fed_ is set.
  sim::SessionStore book_;
  bool book_fed_ = false;

  /// Fallback registry when ExchangeConfig::obs brings none.
  obs::MetricsRegistry owned_metrics_;
  /// Effective observer handed to every layer (metrics always non-null).
  obs::Observer obs_;
  /// Pre-interned `exchange.*` handles (hot path: one atomic op each).
  struct ExchangeCounters {
    obs::Counter rounds, messages, timeouts, retries, bids, stale_bids,
        degraded_rounds, quorum_misses, awarded_mbps, stale_awarded_mbps,
        failovers, shed_mbps, shed_clients, shed_rounds, peering_rehomed,
        peering_rejected;
    obs::Gauge mean_score, mean_cost, prediction_error;
  } counters_;
};

}  // namespace vdx::market
