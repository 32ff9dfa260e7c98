// Protocol engines: sequence the Decision and Delivery protocols between
// abstract participants, pushing every message through the wire codec so
// that running a round exercises exactly what a networked deployment would
// exchange (and so byte/message accounting is real).
//
// Decision Protocol (paper §4.1): Estimate and Gather are participant-local;
// the engine drives Share -> Matching/Announce -> Optimize -> Accept.
// Delivery Protocol: Query -> Result -> Request -> Delivery, with a failover
// re-resolution when the chosen cluster turns out to be dark.
//
// Chaos mode (paper §6.3): when a FaultInjector is plugged into the config,
// every frame can be dropped, delayed, duplicated, or mutated. The engine
// then runs a logical clock per protocol step: each message is retried with
// exponential backoff until it arrives, the per-step deadline expires, or
// the retry budget is exhausted; mutated frames are rejected by the
// checksummed codec (never thrown across the engine) and counted. Messages
// that miss their deadline are simply absent from what the receiver sees —
// the round always completes, degraded rather than stalled.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "obs/observe.hpp"
#include "proto/fault.hpp"
#include "proto/messages.hpp"

namespace vdx::proto {

/// CDN side of the Decision Protocol.
class CdnParticipant {
 public:
  virtual ~CdnParticipant() = default;

  /// Step 3 (Share): receive the broker's client aggregates. Designs that
  /// do not share client data deliver an empty span; under chaos the span
  /// holds only the shares that survived the transport.
  virtual void handle_share(std::span<const ShareMessage> shares) = 0;
  /// Steps 4-5 (Matching + Announce): produce bids.
  [[nodiscard]] virtual std::vector<BidMessage> announce() = 0;
  /// Step 7 (Accept): learn which bids won (awarded_mbps > 0) and lost.
  virtual void handle_accept(std::span<const AcceptMessage> accepts) = 0;
};

/// Broker side of the Decision Protocol.
class BrokerParticipant {
 public:
  virtual ~BrokerParticipant() = default;

  /// Step 2 (Gather): the shares to announce to CDNs this round.
  [[nodiscard]] virtual std::vector<ShareMessage> gather() = 0;
  /// Step 6 (Optimize): consume all bids that arrived, return the Accept
  /// feed. Implementations may append degraded-round substitutes (e.g.
  /// cached stale bids) before optimizing, so the feed can cover more bids
  /// than were delivered this round.
  [[nodiscard]] virtual std::vector<AcceptMessage> optimize(
      std::span<const BidMessage> bids) = 0;
};

/// Per-step deadline/retry policy for the chaos transport. Times are logical
/// ticks: a fault-free hop takes 1 tick, retries back off exponentially.
struct DeadlineConfig {
  /// Budget per protocol step (Share, Bid, Accept each get a fresh window).
  std::size_t step_deadline_ticks = 8;
  /// First retry fires this many ticks after the send; each further retry
  /// doubles the wait (1x, 2x, 4x, ...).
  std::size_t retry_backoff_ticks = 2;
  /// Retries per message on top of the initial attempt.
  std::size_t max_retries = 3;
};

/// Transport-level chaos accounting for one round (all zero when the
/// transport is perfect).
struct ChaosStats {
  std::size_t messages = 0;        // logical messages attempted
  std::size_t retries = 0;         // re-sends after a presumed loss
  std::size_t timeouts = 0;        // messages undelivered within the deadline
  std::size_t decode_rejects = 0;  // frames rejected by the checksummed codec
  std::size_t frames_dropped = 0;  // injector drops (including retries)
  std::size_t frames_duplicated = 0;
  std::size_t ticks_elapsed = 0;   // sum of per-step completion times
};

/// Transport/accounting statistics for one protocol round.
struct RoundStats {
  std::size_t shares_sent = 0;
  std::size_t bids_received = 0;
  std::size_t accepts_sent = 0;
  std::size_t bytes_on_wire = 0;
  ChaosStats chaos;
};

struct DecisionEngineConfig {
  /// Whether the Share step transmits client data (Marketplace-style
  /// designs) or is skipped (all pre-marketplace designs in Table 2).
  bool share_client_data = true;
  /// Non-owning; nullptr (or a profile with no faults) runs the perfect
  /// transport. Link i carries all traffic to/from CDN i.
  FaultInjector* faults = nullptr;
  DeadlineConfig deadlines;
  /// Observability sinks (no-op by default). With a tracer attached, every
  /// round emits spans for all 7 Decision-Protocol steps (estimate, gather,
  /// share, matching, announce, optimize, accept), and the tracer's logical
  /// clock advances with the transport ticks (1 tick per fault-free step;
  /// the chaos engine's per-step completion times otherwise), so traces are
  /// byte-stable under a fixed seed. The journal receives per-message retry,
  /// timeout, and decode-reject events; the registry aggregates `proto.*`
  /// counters once per round.
  obs::Observer obs;
};

/// Runs one Decision Protocol round. Every message is encoded and re-decoded
/// through the wire codec. On the fault-free transport a Share or Accept
/// broadcast crosses the codec once and every CDN receives the same decoded
/// span, while `shares_sent`, `accepts_sent` and `bytes_on_wire` still count
/// one frame per CDN; under chaos every link carries its own frame.
[[nodiscard]] RoundStats run_decision_round(BrokerParticipant& broker,
                                            std::span<CdnParticipant* const> cdns,
                                            const DecisionEngineConfig& config = {});

/// Client + directory side of the Delivery Protocol.
class DeliveryDirectory {
 public:
  virtual ~DeliveryDirectory() = default;
  /// Steps 1-2: broker answers a client query from the latest Optimize.
  [[nodiscard]] virtual ResultMessage resolve(const QueryMessage& query) = 0;
  /// Failover re-resolution (§6.3): the cluster from resolve() turned out to
  /// be dark; answer with an alternative, excluding `dark_cluster`. The
  /// default has no alternative knowledge and repeats resolve().
  [[nodiscard]] virtual ResultMessage resolve_excluding(const QueryMessage& query,
                                                        std::uint32_t dark_cluster) {
    (void)dark_cluster;
    return resolve(query);
  }
};

class ClusterFrontend {
 public:
  virtual ~ClusterFrontend() = default;
  /// Steps 3-4: the chosen cluster serves the request. delivered_mbps <= 0
  /// signals a dark/failed cluster and triggers the directory failover.
  [[nodiscard]] virtual DeliveryMessage serve(const RequestMessage& request) = 0;
};

struct DeliveryOutcome {
  ResultMessage result;
  DeliveryMessage delivery;
  std::size_t bytes_on_wire = 0;
  /// Failover record: true when the first cluster failed mid-stream and the
  /// session was re-homed; `failed_cluster` names the dark cluster.
  bool rehomed = false;
  std::uint32_t failed_cluster = UINT32_MAX;
};

/// Runs the 4-step Delivery Protocol for one client. If the resolved cluster
/// fails to deliver, the directory is asked once for an alternative and the
/// request is replayed there (outcome records the switch). With observability
/// attached, emits `delivery.*` spans, counters, and a kFailover journal
/// event when the session is re-homed.
[[nodiscard]] DeliveryOutcome run_delivery(const QueryMessage& query,
                                           DeliveryDirectory& directory,
                                           ClusterFrontend& frontend,
                                           const obs::Observer& obs = {});

}  // namespace vdx::proto
