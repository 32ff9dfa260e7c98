#include "proto/engine.hpp"

#include <algorithm>
#include <array>
#include <optional>
#include <stdexcept>
#include <utility>

namespace vdx::proto {

namespace {

/// Encode, count, decode — the in-memory stand-in for a network hop. The
/// frame is exact-size and on the stack; the typed decode still validates
/// its header, length and checksum.
template <typename T>
T transmit(const T& message, std::size_t& bytes) {
  std::array<std::uint8_t, kFrameSize<T>> frame{};
  encode_into(message, std::span{frame});
  bytes += frame.size();
  core::Result<T> decoded = try_decode_as<T>(frame);
  if (!decoded.ok()) throw WireError{decoded.error().message};
  return std::move(decoded).value();
}

/// Folds one round's wire accounting into the `proto.*` metrics, once per
/// round so hot transport loops never touch the registry.
void record_round_metrics(const obs::Observer& obs, const RoundStats& stats) {
  if (obs.metrics == nullptr) return;
  obs::MetricsRegistry& m = *obs.metrics;
  m.counter("proto.shares_sent").add(static_cast<double>(stats.shares_sent));
  m.counter("proto.bids_received").add(static_cast<double>(stats.bids_received));
  m.counter("proto.accepts_sent").add(static_cast<double>(stats.accepts_sent));
  m.counter("proto.bytes_on_wire").add(static_cast<double>(stats.bytes_on_wire));
  m.counter("proto.messages").add(static_cast<double>(stats.chaos.messages));
  m.counter("proto.retries").add(static_cast<double>(stats.chaos.retries));
  m.counter("proto.timeouts").add(static_cast<double>(stats.chaos.timeouts));
  m.counter("proto.decode_rejects")
      .add(static_cast<double>(stats.chaos.decode_rejects));
  m.counter("proto.frames_dropped").add(static_cast<double>(stats.chaos.frames_dropped));
  m.counter("proto.frames_duplicated")
      .add(static_cast<double>(stats.chaos.frames_duplicated));
}

/// Links that never fault. The frames of a broadcast are identical on every
/// link, so each message crosses the codec once and every receiver is handed
/// the same decoded copy; `sent` and `bytes_on_wire` count the logical
/// broadcast (one frame per receiver). A step takes one logical tick.
class PerfectLinks {
 public:
  explicit PerfectLinks(obs::SpanTracer* tracer) : tracer_(tracer) {}

  /// Broker to every CDN: each one's `handle` receives the decoded copies.
  template <typename T>
  void broadcast(std::span<const T> messages, std::span<CdnParticipant* const> cdns,
                 void (CdnParticipant::*handle)(std::span<const T>), std::size_t& sent,
                 RoundStats& stats) {
    std::vector<T> delivered;
    delivered.reserve(messages.size());
    std::size_t frame_bytes = 0;
    for (const T& message : messages) delivered.push_back(transmit(message, frame_bytes));
    sent += messages.size() * cdns.size();
    stats.bytes_on_wire += frame_bytes * cdns.size();
    for (CdnParticipant* cdn : cdns) (cdn->*handle)(delivered);
  }

  /// Link `link` to the broker: appends every message to `delivered`.
  template <typename T>
  void collect(std::span<const T> messages, std::size_t /*link*/, RoundStats& stats,
               std::vector<T>& delivered) {
    for (const T& message : messages) {
      delivered.push_back(transmit(message, stats.bytes_on_wire));
    }
  }

  void close_step(RoundStats& /*stats*/) {
    if (tracer_ != nullptr) tracer_->advance(1);
  }

 private:
  obs::SpanTracer* tracer_;
};

/// Links through a FaultInjector: link i carries its own frame of every
/// message to or from CDN i, because each link's injector RNG stream depends
/// on it. A step's clock closes at the latest arrival (or deadline) on any of
/// its links; `proto.step_ticks` records it.
class FaultyLinks {
 public:
  explicit FaultyLinks(const DecisionEngineConfig& config)
      : injector_(*config.faults),
        deadlines_(config.deadlines),
        obs_(config.obs),
        step_hist_(config.obs.metrics != nullptr
                       ? config.obs.metrics->histogram("proto.step_ticks")
                       : obs::Histogram{}) {}

  /// Broker to every CDN: link i delivers whichever messages survive it
  /// within the step deadline, then CDN i's `handle` receives them.
  template <typename T>
  void broadcast(std::span<const T> messages, std::span<CdnParticipant* const> cdns,
                 void (CdnParticipant::*handle)(std::span<const T>), std::size_t& sent,
                 RoundStats& stats) {
    for (std::size_t i = 0; i < cdns.size(); ++i) {
      std::vector<T> delivered;
      delivered.reserve(messages.size());
      for (const T& message : messages) {
        ++sent;
        if (auto got = transmit_over(message, i, stats)) delivered.push_back(*got);
      }
      (cdns[i]->*handle)(delivered);
    }
  }

  /// Link `link` to the broker: appends the messages that arrive in time.
  template <typename T>
  void collect(std::span<const T> messages, std::size_t link, RoundStats& stats,
               std::vector<T>& delivered) {
    for (const T& message : messages) {
      if (auto got = transmit_over(message, link, stats)) delivered.push_back(*got);
    }
  }

  void close_step(RoundStats& stats) {
    if (obs_.tracer != nullptr) obs_.tracer->advance(step_ticks_);
    stats.chaos.ticks_elapsed += step_ticks_;
    step_hist_.observe(static_cast<double>(step_ticks_));
    step_ticks_ = 0;
  }

 private:
  /// One message over a faulty link: send, and on presumed loss retry with
  /// exponential backoff until delivery, deadline expiry, or budget
  /// exhaustion. Mutated frames are rejected by try_decode_as (checksum) and
  /// treated as lost. Returns the decoded message if a copy arrived within
  /// the step deadline. Retries, timeouts, and decode rejects are narrated
  /// into the journal (subject = link) as they happen.
  template <typename T>
  std::optional<T> transmit_over(const T& message, std::size_t link, RoundStats& stats) {
    std::array<std::uint8_t, kFrameSize<T>> frame{};
    encode_into(message, std::span{frame});
    ++stats.chaos.messages;

    const auto subject = static_cast<std::uint32_t>(link);
    std::size_t send_tick = 0;
    std::size_t backoff = std::max<std::size_t>(1, deadlines_.retry_backoff_ticks);
    for (std::size_t attempt = 0; attempt <= deadlines_.max_retries; ++attempt) {
      if (attempt > 0) {
        ++stats.chaos.retries;
        obs_.record(obs::EventKind::kRetry, subject, static_cast<double>(attempt));
      }
      const FaultCounters before = injector_.counters();
      const std::vector<FaultedFrame> copies = injector_.apply(link, frame);
      const FaultCounters& after = injector_.counters();
      stats.chaos.frames_dropped += after.dropped - before.dropped;
      stats.chaos.frames_duplicated += after.duplicated - before.duplicated;

      for (const FaultedFrame& copy : copies) {
        stats.bytes_on_wire += copy.bytes.size();
        core::Result<T> decoded = try_decode_as<T>(copy.bytes);
        if (!decoded.ok()) {
          ++stats.chaos.decode_rejects;
          obs_.record(obs::EventKind::kDecodeReject, subject);
          continue;
        }
        const std::size_t arrival = send_tick + 1 + copy.delay_ticks;
        if (arrival > deadlines_.step_deadline_ticks) continue;  // late copies discarded
        step_ticks_ = std::max(step_ticks_, arrival);
        return std::move(decoded).value();
      }
      send_tick += backoff;
      backoff *= 2;
      if (send_tick > deadlines_.step_deadline_ticks) break;  // no budget left to resend
    }
    ++stats.chaos.timeouts;
    obs_.record(obs::EventKind::kTimeout, subject,
                static_cast<double>(deadlines_.step_deadline_ticks));
    step_ticks_ = std::max(step_ticks_, deadlines_.step_deadline_ticks);
    return std::nullopt;
  }

  FaultInjector& injector_;
  const DeadlineConfig& deadlines_;
  const obs::Observer& obs_;
  obs::Histogram step_hist_;
  std::size_t step_ticks_ = 0;  // completion time of the open step
};

/// The seven-step Decision Protocol over `links` (PerfectLinks or
/// FaultyLinks), which decide how a message crosses a link and how a step's
/// clock closes. A message lost on a link is simply absent from what its
/// receiver sees, so the round always completes, degraded rather than
/// stalled.
template <typename Links>
RoundStats sequence_round(BrokerParticipant& broker, std::span<CdnParticipant* const> cdns,
                          const DecisionEngineConfig& config, Links& links) {
  for (CdnParticipant* cdn : cdns) {
    if (cdn == nullptr) throw std::invalid_argument{"null CdnParticipant"};
  }

  RoundStats stats;
  obs::SpanTracer* tracer = config.obs.tracer;
  const obs::SpanTracer::Scoped round_span{tracer, "decision.round"};
  // Step 1 (Estimate) is participant-local; mark it so every trace names all
  // 7 protocol steps.
  if (tracer != nullptr) tracer->instant("decision.estimate");

  // Steps 2-3: Gather + Share. Designs that do not share client data still
  // gather, and hand every CDN an empty span.
  std::vector<ShareMessage> shares;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.gather"};
    shares = broker.gather();
  }
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.share"};
    const std::span<const ShareMessage> sent =
        config.share_client_data ? std::span<const ShareMessage>{shares}
                                 : std::span<const ShareMessage>{};
    links.broadcast(sent, cdns, &CdnParticipant::handle_share, stats.shares_sent, stats);
    links.close_step(stats);
  }

  // Steps 4-5: Matching (bid computation) + Announce (bid transmission).
  // Lost bids are simply absent from the auction; the broker may backfill
  // them with stale cached bids.
  std::vector<std::vector<BidMessage>> raw_bids(cdns.size());
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.matching"};
    for (std::size_t i = 0; i < cdns.size(); ++i) raw_bids[i] = cdns[i]->announce();
  }
  std::vector<BidMessage> all_bids;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.announce"};
    std::size_t bid_count = 0;
    for (const std::vector<BidMessage>& bids : raw_bids) bid_count += bids.size();
    all_bids.reserve(bid_count);
    for (std::size_t i = 0; i < cdns.size(); ++i) {
      links.collect(std::span<const BidMessage>{raw_bids[i]}, i, stats, all_bids);
    }
    stats.bids_received = all_bids.size();
    links.close_step(stats);
  }

  // Step 6: Optimize (broker-local, no transport).
  std::vector<AcceptMessage> accepts;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.optimize"};
    accepts = broker.optimize(all_bids);
  }

  // Step 7: Accept. Every CDN hears whichever outcomes reach it; a CDN that
  // misses an Accept just doesn't update its strategy for that bid.
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.accept"};
    links.broadcast(std::span<const AcceptMessage>{accepts}, cdns,
                    &CdnParticipant::handle_accept, stats.accepts_sent, stats);
    links.close_step(stats);
  }

  record_round_metrics(config.obs, stats);
  return stats;
}

}  // namespace

RoundStats run_decision_round(BrokerParticipant& broker,
                              std::span<CdnParticipant* const> cdns,
                              const DecisionEngineConfig& config) {
  if (config.faults != nullptr && config.faults->profile().any()) {
    FaultyLinks links{config};
    return sequence_round(broker, cdns, config, links);
  }
  PerfectLinks links{config.obs.tracer};
  return sequence_round(broker, cdns, config, links);
}

DeliveryOutcome run_delivery(const QueryMessage& query, DeliveryDirectory& directory,
                             ClusterFrontend& frontend, const obs::Observer& obs) {
  obs::SpanTracer* tracer = obs.tracer;
  const obs::SpanTracer::Scoped round_span{tracer, "delivery.round"};

  DeliveryOutcome outcome;
  QueryMessage sent_query;
  {
    const obs::SpanTracer::Scoped span{tracer, "delivery.query"};
    sent_query = transmit(query, outcome.bytes_on_wire);
    if (tracer != nullptr) tracer->advance(1);
  }
  {
    const obs::SpanTracer::Scoped span{tracer, "delivery.resolve"};
    outcome.result = transmit(directory.resolve(sent_query), outcome.bytes_on_wire);
    if (tracer != nullptr) tracer->advance(1);
  }

  const auto attempt = [&](const ResultMessage& result) {
    const obs::SpanTracer::Scoped span{tracer, "delivery.request"};
    RequestMessage request;
    request.session_id = result.session_id;
    request.cluster_id = result.cluster_id;
    request.content_id = 0;
    const RequestMessage sent_request = transmit(request, outcome.bytes_on_wire);
    DeliveryMessage delivery = transmit(frontend.serve(sent_request),
                                        outcome.bytes_on_wire);
    if (tracer != nullptr) tracer->advance(1);
    return delivery;
  };

  outcome.delivery = attempt(outcome.result);
  if (outcome.delivery.delivered_mbps <= 0.0) {
    // Mid-stream failure: the chosen cluster is dark. Ask the directory for
    // an alternative home and replay the request there (§6.3 failover).
    const obs::SpanTracer::Scoped span{tracer, "delivery.failover"};
    const std::uint32_t dark = outcome.result.cluster_id;
    const ResultMessage alternative = transmit(
        directory.resolve_excluding(sent_query, dark), outcome.bytes_on_wire);
    if (alternative.cluster_id != dark && alternative.cluster_id != UINT32_MAX) {
      outcome.result = alternative;
      outcome.delivery = attempt(alternative);
      outcome.rehomed = true;
      outcome.failed_cluster = dark;
      obs.record(obs::EventKind::kFailover, dark, outcome.delivery.delivered_mbps);
    }
  }

  if (obs.metrics != nullptr) {
    obs::MetricsRegistry& m = *obs.metrics;
    m.counter("delivery.sessions").add();
    m.counter("delivery.bytes_on_wire").add(static_cast<double>(outcome.bytes_on_wire));
    if (outcome.rehomed) m.counter("delivery.failovers").add();
  }
  return outcome;
}

}  // namespace vdx::proto
