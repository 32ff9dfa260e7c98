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

/// A fault-free broadcast to `fanout` receivers: the frames are identical on
/// every link, so each message crosses the codec once and every receiver is
/// handed the same decoded copy. `sent` and `bytes` count the logical
/// broadcast (one frame per receiver).
template <typename T>
std::vector<T> broadcast(const std::vector<T>& messages, std::size_t fanout,
                         std::size_t& sent, std::size_t& bytes) {
  std::vector<T> delivered;
  delivered.reserve(messages.size());
  std::size_t frame_bytes = 0;
  for (const T& message : messages) delivered.push_back(transmit(message, frame_bytes));
  sent += messages.size() * fanout;
  bytes += frame_bytes * fanout;
  return delivered;
}

/// One message over a faulty link: send, and on presumed loss retry with
/// exponential backoff until delivery, deadline expiry, or budget exhaustion.
/// Mutated frames are rejected by try_decode_as (checksum) and treated as lost.
/// Returns the decoded message if a copy arrived within the step deadline;
/// `step_ticks` tracks the step's completion time on this and other links.
/// Retries, timeouts, and decode rejects are narrated into the journal
/// (subject = link) as they happen.
template <typename T>
std::optional<T> chaos_transmit(const T& message, std::size_t link,
                                FaultInjector& injector, const DeadlineConfig& config,
                                RoundStats& stats, std::size_t& step_ticks,
                                const obs::Observer& obs) {
  std::array<std::uint8_t, kFrameSize<T>> frame{};
  encode_into(message, std::span{frame});
  ++stats.chaos.messages;

  std::size_t send_tick = 0;
  std::size_t backoff = std::max<std::size_t>(1, config.retry_backoff_ticks);
  for (std::size_t attempt = 0; attempt <= config.max_retries; ++attempt) {
    if (attempt > 0) {
      ++stats.chaos.retries;
      obs.record(obs::EventKind::kRetry, static_cast<std::uint32_t>(link),
                 static_cast<double>(attempt));
    }
    const FaultCounters before = injector.counters();
    const std::vector<FaultedFrame> copies = injector.apply(link, frame);
    const FaultCounters& after = injector.counters();
    stats.chaos.frames_dropped += after.dropped - before.dropped;
    stats.chaos.frames_duplicated += after.duplicated - before.duplicated;

    for (const FaultedFrame& copy : copies) {
      stats.bytes_on_wire += copy.bytes.size();
      core::Result<T> decoded = try_decode_as<T>(copy.bytes);
      if (!decoded.ok()) {
        ++stats.chaos.decode_rejects;
        obs.record(obs::EventKind::kDecodeReject, static_cast<std::uint32_t>(link));
        continue;
      }
      const std::size_t arrival = send_tick + 1 + copy.delay_ticks;
      if (arrival > config.step_deadline_ticks) continue;  // late copies discarded
      step_ticks = std::max(step_ticks, arrival);
      return std::move(decoded).value();
    }
    send_tick += backoff;
    backoff *= 2;
    if (send_tick > config.step_deadline_ticks) break;  // no budget left to resend
  }
  ++stats.chaos.timeouts;
  obs.record(obs::EventKind::kTimeout, static_cast<std::uint32_t>(link),
             static_cast<double>(config.step_deadline_ticks));
  step_ticks = std::max(step_ticks, config.step_deadline_ticks);
  return std::nullopt;
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

RoundStats run_chaos_round(BrokerParticipant& broker,
                           std::span<CdnParticipant* const> cdns,
                           const DecisionEngineConfig& config) {
  RoundStats stats;
  FaultInjector& injector = *config.faults;
  const DeadlineConfig& deadlines = config.deadlines;
  obs::SpanTracer* tracer = config.obs.tracer;
  const obs::Histogram step_hist =
      config.obs.metrics != nullptr ? config.obs.metrics->histogram("proto.step_ticks")
                                    : obs::Histogram{};

  for (CdnParticipant* cdn : cdns) {
    if (cdn == nullptr) throw std::invalid_argument{"null CdnParticipant"};
  }

  const obs::SpanTracer::Scoped round_span{tracer, "decision.round"};
  // Step 1 (Estimate) is participant-local; mark it so every trace names all
  // 7 protocol steps.
  if (tracer != nullptr) tracer->instant("decision.estimate");

  // Steps 2-3: Gather + Share. Each CDN receives whichever shares survive
  // its link within the step deadline.
  std::vector<ShareMessage> shares;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.gather"};
    shares = broker.gather();
  }
  std::size_t step_ticks = 0;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.share"};
    for (std::size_t i = 0; i < cdns.size(); ++i) {
      std::vector<ShareMessage> delivered;
      if (config.share_client_data) {
        delivered.reserve(shares.size());
        for (const ShareMessage& share : shares) {
          ++stats.shares_sent;
          if (auto got = chaos_transmit(share, i, injector, deadlines, stats,
                                        step_ticks, config.obs)) {
            delivered.push_back(*got);
          }
        }
      }
      cdns[i]->handle_share(delivered);
    }
    if (tracer != nullptr) tracer->advance(step_ticks);
  }
  stats.chaos.ticks_elapsed += step_ticks;
  step_hist.observe(static_cast<double>(step_ticks));

  // Steps 4-5: Matching (bid computation) + Announce (bid transmission).
  // Lost bids are simply absent from the auction; the broker may backfill
  // them with stale cached bids.
  std::vector<std::pair<std::size_t, BidMessage>> raw_bids;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.matching"};
    for (std::size_t i = 0; i < cdns.size(); ++i) {
      for (BidMessage& bid : cdns[i]->announce()) {
        raw_bids.emplace_back(i, std::move(bid));
      }
    }
  }
  step_ticks = 0;
  std::vector<BidMessage> all_bids;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.announce"};
    for (const auto& [link, bid] : raw_bids) {
      if (auto got = chaos_transmit(bid, link, injector, deadlines, stats, step_ticks,
                                    config.obs)) {
        all_bids.push_back(*got);
        ++stats.bids_received;
      }
    }
    if (tracer != nullptr) tracer->advance(step_ticks);
  }
  stats.chaos.ticks_elapsed += step_ticks;
  step_hist.observe(static_cast<double>(step_ticks));

  // Step 6: Optimize (broker-local, no transport).
  std::vector<AcceptMessage> accepts;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.optimize"};
    accepts = broker.optimize(all_bids);
  }

  // Step 7: Accept — CDNs hear about whichever outcomes reach them; a CDN
  // that misses an Accept just doesn't update its strategy for that bid.
  step_ticks = 0;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.accept"};
    for (std::size_t i = 0; i < cdns.size(); ++i) {
      std::vector<AcceptMessage> delivered;
      delivered.reserve(accepts.size());
      for (const AcceptMessage& accept : accepts) {
        ++stats.accepts_sent;
        if (auto got = chaos_transmit(accept, i, injector, deadlines, stats, step_ticks,
                                      config.obs)) {
          delivered.push_back(*got);
        }
      }
      cdns[i]->handle_accept(delivered);
    }
    if (tracer != nullptr) tracer->advance(step_ticks);
  }
  stats.chaos.ticks_elapsed += step_ticks;
  step_hist.observe(static_cast<double>(step_ticks));

  record_round_metrics(config.obs, stats);
  return stats;
}

}  // namespace

RoundStats run_decision_round(BrokerParticipant& broker,
                              std::span<CdnParticipant* const> cdns,
                              const DecisionEngineConfig& config) {
  if (config.faults != nullptr && config.faults->profile().any()) {
    return run_chaos_round(broker, cdns, config);
  }

  RoundStats stats;
  obs::SpanTracer* tracer = config.obs.tracer;

  for (CdnParticipant* cdn : cdns) {
    if (cdn == nullptr) throw std::invalid_argument{"null CdnParticipant"};
  }

  const obs::SpanTracer::Scoped round_span{tracer, "decision.round"};
  if (tracer != nullptr) tracer->instant("decision.estimate");

  // Steps 2-3: Gather + Share. A fault-free hop costs one logical tick per
  // transport step, so logical-clock traces stay meaningful without chaos.
  std::vector<ShareMessage> shares;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.gather"};
    shares = broker.gather();
  }
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.share"};
    const std::vector<ShareMessage> delivered =
        config.share_client_data ? broadcast(shares, cdns.size(), stats.shares_sent,
                                             stats.bytes_on_wire)
                                 : std::vector<ShareMessage>{};
    for (CdnParticipant* cdn : cdns) cdn->handle_share(delivered);
    if (tracer != nullptr) tracer->advance(1);
  }

  // Steps 4-5: Matching + Announce.
  std::vector<BidMessage> raw_bids;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.matching"};
    for (CdnParticipant* cdn : cdns) {
      for (BidMessage& bid : cdn->announce()) raw_bids.push_back(std::move(bid));
    }
  }
  std::vector<BidMessage> all_bids;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.announce"};
    all_bids.reserve(raw_bids.size());
    for (const BidMessage& bid : raw_bids) {
      all_bids.push_back(transmit(bid, stats.bytes_on_wire));
      ++stats.bids_received;
    }
    if (tracer != nullptr) tracer->advance(1);
  }

  // Step 6: Optimize.
  std::vector<AcceptMessage> accepts;
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.optimize"};
    accepts = broker.optimize(all_bids);
  }

  // Step 7: Accept — every CDN hears about every bid's outcome.
  {
    const obs::SpanTracer::Scoped span{tracer, "decision.accept"};
    const std::vector<AcceptMessage> delivered =
        broadcast(accepts, cdns.size(), stats.accepts_sent, stats.bytes_on_wire);
    for (CdnParticipant* cdn : cdns) cdn->handle_accept(delivered);
    if (tracer != nullptr) tracer->advance(1);
  }

  record_round_metrics(config.obs, stats);
  return stats;
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
