#include "market/exchange.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>

#include "cdn/menu_cache.hpp"
#include "proto/wire.hpp"
#include "sim/designs.hpp"
#include "sim/metrics.hpp"
#include "state/snapshot.hpp"

namespace vdx::market {

core::Result<AdmissionReport> shed_to_budget(std::vector<broker::ClientGroup>& groups,
                                             double budget_mbps) {
  if (!std::isfinite(budget_mbps) || budget_mbps < 0.0) {
    return core::Result<AdmissionReport>::failure(
        core::Errc::kInvalidArgument,
        "shed_to_budget: budget must be finite and >= 0");
  }
  AdmissionReport report;
  double total = 0.0;
  for (const broker::ClientGroup& g : groups) total += g.client_count * g.bitrate_mbps;
  if (total <= budget_mbps) return report;

  // Victim order: lowest value first — ascending bitrate, then group id.
  std::vector<std::size_t> order(groups.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(), [&groups](std::size_t a, std::size_t b) {
    if (groups[a].bitrate_mbps != groups[b].bitrate_mbps) {
      return groups[a].bitrate_mbps < groups[b].bitrate_mbps;
    }
    return groups[a].id.value() < groups[b].id.value();
  });

  double excess = total - budget_mbps;
  for (const std::size_t idx : order) {
    if (excess <= 0.0) break;
    broker::ClientGroup& g = groups[idx];
    const double demand = g.client_count * g.bitrate_mbps;
    if (demand <= 0.0) continue;
    if (demand <= excess) {
      report.shed_mbps += demand;
      report.shed_clients += g.client_count;
      excess -= demand;
      g.client_count = 0.0;
    } else {
      const double clients = excess / g.bitrate_mbps;
      report.shed_mbps += excess;
      report.shed_clients += clients;
      g.client_count -= clients;
      excess = 0.0;
    }
  }

  const std::size_t before = groups.size();
  std::erase_if(groups,
                [](const broker::ClientGroup& g) { return g.client_count <= 0.0; });
  report.groups_dropped = before - groups.size();
  for (std::size_t i = 0; i < groups.size(); ++i) {
    groups[i].id = broker::ShareId{static_cast<std::uint32_t>(i)};
  }
  return report;
}

VdxExchange::VdxExchange(const sim::Scenario& scenario, ExchangeConfig config)
    : scenario_(scenario), config_(config) {
  // The exchange always has a live registry so RoundReport telemetry can be
  // read back from counters; tracer/journal stay opt-in (null = no-op).
  obs_ = config_.obs;
  if (obs_.metrics == nullptr) obs_.metrics = &owned_metrics_;
  counters_.rounds = obs_.metrics->counter("exchange.rounds");
  counters_.messages = obs_.metrics->counter("exchange.messages");
  counters_.timeouts = obs_.metrics->counter("exchange.timeouts");
  counters_.retries = obs_.metrics->counter("exchange.retries");
  counters_.bids = obs_.metrics->counter("exchange.bids");
  counters_.stale_bids = obs_.metrics->counter("exchange.stale_bids");
  counters_.degraded_rounds = obs_.metrics->counter("exchange.degraded_rounds");
  counters_.quorum_misses = obs_.metrics->counter("exchange.quorum_misses");
  counters_.awarded_mbps = obs_.metrics->counter("exchange.awarded_mbps");
  counters_.stale_awarded_mbps = obs_.metrics->counter("exchange.stale_awarded_mbps");
  counters_.failovers = obs_.metrics->counter("exchange.failovers");
  counters_.shed_mbps = obs_.metrics->counter("exchange.shed.mbps");
  counters_.shed_clients = obs_.metrics->counter("exchange.shed.clients");
  counters_.shed_rounds = obs_.metrics->counter("exchange.shed.rounds");
  counters_.peering_rehomed = obs_.metrics->counter("exchange.peering.rehomed");
  counters_.peering_rejected = obs_.metrics->counter("exchange.peering.rejected");
  counters_.mean_score = obs_.metrics->gauge("exchange.mean_score");
  counters_.mean_cost = obs_.metrics->gauge("exchange.mean_cost");
  counters_.prediction_error = obs_.metrics->gauge("exchange.prediction_error");

  background_loads_ = sim::place_background(scenario_);
  {
    cdn::MatchingConfig matching;
    matching.max_candidates = config_.agent.bid_count;
    matching.score_tolerance = config_.agent.menu_tolerance;
    menu_cache_ = std::make_unique<cdn::CandidateMenuCache>(
        scenario_.catalog(), scenario_.mapping(), scenario_.world().cities().size(),
        matching);
    config_.agent.menus = menu_cache_.get();
  }
  if (config_.chaos.faults.any()) {
    injector_ = std::make_unique<proto::FaultInjector>(config_.chaos.faults);
    // A lossy transport needs the degraded-round fallback to stay useful.
    config_.broker.enable_stale_bids = true;
  }
  config_.broker.obs = obs_;
  broker_agent_ = std::make_unique<VdxBrokerAgent>(scenario_, config_.broker);
  for (const cdn::Cdn& cdn : scenario_.catalog().cdns()) {
    std::unique_ptr<cdn::BiddingStrategy> strategy =
        config_.strategy == StrategyKind::kStatic
            ? cdn::make_static_strategy(cdn.markup)
            : cdn::make_risk_averse_strategy();
    cdn_agents_.push_back(std::make_unique<VdxCdnAgent>(
        scenario_, cdn.id, *strategy, background_loads_, config_.agent));
    strategies_.push_back(std::move(strategy));
  }
}

VdxExchange::~VdxExchange() = default;

RoundReport VdxExchange::run_round() {
  RoundReport report;
  report.round = rounds_completed_;

  if (obs_.journal != nullptr) {
    obs_.journal->begin_round(rounds_completed_);
    obs_.record(obs::EventKind::kRoundStart, obs::RunJournal::kNoSubject,
                static_cast<double>(rounds_completed_));
  }
  // Admission control: trim the Gathered demand to the budget before the
  // decision round ever prices it (overload-graceful degradation, §11).
  if (config_.overload.demand_budget_mbps > 0.0) {
    const auto demand = broker_agent_->demand();
    std::vector<broker::ClientGroup> admitted{demand.begin(), demand.end()};
    auto admission = shed_to_budget(admitted, config_.overload.demand_budget_mbps);
    if (admission.ok() && admission.value().shed_mbps > 0.0) {
      const AdmissionReport& shed = admission.value();
      broker_agent_->set_demand(std::move(admitted));
      report.shed_mbps = shed.shed_mbps;
      report.shed_clients = shed.shed_clients;
      report.shed_groups = shed.groups_dropped;
      counters_.shed_mbps.add(shed.shed_mbps);
      counters_.shed_clients.add(shed.shed_clients);
      counters_.shed_rounds.add();
      obs_.record(obs::EventKind::kShed, obs::RunJournal::kNoSubject, shed.shed_mbps);
    }
  }

  // Counter deltas over this round back the report's fault telemetry, so the
  // registry and the report cannot disagree.
  const double messages_before = counters_.messages.value();
  const double timeouts_before = counters_.timeouts.value();
  const double stale_before = counters_.stale_bids.value();

  std::vector<proto::CdnParticipant*> participants;
  participants.reserve(cdn_agents_.size());
  for (const auto& agent : cdn_agents_) participants.push_back(agent.get());

  proto::DecisionEngineConfig engine;
  engine.faults = injector_.get();
  engine.deadlines = config_.chaos.deadlines;
  engine.obs = obs_;
  report.wire = proto::run_decision_round(*broker_agent_, participants, engine);

  counters_.rounds.add();
  counters_.messages.add(static_cast<double>(report.wire.chaos.messages));
  counters_.timeouts.add(static_cast<double>(report.wire.chaos.timeouts));
  counters_.retries.add(static_cast<double>(report.wire.chaos.retries));
  counters_.bids.add(static_cast<double>(report.wire.bids_received));
  counters_.stale_bids.add(
      static_cast<double>(broker_agent_->stale_bids_substituted()));
  counters_.awarded_mbps.add(broker_agent_->total_awarded_mbps());
  counters_.stale_awarded_mbps.add(broker_agent_->stale_awarded_mbps());

  // Fault telemetry + degraded-round accounting, read back from the deltas.
  std::size_t live_cdns = 0;
  for (const auto& agent : cdn_agents_) {
    if (!agent->failed()) ++live_cdns;
  }
  const double quorum_floor =
      config_.chaos.quorum_fraction * static_cast<double>(live_cdns);
  report.quorum_met = static_cast<double>(broker_agent_->fresh_cdn_count()) + 1e-9 >=
                      quorum_floor;
  const double messages_delta = counters_.messages.value() - messages_before;
  const double timeouts_delta = counters_.timeouts.value() - timeouts_before;
  report.stale_bids_used =
      static_cast<std::size_t>(counters_.stale_bids.value() - stale_before + 0.5);
  report.stale_bid_share =
      broker_agent_->total_awarded_mbps() > 0.0
          ? broker_agent_->stale_awarded_mbps() / broker_agent_->total_awarded_mbps()
          : 0.0;
  report.timeout_rate = messages_delta > 0.0 ? timeouts_delta / messages_delta : 0.0;
  report.degraded = timeouts_delta > 0.0 || report.stale_bids_used > 0 ||
                    !report.quorum_met;
  if (!report.quorum_met) {
    counters_.quorum_misses.add();
    obs_.record(obs::EventKind::kQuorumMiss,
                static_cast<std::uint32_t>(broker_agent_->fresh_cdn_count()),
                quorum_floor);
  }
  if (report.stale_bids_used > 0) {
    obs_.record(obs::EventKind::kStaleBid, obs::RunJournal::kNoSubject,
                static_cast<double>(report.stale_bids_used));
  }
  if (report.degraded) {
    counters_.degraded_rounds.add();
    obs_.record(obs::EventKind::kDegradedRound, obs::RunJournal::kNoSubject,
                report.timeout_rate);
  }

  // Metrics from the broker's placements.
  const auto placements = broker_agent_->placements();
  const auto groups = broker_agent_->demand();
  last_cluster_loads_ = background_loads_;
  double clients = 0.0;
  double score_sum = 0.0;
  double cost_sum = 0.0;
  for (const sim::Placement& p : placements) {
    const broker::ClientGroup& group = groups[p.group];
    clients += p.clients;
    score_sum += p.clients * p.score;
    cost_sum += p.clients * scenario_.catalog().cluster(p.cluster).unit_cost() *
                group.bitrate_mbps;
    last_cluster_loads_[p.cluster.value()] += p.clients * group.bitrate_mbps;
  }
  if (clients > 0.0) {
    report.mean_score = score_sum / clients;
    report.mean_cost = cost_sum / clients;
  }

  double congested_clients = 0.0;
  for (const sim::Placement& p : placements) {
    const cdn::Cluster& cluster = scenario_.catalog().cluster(p.cluster);
    if (cluster.capacity > 0.0 &&
        last_cluster_loads_[p.cluster.value()] > cluster.capacity * 1.001 + 1e-6) {
      congested_clients += p.clients;
    }
  }
  if (clients > 0.0) report.congested_fraction = congested_clients / clients;

  // Predictability. The award ledger is the broker's under chaos (the
  // agents' own Accept-derived view undercounts when Accepts are lost);
  // both sides agree exactly on a perfect transport.
  const auto broker_awarded = broker_agent_->awarded_by_cdn();
  report.awarded_mbps.resize(cdn_agents_.size(), 0.0);
  double error_sum = 0.0;
  std::size_t bidders = 0;
  for (std::size_t i = 0; i < cdn_agents_.size(); ++i) {
    const VdxCdnAgent& agent = *cdn_agents_[i];
    report.awarded_mbps[i] =
        injector_ && i < broker_awarded.size() ? broker_awarded[i] : agent.awarded_mbps();
    if (agent.bid_mbps() > 0.0) {
      error_sum += std::abs(agent.expected_win_mbps() - agent.awarded_mbps()) /
                   std::max(1.0, agent.bid_mbps());
      ++bidders;
    }
  }
  report.mean_prediction_error =
      bidders > 0 ? error_sum / static_cast<double>(bidders) : 0.0;

  counters_.mean_score.set(report.mean_score);
  counters_.mean_cost.set(report.mean_cost);
  counters_.prediction_error.set(report.mean_prediction_error);
  if (obs_.journal != nullptr) {
    for (std::size_t i = 0; i < report.awarded_mbps.size(); ++i) {
      if (report.awarded_mbps[i] > 0.0) {
        obs_.record(obs::EventKind::kBid, static_cast<std::uint32_t>(i),
                    report.awarded_mbps[i]);
      }
    }
    obs_.record(obs::EventKind::kRoundEnd, obs::RunJournal::kNoSubject, report.mean_score);
  }

  ++rounds_completed_;
  return report;
}

std::vector<RoundReport> VdxExchange::run(std::size_t rounds) {
  std::vector<RoundReport> reports;
  reports.reserve(rounds);
  for (std::size_t i = 0; i < rounds; ++i) reports.push_back(run_round());
  return reports;
}

void VdxExchange::set_failed(cdn::CdnId cdn, bool failed) {
  if (!cdn.valid() || cdn.value() >= cdn_agents_.size()) {
    throw std::out_of_range{"VdxExchange::set_failed: unknown CDN"};
  }
  cdn_agents_[cdn.value()]->set_failed(failed);
}

void VdxExchange::set_fraudulent(cdn::CdnId cdn, bool fraudulent) {
  if (!cdn.valid() || cdn.value() >= cdn_agents_.size()) {
    throw std::out_of_range{"VdxExchange::set_fraudulent: unknown CDN"};
  }
  cdn_agents_[cdn.value()]->set_fraudulent(fraudulent);
}

void VdxExchange::set_active_load(std::span<const broker::ClientGroup> groups,
                                  std::span<const double> background_loads) {
  if (background_loads.size() != scenario_.catalog().clusters().size()) {
    throw std::invalid_argument{"VdxExchange::set_active_load: loads arity mismatch"};
  }
  broker_agent_->set_demand({groups.begin(), groups.end()});
  background_loads_.assign(background_loads.begin(), background_loads.end());
  for (const auto& agent : cdn_agents_) {
    agent->set_background_loads(background_loads_);
  }
}

void VdxExchange::set_demand_budget(double budget_mbps) {
  if (!std::isfinite(budget_mbps) || budget_mbps < 0.0) {
    throw std::invalid_argument{
        "VdxExchange::set_demand_budget: budget must be finite and >= 0"};
  }
  config_.overload.demand_budget_mbps = budget_mbps;
}

const broker::ReputationSystem& VdxExchange::reputation() const {
  return broker_agent_->reputation();
}

core::Result<proto::DeliveryOutcome> VdxExchange::deliver(std::uint32_t session_id,
                                                          geo::CityId city,
                                                          double bitrate_mbps) {
  if (rounds_completed_ == 0) {
    return core::Result<proto::DeliveryOutcome>::failure(
        core::Errc::kNotReady, "VdxExchange::deliver: run a decision round first");
  }
  ClusterService frontend{scenario_, last_cluster_loads_};
  frontend.register_session(session_id, bitrate_mbps);
  // Clusters of failed CDNs are dark mid-stream: the frontend refuses them,
  // which drives the Delivery-Protocol failover in run_delivery(). With QoS
  // peering on, saturated clusters (load past threshold x capacity, or no
  // capacity at all — e.g. blacked out) are dark too, so sessions re-home to
  // healthy clusters instead of piling onto overloaded ones.
  const bool peering = config_.overload.saturation_threshold > 0.0;
  const auto clusters = scenario_.catalog().clusters();
  for (std::size_t c = 0; c < clusters.size(); ++c) {
    const std::uint32_t cdn = clusters[c].cdn.value();
    if (cdn < cdn_agents_.size() && cdn_agents_[cdn]->failed()) {
      frontend.set_dark(cdn::ClusterId{static_cast<std::uint32_t>(c)});
      continue;
    }
    if (peering && (clusters[c].capacity <= 0.0 ||
                    (c < last_cluster_loads_.size() &&
                     last_cluster_loads_[c] > config_.overload.saturation_threshold *
                                                  clusters[c].capacity))) {
      frontend.set_dark(cdn::ClusterId{static_cast<std::uint32_t>(c)});
    }
  }
  proto::QueryMessage query;
  query.session_id = session_id;
  query.location = city.value();
  query.bitrate_mbps = bitrate_mbps;
  proto::DeliveryOutcome outcome =
      proto::run_delivery(query, *broker_agent_, frontend, obs_);
  if (outcome.rehomed) {
    counters_.failovers.add();
    if (peering) counters_.peering_rehomed.add();
  }
  if (peering && outcome.delivery.delivered_mbps <= 0.0) {
    counters_.peering_rejected.add();
    return core::Result<proto::DeliveryOutcome>::failure(
        core::Errc::kOverloaded,
        "VdxExchange::deliver: no healthy cluster can take this session");
  }
  return outcome;
}

const proto::FaultCounters& VdxExchange::fault_counters() const {
  static const proto::FaultCounters kNone{};
  return injector_ ? injector_->counters() : kNone;
}

namespace {

// Exchange snapshot section ids (distinct from the timeline checkpoint's
// 1-6 range so a file of the wrong kind fails loudly on a missing section).
constexpr std::uint32_t kSectionExchangeCore = 10;
constexpr std::uint32_t kSectionBroker = 11;
constexpr std::uint32_t kSectionStrategies = 12;
constexpr std::uint32_t kSectionCdnAgents = 13;
constexpr std::uint32_t kSectionInjector = 14;

core::Status invalid(std::string message) {
  return core::Status::failure(core::Errc::kInvalidArgument, std::move(message));
}

core::Status corrupt(std::string message) {
  return core::Status::failure(core::Errc::kCorruptSnapshot, std::move(message));
}

void write_f64_vector(proto::ByteWriter& out, std::span<const double> values) {
  out.write_u64(values.size());
  for (const double value : values) out.write_f64(value);
}

std::vector<double> read_f64_vector(proto::ByteReader& in) {
  const std::size_t count = in.read_count(8);
  std::vector<double> values;
  values.reserve(count);
  for (std::size_t i = 0; i < count; ++i) values.push_back(in.read_f64());
  return values;
}

void write_bid(proto::ByteWriter& out, const proto::BidMessage& bid) {
  out.write_u32(bid.cluster_id);
  out.write_u32(bid.share_id);
  out.write_f64(bid.performance_estimate);
  out.write_f64(bid.capacity_mbps);
  out.write_f64(bid.price);
  out.write_u32(bid.cdn_id);
}

proto::BidMessage read_bid(proto::ByteReader& in) {
  proto::BidMessage bid;
  bid.cluster_id = in.read_u32();
  bid.share_id = in.read_u32();
  bid.performance_estimate = in.read_f64();
  bid.capacity_mbps = in.read_f64();
  bid.price = in.read_f64();
  bid.cdn_id = in.read_u32();
  return bid;
}

}  // namespace

std::vector<std::uint8_t> VdxExchange::save_state() const {
  state::SnapshotWriter writer;
  {
    proto::ByteWriter out;
    out.write_u64(rounds_completed_);
    out.write_u64(obs_.tracer != nullptr ? obs_.tracer->logical_now() : 0);
    write_f64_vector(out, background_loads_);
    write_f64_vector(out, last_cluster_loads_);
    writer.add_section(kSectionExchangeCore, out.take());
  }
  {
    const VdxBrokerAgent::Saved broker = broker_agent_->save_state();
    proto::ByteWriter out;
    out.write_u64(broker.reputation.size());
    for (const broker::ReputationSystem::State& state : broker.reputation) {
      out.write_f64(state.error);
      out.write_u64(state.strikes);
      out.write_u8(state.blacklisted ? 1 : 0);
    }
    out.write_u64(broker.optimize_round);
    out.write_u8(broker.has_demand_override ? 1 : 0);
    out.write_u64(broker.demand.size());
    for (const broker::ClientGroup& group : broker.demand) {
      out.write_u32(group.id.value());
      out.write_u32(group.city.value());
      out.write_u32(group.isp);
      out.write_f64(group.bitrate_mbps);
      out.write_f64(group.client_count);
    }
    out.write_u64(broker.stale_bids.size());
    for (const VdxBrokerAgent::SavedStale& stale : broker.stale_bids) {
      out.write_u32(stale.cdn);
      out.write_u32(stale.share);
      out.write_u32(stale.cluster);
      write_bid(out, stale.bid);
      out.write_u64(stale.round);
    }
    writer.add_section(kSectionBroker, out.take());
  }
  {
    proto::ByteWriter out;
    out.write_u64(strategies_.size());
    for (const auto& strategy : strategies_) {
      const std::vector<cdn::BiddingStrategy::SavedEntry> entries =
          strategy->save_state();
      out.write_u64(entries.size());
      for (const cdn::BiddingStrategy::SavedEntry& entry : entries) {
        out.write_u64(entry.key);
        out.write_f64(entry.win_rate);
        out.write_f64(entry.price_multiplier);
      }
    }
    writer.add_section(kSectionStrategies, out.take());
  }
  {
    proto::ByteWriter out;
    out.write_u64(cdn_agents_.size());
    for (const auto& agent : cdn_agents_) {
      const VdxCdnAgent::Saved saved = agent->save_state();
      out.write_u8(saved.failed ? 1 : 0);
      out.write_u8(saved.fraudulent ? 1 : 0);
      out.write_f64(saved.expected_mbps);
      out.write_f64(saved.awarded_mbps);
      out.write_f64(saved.bid_mbps);
    }
    writer.add_section(kSectionCdnAgents, out.take());
  }
  {
    proto::ByteWriter out;
    out.write_u8(injector_ != nullptr ? 1 : 0);
    if (injector_ != nullptr) {
      const proto::FaultInjector::Saved saved = injector_->save();
      out.write_u64(saved.links.size());
      for (const proto::FaultInjector::Saved::Link& link : saved.links) {
        for (const std::uint64_t word : link.rng.state) out.write_u64(word);
        out.write_f64(link.rng.spare_normal);
        out.write_u8(link.rng.has_spare ? 1 : 0);
        out.write_u8(link.burst ? 1 : 0);
        out.write_u8(link.initialized ? 1 : 0);
      }
      out.write_u64(saved.counters.frames);
      out.write_u64(saved.counters.delivered);
      out.write_u64(saved.counters.dropped);
      out.write_u64(saved.counters.duplicated);
      out.write_u64(saved.counters.delayed);
      out.write_u64(saved.counters.truncated);
      out.write_u64(saved.counters.corrupted);
    }
    writer.add_section(kSectionInjector, out.take());
  }
  return writer.finish();
}

core::Status VdxExchange::restore_state(std::span<const std::uint8_t> bytes) {
  auto parsed = state::SnapshotView::parse(bytes);
  if (!parsed.ok()) return core::Status{parsed.error()};
  const state::SnapshotView view = std::move(parsed).value();

  const auto section = [&view](std::uint32_t id) -> const state::Section* {
    return view.find(id);
  };
  const state::Section* core_section = section(kSectionExchangeCore);
  const state::Section* broker_section = section(kSectionBroker);
  const state::Section* strategy_section = section(kSectionStrategies);
  const state::Section* agent_section = section(kSectionCdnAgents);
  const state::Section* injector_section = section(kSectionInjector);
  if (core_section == nullptr || broker_section == nullptr ||
      strategy_section == nullptr || agent_section == nullptr ||
      injector_section == nullptr) {
    return corrupt("exchange snapshot is missing a required section");
  }

  // Decode everything into locals first: restore_state either applies the
  // whole snapshot or leaves the exchange untouched.
  std::uint64_t rounds = 0;
  std::uint64_t logical = 0;
  std::vector<double> background_loads;
  std::vector<double> cluster_loads;
  VdxBrokerAgent::Saved broker;
  std::vector<std::vector<cdn::BiddingStrategy::SavedEntry>> strategy_entries;
  std::vector<VdxCdnAgent::Saved> agent_saved;
  bool has_injector = false;
  proto::FaultInjector::Saved injector_saved;
  try {
    {
      proto::ByteReader in{core_section->bytes};
      rounds = in.read_u64();
      logical = in.read_u64();
      background_loads = read_f64_vector(in);
      cluster_loads = read_f64_vector(in);
    }
    {
      proto::ByteReader in{broker_section->bytes};
      const std::size_t reputation_count = in.read_count(17);
      broker.reputation.reserve(reputation_count);
      for (std::size_t i = 0; i < reputation_count; ++i) {
        broker::ReputationSystem::State state;
        state.error = in.read_f64();
        state.strikes = static_cast<std::size_t>(in.read_u64());
        state.blacklisted = in.read_u8() != 0;
        broker.reputation.push_back(state);
      }
      broker.optimize_round = in.read_u64();
      broker.has_demand_override = in.read_u8() != 0;
      const std::size_t demand_count = in.read_count(28);
      broker.demand.reserve(demand_count);
      for (std::size_t i = 0; i < demand_count; ++i) {
        const std::uint32_t id = in.read_u32();
        const std::uint32_t city = in.read_u32();
        broker::ClientGroup group{broker::ShareId{id}, geo::CityId{city}, in.read_u32(),
                                  0.0, 0.0};
        group.bitrate_mbps = in.read_f64();
        group.client_count = in.read_f64();
        broker.demand.push_back(group);
      }
      const std::size_t stale_count = in.read_count(52);
      broker.stale_bids.reserve(stale_count);
      for (std::size_t i = 0; i < stale_count; ++i) {
        VdxBrokerAgent::SavedStale stale;
        stale.cdn = in.read_u32();
        stale.share = in.read_u32();
        stale.cluster = in.read_u32();
        stale.bid = read_bid(in);
        stale.round = in.read_u64();
        broker.stale_bids.push_back(stale);
      }
    }
    {
      proto::ByteReader in{strategy_section->bytes};
      const std::size_t strategy_count = in.read_count(8);
      strategy_entries.reserve(strategy_count);
      for (std::size_t s = 0; s < strategy_count; ++s) {
        const std::size_t entry_count = in.read_count(24);
        std::vector<cdn::BiddingStrategy::SavedEntry> entries;
        entries.reserve(entry_count);
        for (std::size_t i = 0; i < entry_count; ++i) {
          cdn::BiddingStrategy::SavedEntry entry;
          entry.key = in.read_u64();
          entry.win_rate = in.read_f64();
          entry.price_multiplier = in.read_f64();
          entries.push_back(entry);
        }
        strategy_entries.push_back(std::move(entries));
      }
    }
    {
      proto::ByteReader in{agent_section->bytes};
      const std::size_t agent_count = in.read_count(26);
      agent_saved.reserve(agent_count);
      for (std::size_t i = 0; i < agent_count; ++i) {
        VdxCdnAgent::Saved saved;
        saved.failed = in.read_u8() != 0;
        saved.fraudulent = in.read_u8() != 0;
        saved.expected_mbps = in.read_f64();
        saved.awarded_mbps = in.read_f64();
        saved.bid_mbps = in.read_f64();
        agent_saved.push_back(saved);
      }
    }
    {
      proto::ByteReader in{injector_section->bytes};
      has_injector = in.read_u8() != 0;
      if (has_injector) {
        const std::size_t link_count = in.read_count(44);
        injector_saved.links.reserve(link_count);
        for (std::size_t i = 0; i < link_count; ++i) {
          proto::FaultInjector::Saved::Link link;
          for (std::uint64_t& word : link.rng.state) word = in.read_u64();
          link.rng.spare_normal = in.read_f64();
          link.rng.has_spare = in.read_u8() != 0;
          link.burst = in.read_u8() != 0;
          link.initialized = in.read_u8() != 0;
          injector_saved.links.push_back(link);
        }
        injector_saved.counters.frames = static_cast<std::size_t>(in.read_u64());
        injector_saved.counters.delivered = static_cast<std::size_t>(in.read_u64());
        injector_saved.counters.dropped = static_cast<std::size_t>(in.read_u64());
        injector_saved.counters.duplicated = static_cast<std::size_t>(in.read_u64());
        injector_saved.counters.delayed = static_cast<std::size_t>(in.read_u64());
        injector_saved.counters.truncated = static_cast<std::size_t>(in.read_u64());
        injector_saved.counters.corrupted = static_cast<std::size_t>(in.read_u64());
      }
    }
  } catch (const proto::WireError& error) {
    return corrupt(std::string{"exchange snapshot section: "} + error.what());
  }

  // Cross-check against this exchange's configuration before mutating
  // anything: a snapshot from a different scenario or transport must not be
  // half-applied.
  if (strategy_entries.size() != strategies_.size() ||
      agent_saved.size() != cdn_agents_.size()) {
    return invalid("exchange snapshot CDN count does not match this catalog");
  }
  const std::size_t clusters = scenario_.catalog().clusters().size();
  if (background_loads.size() != clusters ||
      (!cluster_loads.empty() && cluster_loads.size() != clusters)) {
    return invalid("exchange snapshot cluster arity does not match this catalog");
  }
  if (has_injector != (injector_ != nullptr)) {
    return invalid("exchange snapshot transport kind (chaos vs perfect) mismatch");
  }
  // The broker validates the reputation arity itself; it applies first so a
  // rejection leaves every other component untouched too.
  if (core::Status broker_status = broker_agent_->restore_state(std::move(broker));
      !broker_status.ok()) {
    return broker_status;
  }

  rounds_completed_ = static_cast<std::size_t>(rounds);
  if (obs_.tracer != nullptr) obs_.tracer->set_logical(logical);
  background_loads_ = std::move(background_loads);
  last_cluster_loads_ = std::move(cluster_loads);
  for (std::size_t i = 0; i < strategies_.size(); ++i) {
    strategies_[i]->restore_state(strategy_entries[i]);
  }
  for (std::size_t i = 0; i < cdn_agents_.size(); ++i) {
    cdn_agents_[i]->restore_state(agent_saved[i]);
    cdn_agents_[i]->set_background_loads(background_loads_);
  }
  if (injector_ != nullptr) injector_->restore(injector_saved);
  return core::ok_status();
}

}  // namespace vdx::market
