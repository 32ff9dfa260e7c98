#include "market/agents.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cdn/menu_cache.hpp"

namespace vdx::market {

namespace {

std::uint64_t bid_key(std::uint32_t share, std::uint32_t cluster) noexcept {
  return (static_cast<std::uint64_t>(share) << 32) | cluster;
}

}  // namespace

VdxCdnAgent::VdxCdnAgent(const sim::Scenario& scenario, cdn::CdnId cdn,
                         cdn::BiddingStrategy& strategy,
                         std::span<const double> background_loads,
                         const cdn::CandidateMenuCache& menus)
    : scenario_(scenario),
      cdn_(cdn),
      strategy_(strategy),
      background_loads_(background_loads.begin(), background_loads.end()),
      menus_(menus) {
  if (background_loads_.size() != scenario.catalog().clusters().size()) {
    throw std::invalid_argument{"VdxCdnAgent: background loads arity mismatch"};
  }
}

void VdxCdnAgent::set_background_loads(std::span<const double> background_loads) {
  if (background_loads.size() != scenario_.catalog().clusters().size()) {
    throw std::invalid_argument{"VdxCdnAgent: background loads arity mismatch"};
  }
  background_loads_.assign(background_loads.begin(), background_loads.end());
}

void VdxCdnAgent::handle_share(std::span<const proto::ShareMessage> shares) {
  shares_.assign(shares.begin(), shares.end());
  city_of_share_.clear();
  for (const proto::ShareMessage& share : shares) {
    city_of_share_.emplace(share.share_id, geo::CityId{share.location});
  }
}

std::vector<proto::BidMessage> VdxCdnAgent::announce() {
  committed_.clear();
  expected_mbps_ = 0.0;
  bid_mbps_ = 0.0;
  if (failed_) return {};  // §6.3: a failed CDN simply goes silent

  std::vector<proto::BidMessage> bids;
  bids.reserve(shares_.size() * menus_.config().max_candidates);
  cdn::SweepBuffer sweep;
  for (const proto::ShareMessage& share : shares_) {
    const geo::CityId city{share.location};
    const cdn::MenuLanes lanes = menus_.lanes(cdn_, city);
    // Spare capacity for the whole menu in one strided sweep; prices are
    // shaded per candidate afterwards (the multiplier varies per cluster).
    cdn::score_sweep(lanes, 1.0, background_loads_, sweep);
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const cdn::ClusterId cluster{lanes.cluster[i]};
      const cdn::BidShading shading = strategy_.shade(city, cluster);

      proto::BidMessage bid;
      bid.cluster_id = lanes.cluster[i];
      bid.share_id = share.share_id;
      bid.cdn_id = cdn_.value();
      bid.performance_estimate = lanes.score[i];
      bid.capacity_mbps = sweep.spare[i] * shading.capacity_fraction;
      bid.price = lanes.unit_cost[i] * shading.price_multiplier;
      if (fraudulent_) {
        // §6.3 fraud: claim stellar performance at a knock-down price.
        bid.performance_estimate = lanes.score[i] * 0.25;
        bid.price = lanes.unit_cost[i] * 0.5;
      }
      if (bid.capacity_mbps <= 0.0) continue;

      committed_.emplace(bid_key(bid.share_id, bid.cluster_id), bid.capacity_mbps);
      expected_mbps_ +=
          strategy_.expected_win(city, cluster, bid.capacity_mbps);
      bid_mbps_ += bid.capacity_mbps;
      bids.push_back(bid);
    }
  }
  return bids;
}

void VdxCdnAgent::handle_accept(std::span<const proto::AcceptMessage> accepts) {
  awarded_mbps_ = 0.0;
  for (const proto::AcceptMessage& accept : accepts) {
    if (accept.cdn_id != cdn_.value()) continue;
    const auto committed = committed_.find(bid_key(accept.share_id, accept.cluster_id));
    if (committed == committed_.end()) continue;  // not one of ours this round
    const auto city = city_of_share_.find(accept.share_id);
    if (city == city_of_share_.end()) continue;
    strategy_.record_outcome(city->second, cdn::ClusterId{accept.cluster_id},
                             committed->second, accept.awarded_mbps);
    awarded_mbps_ += accept.awarded_mbps;
  }
}

VdxBrokerAgent::VdxBrokerAgent(const sim::Scenario& scenario, BrokerAgentConfig config)
    : scenario_(scenario),
      config_(config),
      reputation_(scenario.catalog().cdns().size()) {}

void VdxBrokerAgent::set_demand(std::vector<broker::ClientGroup> groups) {
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (groups[g].id.value() != g) {
      throw std::invalid_argument{"set_demand: group ids must be dense and in order"};
    }
  }
  demand_ = std::move(groups);
}

VdxBrokerAgent::Saved VdxBrokerAgent::save_state() const {
  Saved saved;
  saved.reputation = reputation_.save();
  saved.optimize_round = optimize_round_;
  saved.has_demand_override = demand_.has_value();
  if (demand_) saved.demand = *demand_;
  saved.stale_bids.reserve(stale_cache_.size());
  for (const auto& [key, entry] : stale_cache_) {  // std::map: key-ascending
    saved.stale_bids.push_back(
        SavedStale{key[0], key[1], key[2], entry.bid, entry.round});
  }
  return saved;
}

core::Status VdxBrokerAgent::restore_state(Saved saved) {
  auto reputation = reputation_.restore(std::move(saved.reputation));
  if (!reputation.ok()) return reputation;
  optimize_round_ = static_cast<std::size_t>(saved.optimize_round);
  if (saved.has_demand_override) {
    demand_ = std::move(saved.demand);
  } else {
    demand_.reset();
  }
  stale_cache_.clear();
  for (SavedStale& stale : saved.stale_bids) {
    stale_cache_.emplace(StaleKey{stale.cdn, stale.share, stale.cluster},
                         StaleEntry{stale.bid, static_cast<std::size_t>(stale.round)});
  }
  return core::ok_status();
}

std::vector<proto::ShareMessage> VdxBrokerAgent::gather() {
  std::vector<proto::ShareMessage> shares;
  shares.reserve(demand().size());
  for (const broker::ClientGroup& group : demand()) {
    proto::ShareMessage share;
    share.share_id = group.id.value();
    share.location = group.city.value();
    share.isp = group.isp;
    share.content_id = 0;  // aggregated across videos
    share.data_size_mbps = group.bitrate_mbps;
    share.client_count = static_cast<std::uint32_t>(std::llround(group.client_count));
    shares.push_back(share);
  }
  return shares;
}

std::vector<proto::AcceptMessage> VdxBrokerAgent::optimize(
    std::span<const proto::BidMessage> bids) {
  const auto groups = demand();

  ++optimize_round_;
  stale_substituted_ = 0;
  stale_cdns_ = 0;
  stale_awarded_ = 0.0;
  total_awarded_ = 0.0;

  // Distinct CDNs that delivered fresh bids this round (quorum accounting).
  std::vector<std::uint32_t> fresh_ids;
  fresh_ids.reserve(bids.size());
  for (const proto::BidMessage& bid : bids) fresh_ids.push_back(bid.cdn_id);
  std::sort(fresh_ids.begin(), fresh_ids.end());
  fresh_cdns_ = static_cast<std::size_t>(
      std::unique(fresh_ids.begin(), fresh_ids.end()) - fresh_ids.begin());

  // Working bid set = fresh bids, plus (in degraded rounds) stale cache
  // substitutes for pairs whose refresh never arrived. `announced` keeps the
  // pre-discount performance estimates so staleness never reads as fraud.
  std::vector<proto::BidMessage> working(bids.begin(), bids.end());
  const std::size_t fresh_count = working.size();
  std::vector<double> announced;
  announced.reserve(working.size());
  for (const proto::BidMessage& bid : bids) announced.push_back(bid.performance_estimate);

  if (config_.enable_stale_bids) {
    std::vector<StaleKey> fresh_keys;
    fresh_keys.reserve(bids.size());
    for (const proto::BidMessage& bid : bids) {
      fresh_keys.push_back(StaleKey{bid.cdn_id, bid.share_id, bid.cluster_id});
    }
    std::sort(fresh_keys.begin(), fresh_keys.end());

    std::vector<std::uint32_t> stale_ids;
    for (auto it = stale_cache_.begin(); it != stale_cache_.end();) {
      const std::size_t age = optimize_round_ - it->second.round;
      if (age > config_.stale_ttl_rounds) {
        it = stale_cache_.erase(it);
        continue;
      }
      if (!std::binary_search(fresh_keys.begin(), fresh_keys.end(), it->first)) {
        const cdn::CdnId cdn{it->second.bid.cdn_id};
        const bool tracked = cdn.valid() && cdn.value() < reputation_.size();
        const bool banned =
            config_.enable_reputation && tracked && reputation_.is_blacklisted(cdn);
        if (!banned) {
          proto::BidMessage stale = it->second.bid;
          announced.push_back(stale.performance_estimate);
          stale.performance_estimate *=
              tracked ? reputation_.stale_multiplier(cdn)
                      : reputation_.config().stale_bid_discount;
          stale.capacity_mbps *= config_.stale_capacity_fraction;
          working.push_back(stale);
          ++stale_substituted_;
          stale_ids.push_back(stale.cdn_id);
        }
      }
      ++it;
    }
    std::sort(stale_ids.begin(), stale_ids.end());
    stale_cdns_ = static_cast<std::size_t>(
        std::unique(stale_ids.begin(), stale_ids.end()) - stale_ids.begin());

    for (const proto::BidMessage& bid : bids) {
      stale_cache_[StaleKey{bid.cdn_id, bid.share_id, bid.cluster_id}] =
          StaleEntry{bid, optimize_round_};
    }
  }

  // Total blackout: every Bid was lost and the stale cache has nothing to
  // substitute. The round completes with an empty award set (degraded, no
  // quorum) rather than handing the optimizer an infeasible problem.
  if (working.empty()) {
    placements_.clear();
    awarded_by_cdn_.assign(scenario_.catalog().cdns().size(), 0.0);
    city_choices_.assign(scenario_.world().cities().size(), CityChoice{});
    return {};
  }

  std::vector<broker::BidView> views;
  views.reserve(working.size());
  for (const proto::BidMessage& bid : working) {
    broker::BidView view;
    view.share = broker::ShareId{bid.share_id};
    view.cdn = cdn::CdnId{bid.cdn_id};
    view.cluster = cdn::ClusterId{bid.cluster_id};
    view.score = bid.performance_estimate;
    view.price = bid.price;
    view.capacity = bid.capacity_mbps;
    views.push_back(view);
  }

  broker::OptimizerConfig optimizer;
  optimizer.weights = config_.weights;
  optimizer.solve = config_.solve;
  optimizer.obs = config_.obs;
  optimizer.allow_unbid_groups = config_.allow_unbid_groups;
  if (config_.enable_reputation) optimizer.reputation = &reputation_;
  const broker::OptimizeResult result = broker::optimize(groups, views, optimizer);

  // Awarded traffic per bid.
  std::vector<double> awarded(working.size(), 0.0);
  placements_.clear();
  awarded_by_cdn_.assign(scenario_.catalog().cdns().size(), 0.0);
  city_choices_.assign(scenario_.world().cities().size(), CityChoice{});
  for (const broker::Allocation& allocation : result.allocations) {
    const broker::BidView& view = views[allocation.bid_index];
    const broker::ClientGroup& group = groups[view.share.value()];
    const double mbps = allocation.clients * group.bitrate_mbps;
    awarded[allocation.bid_index] += mbps;
    total_awarded_ += mbps;
    if (allocation.bid_index >= fresh_count) stale_awarded_ += mbps;
    if (view.cdn.valid() && view.cdn.value() < awarded_by_cdn_.size()) {
      awarded_by_cdn_[view.cdn.value()] += mbps;
    }

    sim::Placement placement;
    placement.group = view.share.value();
    placement.cluster = view.cluster;
    placement.clients = allocation.clients;
    placement.price = view.price;
    placement.score = scenario_.mapping().score(group.city, view.cluster.value());
    placements_.push_back(placement);

    CityChoice& choice = city_choices_[group.city.value()];
    choice.weighted_clusters.emplace_back(view.cluster, allocation.clients);
    choice.total += allocation.clients;

    // Reputation: compare the announced performance against the measured
    // truth for traffic we actually observed (the broker's client-side QoE).
    if (config_.enable_reputation) {
      reputation_.record(view.cdn, announced[allocation.bid_index], placement.score);
    }
  }

  std::vector<proto::AcceptMessage> accepts;
  accepts.reserve(working.size());
  for (std::size_t i = 0; i < working.size(); ++i) {
    proto::AcceptMessage accept;
    accept.cluster_id = working[i].cluster_id;
    accept.share_id = working[i].share_id;
    accept.performance_estimate = working[i].performance_estimate;
    accept.capacity_mbps = working[i].capacity_mbps;
    accept.price = working[i].price;
    accept.cdn_id = working[i].cdn_id;
    accept.awarded_mbps = awarded[i];
    accepts.push_back(accept);
  }
  return accepts;
}

proto::ResultMessage VdxBrokerAgent::resolve(const proto::QueryMessage& query) {
  proto::ResultMessage result;
  result.session_id = query.session_id;
  if (query.location >= city_choices_.size() ||
      city_choices_[query.location].total <= 0.0) {
    // No decision for this city (no clients in the optimization round):
    // fail gracefully to an invalid cluster; CP software falls back (§6.3).
    result.cdn_id = cdn::CdnId::invalid_value;
    result.cluster_id = cdn::ClusterId::invalid_value;
    return result;
  }
  // Weighted round-robin across the city's winning clusters, so repeated
  // queries approximate the optimizer's split.
  CityChoice& choice = city_choices_[query.location];
  double cursor = std::fmod(choice.cursor, choice.total);
  choice.cursor += 1.0;
  for (const auto& [cluster, weight] : choice.weighted_clusters) {
    if (cursor < weight) {
      result.cluster_id = cluster.value();
      result.cdn_id = scenario_.catalog().cluster(cluster).cdn.value();
      return result;
    }
    cursor -= weight;
  }
  const auto& last = choice.weighted_clusters.back();
  result.cluster_id = last.first.value();
  result.cdn_id = scenario_.catalog().cluster(last.first).cdn.value();
  return result;
}

proto::ResultMessage VdxBrokerAgent::resolve_excluding(const proto::QueryMessage& query,
                                                       std::uint32_t dark_cluster) {
  proto::ResultMessage result;
  result.session_id = query.session_id;
  result.cdn_id = cdn::CdnId::invalid_value;
  result.cluster_id = cdn::ClusterId::invalid_value;
  if (query.location >= city_choices_.size()) return result;

  CityChoice& choice = city_choices_[query.location];
  double alive_total = 0.0;
  for (const auto& [cluster, weight] : choice.weighted_clusters) {
    if (cluster.value() != dark_cluster) alive_total += weight;
  }
  if (alive_total <= 0.0) return result;  // every winner is dark: give up

  // Weighted round-robin over the surviving winners, advancing the same
  // cursor as resolve() so re-homed sessions keep approximating the split.
  double cursor = std::fmod(choice.cursor, alive_total);
  choice.cursor += 1.0;
  const std::pair<cdn::ClusterId, double>* fallback = nullptr;
  for (const auto& entry : choice.weighted_clusters) {
    if (entry.first.value() == dark_cluster) continue;
    fallback = &entry;
    if (cursor < entry.second) break;
    cursor -= entry.second;
  }
  result.cluster_id = fallback->first.value();
  result.cdn_id = scenario_.catalog().cluster(fallback->first).cdn.value();
  return result;
}

ClusterService::ClusterService(const sim::Scenario& scenario,
                               std::span<const double> cluster_loads)
    : scenario_(scenario),
      loads_(cluster_loads.begin(), cluster_loads.end()),
      dark_(scenario.catalog().clusters().size(), false) {}

void ClusterService::set_dark(cdn::ClusterId cluster, bool dark) {
  if (cluster.valid() && cluster.value() < dark_.size()) dark_[cluster.value()] = dark;
}

void ClusterService::register_session(std::uint32_t session_id, double bitrate_mbps) {
  session_bitrate_[session_id] = bitrate_mbps;
}

proto::DeliveryMessage ClusterService::serve(const proto::RequestMessage& request) {
  proto::DeliveryMessage delivery;
  delivery.session_id = request.session_id;
  delivery.cluster_id = request.cluster_id;

  const auto bitrate = session_bitrate_.find(request.session_id);
  const double requested = bitrate == session_bitrate_.end() ? 1.0 : bitrate->second;

  if (request.cluster_id >= scenario_.catalog().clusters().size() ||
      dark_[request.cluster_id]) {
    delivery.delivered_mbps = 0.0;  // unknown or dark cluster: delivery fails
    return delivery;
  }
  const cdn::Cluster& cluster =
      scenario_.catalog().cluster(cdn::ClusterId{request.cluster_id});
  const double load = loads_[request.cluster_id];
  // Overloaded clusters fair-share their capacity.
  const double factor =
      cluster.capacity > 0.0 && load > cluster.capacity ? cluster.capacity / load : 1.0;
  delivery.delivered_mbps = requested * factor;
  return delivery;
}

}  // namespace vdx::market
