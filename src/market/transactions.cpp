#include "market/transactions.hpp"

#include <algorithm>
#include <numeric>

#include "cdn/menu_cache.hpp"
#include "sim/designs.hpp"

namespace vdx::market {

TransactionResult run_transactions(const sim::Scenario& scenario,
                                   const TransactionConfig& config) {
  TransactionResult result;

  const auto background = sim::place_background(scenario);

  const cdn::CandidateMenuCache menus{scenario.catalog(), scenario.mapping(),
                                      scenario.world().cities().size(),
                                      config.agent.matching()};

  // Strategies and agents (static: the protocol, not learning, is under
  // test).
  std::vector<std::unique_ptr<cdn::BiddingStrategy>> strategies;
  std::vector<std::unique_ptr<VdxCdnAgent>> agents;
  for (const cdn::Cdn& cdn : scenario.catalog().cdns()) {
    strategies.push_back(cdn::make_static_strategy(cdn.markup));
    agents.push_back(std::make_unique<VdxCdnAgent>(scenario, cdn.id, *strategies.back(),
                                                   background, menus));
  }
  VdxBrokerAgent broker{scenario, config.broker};

  std::vector<bool> withdrawn(agents.size(), false);

  double total_demand = 0.0;
  for (const broker::ClientGroup& g : scenario.broker_groups()) {
    total_demand += g.demand_mbps();
  }

  for (std::size_t round = 0; round < config.max_rounds; ++round) {
    // One Decision-Protocol pass over the remaining CDNs.
    std::vector<proto::CdnParticipant*> participants;
    for (std::size_t i = 0; i < agents.size(); ++i) {
      agents[i]->set_failed(withdrawn[i]);  // a withdrawn CDN goes silent
      participants.push_back(agents[i].get());
    }
    try {
      (void)proto::run_decision_round(broker, participants);
    } catch (const std::invalid_argument&) {
      // Enough CDNs walked away that some clients have no offers left: the
      // transaction collapses with no mapping at all — the paper's
      // "CDNs may never all approve the mapping" in its terminal form.
      result.committed = false;
      result.rounds_used = round + 1;
      break;
    }

    TransactionRound report;
    report.round = round;

    // Mapping quality.
    const auto groups = scenario.broker_groups();
    double clients = 0.0;
    double score_sum = 0.0;
    double cost_sum = 0.0;
    for (const sim::Placement& p : broker.placements()) {
      clients += p.clients;
      score_sum += p.clients * p.score;
      cost_sum += p.clients * scenario.catalog().cluster(p.cluster).unit_cost() *
                  groups[p.group].bitrate_mbps;
    }
    if (clients > 0.0) {
      report.mean_score = score_sum / clients;
      report.mean_cost = cost_sum / clients;
    }

    // Crash drill: the CDN bid and was awarded traffic, but goes dark before
    // answering the commit request. The transaction aborts — the mapping is
    // withdrawn from every CDN (no partial commit), the crashed CDN is
    // removed, and its clients are re-assigned by the next recompute.
    if (config.crash_cdn < agents.size() && round == config.crash_round &&
        !withdrawn[config.crash_cdn]) {
      report.aborted = true;
      withdrawn[config.crash_cdn] = true;
      ++result.aborts;
      result.crashed.push_back(cdn::CdnId{config.crash_cdn});
      result.rounds.push_back(report);
      result.rounds_used = round + 1;
      result.final_mean_score = report.mean_score;
      result.final_mean_cost = report.mean_cost;
      continue;
    }

    // Commit phase: every participating CDN checks its award against its
    // fair share of the demand.
    const std::size_t active =
        agents.size() - static_cast<std::size_t>(
                            std::count(withdrawn.begin(), withdrawn.end(), true));
    const double fair_share =
        active > 0 ? total_demand / static_cast<double>(active) : 0.0;
    for (std::size_t i = 0; i < agents.size(); ++i) {
      if (withdrawn[i]) continue;
      const double bid = agents[i]->bid_mbps();
      const double awarded = agents[i]->awarded_mbps();
      if (bid > 0.0 && awarded < config.veto_threshold * fair_share) {
        report.vetoes.push_back(cdn::CdnId{static_cast<std::uint32_t>(i)});
      }
    }

    result.rounds.push_back(report);
    result.rounds_used = round + 1;
    result.final_mean_score = report.mean_score;
    result.final_mean_cost = report.mean_cost;

    if (result.rounds.back().vetoes.empty()) {
      result.committed = true;
      break;
    }
    // Withdraw the vetoing CDNs and recompute (the paper's "the mapping is
    // withdrawn from all CDNs and a new mapping is computed").
    for (const cdn::CdnId id : result.rounds.back().vetoes) {
      withdrawn[id.value()] = true;
    }
  }

  result.withdrawn_cdns = static_cast<std::size_t>(
      std::count(withdrawn.begin(), withdrawn.end(), true));
  return result;
}

}  // namespace vdx::market
