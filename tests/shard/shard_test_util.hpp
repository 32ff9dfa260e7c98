// Shared driver for the sharded-exchange differential suite (DESIGN.md §14).
//
// The whole suite rests on one shape: build a per-round demand SCRIPT (a
// pure value — groups, budget changes, CDN failure toggles), replay it
// identically through a monolithic VdxExchange and a ShardedExchange, and
// byte-compare every deterministic surface the exchanges expose: the
// per-round RoundReports, the settled placements, the journal JSONL, and
// the metrics JSONL. Anything short of exact equality is a bug — the
// sharded topology promises byte-identity by construction.
#pragma once

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "broker/grouping.hpp"
#include "market/exchange.hpp"
#include "market/shard.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/designs.hpp"
#include "sim/scenario.hpp"
#include "sim/stress.hpp"

namespace vdx::market::shard_test {

/// One scripted settlement round. `groups` is always pushed (the daemon
/// idiom: set_active_load every round); budget/fail fire before the push.
struct RoundAction {
  std::vector<broker::ClientGroup> groups;
  /// set_demand_budget(*budget) this round (admission-control window edges).
  std::optional<double> budget;
  /// set_failed(cdn::CdnId{1}, *fail) this round (blackout window edges).
  std::optional<bool> fail;
};

/// Deterministic surfaces of one scripted run.
struct RunCapture {
  std::vector<RoundReport> reports;
  std::vector<sim::Placement> placements;  // final round's settled placements
  std::string journal_jsonl;
  std::string metrics_jsonl;
};

/// Replays `script` through either exchange type (both expose the same
/// demand/budget/failure knobs; only set_failed is outside the frontend
/// interface, hence the template).
template <typename Exchange>
RunCapture drive(Exchange& exchange, const std::vector<RoundAction>& script,
                 std::span<const double> background, const obs::RunJournal& journal,
                 const obs::MetricsRegistry& metrics) {
  RunCapture capture;
  for (const RoundAction& action : script) {
    if (action.fail.has_value()) exchange.set_failed(cdn::CdnId{1}, *action.fail);
    if (action.budget.has_value()) exchange.set_demand_budget(*action.budget);
    exchange.set_active_load(action.groups, background);
    capture.reports.push_back(exchange.run_round());
  }
  if constexpr (std::is_same_v<Exchange, ShardedExchange>) {
    const auto placed = exchange.settlement().placements();
    capture.placements.assign(placed.begin(), placed.end());
  } else {
    const auto placed = exchange.placements();
    capture.placements.assign(placed.begin(), placed.end());
  }
  std::ostringstream journal_out;
  journal.write_jsonl(journal_out);
  capture.journal_jsonl = journal_out.str();
  std::ostringstream metrics_out;
  metrics.write_jsonl(metrics_out);
  capture.metrics_jsonl = metrics_out.str();
  return capture;
}

/// Builds the per-round demand script for one stress scenario: the
/// scenario's broker groups reshaped by the profile's demand modulators
/// (flash-crowd trapezoid, diurnal sinusoid), with the supply-side events
/// expressed through the exchange-facing knobs — a blackout window fails a
/// CDN, a price-shock window clamps the admission budget (the menu cache is
/// fixed for an exchange's lifetime, so catalog-level supply mutation is a
/// timeline concern; at the exchange boundary these are the supply events).
inline std::vector<RoundAction> make_script(const sim::Scenario& scenario,
                                            sim::StressScenario kind,
                                            std::size_t rounds) {
  constexpr double kEpochS = 600.0;
  const double horizon_s = static_cast<double>(rounds) * kEpochS;
  sim::StressConfig config;
  config.scenario = kind;
  config.spike_factor = 12.0;  // big enough to reshape, small enough to settle
  const sim::StressProfile profile =
      make_stress_profile(scenario.world(), config, horizon_s);

  const auto base = scenario.broker_groups();
  double base_demand_mbps = 0.0;
  for (const broker::ClientGroup& group : base) {
    base_demand_mbps += group.demand_mbps();
  }

  const auto in_any = [](double t, const auto& windows) {
    for (const auto& w : windows) {
      if (t >= w.start_s && t < w.end_s) return true;
    }
    return false;
  };

  std::vector<RoundAction> script(rounds);
  bool budget_on = false;
  bool fail_on = false;
  for (std::size_t r = 0; r < rounds; ++r) {
    const double t = (static_cast<double>(r) + 0.5) * kEpochS;
    RoundAction& action = script[r];
    const double diurnal = profile.demand.diurnal_multiplier(t);
    action.groups.assign(base.begin(), base.end());
    for (broker::ClientGroup& group : action.groups) {
      group.client_count *=
          diurnal * profile.demand.city_boost(group.city.value(), t);
    }
    const bool shock = in_any(t, profile.price_shocks);
    if (shock != budget_on) {
      action.budget = shock ? 0.6 * base_demand_mbps : 0.0;
      budget_on = shock;
    }
    const bool dark = in_any(t, profile.blackouts);
    if (dark != fail_on) {
      action.fail = dark;
      fail_on = dark;
    }
  }
  return script;
}

/// The monolith's view of a session-fed run: the test holds the live
/// sessions itself and regroups them with broker::group_sessions each
/// round — the oracle for ShardedExchange::push_session_delta.
struct HeldSessions {
  std::vector<trace::Session> live;

  /// Adds before removes, like push_session_delta.
  void apply(std::span<const proto::ShardSessionAdd> adds,
             std::span<const std::uint32_t> removes) {
    for (const proto::ShardSessionAdd& add : adds) {
      trace::Session s;
      s.id = trace::SessionId{add.id};
      s.city = geo::CityId{add.city};
      s.bitrate_mbps = add.bitrate_mbps;
      live.push_back(s);
    }
    const std::set<std::uint32_t> gone(removes.begin(), removes.end());
    std::erase_if(live, [&](const trace::Session& s) {
      return gone.contains(s.id.value());
    });
  }

  [[nodiscard]] std::vector<broker::ClientGroup> groups() const {
    return broker::group_sessions(live);
  }
};

/// Exact (bitwise, for doubles) equality of every captured surface.
inline void expect_identical(const RunCapture& mono, const RunCapture& sharded,
                             const std::string& context) {
  ASSERT_EQ(mono.reports.size(), sharded.reports.size()) << context;
  for (std::size_t r = 0; r < mono.reports.size(); ++r) {
    const RoundReport& a = mono.reports[r];
    const RoundReport& b = sharded.reports[r];
    const std::string at = context + " round " + std::to_string(r);
    EXPECT_EQ(a.round, b.round) << at;
    EXPECT_EQ(a.wire.shares_sent, b.wire.shares_sent) << at;
    EXPECT_EQ(a.wire.bids_received, b.wire.bids_received) << at;
    EXPECT_EQ(a.wire.accepts_sent, b.wire.accepts_sent) << at;
    EXPECT_EQ(a.wire.bytes_on_wire, b.wire.bytes_on_wire) << at;
    EXPECT_EQ(a.mean_score, b.mean_score) << at;
    EXPECT_EQ(a.mean_cost, b.mean_cost) << at;
    EXPECT_EQ(a.congested_fraction, b.congested_fraction) << at;
    EXPECT_EQ(a.shed_mbps, b.shed_mbps) << at;
    EXPECT_EQ(a.shed_clients, b.shed_clients) << at;
    EXPECT_EQ(a.shed_groups, b.shed_groups) << at;
    EXPECT_EQ(a.mean_prediction_error, b.mean_prediction_error) << at;
    EXPECT_EQ(a.awarded_mbps, b.awarded_mbps) << at;
    EXPECT_EQ(a.degraded, b.degraded) << at;
    EXPECT_EQ(a.quorum_met, b.quorum_met) << at;
    EXPECT_EQ(a.stale_bids_used, b.stale_bids_used) << at;
    EXPECT_EQ(a.stale_bid_share, b.stale_bid_share) << at;
  }
  ASSERT_EQ(mono.placements.size(), sharded.placements.size()) << context;
  for (std::size_t i = 0; i < mono.placements.size(); ++i) {
    const sim::Placement& a = mono.placements[i];
    const sim::Placement& b = sharded.placements[i];
    const std::string at = context + " placement " + std::to_string(i);
    EXPECT_EQ(a.group, b.group) << at;
    EXPECT_EQ(a.cluster.value(), b.cluster.value()) << at;
    EXPECT_EQ(a.clients, b.clients) << at;
    EXPECT_EQ(a.price, b.price) << at;
    EXPECT_EQ(a.score, b.score) << at;
  }
  EXPECT_EQ(mono.journal_jsonl, sharded.journal_jsonl) << context;
  EXPECT_EQ(mono.metrics_jsonl, sharded.metrics_jsonl) << context;
}

}  // namespace vdx::market::shard_test
