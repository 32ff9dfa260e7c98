// Reference timeline: a deliberately naive, from-scratch replay of a
// scenario's traces that the timeline engine's equivalence and property
// suites diff sim::StreamingTimeline against (DESIGN.md §9). Test-only.
//
// Nothing incremental survives an epoch here. At every epoch midpoint the
// oracle rescans both materialized traces with Session::active_at, regroups
// them with broker::group_sessions, re-places the background, and runs the
// design round over *uncached* menus (RunConfig::menus = nullptr — DESIGN.md
// §8 makes them byte-identical to the engine's per-run cache, so a match also
// witnesses the cache). Sessions reach their groups through the oracle's own
// (city, kbps) map and its own quota fill. The only code shared with the
// engine is the round itself (run_design_over), the metrics
// (compute_metrics_over) and the churn bookkeeping (detail::ChurnTracker):
// the engine's arrival cursor, departure heap, SessionStore groups and
// assignment, background-reuse rule and menu caches are all checked against
// a rescan that has none of them.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "broker/grouping.hpp"
#include "sim/designs.hpp"
#include "sim/metrics.hpp"
#include "sim/streaming.hpp"
#include "sim/timeline_detail.hpp"

namespace vdx::test {

namespace reference_detail {

/// Sessions of `trace` active at time t (half-open [arrival, end)).
inline std::vector<trace::Session> active_at(const trace::BrokerTrace& trace,
                                             double t) {
  std::vector<trace::Session> out;
  for (const trace::Session& s : trace.sessions()) {
    if (s.active_at(t)) out.push_back(s);
  }
  return out;
}

/// Spreads each group's placements (cluster order) over its sessions (id
/// order): placement i takes the next round(clients_i + carry) sessions, the
/// last placement takes whatever remains. Returns id-ascending pairs.
inline sim::detail::Assignment assign(const std::vector<trace::Session>& sessions,
                                      const std::vector<broker::ClientGroup>& groups,
                                      const sim::DesignOutcome& outcome) {
  std::map<std::pair<std::uint32_t, std::int64_t>, std::size_t> group_of;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    group_of[{groups[g].city.value(), std::llround(groups[g].bitrate_mbps * 1000.0)}] = g;
  }
  std::vector<std::vector<std::uint32_t>> members(groups.size());
  for (const trace::Session& s : sessions) {
    const auto it =
        group_of.find({s.city.value(), std::llround(s.bitrate_mbps * 1000.0)});
    if (it != group_of.end()) members[it->second].push_back(s.id.value());
  }

  sim::detail::Assignment assignment;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    std::vector<const sim::Placement*> won;
    for (const sim::Placement& p : outcome.placements) {
      if (p.group == g) won.push_back(&p);
    }
    if (won.empty()) continue;
    std::sort(won.begin(), won.end(),
              [](const sim::Placement* a, const sim::Placement* b) {
                return a->cluster < b->cluster;
              });
    std::vector<std::uint32_t>& ids = members[g];
    std::sort(ids.begin(), ids.end());
    std::size_t next = 0;
    double carry = 0.0;
    for (std::size_t i = 0; i < won.size(); ++i) {
      const double quota = won[i]->clients + carry;
      std::size_t take = static_cast<std::size_t>(std::llround(quota));
      carry = quota - static_cast<double>(take);
      if (i + 1 == won.size()) take = ids.size() - next;
      for (std::size_t k = 0; k < take && next < ids.size(); ++k, ++next) {
        assignment.emplace_back(ids[next], won[i]->cluster);
      }
    }
  }
  std::sort(assignment.begin(), assignment.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return assignment;
}

}  // namespace reference_detail

/// Replays the scenario's materialized traces epoch by epoch from scratch.
/// Reads design, run (threads, weights, menu knobs) and epoch_s from
/// `config`; stream-mechanics fields (batch_sessions) have no meaning here,
/// and checkpoint, overload and stress policies are not modelled.
inline sim::TimelineResult reference_timeline(const sim::Scenario& scenario,
                                              const sim::StreamingConfig& config) {
  sim::TimelineResult result;
  const auto epochs = static_cast<std::size_t>(
      std::ceil(scenario.broker_trace().duration_s() / config.epoch_s));
  sim::detail::ChurnTracker churn;
  for (std::size_t e = 0; e < epochs; ++e) {
    const double mid = (static_cast<double>(e) + 0.5) * config.epoch_s;
    const std::vector<trace::Session> broker_sessions =
        reference_detail::active_at(scenario.broker_trace(), mid);
    if (broker_sessions.empty()) continue;
    const std::vector<trace::Session> background_sessions =
        reference_detail::active_at(scenario.background_trace(), mid);

    const std::vector<broker::ClientGroup> groups =
        broker::group_sessions(broker_sessions);
    const std::vector<double> background_loads =
        sim::place_background_over(scenario, broker::group_sessions(background_sessions));

    sim::RunConfig run = config.run;
    run.menus = nullptr;
    run.qoe_epoch = e + 1;
    const sim::DesignOutcome outcome =
        sim::run_design_over(scenario, config.design, run, groups, background_loads);

    sim::detail::Assignment assignment =
        reference_detail::assign(broker_sessions, groups, outcome);
    sim::EpochReport report;
    report.epoch = e;
    report.time_s = mid;
    report.active_sessions = broker_sessions.size();
    report.assigned_sessions = assignment.size();
    report.metrics = sim::compute_metrics_over(scenario, outcome, groups);
    churn.observe(scenario.catalog(), std::move(assignment), report);
    result.epochs.push_back(std::move(report));
  }
  result.mean_cdn_switch_fraction = churn.mean_cdn_switch_fraction();
  return result;
}

}  // namespace vdx::test
