// Shared oracle for the session-fed exchange suite (DESIGN.md §14).
//
// The suite rests on one shape: stream the same session deltas into a
// book-fed exchange and, through HeldSessions, into a monolithic
// VdxExchange fed broker::group_sessions of the live set each round, then
// byte-compare every deterministic surface the exchanges expose: the
// per-round RoundReports, the settled placements, the journal JSONL, and
// the metrics JSONL. Anything short of exact equality is a bug — both feeds
// settle on the same VdxExchange machinery, so the outputs are the
// monolith's by construction.
#pragma once

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "broker/grouping.hpp"
#include "market/exchange.hpp"
#include "market/shard.hpp"
#include "obs/journal.hpp"
#include "obs/metrics.hpp"
#include "sim/designs.hpp"
#include "sim/scenario.hpp"
#include "state/checkpoint.hpp"

namespace vdx::market::shard_test {

/// What a book-fed exchange resumes from: its save_state() image and its
/// book (the pair a daemon checkpoint stores).
struct SavedExchange {
  std::vector<std::uint8_t> image;
  std::vector<state::ActiveSession> book;

  friend bool operator==(const SavedExchange&, const SavedExchange&) = default;
};

inline SavedExchange save(const VdxExchange& exchange) {
  return {exchange.save_state(), exchange.book_cursor().active};
}

inline core::Status restore(VdxExchange& exchange, const SavedExchange& saved) {
  return exchange.restore_state(saved.image, saved.book);
}

/// Deterministic surfaces of one run.
struct RunCapture {
  std::vector<RoundReport> reports;
  std::vector<sim::Placement> placements;  // final round's settled placements
  std::string journal_jsonl;
  std::string metrics_jsonl;
};

/// Reports, placements, journal and metrics of a finished run.
inline RunCapture capture_of(const VdxExchange& exchange,
                             std::vector<RoundReport> reports,
                             const obs::RunJournal& journal,
                             const obs::MetricsRegistry& metrics) {
  RunCapture capture;
  capture.reports = std::move(reports);
  const auto placed = exchange.placements();
  capture.placements.assign(placed.begin(), placed.end());
  std::ostringstream journal_out;
  journal.write_jsonl(journal_out);
  capture.journal_jsonl = journal_out.str();
  std::ostringstream metrics_out;
  metrics.write_jsonl(metrics_out);
  capture.metrics_jsonl = metrics_out.str();
  return capture;
}

/// The monolith's view of a session-fed run: the test holds the live
/// sessions itself and regroups them with broker::group_sessions each
/// round — the oracle for VdxExchange::push_session_delta.
struct HeldSessions {
  std::vector<trace::Session> live;

  /// Adds before removes, like push_session_delta.
  void apply(std::span<const SessionAdd> adds, std::span<const std::uint32_t> removes) {
    for (const SessionAdd& add : adds) {
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

/// One push_session_delta batch: adds, then removes.
using Delta = std::pair<std::vector<SessionAdd>, std::vector<std::uint32_t>>;

/// Every surface of a monolith fed broker::group_sessions of the live set
/// after each of the deltas delta_of(0) .. delta_of(rounds - 1), priced
/// against the scenario's placed background load.
template <typename DeltaOf>
RunCapture run_monolith(const sim::Scenario& scenario, DeltaOf delta_of,
                        std::size_t rounds) {
  obs::MetricsRegistry metrics;
  obs::RunJournal journal;
  ExchangeConfig config;
  config.obs = obs::Observer{&metrics, nullptr, &journal};
  VdxExchange mono{scenario, config};
  const std::vector<double> background = sim::place_background(scenario);
  HeldSessions held;
  std::vector<RoundReport> reports;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto [adds, removes] = delta_of(r);
    held.apply(adds, removes);
    mono.set_active_load(held.groups(), background);
    reports.push_back(mono.run_round());
  }
  return capture_of(mono, std::move(reports), journal, metrics);
}

/// The same deltas pushed through the ShardedExchange forwarding shim (what
/// the session-fed benchmark drives) built with `config`.
template <typename DeltaOf>
RunCapture run_session_fed(const sim::Scenario& scenario, DeltaOf delta_of,
                           std::size_t rounds, ShardedConfig config = {}) {
  obs::MetricsRegistry metrics;
  obs::RunJournal journal;
  config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
  ShardedExchange exchange{scenario, config};
  std::vector<RoundReport> reports;
  for (std::size_t r = 0; r < rounds; ++r) {
    const auto [adds, removes] = delta_of(r);
    EXPECT_TRUE(exchange.push_session_delta(adds, removes).ok()) << "round " << r;
    reports.push_back(exchange.run_round());
  }
  return capture_of(exchange.settlement(), std::move(reports), journal, metrics);
}

/// Exact (bitwise, for doubles) equality of every captured surface.
inline void expect_identical(const RunCapture& mono, const RunCapture& fed,
                             const std::string& context) {
  ASSERT_EQ(mono.reports.size(), fed.reports.size()) << context;
  for (std::size_t r = 0; r < mono.reports.size(); ++r) {
    const RoundReport& a = mono.reports[r];
    const RoundReport& b = fed.reports[r];
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
  ASSERT_EQ(mono.placements.size(), fed.placements.size()) << context;
  for (std::size_t i = 0; i < mono.placements.size(); ++i) {
    const sim::Placement& a = mono.placements[i];
    const sim::Placement& b = fed.placements[i];
    const std::string at = context + " placement " + std::to_string(i);
    EXPECT_EQ(a.group, b.group) << at;
    EXPECT_EQ(a.cluster.value(), b.cluster.value()) << at;
    EXPECT_EQ(a.clients, b.clients) << at;
    EXPECT_EQ(a.price, b.price) << at;
    EXPECT_EQ(a.score, b.score) << at;
  }
  EXPECT_EQ(mono.journal_jsonl, fed.journal_jsonl) << context;
  EXPECT_EQ(mono.metrics_jsonl, fed.metrics_jsonl) << context;
}

}  // namespace vdx::market::shard_test
