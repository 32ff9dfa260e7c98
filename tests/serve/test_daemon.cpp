// ServeDaemon acceptance: same-seed byte-identity of every deterministic
// output, backpressure monotonicity under rising offered load, the
// arrival-queue door bound, and hostile live arrivals.
#include "serve/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "serve/codec.hpp"
#include "serve_util.hpp"

namespace vdx::serve {
namespace {

using test::HarnessOptions;
using test::RunOutput;
using test::run_serve;

std::vector<DecisionLine> parse_lines(const std::string& decisions) {
  std::vector<DecisionLine> lines;
  std::istringstream in{decisions};
  std::string line;
  while (std::getline(in, line)) {
    const auto parsed = parse_decision(line);
    EXPECT_TRUE(parsed.ok()) << parsed.error().message << ": " << line;
    if (parsed.ok()) lines.push_back(parsed.value());
  }
  return lines;
}

TEST(ServeDaemon, SameSeedRunsAreByteIdentical) {
  HarnessOptions options;
  options.budget_mbps = 150.0;  // exercise the shed path in the comparison
  const RunOutput first = run_serve(options);
  const RunOutput second = run_serve(options);

  ASSERT_FALSE(first.decisions.empty());
  EXPECT_EQ(first.decisions, second.decisions);
  EXPECT_EQ(first.journal_jsonl, second.journal_jsonl);
  EXPECT_EQ(first.report.decision_rounds, second.report.decision_rounds);
  EXPECT_EQ(first.report.shed_mbps_total, second.report.shed_mbps_total);
  // Wall-clock latency is the one legitimate divergence; the logical-tick
  // ledger inside the decision lines already matched byte-for-byte above.
}

TEST(ServeDaemon, BackpressureIsMonotoneInOfferedLoad) {
  // Calibrate the round budget off an unthrottled baseline: 1.5x its
  // busiest round fits all of 1x under budget and overflows at 2x/4x.
  HarnessOptions options;
  const RunOutput unthrottled = run_serve(options);
  double max_demand = 0.0;
  for (const DecisionLine& line : parse_lines(unthrottled.decisions)) {
    max_demand = std::max(max_demand, line.demand_mbps);
  }
  ASSERT_GT(max_demand, 0.0);
  const double budget = 1.5 * max_demand;

  std::vector<double> sheds;
  for (const std::size_t sessions : {600u, 1200u, 2400u}) {
    HarnessOptions point = options;
    point.sessions = sessions;
    point.budget_mbps = budget;
    const RunOutput run = run_serve(point);
    for (const DecisionLine& line : parse_lines(run.decisions)) {
      // Admission control is a hard bound, not advisory: what the round
      // prices never exceeds the budget.
      EXPECT_LE(line.admitted_mbps, budget + 1e-9);
      EXPECT_NEAR(line.admitted_mbps + line.shed_mbps, line.demand_mbps, 1e-6);
    }
    sheds.push_back(run.report.shed_mbps_total);
  }
  EXPECT_EQ(sheds[0], 0.0);  // at baseline load the budget never binds
  EXPECT_GT(sheds[2], 0.0);  // at 4x it always does
  EXPECT_LE(sheds[0], sheds[1]);
  EXPECT_LE(sheds[1], sheds[2]);
}

TEST(ServeDaemon, QueueCapacityTurnsAwayArrivalsAtTheDoor) {
  HarnessOptions options;
  options.sessions = 1200;
  options.queue_capacity = 40;
  const RunOutput bounded = run_serve(options);

  EXPECT_GT(bounded.report.queue_dropped, 0u);
  EXPECT_LE(bounded.report.peak_active_sessions, 40u);
  const bool journaled_admit = std::any_of(
      bounded.journal.begin(), bounded.journal.end(), [](const obs::Event& e) {
        return e.kind == obs::EventKind::kAdmit;
      });
  EXPECT_TRUE(journaled_admit);

  // The door bound composes with (and precedes) the exchange budget: the
  // same run without the bound admits strictly more.
  HarnessOptions unbounded = options;
  unbounded.queue_capacity = 0;
  const RunOutput free_run = run_serve(unbounded);
  EXPECT_EQ(free_run.report.queue_dropped, 0u);
  EXPECT_GT(free_run.report.peak_active_sessions,
            bounded.report.peak_active_sessions);
}

// The door bound counts the sessions live at the round midpoint: sessions
// that left since the last round free their places before newcomers are
// counted against it.
TEST(ServeDaemon, QueueCapacityCountsOnlySessionsStillActive) {
  // 10 s rounds (midpoints 5, 15, ...): 40 sessions end at 11 s, and 40
  // newcomers arrive at 12 s to an empty population.
  std::ostringstream script;
  for (std::uint32_t i = 0; i < 80; ++i) {
    trace::Session session;
    session.id = trace::SessionId{i};
    session.arrival_s = i < 40 ? 1.0 : 12.0;
    session.duration_s = i < 40 ? 10.0 : 100.0;
    session.bitrate_mbps = 1.5;
    session.city = geo::CityId{i % 4};
    write_arrival(script, session);
  }
  std::istringstream in{script.str()};
  JsonlFeed feed{in};

  HarnessOptions options;
  options.round_s = 10.0;
  options.queue_capacity = 40;
  ServeDaemon daemon{test::test_scenario(), feed, test::config_for(options, {}, nullptr)};
  const ServeReport report = daemon.run();

  EXPECT_EQ(report.queue_dropped, 0u);
  EXPECT_EQ(report.peak_active_sessions, 40u);
  // Midpoints 5 s through 105 s each price 40 live sessions.
  EXPECT_EQ(report.decision_rounds, 11u);
}

TEST(ServeDaemon, ReportAccountsEveryRoundAndArrival) {
  HarnessOptions options;
  const RunOutput run = run_serve(options);
  EXPECT_EQ(run.report.rounds,
            run.report.decision_rounds + run.report.skipped_rounds);
  // Arrivals after the final round midpoint stay in the feed unconsumed,
  // so the count can fall just short of the configured 600.
  EXPECT_LE(run.report.arrivals, 600u);
  EXPECT_GT(run.report.arrivals, 550u);
  EXPECT_EQ(run.report.slo.rounds, run.report.decision_rounds);
  EXPECT_GT(run.report.slo.p50_ms, 0.0);
  EXPECT_LE(run.report.slo.p50_ms, run.report.slo.p99_ms);
  EXPECT_LE(run.report.slo.p99_ms, run.report.slo.p999_ms);
  EXPECT_LE(run.report.slo.p999_ms, run.report.slo.max_ms);
  const std::vector<DecisionLine> lines = parse_lines(run.decisions);
  EXPECT_EQ(lines.size(), run.report.decision_rounds);
}

// Live input reaches the exchange's session book through the same
// validated delta path as every other feed. Arrivals the book refuses (an
// unknown city, the store's reserved id, a live id sent again with another
// city) are counted and dropped; the rest of the feed is served exactly as
// if they had never been sent.
TEST(ServeDaemon, HostileLiveArrivalsAreRefusedAndCounted) {
  HarnessOptions options;
  GeneratorFeed generator = test::make_feed(options);
  const std::vector<trace::Session> clean = generator.next_until(1e12);
  ASSERT_GT(clean.size(), 300u);
  const auto cities =
      static_cast<std::uint32_t>(test::test_scenario().world().cities().size());

  std::ostringstream clean_script;
  std::ostringstream hostile_script;
  std::uint64_t hostile = 0;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    const trace::Session& session = clean[i];
    write_arrival(clean_script, session);
    write_arrival(hostile_script, session);
    if (i % 100 != 50) continue;
    trace::Session bad = session;
    bad.id = trace::SessionId{static_cast<std::uint32_t>(1'000'000 + i)};
    bad.city = geo::CityId{cities};  // (a) one past the world's cities
    write_arrival(hostile_script, bad);
    bad = session;
    bad.id = trace::SessionId{UINT32_MAX};  // (b) SessionStore's free-slot marker
    write_arrival(hostile_script, bad);
    bad = session;
    bad.city = geo::CityId{(session.city.value() + 1) % cities};  // (c) live id, new city
    write_arrival(hostile_script, bad);
    hostile += 3;
  }

  const auto serve = [&](const std::string& script) {
    std::istringstream in{script};
    JsonlFeed feed{in};
    obs::MetricsRegistry metrics;
    std::ostringstream decisions;
    const obs::Observer obs{&metrics, nullptr, nullptr};
    ServeDaemon daemon{test::test_scenario(), feed,
                       test::config_for(options, obs, &decisions)};
    const ServeReport report = daemon.run();
    return std::tuple{report, decisions.str(),
                      metrics.counter("serve.arrivals_refused").value()};
  };
  const auto [clean_report, clean_decisions, clean_refused] = serve(clean_script.str());
  const auto [report, decisions, refused] = serve(hostile_script.str());

  EXPECT_EQ(clean_report.arrivals_refused, 0u);
  EXPECT_EQ(clean_refused, 0.0);
  EXPECT_EQ(report.arrivals, clean.size() + hostile);
  EXPECT_EQ(report.arrivals_refused, hostile);
  EXPECT_EQ(refused, static_cast<double>(hostile));
  ASSERT_FALSE(clean_decisions.empty());
  EXPECT_EQ(decisions, clean_decisions);
  EXPECT_EQ(report.peak_active_sessions, clean_report.peak_active_sessions);
}

TEST(ServeDaemon, RejectsInvalidConfiguration) {
  test::HarnessOptions options;
  GeneratorFeed feed = test::make_feed(options);
  ServeConfig bad_round = test::config_for(options, {}, nullptr);
  bad_round.round_s = 0.0;
  EXPECT_THROW(ServeDaemon(test::test_scenario(), feed, std::move(bad_round)),
               std::invalid_argument);
  ServeConfig no_dir = test::config_for(options, {}, nullptr);
  no_dir.checkpoint_every_rounds = 5;
  no_dir.checkpoint_dir.clear();
  EXPECT_THROW(ServeDaemon(test::test_scenario(), feed, std::move(no_dir)),
               std::invalid_argument);
}

}  // namespace
}  // namespace vdx::serve
