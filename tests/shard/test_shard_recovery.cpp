// Crash-and-resume drill for the session-fed exchange (DESIGN.md §14): a
// crashed exchange is rebuilt from its one snapshot (save_state() -> fresh
// exchange -> restore_state()) and must continue byte-identically to the
// uninterrupted monolith; an image the exchange cannot settle from, or one
// of another format version, is refused before anything changes.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "market/shard.hpp"
#include "proto/wire.hpp"
#include "shard/shard_test_util.hpp"
#include "state/snapshot.hpp"

namespace vdx::market {
namespace {

using shard_test::RunCapture;

class ShardRecovery : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig config;
    config.trace.session_count = 900;
    config.seed = 29;
    scenario_ = new sim::Scenario(sim::Scenario::build(config));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const sim::Scenario& scenario() { return *scenario_; }

 private:
  static sim::Scenario* scenario_;
};

sim::Scenario* ShardRecovery::scenario_ = nullptr;

constexpr std::size_t kRounds = 5;

/// Round r admits 250 sessions and retires the oldest 100 of round r - 1.
shard_test::Delta churn_delta(const sim::Scenario& scenario, std::size_t r) {
  const auto cities = static_cast<std::uint32_t>(scenario.world().cities().size());
  shard_test::Delta d;
  for (std::uint32_t k = 0; k < 250; ++k) {
    const auto id = static_cast<std::uint32_t>(r) * 250 + k;
    d.first.push_back({id, id % cities, id % 3 == 0 ? 1.2 : 3.6});
  }
  for (std::uint32_t k = 0; r > 0 && k < 100; ++k) {
    d.second.push_back(static_cast<std::uint32_t>(r - 1) * 250 + k);
  }
  return d;
}

/// Pushes churn_delta(r) and settles, for r in [from, to).
std::vector<RoundReport> run_churn(ShardedExchange& exchange, std::size_t from,
                                   std::size_t to) {
  std::vector<RoundReport> reports;
  for (std::size_t r = from; r < to; ++r) {
    const auto [adds, removes] = churn_delta(exchange.settlement().scenario(), r);
    EXPECT_TRUE(exchange.push_session_delta(adds, removes).ok()) << "round " << r;
    reports.push_back(exchange.run_round());
  }
  return reports;
}

// Crash: a FRESH ShardedExchange restored from the crashed exchange's
// save_state() bytes continues with a tail byte-identical to the
// uninterrupted monolith — reports, placements, journal and metrics. The
// journal and metrics sinks outlive the crash, as the daemon's do.
TEST_F(ShardRecovery, CoordinatorResumesFromSnapshotWithIdenticalTail) {
  const auto delta_of = [](std::size_t r) { return churn_delta(scenario(), r); };
  const RunCapture uninterrupted =
      shard_test::run_monolith(scenario(), delta_of, kRounds);
  constexpr std::size_t kCrashAfter = 2;

  obs::MetricsRegistry metrics;
  obs::RunJournal journal;
  ShardedConfig config;
  config.exchange.obs = obs::Observer{&metrics, nullptr, &journal};
  std::vector<RoundReport> reports;
  std::vector<std::uint8_t> snapshot;
  {
    ShardedExchange first{scenario(), config};
    reports = run_churn(first, 0, kCrashAfter);
    snapshot = first.save_state();
    // ~first: the process "dies" (its last snapshot survives).
  }

  ShardedExchange resumed{scenario(), config};
  ASSERT_TRUE(resumed.restore_state(snapshot).ok());
  ASSERT_EQ(resumed.settlement().rounds_completed(), kCrashAfter);
  for (RoundReport& report : run_churn(resumed, kCrashAfter, kRounds)) {
    reports.push_back(std::move(report));
  }
  shard_test::expect_identical(
      uninterrupted,
      shard_test::capture_of(resumed.settlement(), std::move(reports), journal, metrics),
      "resumed after round " + std::to_string(kCrashAfter));
}

// The snapshot round-trips across a fresh exchange built from the same
// scenario and configuration, and one built under another configuration
// refuses it.
TEST_F(ShardRecovery, EmbeddedSnapshotRoundTripsAcrossAFreshExchange) {
  const auto delta_of = [](std::size_t r) { return churn_delta(scenario(), r); };
  const RunCapture uninterrupted =
      shard_test::run_monolith(scenario(), delta_of, kRounds);
  constexpr std::size_t kCrashAfter = 3;

  std::vector<std::uint8_t> snapshot;
  {
    ShardedExchange first{scenario()};
    (void)run_churn(first, 0, kCrashAfter);
    snapshot = first.save_state();
  }
  ASSERT_FALSE(snapshot.empty());

  ShardedExchange resumed{scenario()};
  ASSERT_TRUE(resumed.restore_state(snapshot).ok());
  ASSERT_EQ(resumed.settlement().rounds_completed(), kCrashAfter);
  EXPECT_EQ(resumed.save_state(), snapshot);
  const std::vector<RoundReport> tail = run_churn(resumed, kCrashAfter, kRounds);
  for (std::size_t r = kCrashAfter; r < kRounds; ++r) {
    EXPECT_EQ(uninterrupted.reports[r].awarded_mbps, tail[r - kCrashAfter].awarded_mbps)
        << "embedded round " << r;
    EXPECT_EQ(uninterrupted.reports[r].mean_score, tail[r - kCrashAfter].mean_score)
        << "embedded round " << r;
  }

  // A snapshot from a perfect-transport exchange must be refused by one on
  // the chaos transport.
  ShardedConfig other;
  other.exchange.chaos.faults.drop_rate = 0.1;
  ShardedExchange wrong_config{scenario(), other};
  EXPECT_FALSE(wrong_config.restore_state(snapshot).ok());
}

// The session book moved into the snapshot in format version 2, version 3
// dropped the demand-dirty byte with the collect round trip, and version 4
// dropped the worker plane's sections. An image of versions 1 (no version
// section), 2 or 3 fails typed instead of being misread, and the refused
// restore leaves the exchange untouched.
TEST_F(ShardRecovery, VersionOneCoordinatorSnapshotFailsWithVersionMismatch) {
  ShardedExchange first{scenario()};
  (void)run_churn(first, 0, 1);
  const auto current = state::SnapshotView::parse(first.save_state());
  ASSERT_TRUE(current.ok());

  ShardedExchange resumed{scenario()};
  const auto before = resumed.save_state();
  for (const std::uint32_t version : {1u, 2u, 3u}) {
    state::SnapshotWriter old_format;
    for (const state::Section& section : current.value().sections()) {
      if (section.id != 29) {
        old_format.add_section(section.id, section.bytes);
      } else if (version > 1) {
        proto::ByteWriter w;
        w.write_u32(version);
        old_format.add_section(section.id, w.take());
      }
    }
    const auto status = resumed.restore_state(old_format.finish());
    ASSERT_FALSE(status.ok()) << "version " << version;
    EXPECT_EQ(status.error().code, core::Errc::kVersionMismatch) << "version " << version;
    EXPECT_EQ(resumed.save_state(), before) << "version " << version;
  }
}

/// `snapshot` with section `id` swapped for `bytes`, in a fresh envelope:
/// every checksum is valid, so only the section's content is wrong.
std::vector<std::uint8_t> with_section(std::span<const std::uint8_t> snapshot,
                                       std::uint32_t id,
                                       const std::vector<std::uint8_t>& bytes) {
  const auto view = state::SnapshotView::parse(snapshot);
  EXPECT_TRUE(view.ok());
  state::SnapshotWriter writer;
  for (const state::Section& section : view.value().sections()) {
    writer.add_section(section.id, section.id == id ? bytes : section.bytes);
  }
  return writer.finish();
}

// Snapshot sections (shard.cpp): the session book and the settlement.
constexpr std::uint32_t kBookSection = 30;
constexpr std::uint32_t kSettlementSection = 31;

/// A book section holding `sessions` as (id, city, bitrate).
std::vector<std::uint8_t> encode_book(
    const std::vector<proto::ShardSessionAdd>& sessions) {
  proto::ByteWriter w;
  w.write_u32(static_cast<std::uint32_t>(sessions.size()));
  for (const proto::ShardSessionAdd& s : sessions) {
    w.write_u32(s.id);
    w.write_u32(s.city);
    w.write_f64(s.bitrate_mbps);
  }
  return w.take();
}

// A checksum-valid snapshot can still carry a book no batch could have
// built. Restore refuses it before applying anything, so a later round
// never settles (or indexes by) a session push_session_delta would have
// rejected.
TEST_F(ShardRecovery, RestoreRejectsABookThatCanNeverSettle) {
  std::vector<std::uint8_t> good;
  {
    ShardedExchange first{scenario()};
    (void)run_churn(first, 0, 1);
    good = first.save_state();
  }
  const auto with_book = [&](const std::vector<proto::ShardSessionAdd>& book) {
    return with_section(good, kBookSection, encode_book(book));
  };

  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases;
  cases.emplace_back("unknown city", with_book({{1, 0, 1.2}, {2, 99'999, 1.2}}));
  cases.emplace_back("non-finite bitrate",
                     with_book({{1, 0, std::numeric_limits<double>::quiet_NaN()}}));
  cases.emplace_back("non-positive bitrate", with_book({{1, 0, 0.0}}));
  cases.emplace_back("duplicated id", with_book({{1, 0, 1.2}, {1, 0, 1.2}}));
  cases.emplace_back("ids out of order", with_book({{2, 0, 1.2}, {1, 0, 1.2}}));
  cases.emplace_back("reserved id", with_book({{UINT32_MAX, 0, 1.2}}));
  {
    std::vector<std::uint8_t> trailing = encode_book({{1, 0, 1.2}});
    trailing.push_back(0);
    cases.emplace_back("trailing bytes", with_section(good, kBookSection, trailing));
  }

  ShardedExchange resumed{scenario()};
  const auto before = resumed.save_state();
  for (const auto& [what, bytes] : cases) {
    const core::Status status = resumed.restore_state(bytes);
    ASSERT_FALSE(status.ok()) << what;
    EXPECT_EQ(status.error().code, core::Errc::kCorruptSnapshot) << what;
    EXPECT_EQ(resumed.save_state(), before) << what;
  }
  // The untouched snapshot restores, so each rejection was about its one
  // change.
  EXPECT_TRUE(resumed.restore_state(good).ok());
}

// A settlement section the settlement would reject fails the whole restore
// before the book is touched: the refused restore leaves rounds and
// snapshot bytes exactly as they were.
TEST_F(ShardRecovery, RestoreRejectsASettlementStateBeforeChangingAnything) {
  std::vector<std::uint8_t> good;
  {
    ShardedExchange first{scenario()};
    (void)run_churn(first, 0, 3);
    good = first.save_state();
  }
  const std::vector<std::uint8_t> junk(16, 0x5A);
  const auto bad = with_section(good, kSettlementSection, junk);

  ShardedExchange resumed{scenario()};
  (void)run_churn(resumed, 0, 1);
  const auto before = resumed.save_state();
  const core::Status status = resumed.restore_state(bad);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(resumed.settlement().rounds_completed(), 1u);
  EXPECT_EQ(resumed.save_state(), before);
  // The untouched snapshot restores, so the rejection was about the
  // settlement section.
  EXPECT_TRUE(resumed.restore_state(good).ok());
  EXPECT_EQ(resumed.settlement().rounds_completed(), 3u);
}

}  // namespace
}  // namespace vdx::market
