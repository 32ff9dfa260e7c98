// Crash-and-resume drill for the session-fed exchange (DESIGN.md §14): a
// crashed book-fed VdxExchange is rebuilt from its save_state() image plus
// its book cursor (the pair a daemon checkpoint stores) and must continue
// byte-identically to the uninterrupted monolith; a book or an image the
// exchange cannot settle from is refused before anything changes.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "market/exchange.hpp"
#include "shard/shard_test_util.hpp"
#include "state/checkpoint.hpp"
#include "state/snapshot.hpp"

namespace vdx::market {
namespace {

using shard_test::restore;
using shard_test::RunCapture;
using shard_test::save;
using shard_test::SavedExchange;

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
std::vector<RoundReport> run_churn(VdxExchange& exchange, std::size_t from,
                                   std::size_t to) {
  std::vector<RoundReport> reports;
  for (std::size_t r = from; r < to; ++r) {
    const auto [adds, removes] = churn_delta(exchange.scenario(), r);
    EXPECT_TRUE(exchange.push_session_delta(adds, removes).ok()) << "round " << r;
    reports.push_back(exchange.run_round());
  }
  return reports;
}

// Crash: a FRESH exchange restored from the crashed exchange's image and
// book continues with a tail byte-identical to the uninterrupted monolith —
// reports, placements, journal and metrics. The journal and metrics sinks
// outlive the crash, as the daemon's do.
TEST_F(ShardRecovery, CoordinatorResumesFromSnapshotWithIdenticalTail) {
  const auto delta_of = [](std::size_t r) { return churn_delta(scenario(), r); };
  const RunCapture uninterrupted =
      shard_test::run_monolith(scenario(), delta_of, kRounds);
  constexpr std::size_t kCrashAfter = 2;

  obs::MetricsRegistry metrics;
  obs::RunJournal journal;
  ExchangeConfig config;
  config.obs = obs::Observer{&metrics, nullptr, &journal};
  std::vector<RoundReport> reports;
  SavedExchange snapshot;
  {
    VdxExchange first{scenario(), config};
    reports = run_churn(first, 0, kCrashAfter);
    snapshot = save(first);
    // ~first: the process "dies" (its last snapshot survives).
  }

  VdxExchange resumed{scenario(), config};
  ASSERT_TRUE(restore(resumed, snapshot).ok());
  ASSERT_EQ(resumed.rounds_completed(), kCrashAfter);
  for (RoundReport& report : run_churn(resumed, kCrashAfter, kRounds)) {
    reports.push_back(std::move(report));
  }
  shard_test::expect_identical(
      uninterrupted,
      shard_test::capture_of(resumed, std::move(reports), journal, metrics),
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

  SavedExchange snapshot;
  {
    VdxExchange first{scenario()};
    (void)run_churn(first, 0, kCrashAfter);
    snapshot = save(first);
  }
  ASSERT_FALSE(snapshot.image.empty());
  ASSERT_FALSE(snapshot.book.empty());

  VdxExchange resumed{scenario()};
  ASSERT_TRUE(restore(resumed, snapshot).ok());
  ASSERT_EQ(resumed.rounds_completed(), kCrashAfter);
  EXPECT_EQ(save(resumed), snapshot);
  const std::vector<RoundReport> tail = run_churn(resumed, kCrashAfter, kRounds);
  for (std::size_t r = kCrashAfter; r < kRounds; ++r) {
    EXPECT_EQ(uninterrupted.reports[r].awarded_mbps, tail[r - kCrashAfter].awarded_mbps)
        << "embedded round " << r;
    EXPECT_EQ(uninterrupted.reports[r].mean_score, tail[r - kCrashAfter].mean_score)
        << "embedded round " << r;
  }

  // A snapshot from a perfect-transport exchange must be refused by one on
  // the chaos transport.
  ExchangeConfig other;
  other.chaos.faults.drop_rate = 0.1;
  VdxExchange wrong_config{scenario(), other};
  EXPECT_FALSE(restore(wrong_config, snapshot).ok());
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

/// The daemon checkpoint's feed-cursor section, which carries the book.
constexpr std::uint32_t kFeedCursorSection = 7;

/// `saved` as the daemon checkpoint stores it.
std::vector<std::uint8_t> encode_pair(const SavedExchange& saved) {
  state::DaemonCheckpoint checkpoint;
  checkpoint.feed.consumed = saved.book.size();
  checkpoint.feed.active = saved.book;
  checkpoint.exchange_state = saved.image;
  return state::encode(checkpoint);
}

/// Decodes a daemon checkpoint and restores its pair.
core::Status restore_encoded(VdxExchange& exchange, std::span<const std::uint8_t> bytes) {
  auto decoded = state::decode_daemon(bytes);
  if (!decoded.ok()) return core::Status{decoded.error()};
  return exchange.restore_state(decoded.value().exchange_state,
                                decoded.value().feed.active);
}

/// A book holding `sessions` as (id, city, bitrate), none ever departing.
std::vector<state::ActiveSession> book_of(const std::vector<SessionAdd>& sessions) {
  std::vector<state::ActiveSession> book;
  for (const SessionAdd& s : sessions) {
    book.push_back({s.id, s.city, s.bitrate_mbps, s.end_s});
  }
  return book;
}

// A checksum-valid snapshot can still carry a book no batch could have
// built. Restore refuses it before applying anything, so a later round
// never settles (or indexes by) a session push_session_delta would have
// rejected.
TEST_F(ShardRecovery, RestoreRejectsABookThatCanNeverSettle) {
  SavedExchange good;
  {
    VdxExchange first{scenario()};
    (void)run_churn(first, 0, 1);
    good = save(first);
  }
  const auto with_book = [&](const std::vector<SessionAdd>& book) {
    return encode_pair({good.image, book_of(book)});
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
    const std::vector<std::uint8_t> encoded = with_book({{1, 0, 1.2}});
    const auto view = state::SnapshotView::parse(encoded);
    EXPECT_TRUE(view.ok());
    const state::Section* cursor = view.value().find(kFeedCursorSection);
    EXPECT_NE(cursor, nullptr);
    std::vector<std::uint8_t> trailing{cursor->bytes.begin(), cursor->bytes.end()};
    trailing.push_back(0);
    cases.emplace_back("trailing bytes",
                       with_section(encoded, kFeedCursorSection, trailing));
  }

  VdxExchange resumed{scenario()};
  const auto before = save(resumed);
  for (const auto& [what, bytes] : cases) {
    const core::Status status = restore_encoded(resumed, bytes);
    ASSERT_FALSE(status.ok()) << what;
    EXPECT_EQ(status.error().code, core::Errc::kCorruptSnapshot) << what;
    EXPECT_EQ(save(resumed), before) << what;
  }
  // The exchange itself refuses the books the checkpoint decoder lets
  // through, and the ones it stops (duplicated or out-of-order ids).
  for (const auto& [what, book] :
       std::vector<std::pair<std::string, std::vector<SessionAdd>>>{
           {"unknown city", {{1, 0, 1.2}, {2, 99'999, 1.2}}},
           {"non-finite bitrate", {{1, 0, std::numeric_limits<double>::infinity()}}},
           {"non-positive bitrate", {{1, 0, -1.0}}},
           {"duplicated id", {{1, 0, 1.2}, {1, 0, 1.2}}},
           {"ids out of order", {{2, 0, 1.2}, {1, 0, 1.2}}},
           {"reserved id", {{UINT32_MAX, 0, 1.2}}},
       }) {
    const core::Status status = resumed.restore_state(good.image, book_of(book));
    ASSERT_FALSE(status.ok()) << what;
    EXPECT_EQ(status.error().code, core::Errc::kCorruptSnapshot) << what;
    EXPECT_EQ(save(resumed), before) << what;
  }
  // The untouched snapshot restores, so each rejection was about its one
  // change.
  EXPECT_TRUE(restore_encoded(resumed, encode_pair(good)).ok());
  EXPECT_EQ(save(resumed), good);
}

// A settlement image the settlement would reject fails the whole restore
// before the book is touched: the refused restore leaves rounds, image and
// book exactly as they were.
TEST_F(ShardRecovery, RestoreRejectsASettlementStateBeforeChangingAnything) {
  SavedExchange good;
  {
    VdxExchange first{scenario()};
    (void)run_churn(first, 0, 3);
    good = save(first);
  }
  const SavedExchange bad{std::vector<std::uint8_t>(16, 0x5A), good.book};

  VdxExchange resumed{scenario()};
  (void)run_churn(resumed, 0, 1);
  const auto before = save(resumed);
  const core::Status status = restore(resumed, bad);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(resumed.rounds_completed(), 1u);
  EXPECT_EQ(save(resumed), before);
  // The untouched snapshot restores, so the rejection was about the
  // settlement image.
  EXPECT_TRUE(restore(resumed, good).ok());
  EXPECT_EQ(resumed.rounds_completed(), 3u);
}

}  // namespace
}  // namespace vdx::market
