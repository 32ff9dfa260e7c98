// Exchange save_state()/restore_state(): a fresh exchange restored from a
// mid-run snapshot must continue with byte-identical RoundReports — on the
// perfect transport and through the chaos transport (whose injector RNG
// positions ride in the snapshot). Corrupt or incompatible bytes are
// rejected typed and leave the exchange unchanged (DESIGN.md §10).
#include "market/exchange.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "proto/wire.hpp"
#include "state/checkpoint.hpp"
#include "state/snapshot.hpp"

namespace vdx::market {
namespace {

class ExchangeStateTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    sim::ScenarioConfig config;
    config.trace.session_count = 3000;
    config.seed = 31;
    scenario_ = new sim::Scenario(sim::Scenario::build(config));
  }
  static void TearDownTestSuite() {
    delete scenario_;
    scenario_ = nullptr;
  }
  static const sim::Scenario& scenario() { return *scenario_; }

  static ExchangeConfig chaos_config() {
    ExchangeConfig config;
    config.chaos.faults.drop_rate = 0.10;
    config.chaos.faults.corrupt_rate = 0.02;
    config.chaos.faults.seed = 0x5EED;
    return config;
  }

 private:
  static sim::Scenario* scenario_;
};

sim::Scenario* ExchangeStateTest::scenario_ = nullptr;

void expect_reports_identical(const RoundReport& actual, const RoundReport& expected) {
  EXPECT_EQ(actual.round, expected.round);
  EXPECT_EQ(actual.mean_score, expected.mean_score);
  EXPECT_EQ(actual.mean_cost, expected.mean_cost);
  EXPECT_EQ(actual.congested_fraction, expected.congested_fraction);
  EXPECT_EQ(actual.mean_prediction_error, expected.mean_prediction_error);
  EXPECT_EQ(actual.awarded_mbps, expected.awarded_mbps);
  EXPECT_EQ(actual.wire.shares_sent, expected.wire.shares_sent);
  EXPECT_EQ(actual.wire.bids_received, expected.wire.bids_received);
  EXPECT_EQ(actual.wire.accepts_sent, expected.wire.accepts_sent);
  EXPECT_EQ(actual.wire.bytes_on_wire, expected.wire.bytes_on_wire);
  EXPECT_EQ(actual.degraded, expected.degraded);
  EXPECT_EQ(actual.quorum_met, expected.quorum_met);
  EXPECT_EQ(actual.stale_bids_used, expected.stale_bids_used);
  EXPECT_EQ(actual.stale_bid_share, expected.stale_bid_share);
  EXPECT_EQ(actual.timeout_rate, expected.timeout_rate);
}

TEST_F(ExchangeStateTest, PerfectTransportRestoreContinuesByteIdentically) {
  VdxExchange reference{scenario()};
  (void)reference.run(3);
  const std::vector<std::uint8_t> bytes = reference.save_state();

  VdxExchange restored{scenario()};
  const core::Status status = restored.restore_state(bytes);
  ASSERT_TRUE(status.ok()) << status.error().message;

  // The risk-averse strategies' learned market state, the reputation
  // ledger, and the round counter all crossed the snapshot, so the next
  // rounds replay bit-exactly.
  for (int round = 0; round < 3; ++round) {
    expect_reports_identical(restored.run_round(), reference.run_round());
  }
}

TEST_F(ExchangeStateTest, ChaosTransportRestoreReplaysTheFaultSequence) {
  VdxExchange reference{scenario(), chaos_config()};
  (void)reference.run(3);
  const std::vector<std::uint8_t> bytes = reference.save_state();

  VdxExchange restored{scenario(), chaos_config()};
  ASSERT_TRUE(restored.restore_state(bytes).ok());

  // The injector's per-link RNG positions and burst flags are part of the
  // snapshot: post-restore rounds see the exact faults — drops, corruptions,
  // stale-bid substitutions — the uninterrupted run would have seen.
  for (int round = 0; round < 3; ++round) {
    const RoundReport expected = reference.run_round();
    const RoundReport actual = restored.run_round();
    expect_reports_identical(actual, expected);
    EXPECT_EQ(actual.wire.chaos.frames_dropped, expected.wire.chaos.frames_dropped);
    EXPECT_EQ(actual.wire.chaos.retries, expected.wire.chaos.retries);
    EXPECT_EQ(actual.wire.chaos.timeouts, expected.wire.chaos.timeouts);
    EXPECT_EQ(actual.wire.chaos.decode_rejects, expected.wire.chaos.decode_rejects);
  }
  EXPECT_EQ(restored.fault_counters().frames, reference.fault_counters().frames);
  EXPECT_EQ(restored.fault_counters().dropped, reference.fault_counters().dropped);
}

TEST_F(ExchangeStateTest, FaultSwitchesSurviveTheSnapshot) {
  VdxExchange reference{scenario()};
  reference.set_failed(cdn::CdnId{2}, true);
  reference.set_fraudulent(cdn::CdnId{5}, true);
  (void)reference.run(2);
  const std::vector<std::uint8_t> bytes = reference.save_state();

  VdxExchange restored{scenario()};
  ASSERT_TRUE(restored.restore_state(bytes).ok());
  expect_reports_identical(restored.run_round(), reference.run_round());
}

TEST_F(ExchangeStateTest, CorruptBytesAreRejectedAndLeaveTheExchangeUnchanged) {
  VdxExchange reference{scenario()};
  (void)reference.run(2);
  const std::vector<std::uint8_t> bytes = reference.save_state();

  VdxExchange subject{scenario()};
  ASSERT_TRUE(subject.restore_state(bytes).ok());

  std::vector<std::uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x40;
  core::Status status = subject.restore_state(flipped);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kCorruptSnapshot);

  std::vector<std::uint8_t> truncated{bytes.begin(), bytes.end() - 5};
  status = subject.restore_state(truncated);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kCorruptSnapshot);

  status = subject.restore_state(std::vector<std::uint8_t>{});
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kCorruptSnapshot);

  // A checksum-valid envelope whose core section (id 10: rounds, logical
  // clock, then the background-load count) claims 2^61 + 1 loads: times 8
  // bytes that wraps u64 to 8, and 8 bytes follow.
  proto::ByteWriter core_section;
  core_section.write_u64(2);
  core_section.write_u64(0);
  core_section.write_u64((std::uint64_t{1} << 61) + 1);
  core_section.write_f64(0.0);
  const auto view = state::SnapshotView::parse(bytes);
  ASSERT_TRUE(view.ok());
  state::SnapshotWriter wrapped;
  for (const state::Section& section : view.value().sections()) {
    wrapped.add_section(section.id, section.id == 10 ? core_section.data() : section.bytes);
  }
  status = subject.restore_state(wrapped.finish());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kCorruptSnapshot);

  // All four rejections left the restored state intact.
  expect_reports_identical(subject.run_round(), reference.run_round());
}

TEST_F(ExchangeStateTest, TimelineSnapshotIsNotAnExchangeSnapshot) {
  // A structurally valid envelope of the *wrong kind* (a timeline
  // checkpoint) must fail on its missing exchange sections, not restore
  // garbage.
  state::TimelineCheckpoint checkpoint;
  checkpoint.next_epoch = 1;
  const std::vector<std::uint8_t> bytes = state::encode(checkpoint);

  VdxExchange exchange{scenario()};
  const core::Status status = exchange.restore_state(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kCorruptSnapshot);
}

TEST_F(ExchangeStateTest, TransportKindMismatchIsRejected) {
  VdxExchange chaotic{scenario(), chaos_config()};
  (void)chaotic.run(1);
  VdxExchange perfect{scenario()};
  (void)perfect.run(1);

  core::Status status = perfect.restore_state(chaotic.save_state());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kInvalidArgument);

  status = chaotic.restore_state(perfect.save_state());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kInvalidArgument);
}

TEST_F(ExchangeStateTest, DifferentCatalogIsRejected) {
  VdxExchange reference{scenario()};
  (void)reference.run(1);
  const std::vector<std::uint8_t> bytes = reference.save_state();

  // A scenario with extra city CDNs has a different CDN count; its exchange
  // must refuse the snapshot instead of mis-mapping agents.
  sim::ScenarioConfig other_config;
  other_config.trace.session_count = 3000;
  other_config.seed = 31;
  other_config.city_cdn_count = 3;
  const sim::Scenario other = sim::Scenario::build(other_config);
  VdxExchange mismatched{other};
  const core::Status status = mismatched.restore_state(bytes);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, core::Errc::kInvalidArgument);
}

}  // namespace
}  // namespace vdx::market
