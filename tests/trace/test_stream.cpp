// BrokerTraceGenerator (chunked/streaming API): chunk-boundary determinism,
// substream independence, horizon truncation edge cases, and the lean
// Arrival records next_arrivals() hands the streaming engine.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "trace/generator.hpp"
#include "trace/modulation.hpp"

namespace vdx::trace {
namespace {

geo::World test_world() { return geo::World::generate({}); }

std::vector<Session> drain(BrokerTraceGenerator& generator, std::size_t batch) {
  std::vector<Session> all;
  while (!generator.exhausted()) {
    auto chunk = generator.next_batch(batch);
    all.insert(all.end(), chunk.begin(), chunk.end());
  }
  return all;
}

void expect_same_sessions(const std::vector<Session>& a,
                          const std::vector<Session>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id.value(), b[i].id.value());
    EXPECT_DOUBLE_EQ(a[i].arrival_s, b[i].arrival_s);
    EXPECT_DOUBLE_EQ(a[i].duration_s, b[i].duration_s);
    EXPECT_EQ(a[i].city.value(), b[i].city.value());
    EXPECT_DOUBLE_EQ(a[i].bitrate_mbps, b[i].bitrate_mbps);
    EXPECT_EQ(a[i].abandoned, b[i].abandoned);
    EXPECT_EQ(a[i].initial_cdn, b[i].initial_cdn);
    EXPECT_EQ(a[i].switches.size(), b[i].switches.size());
  }
}

TEST(BrokerTraceGeneratorTest, ChunkBoundaryDeterminism) {
  const geo::World world = test_world();
  TraceConfig config;
  config.session_count = 3000;

  // The batch size passed to next_batch must never change the stream.
  BrokerTraceGenerator one{world, config, core::Rng{42}};
  BrokerTraceGenerator other{world, config, core::Rng{42}};
  const auto by_ones = drain(one, 1);
  const auto by_big = drain(other, 1024);
  expect_same_sessions(by_ones, by_big);
}

TEST(BrokerTraceGeneratorTest, EmitsTheFullHorizonInArrivalOrderWithDenseIds) {
  const geo::World world = test_world();
  TraceConfig config;
  config.session_count = 2500;

  BrokerTraceGenerator generator{world, config, core::Rng{42}};
  EXPECT_EQ(generator.total_sessions(), 2500u);
  const auto sessions = drain(generator, 700);
  ASSERT_EQ(sessions.size(), 2500u);
  EXPECT_EQ(generator.emitted(), 2500u);
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    EXPECT_EQ(sessions[i].id.value(), i);
    if (i > 0) {
      EXPECT_GE(sessions[i].arrival_s, sessions[i - 1].arrival_s);
    }
    EXPECT_GE(sessions[i].arrival_s, 0.0);
    EXPECT_LT(sessions[i].arrival_s, config.duration_s);
    // Durations are clamped to the horizon.
    EXPECT_LE(sessions[i].arrival_s + sessions[i].duration_s,
              config.duration_s + 1e-9);
  }
}

TEST(BrokerTraceGeneratorTest, SubstreamIndependence) {
  const geo::World world = test_world();
  TraceConfig config;
  config.session_count = 4000;
  BrokerTraceGenerator::Options options;
  options.block_sessions = 1000;  // 4 blocks

  // A prefix consumer and a full consumer see identical sessions: block b
  // depends only on (seed, b), never on how much of the stream was pulled.
  BrokerTraceGenerator full{world, config, core::Rng{7}, options};
  BrokerTraceGenerator partial{world, config, core::Rng{7}, options};
  const auto everything = drain(full, 512);
  const auto prefix = partial.next_batch(1500);
  ASSERT_EQ(prefix.size(), 1500u);
  expect_same_sessions(prefix,
                       {everything.begin(), everything.begin() + 1500});
}

TEST(BrokerTraceGeneratorTest, BlockSizePartitionsTheHorizon) {
  const geo::World world = test_world();
  TraceConfig config;
  config.session_count = 1000;
  BrokerTraceGenerator::Options options;
  options.block_sessions = 300;

  BrokerTraceGenerator generator{world, config, core::Rng{3}, options};
  EXPECT_EQ(generator.block_count(), 4u);  // ceil(1000 / 300)
  const auto sessions = drain(generator, 250);
  EXPECT_EQ(sessions.size(), 1000u);
  // Memory bound: the buffer never holds more than ~one block.
  EXPECT_LE(generator.buffered(), options.block_sessions);
}

TEST(BrokerTraceGeneratorTest, ZeroSessionsIsAnEmptyStreamNotAnError) {
  const geo::World world = test_world();
  TraceConfig config;
  config.session_count = 0;

  BrokerTraceGenerator generator{world, config, core::Rng{42}};
  EXPECT_TRUE(generator.exhausted());
  EXPECT_EQ(generator.block_count(), 0u);
  EXPECT_TRUE(generator.next_batch(100).empty());
  EXPECT_EQ(generator.emitted(), 0u);
}

TEST(BrokerTraceGeneratorTest, SingleChunkCoversEverything) {
  const geo::World world = test_world();
  TraceConfig config;
  config.session_count = 50;  // far below the default block size: one block

  BrokerTraceGenerator generator{world, config, core::Rng{42}};
  EXPECT_EQ(generator.block_count(), 1u);
  const auto sessions = generator.next_batch(1'000'000);
  EXPECT_EQ(sessions.size(), 50u);
  EXPECT_TRUE(generator.exhausted());
  EXPECT_TRUE(generator.next_batch(1).empty());
}

TEST(BrokerTraceGeneratorTest, ResetReplaysTheIdenticalStream) {
  const geo::World world = test_world();
  TraceConfig config;
  config.session_count = 800;
  BrokerTraceGenerator::Options options;
  options.block_sessions = 256;

  BrokerTraceGenerator generator{world, config, core::Rng{42}, options};
  const auto first = drain(generator, 123);
  generator.reset();
  const auto second = drain(generator, 777);
  expect_same_sessions(first, second);
}

TEST(BrokerTraceGeneratorTest, BackgroundStreamNeverCarriesBrokerState) {
  const geo::World world = test_world();
  TraceConfig config;
  config.session_count = 500;
  BrokerTraceGenerator::Options options;
  options.broker_controlled = false;

  BrokerTraceGenerator generator{world, config, core::Rng{42}, options};
  for (const Session& s : drain(generator, 200)) {
    EXPECT_EQ(s.initial_cdn, TraceCdn::kOther);
    EXPECT_TRUE(s.switches.empty());
  }
}

TEST(BrokerTraceGeneratorTest, TwoCompactBlocksFitInOneBlockOfSessions) {
  // The worker's block and the one being handed out together hold no more
  // than the single block of Sessions the generator kept before blocks were
  // generated ahead. Besides the records, each block keeps its switch events
  // in a pool (a block of Sessions held the same events in per-session
  // vectors): at most twice the block's events once the pool has grown.
  // The constant covers the per-session switch-time scratch.
  constexpr std::size_t kScratch = 4096;
  const geo::World world = test_world();
  TraceConfig config;
  BrokerTraceGenerator::Options options;  // the default block size
  constexpr std::size_t kBlocks = 4;
  config.session_count = kBlocks * options.block_sessions;
  for (const bool broker : {true, false}) {
    options.broker_controlled = broker;
    BrokerTraceGenerator generator{world, config, core::Rng{42}, options};
    ASSERT_EQ(generator.block_count(), kBlocks);
    std::size_t peak = 0;
    std::vector<std::size_t> block_switches(kBlocks, 0);
    while (!generator.exhausted()) {
      const std::vector<Session> batch = generator.next_batch(8192);
      ASSERT_FALSE(batch.empty());
      for (const Session& s : batch) {
        block_switches[s.id.value() / options.block_sessions] += s.switches.size();
      }
      peak = std::max(peak, generator.block_bytes());
    }
    const std::size_t pools =
        2 * 2 * *std::max_element(block_switches.begin(), block_switches.end()) *
        sizeof(SwitchEvent);
    EXPECT_EQ(pools > 0, broker);
    EXPECT_GT(peak, 0u);
    EXPECT_LE(peak, options.block_sessions * sizeof(Session) + pools + kScratch)
        << (broker ? "broker" : "background");
  }
}

TEST(BrokerTraceGeneratorTest, MatchesMonolithicMarginals) {
  // Not byte-identical to generate_trace (different substream layout), but
  // the same statistical model: abandonment and mean-duration land within a
  // few percent of the monolithic trace's.
  const geo::World world = test_world();
  TraceConfig config;
  config.session_count = 20'000;

  core::Rng mono_rng{42};
  const BrokerTrace mono = generate_trace(world, config, mono_rng);
  BrokerTraceGenerator generator{world, config, core::Rng{42},
                                 {.block_sessions = 4096}};
  const auto streamed = drain(generator, 4096);

  const auto abandoned_fraction = [](std::span<const Session> sessions) {
    std::size_t abandoned = 0;
    for (const Session& s : sessions) abandoned += s.abandoned ? 1 : 0;
    return static_cast<double>(abandoned) / static_cast<double>(sessions.size());
  };
  EXPECT_NEAR(abandoned_fraction(streamed), abandoned_fraction(mono.sessions()),
              0.02);
}

// -- next_arrivals: the projection of next_batch, bit for bit ---------------

constexpr std::size_t kArrivalSessions = 3000;
constexpr std::size_t kArrivalBlock = 256;  // 12 blocks of 250 sessions

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// `got` equals {id, city, arrival, bitrate, end_s()} of `want`, bit for bit.
void expect_projection(const std::vector<Arrival>& got, std::span<const Session> want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const Session& s = want[i];
    ASSERT_EQ(got[i].id.value(), s.id.value()) << i;
    ASSERT_EQ(got[i].city.value(), s.city.value()) << i;
    ASSERT_TRUE(same_bits(got[i].arrival_s, s.arrival_s)) << i;
    ASSERT_TRUE(same_bits(got[i].bitrate_mbps, s.bitrate_mbps)) << i;
    ASSERT_TRUE(same_bits(got[i].end_s, s.end_s())) << i;
  }
}

std::vector<Arrival> drain_arrivals(BrokerTraceGenerator& generator, std::size_t chunk) {
  std::vector<Arrival> all;
  std::vector<Arrival> buffer;
  while (true) {
    generator.next_arrivals(chunk, buffer);
    if (buffer.empty()) break;
    EXPECT_LE(buffer.size(), chunk);
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
  return all;
}

class GeneratorArrivals : public ::testing::Test {
 protected:
  GeneratorArrivals() {
    config_.session_count = kArrivalSessions;
    options_.block_sessions = kArrivalBlock;
    BrokerTraceGenerator reference = make();
    sessions_ = drain(reference, 1024);
  }

  [[nodiscard]] BrokerTraceGenerator make() const {
    return BrokerTraceGenerator{world_, config_, core::Rng{42}, options_};
  }
  [[nodiscard]] std::span<const Session> from(std::size_t position) const {
    return std::span<const Session>{sessions_}.subspan(position);
  }
  /// First session of every block, and the horizon end.
  [[nodiscard]] std::vector<std::size_t> block_starts() const {
    std::vector<std::size_t> starts;
    const std::size_t blocks = (kArrivalSessions + kArrivalBlock - 1) / kArrivalBlock;
    for (std::size_t b = 0; b <= blocks; ++b) starts.push_back(b * kArrivalSessions / blocks);
    return starts;
  }

  geo::World world_ = test_world();
  TraceConfig config_;
  BrokerTraceGenerator::Options options_;
  std::vector<Session> sessions_;
};

TEST_F(GeneratorArrivals, EveryChunkSizeProjectsNextBatch) {
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{7}, std::size_t{8192},
                                  kArrivalBlock - 1, kArrivalBlock, kArrivalBlock + 1}) {
    BrokerTraceGenerator generator = make();
    expect_projection(drain_arrivals(generator, chunk), sessions_);
    EXPECT_EQ(generator.emitted(), kArrivalSessions) << "chunk " << chunk;
    EXPECT_TRUE(generator.exhausted()) << "chunk " << chunk;
  }
  BrokerTraceGenerator generator = make();
  std::vector<Arrival> none{Arrival{}};
  generator.next_arrivals(0, none);
  EXPECT_TRUE(none.empty());
  EXPECT_EQ(generator.emitted(), 0u);
}

TEST_F(GeneratorArrivals, EveryBlockBoundaryAfterSeek) {
  const std::vector<std::size_t> starts = block_starts();
  ASSERT_EQ(starts.size(), 13u);
  BrokerTraceGenerator generator = make();
  for (const std::size_t start : starts) {
    for (const std::size_t position : {start - (start > 0 ? 1 : 0), start, start + 1}) {
      if (position > kArrivalSessions) continue;
      generator.seek(position);
      EXPECT_EQ(generator.emitted(), position);
      expect_projection(drain_arrivals(generator, 97), from(position));
    }
  }
}

TEST_F(GeneratorArrivals, SeekAndResetWithTheNextBlockInFlight) {
  BrokerTraceGenerator generator = make();
  std::vector<Arrival> buffer;
  // Into block 1: the worker is now generating block 2.
  generator.next_arrivals(kArrivalBlock + 5, buffer);
  expect_projection(buffer, from(0).first(kArrivalBlock + 5));
  generator.seek(1234);
  expect_projection(drain_arrivals(generator, kArrivalBlock + 1), from(1234));

  generator.seek(10);
  generator.next_arrivals(1, buffer);  // block 0 out, block 1 in flight
  generator.reset();
  EXPECT_EQ(generator.emitted(), 0u);
  expect_projection(drain_arrivals(generator, 7), sessions_);
}

TEST_F(GeneratorArrivals, InterleavedWithNextBatchOnOneCursor) {
  BrokerTraceGenerator generator = make();
  std::vector<Arrival> buffer;
  std::size_t position = 0;
  const std::size_t sizes[] = {1, 7, 300, 64, 249, 513};
  for (std::size_t call = 0; position < kArrivalSessions; ++call) {
    const std::size_t n = sizes[call % std::size(sizes)];
    const std::size_t take = std::min(n, kArrivalSessions - position);
    if (call % 2 == 0) {
      generator.next_arrivals(n, buffer);
      expect_projection(buffer, from(position).first(take));
    } else {
      expect_same_sessions(generator.next_batch(n),
                           std::vector<Session>(from(position).begin(),
                                                from(position).begin() +
                                                    static_cast<std::ptrdiff_t>(take)));
    }
    position += take;
    ASSERT_EQ(generator.emitted(), position) << "call " << call;
  }
  generator.next_arrivals(8, buffer);
  EXPECT_TRUE(buffer.empty());
  EXPECT_TRUE(generator.exhausted());
}

TEST_F(GeneratorArrivals, FlashCrowdStreamProjectsNextBatch) {
  WorkloadModulation modulation;
  FlashCrowdSpec spike;
  spike.city = core::CityId{3};
  spike.factor = 50.0;
  spike.start_s = 1200.0;
  spike.ramp_s = 120.0;
  spike.hold_s = 600.0;
  spike.decay_s = 300.0;
  modulation.add_flash_crowd(spike);
  options_.modulation = &modulation;
  BrokerTraceGenerator reference = make();
  const std::vector<Session> sessions = drain(reference, 1024);
  ASSERT_GT(sessions.size(), kArrivalSessions);  // the crowd added sessions
  for (const std::size_t chunk : {std::size_t{7}, std::size_t{8192}, kArrivalBlock + 1}) {
    BrokerTraceGenerator generator = make();
    expect_projection(drain_arrivals(generator, chunk), sessions);
  }
  BrokerTraceGenerator generator = make();
  generator.seek(sessions.size() / 2);
  expect_projection(drain_arrivals(generator, 100),
                    std::span<const Session>{sessions}.subspan(sessions.size() / 2));
}

}  // namespace
}  // namespace vdx::trace
