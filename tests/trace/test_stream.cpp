// BrokerTraceGenerator (chunked/streaming API): chunk-boundary determinism,
// substream independence, horizon truncation edge cases (ISSUE 4).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "trace/generator.hpp"

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

}  // namespace
}  // namespace vdx::trace
