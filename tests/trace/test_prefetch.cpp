// BrokerTraceGenerator's prefetching pipeline against pinned stream digests.
//
// The digests were computed with the generator that produced every block on
// the caller's thread, before blocks were generated ahead on a worker; the
// worker must change when a block is generated, never a byte of the stream.
// The suite carries the `parallel` label, so the TSan job runs the caller
// and the worker against each other: pulls that cross block boundaries,
// seek() and reset() while the next block is in flight, destruction with a
// block in flight, and next_arrivals() reading the blocks the worker hands
// over.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <vector>

#include "core/fnv1a.hpp"
#include "trace/generator.hpp"
#include "trace/modulation.hpp"

namespace vdx::trace {
namespace {

constexpr std::size_t kSessions = 20'000;
constexpr std::size_t kBlockSessions = 4096;  // 5 blocks: four handoffs
/// Mid-block (block 2 spans [8000, 12000)), where seek() lands.
constexpr std::size_t kSeekTo = 9'999;

/// FNV-1a over every field of every session, in stream order.
class StreamDigest {
 public:
  void add(const Session& s) {
    put(s.id.value());
    put(s.arrival_s);
    put(s.video.value());
    put(s.bitrate_mbps);
    put(s.duration_s);
    put(s.city.value());
    put(s.as_number);
    put(static_cast<std::uint8_t>(s.abandoned));
    put(static_cast<std::uint8_t>(s.initial_cdn));
    put(static_cast<std::uint64_t>(s.switches.size()));
    for (const SwitchEvent& e : s.switches) {
      put(e.time_s);
      put(static_cast<std::uint8_t>(e.from));
      put(static_cast<std::uint8_t>(e.to));
    }
  }
  [[nodiscard]] std::string hex() const {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(hash_));
    return text;
  }

 private:
  template <typename T>
  void put(T value) {
    std::uint8_t bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    hash_ = core::fnv1a64(bytes, hash_);
  }

  std::uint64_t hash_ = core::kFnv1a64Basis;
};

/// Digest of everything the generator still has to emit, pulled `pull` at
/// a time.
std::string drain_digest(BrokerTraceGenerator& generator, std::size_t pull) {
  StreamDigest digest;
  while (!generator.exhausted()) {
    for (const Session& s : generator.next_batch(pull)) digest.add(s);
  }
  return digest.hex();
}

/// A horizon of a few thousand denormal steps: 20,000 uniform arrivals over
/// it must share values, which sends every block down the tie path of the
/// arrival sort.
constexpr double kTiedHorizon = 1e-320;

struct StreamCase {
  const char* name;
  bool broker_controlled;
  bool flash_crowd;
  double duration_s;
  /// Digest of the whole stream and of the tail from kSeekTo.
  const char* full;
  const char* tail;
};

const StreamCase kCases[] = {
    {"broker", true, false, 3600.0, "4b60850707276d56", "df4bf26b1581621d"},
    {"background", false, false, 3600.0, "2554f5a04425d758", "66e62ad7ebb94ed1"},
    {"broker-flash", true, true, 3600.0, "29f18392c1569963", "ede8364d63b0285a"},
    {"background-flash", false, true, 3600.0, "47186e2c8e72bb74", "b5be895bd73f70b0"},
    {"broker-tied", true, false, kTiedHorizon, "5dd3614b3967b32b", "511c775f921e27d7"},
};

void PrintTo(const StreamCase& c, std::ostream* os) { *os << c.name; }

class GeneratorPrefetch : public ::testing::TestWithParam<StreamCase> {
 protected:
  GeneratorPrefetch() {
    FlashCrowdSpec spike;
    spike.city = core::CityId{3};
    spike.factor = 50.0;
    spike.start_s = 1200.0;
    spike.ramp_s = 120.0;
    spike.hold_s = 600.0;
    spike.decay_s = 300.0;
    modulation_.add_flash_crowd(spike);
    config_.session_count = kSessions;
    config_.duration_s = GetParam().duration_s;
    options_.block_sessions = kBlockSessions;
    options_.broker_controlled = GetParam().broker_controlled;
    options_.modulation = GetParam().flash_crowd ? &modulation_ : nullptr;
  }

  [[nodiscard]] BrokerTraceGenerator make() const {
    return BrokerTraceGenerator{world_, config_, core::Rng{2017}, options_};
  }

  geo::World world_ = geo::World::generate({});
  WorkloadModulation modulation_;
  TraceConfig config_;
  BrokerTraceGenerator::Options options_;
};

TEST_P(GeneratorPrefetch, PullSizesMatchThePinnedDigest) {
  for (const std::size_t pull : {1, 128, 256, 512}) {
    BrokerTraceGenerator generator = make();
    EXPECT_EQ(drain_digest(generator, pull), GetParam().full) << "pull " << pull;
  }
}

TEST(GeneratorPrefetchTies, TiedHorizonHasEqualArrivals) {
  // Guards the broker-tied case: without equal arrivals it would not reach
  // the tie path at all.
  TraceConfig config;
  config.session_count = kSessions;
  config.duration_s = kTiedHorizon;
  BrokerTraceGenerator generator{geo::World::generate({}), config, core::Rng{2017},
                                 {.block_sessions = kBlockSessions}};
  std::size_t ties = 0;
  double last = -1.0;
  while (!generator.exhausted()) {
    for (const Session& s : generator.next_batch(512)) {
      ties += s.arrival_s == last ? 1 : 0;
      last = s.arrival_s;
    }
  }
  EXPECT_GT(ties, kSessions / 2);
}

TEST(GeneratorPrefetchTies, MonolithicTraceKeepsTheTiedOrder) {
  TraceConfig config;
  config.session_count = kSessions;
  config.duration_s = kTiedHorizon;
  const geo::World world = geo::World::generate({});
  core::Rng rng{2017};
  const BrokerTrace trace = generate_trace(world, config, rng);
  const BrokerTrace background = generate_background(world, config, 2.0, rng);
  StreamDigest digest;
  for (const Session& s : trace.sessions()) digest.add(s);
  for (const Session& s : background.sessions()) digest.add(s);
  EXPECT_EQ(digest.hex(), "969f219f4b069e90");
}

TEST_P(GeneratorPrefetch, SeekMidBlockWhileTheNextBlockIsInFlight) {
  BrokerTraceGenerator generator = make();
  // Into block 1: the worker is now generating block 2.
  ASSERT_EQ(generator.next_batch(kBlockSessions + 100).size(), kBlockSessions + 100);
  generator.seek(kSeekTo);
  EXPECT_EQ(generator.emitted(), kSeekTo);
  EXPECT_EQ(drain_digest(generator, 256), GetParam().tail);
  // Backwards, from an exhausted stream.
  generator.seek(kSeekTo);
  EXPECT_EQ(drain_digest(generator, 512), GetParam().tail);
}

TEST_P(GeneratorPrefetch, ResetWhileTheNextBlockIsInFlight) {
  BrokerTraceGenerator generator = make();
  ASSERT_EQ(generator.next_batch(1).size(), 1u);  // block 0 out, block 1 in flight
  generator.reset();
  EXPECT_EQ(drain_digest(generator, 128), GetParam().full);
}

/// FNV-1a over every field of every Arrival record, in order.
std::string arrivals_digest(const std::vector<Arrival>& arrivals) {
  std::uint64_t hash = core::kFnv1a64Basis;
  for (const Arrival& a : arrivals) {
    const double fields[] = {static_cast<double>(a.id.value()),
                             static_cast<double>(a.city.value()), a.arrival_s,
                             a.bitrate_mbps, a.end_s};
    std::uint8_t bytes[sizeof fields];
    std::memcpy(bytes, fields, sizeof fields);
    hash = core::fnv1a64(bytes, hash);
  }
  char text[17];
  std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(hash));
  return text;
}

/// Everything the generator still has to emit, through next_arrivals
/// `pull` at a time.
std::vector<Arrival> drain_arrivals(BrokerTraceGenerator& generator, std::size_t pull) {
  std::vector<Arrival> all;
  std::vector<Arrival> buffer;
  while (true) {
    generator.next_arrivals(pull, buffer);
    if (buffer.empty()) return all;
    all.insert(all.end(), buffer.begin(), buffer.end());
  }
}

TEST_P(GeneratorPrefetch, ArrivalsOverInFlightBlocksMatchTheBatchProjection) {
  // The reference is the projection of next_batch; next_arrivals reads the
  // same blocks as the worker hands them over.
  const auto projected = [this](std::size_t seek_to) {
    BrokerTraceGenerator generator = make();
    generator.seek(seek_to);
    std::vector<Arrival> arrivals;
    while (!generator.exhausted()) {
      for (const Session& s : generator.next_batch(512)) arrivals.push_back(to_arrival(s));
    }
    return arrivals_digest(arrivals);
  };
  const std::string full = projected(0);
  const std::string tail = projected(kSeekTo);

  for (const std::size_t pull : {std::size_t{1}, std::size_t{256}, kBlockSessions + 1}) {
    BrokerTraceGenerator generator = make();
    EXPECT_EQ(arrivals_digest(drain_arrivals(generator, pull)), full) << "pull " << pull;
  }
  BrokerTraceGenerator generator = make();
  std::vector<Arrival> buffer;
  generator.next_arrivals(kBlockSessions + 100, buffer);  // block 2 in flight
  generator.seek(kSeekTo);
  EXPECT_EQ(arrivals_digest(drain_arrivals(generator, 256)), tail);
  generator.reset();
  generator.next_arrivals(1, buffer);  // block 0 out, block 1 in flight
  generator.reset();
  EXPECT_EQ(arrivals_digest(drain_arrivals(generator, 128)), full);
}

TEST_P(GeneratorPrefetch, DestroyWhileTheNextBlockIsInFlight) {
  for (const std::size_t pulled :
       {std::size_t{1}, kBlockSessions, 3 * kBlockSessions + 7}) {
    BrokerTraceGenerator generator = make();
    EXPECT_EQ(generator.next_batch(pulled).size(), pulled);
  }
}

INSTANTIATE_TEST_SUITE_P(Streams, GeneratorPrefetch, ::testing::ValuesIn(kCases),
                         [](const auto& info) {
                           std::string name = info.param.name;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace vdx::trace
