#include "trace/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>

#include "proto/wire.hpp"

namespace vdx::trace {
namespace {

BrokerTrace sample_trace() {
  const geo::World world = geo::World::generate({});
  TraceConfig config;
  config.session_count = 2000;
  core::Rng rng{7};
  return generate_trace(world, config, rng);
}

void expect_equal(const BrokerTrace& a, const BrokerTrace& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_DOUBLE_EQ(a.duration_s(), b.duration_s());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const Session& x = a.sessions()[i];
    const Session& y = b.sessions()[i];
    EXPECT_EQ(x.id, y.id);
    EXPECT_DOUBLE_EQ(x.arrival_s, y.arrival_s);
    EXPECT_EQ(x.video, y.video);
    EXPECT_DOUBLE_EQ(x.bitrate_mbps, y.bitrate_mbps);
    EXPECT_DOUBLE_EQ(x.duration_s, y.duration_s);
    EXPECT_EQ(x.city, y.city);
    EXPECT_EQ(x.as_number, y.as_number);
    EXPECT_EQ(x.abandoned, y.abandoned);
    EXPECT_EQ(x.initial_cdn, y.initial_cdn);
    ASSERT_EQ(x.switches.size(), y.switches.size());
    for (std::size_t k = 0; k < x.switches.size(); ++k) {
      EXPECT_DOUBLE_EQ(x.switches[k].time_s, y.switches[k].time_s);
      EXPECT_EQ(x.switches[k].from, y.switches[k].from);
      EXPECT_EQ(x.switches[k].to, y.switches[k].to);
    }
  }
}

TEST(TraceIo, StreamRoundTripIsBitExact) {
  const BrokerTrace original = sample_trace();
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  save_trace(original, buffer);
  const BrokerTrace loaded = load_trace(buffer);
  expect_equal(original, loaded);
}

TEST(TraceIo, FileRoundTrip) {
  const BrokerTrace original = sample_trace();
  const std::string path = ::testing::TempDir() + "/vdx_trace_io_test.bin";
  save_trace_file(original, path);
  const BrokerTrace loaded = load_trace_file(path);
  expect_equal(original, loaded);
  std::remove(path.c_str());
}

TEST(TraceIo, RejectsBadMagic) {
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  save_trace(sample_trace(), buffer);
  std::string bytes = buffer.str();
  bytes[0] = 'X';
  std::stringstream corrupted{bytes, std::ios::in | std::ios::binary};
  EXPECT_THROW((void)load_trace(corrupted), std::runtime_error);
}

TEST(TraceIo, RejectsTruncation) {
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  save_trace(sample_trace(), buffer);
  std::string bytes = buffer.str();
  bytes.resize(bytes.size() / 2);
  std::stringstream truncated{bytes, std::ios::in | std::ios::binary};
  EXPECT_THROW((void)load_trace(truncated), std::runtime_error);
}

TEST(TraceIo, RejectsTrailingGarbage) {
  std::stringstream buffer{std::ios::in | std::ios::out | std::ios::binary};
  save_trace(sample_trace(), buffer);
  std::string bytes = buffer.str() + "junk";
  std::stringstream padded{bytes, std::ios::in | std::ios::binary};
  EXPECT_THROW((void)load_trace(padded), std::runtime_error);
}

// A session or switch count larger than the bytes behind it is a corrupt
// trace (std::runtime_error), not an allocation of that many records.
TEST(TraceIo, RejectsLyingCounts) {
  proto::ByteWriter sessions;
  sessions.write_u32(0x58444276);  // magic
  sessions.write_u16(1);           // version
  sessions.write_f64(3600.0);      // duration
  sessions.write_u32(0xFFFFFFFFu);
  std::string bytes{sessions.data().begin(), sessions.data().end()};
  std::stringstream lying_sessions{bytes, std::ios::in | std::ios::binary};
  EXPECT_THROW((void)load_trace(lying_sessions), std::runtime_error);

  // One session whose switch count (its last field) lies.
  proto::ByteWriter switches;
  switches.write_u32(0x58444276);
  switches.write_u16(1);
  switches.write_f64(3600.0);
  switches.write_u32(1);
  switches.write_u32(0);       // id
  switches.write_f64(0.0);     // arrival
  switches.write_u32(0);       // video
  switches.write_f64(1.0);     // bitrate
  switches.write_f64(10.0);    // duration
  switches.write_u32(0);       // city
  switches.write_u32(0);       // as_number
  switches.write_u8(0);        // abandoned
  switches.write_u8(0);        // initial CDN
  switches.write_u32(0xFFFFFFFFu);
  bytes.assign(switches.data().begin(), switches.data().end());
  std::stringstream lying_switches{bytes, std::ios::in | std::ios::binary};
  EXPECT_THROW((void)load_trace(lying_switches), std::runtime_error);
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW((void)load_trace_file("/nonexistent/path/trace.bin"),
               std::runtime_error);
}

}  // namespace
}  // namespace vdx::trace
