// Snapshot envelope + CheckpointStore unit tests: round-trips, exhaustive
// truncation/bit-flip rejection, version gating, trailing-byte rejection,
// atomic writes, retention, and corrupted-latest fallback (DESIGN.md §10).
#include "state/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/observe.hpp"
#include "proto/wire.hpp"
#include "state/checkpoint.hpp"
#include "state/store.hpp"

namespace vdx::state {
namespace {

std::vector<std::uint8_t> sample_snapshot() {
  SnapshotWriter writer;
  writer.add_section(1, {0xDE, 0xAD, 0xBE, 0xEF});
  writer.add_section(7, {});
  writer.add_section(42, std::vector<std::uint8_t>(100, 0x5A));
  return writer.finish();
}

class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(std::filesystem::temp_directory_path() /
              ("vdx_state_test_" + tag + "_" +
               std::to_string(::testing::UnitTest::GetInstance()->random_seed()))) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

TEST(Snapshot, RoundTripsSections) {
  const std::vector<std::uint8_t> bytes = sample_snapshot();
  const auto parsed = SnapshotView::parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  const SnapshotView& view = parsed.value();
  ASSERT_EQ(view.sections().size(), 3u);
  ASSERT_NE(view.find(1), nullptr);
  EXPECT_EQ(view.find(1)->bytes, (std::vector<std::uint8_t>{0xDE, 0xAD, 0xBE, 0xEF}));
  ASSERT_NE(view.find(7), nullptr);
  EXPECT_TRUE(view.find(7)->bytes.empty());
  ASSERT_NE(view.find(42), nullptr);
  EXPECT_EQ(view.find(42)->bytes.size(), 100u);
  EXPECT_EQ(view.find(999), nullptr);
}

TEST(Snapshot, EmptySnapshotParses) {
  const std::vector<std::uint8_t> bytes = SnapshotWriter{}.finish();
  const auto parsed = SnapshotView::parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_TRUE(parsed.value().sections().empty());
}

TEST(Snapshot, EveryTruncationIsRejected) {
  const std::vector<std::uint8_t> bytes = sample_snapshot();
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    const auto parsed = SnapshotView::parse(
        std::span<const std::uint8_t>{bytes.data(), len});
    ASSERT_FALSE(parsed.ok()) << "prefix of length " << len << " parsed";
    EXPECT_TRUE(parsed.error().code == core::Errc::kCorruptSnapshot ||
                parsed.error().code == core::Errc::kVersionMismatch)
        << "prefix " << len << ": " << errc_name(parsed.error().code);
  }
}

TEST(Snapshot, EveryBitFlipIsRejected) {
  const std::vector<std::uint8_t> bytes = sample_snapshot();
  for (std::size_t pos = 0; pos < bytes.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<std::uint8_t> mutated = bytes;
      mutated[pos] ^= static_cast<std::uint8_t>(1u << bit);
      const auto parsed = SnapshotView::parse(mutated);
      ASSERT_FALSE(parsed.ok()) << "flip at byte " << pos << " bit " << bit
                                << " still parsed";
      EXPECT_TRUE(parsed.error().code == core::Errc::kCorruptSnapshot ||
                  parsed.error().code == core::Errc::kVersionMismatch);
    }
  }
}

TEST(Snapshot, WrongMagicIsCorrupt) {
  std::vector<std::uint8_t> bytes = sample_snapshot();
  bytes[0] ^= 0xFF;
  const auto parsed = SnapshotView::parse(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, core::Errc::kCorruptSnapshot);
}

TEST(Snapshot, FutureVersionIsVersionMismatch) {
  // The version field sits right after the 8-byte magic; it is validated
  // before the file checksum so a format bump reports as kVersionMismatch,
  // not generic corruption.
  std::vector<std::uint8_t> bytes = sample_snapshot();
  bytes[8] = static_cast<std::uint8_t>(kFormatVersion + 1);
  const auto parsed = SnapshotView::parse(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, core::Errc::kVersionMismatch);
}

TEST(Snapshot, TrailingBytesAreRejected) {
  std::vector<std::uint8_t> bytes = sample_snapshot();
  bytes.push_back(0x00);
  auto parsed = SnapshotView::parse(bytes);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, core::Errc::kCorruptSnapshot);

  // A duplicated (self-concatenated) snapshot must not parse as its first
  // copy — exactly the shape a duplicate-write fault produces.
  std::vector<std::uint8_t> doubled = sample_snapshot();
  const std::vector<std::uint8_t> original = doubled;
  doubled.insert(doubled.end(), original.begin(), original.end());
  parsed = SnapshotView::parse(doubled);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.error().code, core::Errc::kCorruptSnapshot);
}

/// `bytes` with section `id` swapped for `payload`, in a fresh envelope:
/// every checksum is valid, so only the section's content is wrong.
std::vector<std::uint8_t> with_section(std::span<const std::uint8_t> bytes,
                                       std::uint32_t id,
                                       const std::vector<std::uint8_t>& payload) {
  const auto view = SnapshotView::parse(bytes);
  EXPECT_TRUE(view.ok());
  SnapshotWriter writer;
  for (const Section& section : view.value().sections()) {
    writer.add_section(section.id, section.id == id ? payload : section.bytes);
  }
  return writer.finish();
}

// Checkpoint element counts whose `count * record size` wraps u64 to a
// small value once passed the overrun guards and threw from reserve()
// (std::length_error) instead of failing typed. Each counted list of both
// checkpoint kinds gets one: the cursor (24-byte sessions), the journal
// (33-byte events), the background loads and the churn assignments (8
// bytes each).
TEST(Snapshot, WrappedCheckpointCountsAreCorruptSnapshot) {
  constexpr std::uint64_t kWrapsTo8For8 = (std::uint64_t{1} << 61) + 1;
  constexpr std::uint64_t kWrapsTo8For24 = 768614336404564651ULL;
  constexpr std::uint64_t kWrapsTo17For33 = 558992244657865201ULL;
  const auto section = [](auto&& write) {
    proto::ByteWriter w;
    write(w);
    return w.take();
  };
  const auto cursor = section([&](proto::ByteWriter& w) {
    w.write_u64(0);  // consumed
    w.write_u64(kWrapsTo8For24);
    w.write_u64(0);
  });
  const auto journal = section([&](proto::ByteWriter& w) {
    w.write_u64(UINT64_MAX);  // total: no smaller than any count
    w.write_u32(0);
    w.write_u64(kWrapsTo17For33);
    w.write_bytes(std::vector<std::uint8_t>(17, 0));
  });
  const auto progress = section([&](proto::ByteWriter& w) {
    for (int i = 0; i < 5; ++i) w.write_u64(0);
    w.write_u8(0);  // background_stale
    w.write_u64(0);  // shed_sessions
    w.write_u64(kWrapsTo8For8);
    w.write_f64(0.0);
  });
  const auto churn = section([&](proto::ByteWriter& w) {
    w.write_f64(0.0);
    w.write_f64(0.0);
    w.write_u64(kWrapsTo8For8);
    w.write_u64(0);
  });

  const auto daemon = encode(DaemonCheckpoint{});
  for (const auto& [id, payload] :
       {std::pair{7u, cursor}, std::pair{6u, journal}}) {
    const auto decoded = decode_daemon(with_section(daemon, id, payload));
    ASSERT_FALSE(decoded.ok()) << "daemon section " << id;
    EXPECT_EQ(decoded.error().code, core::Errc::kCorruptSnapshot);
  }
  const auto timeline = encode(TimelineCheckpoint{});
  for (const auto& [id, payload] :
       {std::pair{2u, progress}, std::pair{3u, cursor}, std::pair{4u, cursor},
        std::pair{5u, churn}, std::pair{6u, journal}}) {
    const auto decoded = decode_timeline(with_section(timeline, id, payload));
    ASSERT_FALSE(decoded.ok()) << "timeline section " << id;
    EXPECT_EQ(decoded.error().code, core::Errc::kCorruptSnapshot);
  }
}

TEST(Snapshot, AtomicWriteRoundTripsAndLeavesNoTmp) {
  const TempDir dir{"atomic"};
  const std::filesystem::path path = dir.path() / "snap.vdxsnap";
  const std::vector<std::uint8_t> bytes = sample_snapshot();
  ASSERT_TRUE(write_file_atomic(path, bytes).ok());
  EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp"));
  const auto read = read_file(path);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.value(), bytes);
}

TEST(Snapshot, ReadMissingFileIsUnavailable) {
  const auto read = read_file("/nonexistent/vdx/snapshot.vdxsnap");
  ASSERT_FALSE(read.ok());
  EXPECT_EQ(read.error().code, core::Errc::kUnavailable);
}

TEST(CheckpointStore, RetainsOnlyNewestK) {
  const TempDir dir{"retention"};
  obs::MetricsRegistry metrics;
  CheckpointStore store{dir.path(), 2, obs::Observer{&metrics, nullptr, nullptr}};
  const std::vector<std::uint8_t> bytes = sample_snapshot();
  for (std::uint64_t epoch = 0; epoch < 5; ++epoch) {
    ASSERT_TRUE(store.write(epoch, bytes).ok());
  }
  const auto snapshots = store.list();
  ASSERT_EQ(snapshots.size(), 2u);
  EXPECT_EQ(snapshots[0].filename().string(), "checkpoint-00000004.vdxsnap");
  EXPECT_EQ(snapshots[1].filename().string(), "checkpoint-00000003.vdxsnap");
  EXPECT_DOUBLE_EQ(metrics.counter("state.snapshots_written").value(), 5.0);
  EXPECT_DOUBLE_EQ(metrics.counter("state.snapshot_bytes").value(),
                   5.0 * static_cast<double>(bytes.size()));
}

TEST(CheckpointStore, ListIgnoresForeignAndTmpFiles) {
  const TempDir dir{"foreign"};
  CheckpointStore store{dir.path(), 3};
  ASSERT_TRUE(store.write(1, sample_snapshot()).ok());
  std::ofstream{dir.path() / "notes.txt"} << "not a snapshot";
  std::ofstream{dir.path() / "checkpoint-00000009.vdxsnap.tmp"} << "torn write";
  std::ofstream{dir.path() / "checkpoint-abc.vdxsnap"} << "bad epoch";
  EXPECT_EQ(store.list().size(), 1u);
}

TEST(CheckpointStore, LoadLatestFallsBackPastCorruptedSnapshots) {
  const TempDir dir{"fallback"};
  obs::MetricsRegistry metrics;
  CheckpointStore store{dir.path(), 3, obs::Observer{&metrics, nullptr, nullptr}};
  const std::vector<std::uint8_t> bytes = sample_snapshot();
  ASSERT_TRUE(store.write(1, bytes).ok());
  ASSERT_TRUE(store.write(2, bytes).ok());
  ASSERT_TRUE(store.write(3, bytes).ok());

  // Corrupt the newest on disk (bit flip) and truncate the second-newest.
  {
    std::fstream f{dir.path() / "checkpoint-00000003.vdxsnap",
                   std::ios::in | std::ios::out | std::ios::binary};
    f.seekp(12);
    f.put(static_cast<char>(0x7F));
  }
  std::filesystem::resize_file(dir.path() / "checkpoint-00000002.vdxsnap", 10);

  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value().epoch, 1u);
  EXPECT_EQ(loaded.value().bytes, bytes);
  EXPECT_EQ(loaded.value().rejected.size(), 2u);
  EXPECT_DOUBLE_EQ(metrics.counter("state.snapshots_rejected").value(), 2.0);
}

TEST(CheckpointStore, LoadLatestHonorsValidator) {
  const TempDir dir{"validator"};
  CheckpointStore store{dir.path(), 3};
  ASSERT_TRUE(store.write(5, sample_snapshot()).ok());

  std::size_t calls = 0;
  const auto reject_all = [&calls](std::span<const std::uint8_t>) {
    ++calls;
    return core::Status::failure(core::Errc::kInvalidArgument, "wrong fingerprint");
  };
  const auto failed = store.load_latest(reject_all);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.error().code, core::Errc::kInvalidArgument);
  EXPECT_EQ(calls, 1u);

  const auto accepted =
      store.load_latest([](std::span<const std::uint8_t>) { return core::ok_status(); });
  ASSERT_TRUE(accepted.ok());
  EXPECT_EQ(accepted.value().epoch, 5u);
}

TEST(CheckpointStore, EmptyDirectoryIsUnavailable) {
  const TempDir dir{"empty"};
  const CheckpointStore store{dir.path(), 3};
  const auto loaded = store.load_latest();
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().code, core::Errc::kUnavailable);
}

}  // namespace
}  // namespace vdx::state
