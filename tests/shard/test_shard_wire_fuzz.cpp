// Shard wire-codec fuzz (DESIGN.md §14): every corrupted, truncated, or
// otherwise mangled frame — produced by proto::FaultInjector, the same
// mutation engine the chaos drills use — must be rejected with a typed
// Errc::kCorruptFrame, and a worker fed such bytes must NEVER partially
// apply state: its save_state() image is byte-identical before and after
// every rejected frame.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "core/fnv1a.hpp"
#include "market/shard.hpp"
#include "proto/fault.hpp"
#include "proto/shard_wire.hpp"
#include "proto/wire.hpp"
#include "state/snapshot.hpp"

namespace vdx::proto {
namespace {

/// A representative valid frame of every data-plane type.
std::vector<ShardFrame> corpus() {
  std::vector<ShardFrame> frames;
  {
    ShardFrame hello;
    hello.type = ShardFrameType::kHello;
    ShardHello payload;
    payload.shard = 1;
    payload.shard_count = 4;
    payload.city_count = 6;
    payload.plan_hash = 0xfeedfacecafebeefULL;
    payload.cdn_of_cluster = {0, 0, 1, 2, 2, 2};
    hello.shard = 1;
    hello.payload = encode_shard_hello(payload);
    frames.push_back(hello);
  }
  {
    ShardFrame demand;
    demand.type = ShardFrameType::kSetDemand;
    demand.shard = 1;
    std::vector<ShardGroup> groups;
    for (std::uint32_t i = 0; i < 5; ++i) {
      broker::ClientGroup g{broker::ShareId{i}, geo::CityId{i % 3}, 0,
                            1.0 + 0.5 * i, 10.0 * (i + 1)};
      groups.push_back(ShardGroup{i, g});
    }
    demand.payload = encode_shard_groups(groups);
    frames.push_back(demand);
  }
  {
    ShardFrame journal;
    journal.type = ShardFrameType::kJournalRequest;
    journal.shard = 1;
    journal.round = 7;
    frames.push_back(journal);
  }
  {
    ShardFrame allocation;
    allocation.type = ShardFrameType::kAllocation;
    allocation.shard = 1;
    allocation.round = 7;
    std::vector<ShardPlacement> placements;
    for (std::uint32_t i = 0; i < 4; ++i) {
      placements.push_back({i, i * 3, 12.5, 0.02, 3.9, 1.5});
    }
    allocation.payload = encode_allocation(placements);
    frames.push_back(allocation);
  }
  return frames;
}

TEST(ShardWireFuzz, EveryInjectorMutationIsRejectedWithCorruptFrame) {
  // 100% corruption (1-3 bit flips) and, in a second pass, 100% truncation.
  for (const bool truncate : {false, true}) {
    FaultProfile profile;
    profile.corrupt_rate = truncate ? 0.0 : 1.0;
    profile.truncate_rate = truncate ? 1.0 : 0.0;
    profile.seed = truncate ? 77 : 33;
    FaultInjector injector{profile};

    std::size_t mutated_frames = 0;
    for (std::size_t round = 0; round < 64; ++round) {
      for (const ShardFrame& frame : corpus()) {
        const std::vector<std::uint8_t> wire = encode_shard_frame(frame);
        for (const FaultedFrame& out : injector.apply(round % 8, wire)) {
          const auto decoded = try_decode_shard_frame(out.bytes);
          // Two flips of one bit cancel: the injector still flags the copy
          // as mutated, but its bytes are the original frame's.
          if (!out.mutated || out.bytes == wire) {
            // An unmutated copy must still decode to the original.
            ASSERT_TRUE(decoded.ok());
            EXPECT_EQ(decoded.value(), frame);
            continue;
          }
          ++mutated_frames;
          ASSERT_FALSE(decoded.ok())
              << "mutated frame decoded cleanly (round " << round << ")";
          EXPECT_EQ(decoded.error().code, core::Errc::kCorruptFrame);
        }
      }
    }
    EXPECT_GT(mutated_frames, 100u);  // the injector demonstrably fired
  }
}

TEST(ShardWireFuzz, EveryTruncationPrefixIsRejected) {
  for (const ShardFrame& frame : corpus()) {
    const std::vector<std::uint8_t> wire = encode_shard_frame(frame);
    for (std::size_t len = 0; len < wire.size(); ++len) {
      const auto decoded =
          try_decode_shard_frame(std::span{wire.data(), len});
      ASSERT_FALSE(decoded.ok()) << "prefix " << len << "/" << wire.size();
      EXPECT_EQ(decoded.error().code, core::Errc::kCorruptFrame);
    }
    // Trailing garbage after a valid frame is just as corrupt.
    std::vector<std::uint8_t> padded = wire;
    padded.push_back(0xAB);
    const auto decoded = try_decode_shard_frame(padded);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.error().code, core::Errc::kCorruptFrame);
  }
}

TEST(ShardWireFuzz, DuplicatedFramesDecodeToTheOriginal) {
  FaultProfile profile;
  profile.duplicate_rate = 1.0;
  profile.seed = 55;
  FaultInjector injector{profile};
  for (const ShardFrame& frame : corpus()) {
    const std::vector<std::uint8_t> wire = encode_shard_frame(frame);
    const auto copies = injector.apply(0, wire);
    ASSERT_EQ(copies.size(), 2u);
    for (const FaultedFrame& out : copies) {
      const auto decoded = try_decode_shard_frame(out.bytes);
      ASSERT_TRUE(decoded.ok());
      EXPECT_EQ(decoded.value(), frame);
    }
  }
}

/// A kSetDemand frame for shard 1 carrying `groups`.
ShardFrame set_demand(const std::vector<ShardGroup>& groups) {
  ShardFrame frame;
  frame.type = ShardFrameType::kSetDemand;
  frame.shard = 1;
  frame.payload = encode_shard_groups(groups);
  return frame;
}

/// A demand group on `city` with the given bitrate.
ShardGroup group_on(std::uint32_t id, std::uint32_t city, double bitrate) {
  return ShardGroup{id, broker::ClientGroup{broker::ShareId{id}, geo::CityId{city}, 0,
                                            bitrate, 4.0}};
}

/// Configures `worker` (shard 1 of 2) with a populated demand slice —
/// state worth protecting from partial application.
void configure_worker(market::ShardWorker& worker) {
  ShardFrame hello;
  hello.type = ShardFrameType::kHello;
  hello.shard = 1;
  ShardHello payload;
  payload.shard = 1;
  payload.shard_count = 2;
  payload.city_count = 4;
  payload.plan_hash = 42;
  payload.cdn_of_cluster = {0, 1, 1, 2};
  hello.payload = encode_shard_hello(payload);
  EXPECT_EQ(worker.handle(hello).type, ShardFrameType::kAck);

  std::vector<ShardGroup> slice;
  for (std::uint32_t i = 0; i < 8; ++i) slice.push_back(group_on(i, i % 4, 1.8));
  EXPECT_EQ(worker.handle(set_demand(slice)).type, ShardFrameType::kAck);
}

TEST(ShardWireFuzz, WorkerRejectsMutatedBytesWithoutTouchingState) {
  market::ShardWorker worker{1};
  configure_worker(worker);
  const std::vector<std::uint8_t> before = worker.save_state();
  ASSERT_FALSE(before.empty());

  FaultProfile profile;
  profile.corrupt_rate = 0.6;
  profile.truncate_rate = 0.4;
  profile.seed = 99;
  FaultInjector injector{profile};

  std::size_t rejected = 0;
  for (std::size_t round = 0; round < 48; ++round) {
    for (const ShardFrame& frame : corpus()) {
      const std::vector<std::uint8_t> wire = encode_shard_frame(frame);
      for (const FaultedFrame& out : injector.apply(0, wire)) {
        if (!out.mutated || out.bytes == wire) continue;  // flips cancelled
        bool shutdown = false;
        const auto response_bytes = worker.handle_bytes(out.bytes, &shutdown);
        EXPECT_FALSE(shutdown);
        const auto response = try_decode_shard_frame(response_bytes);
        ASSERT_TRUE(response.ok());  // the REPLY is always well-formed
        ASSERT_EQ(response.value().type, ShardFrameType::kError);
        const auto error = decode_shard_error(response.value().payload);
        ASSERT_TRUE(error.ok());
        EXPECT_EQ(error.value().code, core::Errc::kCorruptFrame);
        ++rejected;
        EXPECT_EQ(worker.save_state(), before)
            << "rejected frame partially applied state (round " << round << ")";
      }
    }
  }
  EXPECT_GT(rejected, 50u);
}

TEST(ShardWireFuzz, WorkerRejectsWellFormedButInvalidPayloadsAtomically) {
  market::ShardWorker worker{1};
  configure_worker(worker);
  const std::vector<std::uint8_t> before = worker.save_state();

  const auto expect_rejected = [&](const ShardFrame& frame, core::Errc want) {
    const ShardFrame response = worker.handle(frame);
    ASSERT_EQ(response.type, ShardFrameType::kError);
    const auto error = decode_shard_error(response.payload);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error.value().code, want);
    EXPECT_EQ(worker.save_state(), before);
  };

  // A slice whose LAST group references an unknown city: the valid prefix
  // must not replace the held slice.
  expect_rejected(set_demand({group_on(0, 0, 1.0), group_on(1, 1, 1.0),
                              group_on(2, 999, 1.0)}),
                  core::Errc::kInvalidArgument);

  // Non-finite and non-positive bitrates.
  expect_rejected(
      set_demand({group_on(0, 0, std::numeric_limits<double>::quiet_NaN())}),
      core::Errc::kInvalidArgument);
  expect_rejected(set_demand({group_on(0, 0, -2.0)}), core::Errc::kInvalidArgument);

  // A frame addressed to the wrong shard.
  ShardFrame misrouted;
  misrouted.type = ShardFrameType::kJournalRequest;
  misrouted.shard = 3;
  expect_rejected(misrouted, core::Errc::kInvalidArgument);
}

/// The current worker snapshot format version.
constexpr std::uint32_t kWorkerVersion = 3;

/// ShardWorker::save_state's core/journal/counters sections (20/21/22)
/// around an arbitrary demand slice, with the topology configure_worker
/// pinned, in format `version`: 1 has no version section (19), and 1 and 2
/// carry the retired last-collect round in the core section.
std::vector<std::uint8_t> worker_snapshot_with(const std::vector<ShardGroup>& demand,
                                               std::uint32_t version) {
  state::SnapshotWriter writer;
  if (version > 1) {
    ByteWriter section;
    section.write_u32(version);
    writer.add_section(19, section.take());
  }
  ByteWriter w;
  w.write_u32(1);   // shard
  w.write_u32(2);   // shard_count
  w.write_u32(4);   // city_count
  w.write_u64(42);  // plan_hash
  w.write_u64(3);   // rounds_applied
  w.write_u64(2);   // last allocation round
  if (version < 3) w.write_u64(2);  // last collect round
  const auto slice = encode_shard_groups(demand);
  w.write_u32(static_cast<std::uint32_t>(slice.size()));
  w.write_bytes(slice);
  writer.add_section(20, w.take());  // worker core
  writer.add_section(21, encode_journal_slice({0, 0, {}}));
  ByteWriter counters;
  counters.write_u32(0);
  writer.add_section(22, counters.take());  // counters
  return writer.finish();
}

/// The worker's typed rejection of a kRestoreState, or nullopt on success.
std::optional<core::Errc> restore_error(market::ShardWorker& worker,
                                        const std::vector<std::uint8_t>& snapshot) {
  ShardFrame restore;
  restore.type = ShardFrameType::kRestoreState;
  restore.shard = 1;
  restore.payload = snapshot;
  const ShardFrame response = worker.handle(restore);
  if (response.type != ShardFrameType::kError) return std::nullopt;
  const auto error = decode_shard_error(response.payload);
  return error.ok() ? error.value().code : core::Errc::kCorruptFrame;
}

// A checksum-valid snapshot whose demand slice no kSetDemand would have
// been accepted with (unknown city, non-positive bitrate) must be rejected
// with NO partial mutation — rounds/demand/journal all stay exactly as they
// were, even though the failure is only discoverable after the envelope
// and every section decoded cleanly.
TEST(ShardWireFuzz, WorkerSnapshotWithUnappliableDemandIsRejectedAtomically) {
  market::ShardWorker worker{1};
  configure_worker(worker);
  const std::vector<std::uint8_t> before = worker.save_state();

  const std::vector<std::vector<ShardGroup>> bad_slices = {
      {group_on(0, 1, 1.0), group_on(1, 9, 1.0)},  // unknown city
      {group_on(0, 1, -1.0)},                      // non-positive bitrate
  };
  for (const auto& slice : bad_slices) {
    EXPECT_EQ(restore_error(worker, worker_snapshot_with(slice, kWorkerVersion)),
              core::Errc::kInvalidArgument);
    EXPECT_EQ(worker.save_state(), before)
        << "rejected snapshot partially applied state";
  }
  // The same layout with a valid slice restores, so the rejections above
  // were about the slice alone.
  EXPECT_EQ(
      restore_error(worker, worker_snapshot_with({group_on(0, 1, 1.0)}, kWorkerVersion)),
      std::nullopt);
}

// Snapshots from before the session book moved to the coordinator carry no
// version section, and version 2 still carried the retired last-collect
// round: both fail typed instead of being misread.
TEST(ShardWireFuzz, VersionOneWorkerSnapshotFailsWithVersionMismatch) {
  market::ShardWorker worker{1};
  configure_worker(worker);
  const std::vector<std::uint8_t> before = worker.save_state();
  for (const std::uint32_t version : {1u, 2u}) {
    EXPECT_EQ(restore_error(worker, worker_snapshot_with({group_on(0, 1, 1.0)}, version)),
              core::Errc::kVersionMismatch)
        << "version " << version;
    EXPECT_EQ(worker.save_state(), before) << "version " << version;
  }
}

/// The worker's error code for raw request bytes, or nullopt unless the
/// reply is a well-formed kError frame.
std::optional<core::Errc> worker_error_for(market::ShardWorker& worker,
                                           std::span<const std::uint8_t> bytes) {
  const auto response = try_decode_shard_frame(worker.handle_bytes(bytes));
  if (!response.ok() || response.value().type != ShardFrameType::kError) {
    return std::nullopt;
  }
  const auto error = decode_shard_error(response.value().payload);
  if (!error.ok()) return std::nullopt;
  return error.value().code;
}

// Type byte 3 carried per-shard session deltas in protocol version 1,
// 10/11 drove the per-shard checkpoint stores in version 2, and 4/5 were the
// collect round trip in version 3. They are retired, not reassigned: a frame
// using one is corrupt even with a valid checksum, and a worker answers it
// with kCorruptFrame.
TEST(ShardWireFuzz, RetiredSessionDeltaTypeByteIsRejected) {
  for (const std::uint8_t retired : {3, 4, 5, 10, 11}) {
    ShardFrame frame;
    frame.type = ShardFrameType::kJournalRequest;
    frame.shard = 1;
    std::vector<std::uint8_t> wire = encode_shard_frame(frame);
    wire[4] = retired;  // the type byte follows the 4-byte magic
    const std::size_t body = wire.size() - 8;
    ByteWriter checksum;
    checksum.write_u64(core::fnv1a64(std::span{wire.data(), body}));
    std::copy(checksum.data().begin(), checksum.data().end(), wire.begin() + body);

    EXPECT_FALSE(shard_frame_type_known(retired)) << int{retired};
    const auto decoded = try_decode_shard_frame(wire);
    ASSERT_FALSE(decoded.ok()) << int{retired};
    EXPECT_EQ(decoded.error().code, core::Errc::kCorruptFrame);

    market::ShardWorker worker{1};
    configure_worker(worker);
    EXPECT_EQ(worker_error_for(worker, wire), core::Errc::kCorruptFrame)
        << int{retired};
  }
}

// A u32-sized element count with nothing behind it must be rejected typed
// before anything is reserved for it — by every counted payload decoder,
// and by a worker that receives one inside a checksum-valid frame.
TEST(ShardWireFuzz, LyingElementCountsAreRejectedWithoutAllocating) {
  constexpr std::uint64_t kLie = std::numeric_limits<std::uint32_t>::max();
  ByteWriter groups;
  groups.write_u64(kLie);
  ByteWriter placements;
  placements.write_u64(kLie);
  ByteWriter hello;
  hello.write_u32(1);  // shard
  hello.write_u32(2);  // shard_count
  hello.write_u32(4);  // city_count
  hello.write_u64(42);  // plan_hash
  hello.write_u64(kLie);  // clusters
  hello.write_u64(4096);  // journal_capacity
  ByteWriter journal;
  journal.write_u64(0);  // total_recorded
  journal.write_u32(0);  // round
  journal.write_u64(kLie);

  const auto expect_corrupt = [](const auto& decoded, const char* what) {
    ASSERT_FALSE(decoded.ok()) << what;
    EXPECT_EQ(decoded.error().code, core::Errc::kCorruptFrame) << what;
  };
  expect_corrupt(decode_shard_groups(groups.data()), "groups");
  expect_corrupt(decode_allocation(placements.data()), "allocation");
  expect_corrupt(decode_shard_hello(hello.data()), "hello");
  expect_corrupt(decode_journal_slice(journal.data()), "journal slice");

  ShardFrame lying_hello;
  lying_hello.type = ShardFrameType::kHello;
  lying_hello.shard = 1;
  lying_hello.payload = hello.data();
  market::ShardWorker fresh{1};
  EXPECT_EQ(worker_error_for(fresh, encode_shard_frame(lying_hello)),
            core::Errc::kCorruptFrame);
  EXPECT_FALSE(fresh.configured());

  market::ShardWorker worker{1};
  configure_worker(worker);
  const std::vector<std::uint8_t> before = worker.save_state();
  ShardFrame demand;
  demand.type = ShardFrameType::kSetDemand;
  demand.shard = 1;
  demand.payload = groups.data();
  ShardFrame allocation;
  allocation.type = ShardFrameType::kAllocation;
  allocation.shard = 1;
  allocation.payload = placements.data();
  for (const ShardFrame& frame : {demand, allocation}) {
    EXPECT_EQ(worker_error_for(worker, encode_shard_frame(frame)),
              core::Errc::kCorruptFrame)
        << static_cast<int>(frame.type);
    EXPECT_EQ(worker.save_state(), before);
  }
}

// The chaos path delivers EVERY duplicated copy to the worker (no
// collapsing), so a redelivered data-plane frame must ack byte-identically
// and leave no extra state behind.
TEST(ShardWireFuzz, RedeliveredFramesAreIdempotentAtTheWorker) {
  market::ShardWorker worker{1};
  configure_worker(worker);

  const ShardFrame demand = set_demand({group_on(0, 0, 2.0), group_on(1, 1, 4.0)});

  ShardFrame journal;
  journal.type = ShardFrameType::kJournalRequest;
  journal.shard = 1;
  journal.round = 0;

  ShardFrame allocation;
  allocation.type = ShardFrameType::kAllocation;
  allocation.shard = 1;
  allocation.round = 0;
  const std::vector<ShardPlacement> placements{{0, 1, 3.0, 0.01, 1.0, 2.0}};
  allocation.payload = encode_allocation(placements);

  for (const ShardFrame& frame : {demand, journal, allocation}) {
    const ShardFrame first = worker.handle(frame);
    ASSERT_NE(first.type, ShardFrameType::kError)
        << static_cast<int>(frame.type);
    const auto after_first = worker.save_state();
    const ShardFrame second = worker.handle(frame);
    EXPECT_EQ(encode_shard_frame(first), encode_shard_frame(second))
        << static_cast<int>(frame.type);
    EXPECT_EQ(worker.save_state(), after_first)
        << "redelivered frame mutated state (" << static_cast<int>(frame.type)
        << ")";
  }
}

TEST(ShardWireFuzz, UnconfiguredWorkerRefusesEverythingButHello) {
  market::ShardWorker worker{0};
  for (const ShardFrameType type :
       {ShardFrameType::kSetDemand, ShardFrameType::kShutdown,
        ShardFrameType::kAllocation, ShardFrameType::kStateRequest,
        ShardFrameType::kJournalRequest}) {
    ShardFrame frame;
    frame.type = type;
    frame.shard = 0;
    const ShardFrame response = worker.handle(frame);
    ASSERT_EQ(response.type, ShardFrameType::kError) << static_cast<int>(type);
    const auto error = decode_shard_error(response.payload);
    ASSERT_TRUE(error.ok());
    EXPECT_EQ(error.value().code, core::Errc::kNotReady);
  }
}

}  // namespace
}  // namespace vdx::proto
