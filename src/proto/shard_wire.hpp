// Wire codec for the coordinator <-> shard-worker control channel
// (DESIGN.md §14).
//
// A sharded exchange splits the marketplace by city across N worker shards;
// the coordinator drives every settlement round over this codec: push demand
// slices, collect per-shard candidate groups, broadcast the global
// allocation. Workers only ever hold an explicit demand slice; session
// deltas are folded into the coordinator's own book and never cross the
// wire. Frames follow the repo's envelope idiom
// ([magic][type][version][shard][round][payload][checksum]) and the decoder
// never throws across the trust boundary: a truncated, bit-flipped,
// wrong-magic, wrong-version, or trailing-bytes frame is rejected with a
// typed core::Result error (Errc::kCorruptFrame) — which is exactly what the
// chaos drills feed it via proto::FaultInjector.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "broker/grouping.hpp"
#include "core/result.hpp"
#include "obs/journal.hpp"

namespace vdx::proto {

/// "VDSH" read as a little-endian u32.
inline constexpr std::uint32_t kShardMagic = 0x48534456u;
/// Version 2 retired the session-delta frame and the demand-mode byte of
/// kBidCandidates; a version-1 peer is rejected at the frame header.
inline constexpr std::uint16_t kShardProtocolVersion = 2;

enum class ShardFrameType : std::uint8_t {
  /// Coordinator -> worker: shard topology + per-worker context. First frame
  /// on every (re)connected link; everything else is rejected until it lands.
  kHello = 1,
  /// Coordinator -> worker: replace the worker's demand slice (explicit
  /// broker groups tagged with their global ids).
  kSetDemand = 2,
  // 3 carried per-shard session deltas in protocol version 1. The value
  // stays retired: a frame with that type byte is rejected as unknown.
  /// Coordinator -> worker: request this round's candidate groups.
  kCollect = 4,
  /// Worker -> coordinator: the shard's current demand slice (a
  /// shard-groups payload).
  kBidCandidates,
  /// Coordinator -> worker: the slice of the globally settled allocation
  /// that lands on this shard's cities.
  kAllocation,
  /// Coordinator -> worker: serialize your full state (embedded snapshot).
  kStateRequest,
  kStateResponse,
  /// Coordinator -> worker: restore from embedded snapshot bytes.
  kRestoreState,
  /// Coordinator -> worker: write a checkpoint into your per-shard store.
  kCheckpoint,
  /// Coordinator -> worker: load the newest checkpoint from your store.
  kResumeFromStore,
  /// Coordinator -> worker: export your journal window for merging.
  kJournalRequest,
  kJournalSlice,
  kShutdown,
  /// Worker -> coordinator: generic success acknowledgement.
  kAck,
  /// Worker -> coordinator: typed failure (payload: Errc + message). A
  /// corrupt request never partially applies — the worker validates the
  /// whole payload before touching any state.
  kError,
};

/// True for the values the current protocol version defines.
[[nodiscard]] bool shard_frame_type_known(std::uint8_t raw) noexcept;

struct ShardFrame {
  ShardFrameType type = ShardFrameType::kError;
  /// Worker shard the frame addresses (or originates from).
  std::uint32_t shard = 0;
  /// Settlement round the frame belongs to (0 for control-plane frames).
  std::uint64_t round = 0;
  std::vector<std::uint8_t> payload;

  friend bool operator==(const ShardFrame&, const ShardFrame&) = default;
};

/// [magic u32][type u8][version u16][shard u32][round u64]
/// [payload_len u32][payload][fnv1a64 of everything before the checksum]
[[nodiscard]] std::vector<std::uint8_t> encode_shard_frame(const ShardFrame& frame);

/// Rejects every malformed frame with Errc::kCorruptFrame (truncation, bad
/// magic, unknown type, version skew, checksum mismatch, trailing bytes,
/// payload-length lie). Never throws.
[[nodiscard]] core::Result<ShardFrame> try_decode_shard_frame(
    std::span<const std::uint8_t> bytes);

// ---------------------------------------------------------------------------
// Payload codecs. Each decoder validates the complete payload (including
// exhaustion) before returning, so a caller that commits the result never
// commits a half-read frame.
// ---------------------------------------------------------------------------

/// One broker demand group tagged with its index in the coordinator's
/// global demand vector.
struct ShardGroup {
  std::uint32_t global_id = 0;
  broker::ClientGroup group;
};

[[nodiscard]] std::vector<std::uint8_t> encode_shard_groups(
    std::span<const ShardGroup> groups);
[[nodiscard]] core::Result<std::vector<ShardGroup>> decode_shard_groups(
    std::span<const std::uint8_t> payload);

/// One session of a ShardedExchange::push_session_delta batch.
struct ShardSessionAdd {
  std::uint32_t id = 0;
  std::uint32_t city = 0;
  double bitrate_mbps = 1.0;

  friend bool operator==(const ShardSessionAdd&, const ShardSessionAdd&) = default;
};

/// One settled placement as broadcast back to the owning shard. Carries the
/// group's bitrate so the worker can account awarded Mbps without holding
/// the merged demand vector.
struct ShardPlacement {
  std::uint32_t global_group = 0;
  std::uint32_t cluster = 0;
  double clients = 0.0;
  double price = 0.0;
  double score = 0.0;
  double bitrate_mbps = 1.0;

  friend bool operator==(const ShardPlacement&, const ShardPlacement&) = default;
};

[[nodiscard]] std::vector<std::uint8_t> encode_allocation(
    std::span<const ShardPlacement> placements);
[[nodiscard]] core::Result<std::vector<ShardPlacement>> decode_allocation(
    std::span<const std::uint8_t> payload);

/// kHello payload: everything a worker needs to participate — it never sees
/// the Scenario (process workers are forked before any demand exists).
struct ShardHello {
  std::uint32_t shard = 0;
  std::uint32_t shard_count = 1;
  std::uint32_t city_count = 0;
  /// fnv1a over the coordinator's city->shard plan; restore paths use it to
  /// refuse snapshots taken under a different partition.
  std::uint64_t plan_hash = 0;
  /// Owning CDN per cluster id (for worker-side journal attribution).
  std::vector<std::uint32_t> cdn_of_cluster;
  std::uint64_t journal_capacity = 4096;
  /// Per-shard checkpoint directory ("" = no store).
  std::string checkpoint_dir;
  std::uint32_t checkpoint_keep = 3;

  friend bool operator==(const ShardHello&, const ShardHello&) = default;
};

[[nodiscard]] std::vector<std::uint8_t> encode_shard_hello(const ShardHello& hello);
[[nodiscard]] core::Result<ShardHello> decode_shard_hello(
    std::span<const std::uint8_t> payload);

/// kJournalSlice payload: the worker's retained journal window.
struct ShardJournalSlice {
  std::uint64_t total_recorded = 0;
  std::uint32_t round = 0;
  std::vector<obs::Event> events;
};

[[nodiscard]] std::vector<std::uint8_t> encode_journal_slice(
    const ShardJournalSlice& slice);
[[nodiscard]] core::Result<ShardJournalSlice> decode_journal_slice(
    std::span<const std::uint8_t> payload);

/// kError payload.
struct ShardError {
  core::Errc code = core::Errc::kInvalidArgument;
  std::string message;
};

[[nodiscard]] std::vector<std::uint8_t> encode_shard_error(core::Errc code,
                                                           std::string_view message);
[[nodiscard]] core::Result<ShardError> decode_shard_error(
    std::span<const std::uint8_t> payload);

/// kAck payload: a single u64 the responder wants echoed back (the applied
/// round for allocation acks, rounds_applied for resume acks, 0 otherwise).
[[nodiscard]] std::vector<std::uint8_t> encode_shard_ack(std::uint64_t value);
[[nodiscard]] core::Result<std::uint64_t> decode_shard_ack(
    std::span<const std::uint8_t> payload);

}  // namespace vdx::proto
