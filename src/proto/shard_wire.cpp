#include "proto/shard_wire.hpp"

#include <algorithm>
#include <iterator>
#include <utility>

#include "core/fnv1a.hpp"
#include "proto/wire.hpp"

namespace vdx::proto {
namespace {

constexpr std::uint8_t kFirstType = static_cast<std::uint8_t>(ShardFrameType::kHello);
constexpr std::uint8_t kLastType = static_cast<std::uint8_t>(ShardFrameType::kError);
/// Retired type bytes (see ShardFrameType); never reassigned: the session
/// delta (3), the collect round trip (4, 5) and the checkpoint-store frames
/// (10, 11).
constexpr std::uint8_t kRetiredTypes[] = {3, 4, 5, 10, 11};

/// Encoded sizes of one element of each counted payload list.
constexpr std::size_t kGroupBytes = 32;
constexpr std::size_t kPlacementBytes = 40;
constexpr std::size_t kCdnBytes = 4;
constexpr std::size_t kEventBytes = 33;

/// Largest payload the decoder will allocate for. Anything bigger than this
/// is a length-field lie, not a real frame (worker state snapshots are the
/// biggest legitimate payloads, and they are orders of magnitude smaller).
constexpr std::uint32_t kMaxPayload = 256u * 1024u * 1024u;

[[nodiscard]] core::Result<ShardFrame> corrupt(const char* reason) {
  return core::Result<ShardFrame>::failure(core::Errc::kCorruptFrame, reason);
}

/// Runs a ByteReader decode body, mapping WireError (truncation/overrun) and
/// trailing payload bytes onto Errc::kCorruptFrame.
template <typename T, typename Body>
[[nodiscard]] core::Result<T> decode_payload(std::span<const std::uint8_t> payload,
                                             const char* what, Body&& body) {
  ByteReader reader{payload};
  try {
    T value = body(reader);
    if (!reader.exhausted()) {
      return core::Result<T>::failure(
          core::Errc::kCorruptFrame,
          std::string{what} + ": trailing bytes after payload");
    }
    return value;
  } catch (const WireError& e) {
    return core::Result<T>::failure(core::Errc::kCorruptFrame,
                                    std::string{what} + ": " + e.what());
  }
}

}  // namespace

bool shard_frame_type_known(std::uint8_t raw) noexcept {
  return raw >= kFirstType && raw <= kLastType &&
         std::ranges::find(kRetiredTypes, raw) == std::end(kRetiredTypes);
}

std::vector<std::uint8_t> encode_shard_frame(const ShardFrame& frame) {
  ByteWriter writer;
  writer.write_u32(kShardMagic);
  writer.write_u8(static_cast<std::uint8_t>(frame.type));
  writer.write_u16(kShardProtocolVersion);
  writer.write_u32(frame.shard);
  writer.write_u64(frame.round);
  writer.write_u32(static_cast<std::uint32_t>(frame.payload.size()));
  std::vector<std::uint8_t> bytes = writer.take();
  bytes.insert(bytes.end(), frame.payload.begin(), frame.payload.end());
  const std::uint64_t checksum = core::fnv1a64(bytes);
  ByteWriter tail;
  tail.write_u64(checksum);
  const auto& tail_bytes = tail.data();
  bytes.insert(bytes.end(), tail_bytes.begin(), tail_bytes.end());
  return bytes;
}

core::Result<ShardFrame> try_decode_shard_frame(std::span<const std::uint8_t> bytes) {
  // Header (23 bytes) + checksum (8 bytes) bound the minimum frame.
  constexpr std::size_t kHeaderSize = 4 + 1 + 2 + 4 + 8 + 4;
  if (bytes.size() < kHeaderSize + 8) return corrupt("shard frame: truncated header");

  ByteReader reader{bytes};
  ShardFrame frame;
  try {
    if (reader.read_u32() != kShardMagic) return corrupt("shard frame: bad magic");
    const std::uint8_t raw_type = reader.read_u8();
    if (!shard_frame_type_known(raw_type)) {
      return corrupt("shard frame: unknown frame type");
    }
    frame.type = static_cast<ShardFrameType>(raw_type);
    if (reader.read_u16() != kShardProtocolVersion) {
      return corrupt("shard frame: protocol version mismatch");
    }
    frame.shard = reader.read_u32();
    frame.round = reader.read_u64();
    const std::uint32_t payload_len = reader.read_u32();
    if (payload_len > kMaxPayload) return corrupt("shard frame: payload length lie");
    if (reader.remaining() != payload_len + 8u) {
      return corrupt("shard frame: payload length disagrees with frame size");
    }
    const auto payload = reader.read_bytes(payload_len);
    frame.payload.assign(payload.begin(), payload.end());
    const std::uint64_t claimed = reader.read_u64();
    const std::uint64_t actual =
        core::fnv1a64(bytes.subspan(0, kHeaderSize + payload_len));
    if (claimed != actual) return corrupt("shard frame: checksum mismatch");
  } catch (const WireError&) {
    return corrupt("shard frame: truncated");
  }
  return frame;
}

// ---------------------------------------------------------------------------
// Payloads
// ---------------------------------------------------------------------------

namespace {

void write_group(ByteWriter& writer, const ShardGroup& g) {
  writer.write_u32(g.global_id);
  writer.write_u32(g.group.id.value());
  writer.write_u32(g.group.city.value());
  writer.write_u32(g.group.isp);
  writer.write_f64(g.group.bitrate_mbps);
  writer.write_f64(g.group.client_count);
}

[[nodiscard]] ShardGroup read_group(ByteReader& reader) {
  ShardGroup g;
  g.global_id = reader.read_u32();
  g.group.id = broker::ShareId{reader.read_u32()};
  g.group.city = broker::CityId{reader.read_u32()};
  g.group.isp = reader.read_u32();
  g.group.bitrate_mbps = reader.read_f64();
  g.group.client_count = reader.read_f64();
  return g;
}

}  // namespace

std::vector<std::uint8_t> encode_shard_groups(std::span<const ShardGroup> groups) {
  ByteWriter writer;
  writer.write_u64(groups.size());
  for (const ShardGroup& g : groups) write_group(writer, g);
  return writer.take();
}

core::Result<std::vector<ShardGroup>> decode_shard_groups(
    std::span<const std::uint8_t> payload) {
  return decode_payload<std::vector<ShardGroup>>(
      payload, "shard groups", [](ByteReader& reader) {
        const std::size_t count = reader.read_count(kGroupBytes);
        std::vector<ShardGroup> groups;
        groups.reserve(count);
        for (std::size_t i = 0; i < count; ++i) groups.push_back(read_group(reader));
        return groups;
      });
}

std::vector<std::uint8_t> encode_allocation(std::span<const ShardPlacement> placements) {
  ByteWriter writer;
  writer.write_u64(placements.size());
  for (const ShardPlacement& p : placements) {
    writer.write_u32(p.global_group);
    writer.write_u32(p.cluster);
    writer.write_f64(p.clients);
    writer.write_f64(p.price);
    writer.write_f64(p.score);
    writer.write_f64(p.bitrate_mbps);
  }
  return writer.take();
}

core::Result<std::vector<ShardPlacement>> decode_allocation(
    std::span<const std::uint8_t> payload) {
  return decode_payload<std::vector<ShardPlacement>>(
      payload, "shard allocation", [](ByteReader& reader) {
        const std::size_t count = reader.read_count(kPlacementBytes);
        std::vector<ShardPlacement> placements;
        placements.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          ShardPlacement p;
          p.global_group = reader.read_u32();
          p.cluster = reader.read_u32();
          p.clients = reader.read_f64();
          p.price = reader.read_f64();
          p.score = reader.read_f64();
          p.bitrate_mbps = reader.read_f64();
          placements.push_back(p);
        }
        return placements;
      });
}

std::vector<std::uint8_t> encode_shard_hello(const ShardHello& hello) {
  ByteWriter writer;
  writer.write_u32(hello.shard);
  writer.write_u32(hello.shard_count);
  writer.write_u32(hello.city_count);
  writer.write_u64(hello.plan_hash);
  writer.write_u64(hello.cdn_of_cluster.size());
  for (std::uint32_t cdn : hello.cdn_of_cluster) writer.write_u32(cdn);
  writer.write_u64(hello.journal_capacity);
  return writer.take();
}

core::Result<ShardHello> decode_shard_hello(std::span<const std::uint8_t> payload) {
  return decode_payload<ShardHello>(payload, "shard hello", [](ByteReader& reader) {
    ShardHello hello;
    hello.shard = reader.read_u32();
    hello.shard_count = reader.read_u32();
    hello.city_count = reader.read_u32();
    hello.plan_hash = reader.read_u64();
    const std::size_t clusters = reader.read_count(kCdnBytes);
    hello.cdn_of_cluster.reserve(clusters);
    for (std::size_t i = 0; i < clusters; ++i) {
      hello.cdn_of_cluster.push_back(reader.read_u32());
    }
    hello.journal_capacity = reader.read_u64();
    return hello;
  });
}

std::vector<std::uint8_t> encode_journal_slice(const ShardJournalSlice& slice) {
  ByteWriter writer;
  writer.write_u64(slice.total_recorded);
  writer.write_u32(slice.round);
  writer.write_u64(slice.events.size());
  for (const obs::Event& e : slice.events) {
    writer.write_u8(static_cast<std::uint8_t>(e.kind));
    writer.write_u64(e.seq);
    writer.write_u64(e.logical);
    writer.write_u32(e.round);
    writer.write_u32(e.subject);
    writer.write_f64(e.value);
  }
  return writer.take();
}

core::Result<ShardJournalSlice> decode_journal_slice(
    std::span<const std::uint8_t> payload) {
  return decode_payload<ShardJournalSlice>(
      payload, "journal slice", [](ByteReader& reader) {
        ShardJournalSlice slice;
        slice.total_recorded = reader.read_u64();
        slice.round = reader.read_u32();
        const std::size_t count = reader.read_count(kEventBytes);
        slice.events.reserve(count);
        for (std::size_t i = 0; i < count; ++i) {
          obs::Event e;
          const std::uint8_t kind = reader.read_u8();
          if (kind > static_cast<std::uint8_t>(obs::EventKind::kCustom)) {
            throw WireError{"unknown event kind"};
          }
          e.kind = static_cast<obs::EventKind>(kind);
          e.seq = reader.read_u64();
          e.logical = reader.read_u64();
          e.round = reader.read_u32();
          e.subject = reader.read_u32();
          e.value = reader.read_f64();
          slice.events.push_back(e);
        }
        return slice;
      });
}

std::vector<std::uint8_t> encode_shard_error(core::Errc code,
                                             std::string_view message) {
  ByteWriter writer;
  writer.write_u8(static_cast<std::uint8_t>(code));
  writer.write_string(message);
  return writer.take();
}

core::Result<ShardError> decode_shard_error(std::span<const std::uint8_t> payload) {
  return decode_payload<ShardError>(payload, "shard error", [](ByteReader& reader) {
    ShardError error;
    const std::uint8_t code = reader.read_u8();
    if (code < static_cast<std::uint8_t>(core::Errc::kInvalidArgument) ||
        code > static_cast<std::uint8_t>(core::Errc::kOverloaded)) {
      throw WireError{"unknown error code"};
    }
    error.code = static_cast<core::Errc>(code);
    error.message = reader.read_string();
    return error;
  });
}

std::vector<std::uint8_t> encode_shard_ack(std::uint64_t value) {
  ByteWriter writer;
  writer.write_u64(value);
  return writer.take();
}

core::Result<std::uint64_t> decode_shard_ack(std::span<const std::uint8_t> payload) {
  return decode_payload<std::uint64_t>(payload, "shard ack", [](ByteReader& reader) {
    return reader.read_u64();
  });
}

}  // namespace vdx::proto
