#include "proto/messages.hpp"

#include "core/fnv1a.hpp"

namespace vdx::proto {

namespace {

void write_payload(ByteWriter& w, const ShareMessage& m) {
  w.write_u32(m.share_id);
  w.write_u32(m.location);
  w.write_u32(m.isp);
  w.write_u32(m.content_id);
  w.write_f64(m.data_size_mbps);
  w.write_u32(m.client_count);
}

void write_payload(ByteWriter& w, const BidMessage& m) {
  w.write_u32(m.cluster_id);
  w.write_u32(m.share_id);
  w.write_f64(m.performance_estimate);
  w.write_f64(m.capacity_mbps);
  w.write_f64(m.price);
  w.write_u32(m.cdn_id);
}

void write_payload(ByteWriter& w, const AcceptMessage& m) {
  w.write_u32(m.cluster_id);
  w.write_u32(m.share_id);
  w.write_f64(m.performance_estimate);
  w.write_f64(m.capacity_mbps);
  w.write_f64(m.price);
  w.write_u32(m.cdn_id);
  w.write_f64(m.awarded_mbps);
}

void write_payload(ByteWriter& w, const QueryMessage& m) {
  w.write_u32(m.session_id);
  w.write_u32(m.location);
  w.write_f64(m.bitrate_mbps);
}

void write_payload(ByteWriter& w, const ResultMessage& m) {
  w.write_u32(m.session_id);
  w.write_u32(m.cdn_id);
  w.write_u32(m.cluster_id);
}

void write_payload(ByteWriter& w, const RequestMessage& m) {
  w.write_u32(m.session_id);
  w.write_u32(m.cluster_id);
  w.write_u32(m.content_id);
}

void write_payload(ByteWriter& w, const DeliveryMessage& m) {
  w.write_u32(m.session_id);
  w.write_u32(m.cluster_id);
  w.write_f64(m.delivered_mbps);
}

ShareMessage read_share(ByteReader& r) {
  ShareMessage m;
  m.share_id = r.read_u32();
  m.location = r.read_u32();
  m.isp = r.read_u32();
  m.content_id = r.read_u32();
  m.data_size_mbps = r.read_f64();
  m.client_count = r.read_u32();
  return m;
}

BidMessage read_bid(ByteReader& r) {
  BidMessage m;
  m.cluster_id = r.read_u32();
  m.share_id = r.read_u32();
  m.performance_estimate = r.read_f64();
  m.capacity_mbps = r.read_f64();
  m.price = r.read_f64();
  m.cdn_id = r.read_u32();
  return m;
}

AcceptMessage read_accept(ByteReader& r) {
  AcceptMessage m;
  m.cluster_id = r.read_u32();
  m.share_id = r.read_u32();
  m.performance_estimate = r.read_f64();
  m.capacity_mbps = r.read_f64();
  m.price = r.read_f64();
  m.cdn_id = r.read_u32();
  m.awarded_mbps = r.read_f64();
  return m;
}

QueryMessage read_query(ByteReader& r) {
  QueryMessage m;
  m.session_id = r.read_u32();
  m.location = r.read_u32();
  m.bitrate_mbps = r.read_f64();
  return m;
}

ResultMessage read_result(ByteReader& r) {
  ResultMessage m;
  m.session_id = r.read_u32();
  m.cdn_id = r.read_u32();
  m.cluster_id = r.read_u32();
  return m;
}

RequestMessage read_request(ByteReader& r) {
  RequestMessage m;
  m.session_id = r.read_u32();
  m.cluster_id = r.read_u32();
  m.content_id = r.read_u32();
  return m;
}

DeliveryMessage read_delivery(ByteReader& r) {
  DeliveryMessage m;
  m.session_id = r.read_u32();
  m.cluster_id = r.read_u32();
  m.delivered_mbps = r.read_f64();
  return m;
}

/// Fixed payload size per message type (every field is fixed-width); 0 marks
/// an unknown type.
constexpr std::size_t payload_size(std::uint8_t raw_type) noexcept {
  switch (static_cast<MessageType>(raw_type)) {
    case MessageType::kShare:
      return 4 * 4 + 8 + 4;
    case MessageType::kBid:
      return 4 + 4 + 8 * 3 + 4;
    case MessageType::kAccept:
      return 4 + 4 + 8 * 3 + 4 + 8;
    case MessageType::kQuery:
      return 4 + 4 + 8;
    case MessageType::kResult:
      return 4 + 4 + 4;
    case MessageType::kRequest:
      return 4 + 4 + 4;
    case MessageType::kDelivery:
      return 4 + 4 + 8;
  }
  return 0;
}

constexpr std::size_t kHeaderSize = 4 + 1 + 2;
constexpr std::size_t kChecksumSize = 4;

std::uint32_t read_u32_le(std::span<const std::uint8_t> data,
                          std::size_t pos) noexcept {
  return static_cast<std::uint32_t>(data[pos]) |
         (static_cast<std::uint32_t>(data[pos + 1]) << 8) |
         (static_cast<std::uint32_t>(data[pos + 2]) << 16) |
         (static_cast<std::uint32_t>(data[pos + 3]) << 24);
}

}  // namespace

MessageType type_of(const Message& message) noexcept {
  return std::visit(
      [](const auto& m) -> MessageType {
        using T = std::decay_t<decltype(m)>;
        if constexpr (std::is_same_v<T, ShareMessage>) return MessageType::kShare;
        if constexpr (std::is_same_v<T, BidMessage>) return MessageType::kBid;
        if constexpr (std::is_same_v<T, AcceptMessage>) return MessageType::kAccept;
        if constexpr (std::is_same_v<T, QueryMessage>) return MessageType::kQuery;
        if constexpr (std::is_same_v<T, ResultMessage>) return MessageType::kResult;
        if constexpr (std::is_same_v<T, RequestMessage>) return MessageType::kRequest;
        if constexpr (std::is_same_v<T, DeliveryMessage>) return MessageType::kDelivery;
      },
      message);
}

std::vector<std::uint8_t> encode(const Message& message) {
  const auto type = static_cast<std::uint8_t>(type_of(message));
  ByteWriter w;
  w.reserve(kHeaderSize + payload_size(type) + kChecksumSize);  // one allocation
  w.write_u32(0);  // length placeholder
  w.write_u8(type);
  w.write_u16(kProtocolVersion);
  const std::size_t payload_start = w.size();
  std::visit([&w](const auto& m) { write_payload(w, m); }, message);
  w.patch_u32(0, static_cast<std::uint32_t>(w.size() - payload_start));
  w.write_u32(core::fnv1a32(w.data()));  // checksum over header + payload
  return w.take();
}

core::Result<Message> try_decode(std::span<const std::uint8_t> data,
                                 std::size_t* consumed) {
  const auto reject = [](std::string why) {
    return core::Result<Message>::failure(core::Errc::kCorruptFrame, std::move(why));
  };
  if (data.size() < kHeaderSize) return reject("truncated envelope header");

  const std::uint32_t payload_length = read_u32_le(data, 0);
  const std::uint8_t raw_type = data[4];
  const std::uint16_t version = static_cast<std::uint16_t>(
      data[5] | (static_cast<std::uint16_t>(data[6]) << 8));
  if (version != kProtocolVersion) return reject("unsupported protocol version");

  const std::size_t expected = payload_size(raw_type);
  if (expected == 0) return reject("unknown message type");
  if (payload_length != expected) return reject("payload length mismatch");

  const std::size_t envelope = kHeaderSize + payload_length + kChecksumSize;
  if (data.size() < envelope) return reject("truncated envelope");

  const std::size_t checksum_at = kHeaderSize + payload_length;
  if (read_u32_le(data, checksum_at) != core::fnv1a32(data.first(checksum_at))) {
    return reject("frame checksum mismatch");
  }

  // Every field is fixed-width and the payload length is validated above, so
  // none of the reads below can run out of bytes.
  ByteReader payload{data.subspan(kHeaderSize, payload_length)};
  Message message = [&]() -> Message {
    switch (static_cast<MessageType>(raw_type)) {
      case MessageType::kShare:
        return read_share(payload);
      case MessageType::kBid:
        return read_bid(payload);
      case MessageType::kAccept:
        return read_accept(payload);
      case MessageType::kQuery:
        return read_query(payload);
      case MessageType::kResult:
        return read_result(payload);
      case MessageType::kRequest:
        return read_request(payload);
      default:
        return read_delivery(payload);
    }
  }();
  if (consumed != nullptr) *consumed = envelope;
  return message;
}

Message decode(std::span<const std::uint8_t> data, std::size_t* consumed) {
  core::Result<Message> result = try_decode(data, consumed);
  if (!result.ok()) throw WireError{result.error().message};
  return std::move(result).value();
}

std::vector<Message> decode_stream(std::span<const std::uint8_t> data) {
  std::vector<Message> out;
  std::size_t offset = 0;
  while (offset < data.size()) {
    std::size_t consumed = 0;
    out.push_back(decode(data.subspan(offset), &consumed));
    offset += consumed;
  }
  return out;
}

}  // namespace vdx::proto
