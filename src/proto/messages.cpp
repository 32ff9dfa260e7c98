#include "proto/messages.hpp"

namespace vdx::proto {

namespace {

core::Error corrupt(const char* why) { return core::Error{core::Errc::kCorruptFrame, why}; }

/// The first type-independent header check `data` fails (header length,
/// version, known type), or nullptr if it passes them all.
const char* header_fault(std::span<const std::uint8_t> data) noexcept {
  if (data.size() < kHeaderSize) return "truncated envelope header";
  const auto version = static_cast<std::uint16_t>(
      data[5] | (static_cast<std::uint16_t>(data[6]) << 8));
  if (version != kProtocolVersion) return "unsupported protocol version";
  if (data[4] < static_cast<std::uint8_t>(MessageType::kShare) ||
      data[4] > static_cast<std::uint8_t>(MessageType::kDelivery)) {
    return "unknown message type";
  }
  return nullptr;
}

template <typename T>
core::Result<Message> decode_message(std::span<const std::uint8_t> data,
                                     std::size_t* consumed) {
  core::Result<T> decoded = try_decode_as<T>(data);
  if (!decoded.ok()) return decoded.error();
  if (consumed != nullptr) *consumed = kFrameSize<T>;
  return Message{std::move(decoded).value()};
}

}  // namespace

core::Error detail::frame_error(std::span<const std::uint8_t> data, MessageType type,
                                std::size_t payload_size) {
  if (const char* why = header_fault(data)) return corrupt(why);
  if (data[4] != static_cast<std::uint8_t>(type)) return corrupt("unexpected message type");
  if (detail::load_le<std::uint32_t>(data.data()) != payload_size) {
    return corrupt("payload length mismatch");
  }
  if (data.size() < kHeaderSize + payload_size + kChecksumSize) {
    return corrupt("truncated envelope");
  }
  return corrupt("frame checksum mismatch");
}

MessageType type_of(const Message& message) noexcept {
  return std::visit(
      [](const auto& m) { return WireLayout<std::decay_t<decltype(m)>>::kType; }, message);
}

std::vector<std::uint8_t> encode(const Message& message) {
  return std::visit(
      [](const auto& m) {
        using T = std::decay_t<decltype(m)>;
        std::vector<std::uint8_t> frame(kFrameSize<T>);
        encode_into(m, std::span<std::uint8_t, kFrameSize<T>>{frame.data(), frame.size()});
        return frame;
      },
      message);
}

core::Result<Message> try_decode(std::span<const std::uint8_t> data,
                                 std::size_t* consumed) {
  if (const char* why = header_fault(data)) return corrupt(why);
  switch (static_cast<MessageType>(data[4])) {
    case MessageType::kShare:
      return decode_message<ShareMessage>(data, consumed);
    case MessageType::kBid:
      return decode_message<BidMessage>(data, consumed);
    case MessageType::kAccept:
      return decode_message<AcceptMessage>(data, consumed);
    case MessageType::kQuery:
      return decode_message<QueryMessage>(data, consumed);
    case MessageType::kResult:
      return decode_message<ResultMessage>(data, consumed);
    case MessageType::kRequest:
      return decode_message<RequestMessage>(data, consumed);
    case MessageType::kDelivery:
      break;
  }
  return decode_message<DeliveryMessage>(data, consumed);  // header_fault vetted the type
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
