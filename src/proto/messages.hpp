// VDX protocol messages (paper §6.1) and their envelope encoding.
//
// Decision Protocol:
//   Share  = [share_id, location, isp, content_id, data_size, client_count]
//   Bid    = [cluster_id, share_id, performance_estimate, capacity, price]
//   Accept = same fields as Bid, plus the traffic actually awarded (the
//            Accept step tells *all* CDNs which bids won and by how much so
//            they can adapt future bids).
// Delivery Protocol:
//   Query / Result / Request / Delivery.
//
// Envelope: [u32 payload_length][u8 type][u16 version][payload][u32 fnv1a].
// The trailing FNV-1a checksum covers header + payload, so any bit flip a
// faulty link introduces is detected and the frame rejected — a requirement
// for running the exchange over the chaos transport (proto/fault.hpp).
//
// Every field is a little-endian u32 or f64, so each type's frame has one
// fixed size. `WireLayout<T>` is the only definition of a type's layout:
// `encode_into` writes it into an exact-size frame, `try_decode_as<T>` reads
// it back after validating the whole frame, and the variant-level `encode` /
// `try_decode` dispatch to those two.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "core/fnv1a.hpp"
#include "core/result.hpp"
#include "proto/wire.hpp"

namespace vdx::proto {

inline constexpr std::uint16_t kProtocolVersion = 2;

enum class MessageType : std::uint8_t {
  kShare = 1,
  kBid = 2,
  kAccept = 3,
  kQuery = 4,
  kResult = 5,
  kRequest = 6,
  kDelivery = 7,
};

struct ShareMessage {
  std::uint32_t share_id = 0;
  std::uint32_t location = 0;  // city id
  std::uint32_t isp = 0;       // AS number, 0 = aggregated
  std::uint32_t content_id = 0;
  double data_size_mbps = 0.0;  // per-client bitrate
  std::uint32_t client_count = 0;

  friend bool operator==(const ShareMessage&, const ShareMessage&) = default;
};

struct BidMessage {
  std::uint32_t cluster_id = 0;  // opaque between broker and CDN
  std::uint32_t share_id = 0;
  double performance_estimate = 0.0;  // score, lower better
  double capacity_mbps = 0.0;
  double price = 0.0;  // $/unit
  std::uint32_t cdn_id = 0;

  friend bool operator==(const BidMessage&, const BidMessage&) = default;
};

struct AcceptMessage {
  std::uint32_t cluster_id = 0;
  std::uint32_t share_id = 0;
  double performance_estimate = 0.0;
  double capacity_mbps = 0.0;
  double price = 0.0;
  std::uint32_t cdn_id = 0;
  double awarded_mbps = 0.0;  // 0 => the bid lost

  friend bool operator==(const AcceptMessage&, const AcceptMessage&) = default;
};

struct QueryMessage {
  std::uint32_t session_id = 0;
  std::uint32_t location = 0;
  double bitrate_mbps = 0.0;

  friend bool operator==(const QueryMessage&, const QueryMessage&) = default;
};

struct ResultMessage {
  std::uint32_t session_id = 0;
  std::uint32_t cdn_id = 0;
  std::uint32_t cluster_id = 0;

  friend bool operator==(const ResultMessage&, const ResultMessage&) = default;
};

struct RequestMessage {
  std::uint32_t session_id = 0;
  std::uint32_t cluster_id = 0;
  std::uint32_t content_id = 0;

  friend bool operator==(const RequestMessage&, const RequestMessage&) = default;
};

struct DeliveryMessage {
  std::uint32_t session_id = 0;
  std::uint32_t cluster_id = 0;
  double delivered_mbps = 0.0;

  friend bool operator==(const DeliveryMessage&, const DeliveryMessage&) = default;
};

using Message = std::variant<ShareMessage, BidMessage, AcceptMessage, QueryMessage,
                             ResultMessage, RequestMessage, DeliveryMessage>;

// ---------------------------------------------------------------------------
// Wire layouts: each type's tag and its fields in wire order.

/// The fields of a message type in wire order, as member pointers.
template <auto... Members>
struct WireFields {};

template <typename T>
struct WireLayout;

template <>
struct WireLayout<ShareMessage> {
  static constexpr MessageType kType = MessageType::kShare;
  using Fields = WireFields<&ShareMessage::share_id, &ShareMessage::location,
                            &ShareMessage::isp, &ShareMessage::content_id,
                            &ShareMessage::data_size_mbps, &ShareMessage::client_count>;
};

template <>
struct WireLayout<BidMessage> {
  static constexpr MessageType kType = MessageType::kBid;
  using Fields = WireFields<&BidMessage::cluster_id, &BidMessage::share_id,
                            &BidMessage::performance_estimate, &BidMessage::capacity_mbps,
                            &BidMessage::price, &BidMessage::cdn_id>;
};

template <>
struct WireLayout<AcceptMessage> {
  static constexpr MessageType kType = MessageType::kAccept;
  using Fields = WireFields<&AcceptMessage::cluster_id, &AcceptMessage::share_id,
                            &AcceptMessage::performance_estimate,
                            &AcceptMessage::capacity_mbps, &AcceptMessage::price,
                            &AcceptMessage::cdn_id, &AcceptMessage::awarded_mbps>;
};

template <>
struct WireLayout<QueryMessage> {
  static constexpr MessageType kType = MessageType::kQuery;
  using Fields = WireFields<&QueryMessage::session_id, &QueryMessage::location,
                            &QueryMessage::bitrate_mbps>;
};

template <>
struct WireLayout<ResultMessage> {
  static constexpr MessageType kType = MessageType::kResult;
  using Fields = WireFields<&ResultMessage::session_id, &ResultMessage::cdn_id,
                            &ResultMessage::cluster_id>;
};

template <>
struct WireLayout<RequestMessage> {
  static constexpr MessageType kType = MessageType::kRequest;
  using Fields = WireFields<&RequestMessage::session_id, &RequestMessage::cluster_id,
                            &RequestMessage::content_id>;
};

template <>
struct WireLayout<DeliveryMessage> {
  static constexpr MessageType kType = MessageType::kDelivery;
  using Fields = WireFields<&DeliveryMessage::session_id, &DeliveryMessage::cluster_id,
                            &DeliveryMessage::delivered_mbps>;
};

inline constexpr std::size_t kHeaderSize = 4 + 1 + 2;
inline constexpr std::size_t kChecksumSize = 4;

namespace detail {

template <typename T, auto Member>
using field_t = std::remove_cvref_t<decltype(std::declval<const T&>().*Member)>;

template <typename T, auto... Members>
constexpr std::size_t payload_size(WireFields<Members...> /*fields*/) noexcept {
  static_assert(((std::is_same_v<field_t<T, Members>, std::uint32_t> ||
                  std::is_same_v<field_t<T, Members>, double>) && ...),
                "wire fields are u32 or f64");
  return (sizeof(field_t<T, Members>) + ...);
}

}  // namespace detail

/// Payload and whole-frame size of message type T.
template <typename T>
inline constexpr std::size_t kPayloadSize =
    detail::payload_size<T>(typename WireLayout<T>::Fields{});
template <typename T>
inline constexpr std::size_t kFrameSize = kHeaderSize + kPayloadSize<T> + kChecksumSize;

namespace detail {

/// The 7 header bytes, constant within a type.
template <typename T>
inline constexpr std::array<std::uint8_t, kHeaderSize> kFrameHeader = {
    static_cast<std::uint8_t>(kPayloadSize<T>),
    static_cast<std::uint8_t>(kPayloadSize<T> >> 8),
    static_cast<std::uint8_t>(kPayloadSize<T> >> 16),
    static_cast<std::uint8_t>(kPayloadSize<T> >> 24),
    static_cast<std::uint8_t>(WireLayout<T>::kType),
    static_cast<std::uint8_t>(kProtocolVersion),
    static_cast<std::uint8_t>(kProtocolVersion >> 8),
};

/// FNV-1a state after the header: the checksum over header + payload is the
/// payload hashed from this seed.
template <typename T>
inline constexpr std::uint32_t kHeaderHash = core::fnv1a32(kFrameHeader<T>);

template <typename V>
using wire_bits_t = std::conditional_t<sizeof(V) == 4, std::uint32_t, std::uint64_t>;

template <typename V>
void store_le(std::uint8_t* at, V value) noexcept {
  const auto bits = std::bit_cast<wire_bits_t<V>>(value);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(at, &bits, sizeof bits);
  } else {
    for (std::size_t i = 0; i < sizeof bits; ++i) {
      at[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
  }
}

template <typename V>
V load_le(const std::uint8_t* at) noexcept {
  wire_bits_t<V> bits = 0;
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(&bits, at, sizeof bits);
  } else {
    for (std::size_t i = 0; i < sizeof bits; ++i) {
      bits |= static_cast<wire_bits_t<V>>(at[i]) << (8 * i);
    }
  }
  return std::bit_cast<V>(bits);
}

/// Calls visit(member, frame_offset) for each field of T in wire order.
template <typename T, typename Visit>
void for_each_field(Visit&& visit) {
  [&visit]<auto... Members>(WireFields<Members...> /*fields*/) {
    std::size_t offset = kHeaderSize;
    ((visit(Members, offset), offset += sizeof(field_t<T, Members>)), ...);
  }(typename WireLayout<T>::Fields{});
}

/// Names the first check a frame that try_decode_as rejected fails, in wire
/// order: header length, version, type, payload length, frame length,
/// checksum.
[[nodiscard]] core::Error frame_error(std::span<const std::uint8_t> data,
                                      MessageType type, std::size_t payload_size);

}  // namespace detail

[[nodiscard]] MessageType type_of(const Message& message) noexcept;

/// Encodes one message with its envelope into an exact-size frame.
template <typename T>
void encode_into(const T& message, std::span<std::uint8_t, kFrameSize<T>> frame) noexcept {
  std::memcpy(frame.data(), detail::kFrameHeader<T>.data(), kHeaderSize);
  detail::for_each_field<T>([&](auto member, std::size_t offset) {
    detail::store_le(frame.data() + offset, message.*member);
  });
  detail::store_le(frame.data() + kHeaderSize + kPayloadSize<T>,
                   core::fnv1a32(frame.subspan(kHeaderSize, kPayloadSize<T>),
                                 detail::kHeaderHash<T>));
}

/// Non-throwing typed decode of one enveloped message of type T. Runs every
/// check try_decode runs (header length, version, type, payload length,
/// frame length, FNV-1a checksum) before reading a field; a valid frame of
/// another type is rejected too. Bytes past the frame are ignored, as in
/// try_decode.
template <typename T>
[[nodiscard]] core::Result<T> try_decode_as(std::span<const std::uint8_t> data) {
  constexpr std::size_t checksum_at = kHeaderSize + kPayloadSize<T>;
  if (data.size() < kFrameSize<T> ||
      std::memcmp(data.data(), detail::kFrameHeader<T>.data(), kHeaderSize) != 0 ||
      detail::load_le<std::uint32_t>(data.data() + checksum_at) !=
          core::fnv1a32(data.subspan(kHeaderSize, kPayloadSize<T>),
                        detail::kHeaderHash<T>)) [[unlikely]] {
    return detail::frame_error(data, WireLayout<T>::kType, kPayloadSize<T>);
  }
  T message;
  detail::for_each_field<T>([&](auto member, std::size_t offset) {
    using Field = std::remove_reference_t<decltype(message.*member)>;
    message.*member = detail::load_le<Field>(data.data() + offset);
  });
  return message;
}

/// Encodes a message with its envelope.
[[nodiscard]] std::vector<std::uint8_t> encode(const Message& message);

/// Decodes one enveloped message; throws WireError on malformed input.
/// `consumed` (optional) receives the total envelope size, enabling framed
/// streams of back-to-back messages.
[[nodiscard]] Message decode(std::span<const std::uint8_t> data,
                             std::size_t* consumed = nullptr);

/// Non-throwing decode for hostile input: truncated, bit-corrupted,
/// mis-typed, or mis-versioned frames come back as Errc::kCorruptFrame
/// instead of an exception. Dispatches on the type byte to try_decode_as, so
/// the frame is fully validated (including the checksum) before any field
/// is read. The one decoder for bytes from outside the process.
[[nodiscard]] core::Result<Message> try_decode(std::span<const std::uint8_t> data,
                                               std::size_t* consumed = nullptr);

/// Decodes a back-to-back stream of enveloped messages.
[[nodiscard]] std::vector<Message> decode_stream(std::span<const std::uint8_t> data);

}  // namespace vdx::proto
