#include "proto/messages.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <string>

namespace vdx::proto {
namespace {

ShareMessage sample_share() {
  return ShareMessage{42, 7, 12345, 99, 2.5, 120};
}

BidMessage sample_bid() {
  return BidMessage{17, 42, 23.5, 1500.0, 1.75, 3};
}

AcceptMessage sample_accept() {
  return AcceptMessage{17, 42, 23.5, 1500.0, 1.75, 3, 600.0};
}

std::string to_hex(std::span<const std::uint8_t> bytes) {
  std::string hex;
  for (const std::uint8_t byte : bytes) {
    char pair[3];
    std::snprintf(pair, sizeof pair, "%02x", byte);
    hex += pair;
  }
  return hex;
}

/// `pinned` is the frame the protocol-v2 encoder wrote for `value` before
/// the per-type layouts existed (ByteWriter-based, recorded once): both
/// encoders must reproduce it byte for byte, and the typed decoder must give
/// back `value`.
template <typename T>
void expect_pinned_frame(const T& value, const std::string& pinned) {
  ASSERT_EQ(pinned.size(), 2 * kFrameSize<T>);
  std::array<std::uint8_t, kFrameSize<T>> frame{};
  encode_into(value, std::span{frame});
  EXPECT_EQ(to_hex(frame), pinned);
  const std::vector<std::uint8_t> encoded = encode(Message{value});
  EXPECT_EQ(to_hex(encoded), pinned);

  const core::Result<T> decoded = try_decode_as<T>(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_EQ(decoded.value(), value);
  EXPECT_EQ(std::get<T>(decode(encoded)), value);
}

TEST(MessageFrames, SharePinned) {
  expect_pinned_frame(ShareMessage{0x01020304u, 7, 64512, 99, 2.718281828459045, 120},
                      "1c000000010200040302010700000000fc0000630000006957148b0abf0540"
                      "780000000d6e76f9");
}

TEST(MessageFrames, BidPinned) {
  expect_pinned_frame(BidMessage{17, 0x0A0B0C0Du, 23.5, 1500.25, 1.75, 3},
                      "24000000020200110000000d0c0b0a000000000080374000000000007197400000"
                      "00000000fc3f030000008313b0ba");
}

TEST(MessageFrames, AcceptPinned) {
  expect_pinned_frame(AcceptMessage{17, 0x0A0B0C0Du, 23.5, 1500.25, 1.75, 3, 600.125},
                      "2c000000030200110000000d0c0b0a000000000080374000000000007197400000"
                      "00000000fc3f030000000000000000c18240bdecc183");
}

TEST(MessageFrames, QueryPinned) {
  expect_pinned_frame(QueryMessage{5, 0x00ABCDEFu, 3.5},
                      "1000000004020005000000efcdab000000000000000c40c3a176ff");
}

TEST(MessageFrames, ResultPinned) {
  expect_pinned_frame(ResultMessage{5, 2, 0xDEADBEEFu},
                      "0c0000000502000500000002000000efbeaddee7a5dc41");
}

TEST(MessageFrames, RequestPinned) {
  expect_pinned_frame(RequestMessage{5, 17, 0x12345678u},
                      "0c000000060200050000001100000078563412f35393a2");
}

TEST(MessageFrames, DeliveryPinned) {
  expect_pinned_frame(DeliveryMessage{5, 17, 3.47},
                      "100000000702000500000011000000c3f5285c8fc20b40be805d19");
}

TEST(MessageFrames, TypedDecodeRejectsAnotherTypesFrame) {
  // Bid and Accept share their first six fields; the type byte and the
  // payload length still keep one from decoding as the other.
  const auto bid = encode(Message{sample_bid()});
  const core::Result<AcceptMessage> as_accept = try_decode_as<AcceptMessage>(bid);
  ASSERT_FALSE(as_accept.ok());
  EXPECT_EQ(as_accept.error().code, core::Errc::kCorruptFrame);
  EXPECT_EQ(as_accept.error().message, "unexpected message type");
  EXPECT_TRUE(try_decode_as<BidMessage>(bid).ok());
}

TEST(MessageFrames, TypedDecodeNamesTheFailedCheckInWireOrder) {
  const auto frame = encode(Message{sample_bid()});
  const auto reason = [](std::vector<std::uint8_t> bytes) {
    const core::Result<BidMessage> decoded = try_decode_as<BidMessage>(bytes);
    return decoded.ok() ? std::string{"ok"} : decoded.error().message;
  };
  EXPECT_EQ(reason({frame.begin(), frame.begin() + 6}), "truncated envelope header");
  auto bad_version = frame;
  bad_version[6] ^= 0x01;
  EXPECT_EQ(reason(bad_version), "unsupported protocol version");
  auto unknown_type = frame;
  unknown_type[4] = 0x7F;
  EXPECT_EQ(reason(unknown_type), "unknown message type");
  auto bad_length = frame;
  bad_length[0] ^= 0x01;
  EXPECT_EQ(reason(bad_length), "payload length mismatch");
  EXPECT_EQ(reason({frame.begin(), frame.end() - 1}), "truncated envelope");
  auto bad_payload = frame;
  bad_payload[kHeaderSize] ^= 0x01;
  EXPECT_EQ(reason(bad_payload), "frame checksum mismatch");
  // Bytes past the frame belong to the next one, as with try_decode.
  auto padded = frame;
  padded.push_back(0xEE);
  EXPECT_EQ(reason(padded), "ok");
}

TEST(Messages, ShareRoundTrip) {
  const Message original = sample_share();
  const Message decoded = decode(encode(original));
  EXPECT_EQ(std::get<ShareMessage>(decoded), sample_share());
}

TEST(Messages, BidRoundTrip) {
  const Message decoded = decode(encode(Message{sample_bid()}));
  EXPECT_EQ(std::get<BidMessage>(decoded), sample_bid());
}

TEST(Messages, AcceptRoundTrip) {
  const Message decoded = decode(encode(Message{sample_accept()}));
  EXPECT_EQ(std::get<AcceptMessage>(decoded), sample_accept());
}

TEST(Messages, DeliveryProtocolRoundTrips) {
  const QueryMessage query{5, 9, 3.5};
  EXPECT_EQ(std::get<QueryMessage>(decode(encode(Message{query}))), query);
  const ResultMessage result{5, 2, 17};
  EXPECT_EQ(std::get<ResultMessage>(decode(encode(Message{result}))), result);
  const RequestMessage request{5, 17, 99};
  EXPECT_EQ(std::get<RequestMessage>(decode(encode(Message{request}))), request);
  const DeliveryMessage delivery{5, 17, 3.47};
  EXPECT_EQ(std::get<DeliveryMessage>(decode(encode(Message{delivery}))), delivery);
}

TEST(Messages, TypeOfMatchesVariant) {
  EXPECT_EQ(type_of(Message{sample_share()}), MessageType::kShare);
  EXPECT_EQ(type_of(Message{sample_bid()}), MessageType::kBid);
  EXPECT_EQ(type_of(Message{sample_accept()}), MessageType::kAccept);
  EXPECT_EQ(type_of(Message{QueryMessage{}}), MessageType::kQuery);
  EXPECT_EQ(type_of(Message{ResultMessage{}}), MessageType::kResult);
  EXPECT_EQ(type_of(Message{RequestMessage{}}), MessageType::kRequest);
  EXPECT_EQ(type_of(Message{DeliveryMessage{}}), MessageType::kDelivery);
}

TEST(Messages, ConsumedReportsEnvelopeSize) {
  const auto frame = encode(Message{sample_bid()});
  std::size_t consumed = 0;
  (void)decode(frame, &consumed);
  EXPECT_EQ(consumed, frame.size());
}

TEST(Messages, DecodeStreamSplitsFrames) {
  auto bytes = encode(Message{sample_share()});
  const auto second = encode(Message{sample_bid()});
  const auto third = encode(Message{sample_accept()});
  bytes.insert(bytes.end(), second.begin(), second.end());
  bytes.insert(bytes.end(), third.begin(), third.end());

  const auto messages = decode_stream(bytes);
  ASSERT_EQ(messages.size(), 3u);
  EXPECT_EQ(type_of(messages[0]), MessageType::kShare);
  EXPECT_EQ(type_of(messages[1]), MessageType::kBid);
  EXPECT_EQ(type_of(messages[2]), MessageType::kAccept);
}

TEST(Messages, TruncatedEnvelopeThrows) {
  auto frame = encode(Message{sample_bid()});
  frame.resize(frame.size() - 1);
  EXPECT_THROW((void)decode(frame), WireError);
}

TEST(Messages, UnknownTypeThrows) {
  auto frame = encode(Message{sample_bid()});
  frame[4] = 0x7F;  // type byte
  EXPECT_THROW((void)decode(frame), WireError);
}

TEST(Messages, WrongVersionThrows) {
  auto frame = encode(Message{sample_bid()});
  frame[5] = 0x55;  // version low byte
  EXPECT_THROW((void)decode(frame), WireError);
}

TEST(Messages, TrailingPayloadBytesThrow) {
  // Hand-build an envelope whose payload is one byte longer than a Result.
  auto frame = encode(Message{ResultMessage{1, 2, 3}});
  // Extend payload length by 1 and append a byte.
  frame[0] += 1;
  frame.push_back(0xEE);
  EXPECT_THROW((void)decode(frame), WireError);
}

TEST(Messages, EmptyInputThrows) {
  EXPECT_THROW((void)decode({}), WireError);
  EXPECT_TRUE(decode_stream({}).empty());
}

}  // namespace
}  // namespace vdx::proto
