// Robustness fuzzing: the codec must never crash, hang, or accept garbage —
// every malformed input must surface as WireError (throwing API) or a typed
// error (try_decode); a hostile marketplace peer or a corrupting transport
// cannot take the exchange down.
#include <gtest/gtest.h>

#include <utility>

#include "core/fnv1a.hpp"
#include "core/rng.hpp"
#include "proto/fault.hpp"
#include "proto/messages.hpp"

namespace vdx::proto {
namespace {

Message sample_message(std::size_t kind) {
  switch (kind % 7) {
    case 0:
      return ShareMessage{1, 2, 3, 4, 5.0, 6};
    case 1:
      return BidMessage{1, 2, 3.0, 4.0, 5.0, 6};
    case 2:
      return AcceptMessage{1, 2, 3.0, 4.0, 5.0, 6, 7.0};
    case 3:
      return QueryMessage{1, 2, 3.0};
    case 4:
      return ResultMessage{1, 2, 3};
    case 5:
      return RequestMessage{1, 2, 3};
    default:
      return DeliveryMessage{1, 2, 3.0};
  }
}

TEST(WireFuzz, RandomBytesNeverCrash) {
  core::Rng rng{0xF022};
  for (int trial = 0; trial < 20'000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(64));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    try {
      const Message m = decode(bytes);
      // Rarely, random bytes form a valid frame; it must round-trip.
      const Message again = decode(encode(m));
      EXPECT_EQ(type_of(again), type_of(m));
    } catch (const WireError&) {
      // expected for almost all inputs
    }
  }
}

TEST(WireFuzz, EveryTruncationOfAValidFrameThrows) {
  for (std::size_t kind = 0; kind < 7; ++kind) {
    const auto frame = encode(sample_message(kind));
    for (std::size_t cut = 0; cut < frame.size(); ++cut) {
      std::vector<std::uint8_t> truncated(frame.begin(),
                                          frame.begin() + static_cast<long>(cut));
      EXPECT_THROW((void)decode(truncated), WireError) << "kind " << kind
                                                       << " cut " << cut;
    }
  }
}

TEST(WireFuzz, SingleByteCorruptionAlwaysRejected) {
  // Envelope v2 carries an FNV-1a checksum over header + payload, so *any*
  // single-byte corruption — length, type, version, payload, or the checksum
  // itself — must be detected, not silently accepted.
  core::Rng rng{77};
  for (std::size_t kind = 0; kind < 7; ++kind) {
    const auto frame = encode(sample_message(kind));
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      auto corrupted = frame;
      corrupted[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      EXPECT_THROW((void)decode(corrupted), WireError)
          << "kind " << kind << " pos " << pos;
      EXPECT_FALSE(try_decode(corrupted).ok());
    }
  }
}

TEST(WireFuzz, StreamWithGarbageTailThrowsNotHangs) {
  auto stream = encode(sample_message(1));
  const auto second = encode(sample_message(2));
  stream.insert(stream.end(), second.begin(), second.end());
  stream.push_back(0xFF);  // dangling garbage
  EXPECT_THROW((void)decode_stream(stream), WireError);
}

TEST(WireFuzz, HugeClaimedLengthRejected) {
  ByteWriter w;
  w.write_u32(0x7FFFFFFF);  // absurd payload length
  w.write_u8(static_cast<std::uint8_t>(MessageType::kBid));
  w.write_u16(kProtocolVersion);
  EXPECT_THROW((void)decode(w.data()), WireError);
}

TEST(WireFuzz, TryDecodeAgreesWithDecodeOnRandomBytes) {
  core::Rng rng{0xABCD};
  for (int trial = 0; trial < 20'000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(72));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    const core::Result<Message> safe = try_decode(bytes);
    bool threw = false;
    try {
      const Message m = decode(bytes);
      ASSERT_TRUE(safe.ok());
      EXPECT_EQ(type_of(m), type_of(safe.value()));
    } catch (const WireError&) {
      threw = true;
    }
    EXPECT_EQ(threw, !safe.ok());
    if (!safe.ok()) {
      EXPECT_EQ(safe.error().code, core::Errc::kCorruptFrame);
    }
  }
}

TEST(WireFuzz, FaultInjectorMutationsAlwaysRejectedCleanly) {
  // Drive every frame type through the chaos transport's mutation paths
  // (bit corruption + truncation) and require that every mutated copy is
  // rejected by the non-throwing decoder — no crash, no garbage accepted.
  FaultProfile profile;
  profile.corrupt_rate = 0.6;
  profile.truncate_rate = 0.4;
  profile.seed = 0xFA117;
  FaultInjector injector{profile};

  std::size_t mutated_seen = 0;
  for (int trial = 0; trial < 4'000; ++trial) {
    const auto frame = encode(sample_message(static_cast<std::size_t>(trial)));
    for (const FaultedFrame& copy :
         injector.apply(static_cast<std::size_t>(trial) % 5, frame)) {
      const core::Result<Message> decoded = try_decode(copy.bytes);
      if (!copy.mutated) {
        EXPECT_TRUE(decoded.ok());
        continue;
      }
      ++mutated_seen;
      if (decoded.ok()) {
        // A mutation can only slip through if flips cancelled exactly (the
        // bytes are identical); anything else accepted is a codec hole.
        EXPECT_EQ(copy.bytes, frame);
      } else {
        EXPECT_EQ(decoded.error().code, core::Errc::kCorruptFrame);
      }
    }
  }
  EXPECT_GT(mutated_seen, 1'000u);
}

TEST(WireFuzz, RoundTripFuzzAllTypesWithRandomValues) {
  core::Rng rng{31337};
  for (int trial = 0; trial < 5'000; ++trial) {
    BidMessage bid;
    bid.cluster_id = static_cast<std::uint32_t>(rng());
    bid.share_id = static_cast<std::uint32_t>(rng());
    bid.performance_estimate = rng.uniform(-1e12, 1e12);
    bid.capacity_mbps = rng.uniform(0.0, 1e9);
    bid.price = rng.uniform(-1e6, 1e6);
    bid.cdn_id = static_cast<std::uint32_t>(rng());
    const Message decoded = decode(encode(Message{bid}));
    EXPECT_EQ(std::get<BidMessage>(decoded), bid);
  }
}

// --- Typed decoder parity ---------------------------------------------------
// try_decode_as<T> must accept exactly the inputs try_decode accepts as a T,
// with the same value, for every message type.

template <typename T>
void expect_typed_parity(std::span<const std::uint8_t> bytes) {
  const core::Result<Message> general = try_decode(bytes);
  const core::Result<T> typed = try_decode_as<T>(bytes);
  const bool general_holds_t = general.ok() && std::holds_alternative<T>(general.value());
  ASSERT_EQ(typed.ok(), general_holds_t) << "type " << static_cast<int>(WireLayout<T>::kType);
  if (typed.ok()) {
    // Compare re-encoded bytes, so NaN fields compare by bit pattern.
    EXPECT_EQ(encode(Message{typed.value()}), encode(general.value()));
  } else {
    EXPECT_EQ(typed.error().code, core::Errc::kCorruptFrame);
  }
}

template <std::size_t... I>
void expect_parity_all_types(std::span<const std::uint8_t> bytes,
                             std::index_sequence<I...> /*types*/) {
  (expect_typed_parity<std::variant_alternative_t<I, Message>>(bytes), ...);
}

void expect_parity_all_types(std::span<const std::uint8_t> bytes) {
  expect_parity_all_types(bytes, std::make_index_sequence<std::variant_size_v<Message>>{});
}

TEST(TypedDecodeFuzz, RandomBytesAgreeWithTryDecode) {
  core::Rng rng{0x7E5D};
  for (int trial = 0; trial < 20'000; ++trial) {
    std::vector<std::uint8_t> bytes(rng.below(72));
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
    expect_parity_all_types(bytes);
  }
}

TEST(TypedDecodeFuzz, ResealedRandomPayloadsAgreeWithTryDecode) {
  // A valid header over random payload bits, with the checksum either left
  // stale or recomputed, so the accepting path sees arbitrary field values
  // (NaNs and infinities included) and trailing bytes.
  core::Rng rng{0x5EA1};
  std::size_t accepted = 0;
  for (int trial = 0; trial < 20'000; ++trial) {
    auto frame = encode(sample_message(static_cast<std::size_t>(trial)));
    const std::size_t checksum_at = frame.size() - kChecksumSize;
    for (std::size_t i = kHeaderSize; i < checksum_at; ++i) {
      frame[i] = static_cast<std::uint8_t>(rng.below(256));
    }
    if (rng.below(4) != 0) {
      const std::uint32_t sum =
          core::fnv1a32(std::span<const std::uint8_t>{frame}.first(checksum_at));
      for (std::size_t i = 0; i < kChecksumSize; ++i) {
        frame[checksum_at + i] = static_cast<std::uint8_t>(sum >> (8 * i));
      }
    }
    for (std::size_t tail = rng.below(3); tail > 0; --tail) {
      frame.push_back(static_cast<std::uint8_t>(rng.below(256)));
    }
    expect_parity_all_types(frame);
    if (try_decode(frame).ok()) ++accepted;
  }
  EXPECT_GT(accepted, 10'000u);
}

TEST(TypedDecodeFuzz, EveryTruncationAgreesWithTryDecode) {
  for (std::size_t kind = 0; kind < 7; ++kind) {
    const auto frame = encode(sample_message(kind));
    for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
      expect_parity_all_types(std::span<const std::uint8_t>{frame}.first(cut));
    }
  }
}

TEST(TypedDecodeFuzz, EverySingleByteFlipAgreesWithTryDecode) {
  for (std::size_t kind = 0; kind < 7; ++kind) {
    const auto frame = encode(sample_message(kind));
    for (std::size_t pos = 0; pos < frame.size(); ++pos) {
      for (unsigned flip = 1; flip < 256; ++flip) {
        auto corrupted = frame;
        corrupted[pos] ^= static_cast<std::uint8_t>(flip);
        expect_parity_all_types(corrupted);
      }
    }
  }
}

TEST(TypedDecodeFuzz, FaultInjectorMutationsAgreeWithTryDecode) {
  FaultProfile profile;
  profile.corrupt_rate = 0.6;
  profile.truncate_rate = 0.4;
  profile.duplicate_rate = 0.1;
  profile.seed = 0x7F1ED;
  FaultInjector injector{profile};

  for (int trial = 0; trial < 4'000; ++trial) {
    const auto frame = encode(sample_message(static_cast<std::size_t>(trial)));
    for (const FaultedFrame& copy :
         injector.apply(static_cast<std::size_t>(trial) % 5, frame)) {
      expect_parity_all_types(copy.bytes);
    }
  }
}

}  // namespace
}  // namespace vdx::proto
