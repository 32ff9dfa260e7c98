// core::fnv1a32 / core::fnv1a64 against the published FNV-1a test vectors
// (the reference implementation's "", "a" and "foobar" cases), plus the
// chaining property the snapshot section checksum relies on.
#include <gtest/gtest.h>

#include <span>
#include <string_view>

#include "core/fnv1a.hpp"

namespace vdx::core {
namespace {

std::span<const std::uint8_t> bytes_of(std::string_view text) {
  return {reinterpret_cast<const std::uint8_t*>(text.data()), text.size()};
}

TEST(Fnv1a, ThirtyTwoBitMatchesReferenceVectors) {
  EXPECT_EQ(fnv1a32(bytes_of("")), 0x811c9dc5u);
  EXPECT_EQ(fnv1a32(bytes_of("a")), 0xe40c292cu);
  EXPECT_EQ(fnv1a32(bytes_of("foobar")), 0xbf9cf968u);
}

TEST(Fnv1a, SixtyFourBitMatchesReferenceVectors) {
  EXPECT_EQ(fnv1a64(bytes_of("")), 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a64(bytes_of("a")), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a64(bytes_of("foobar")), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, BasisParameterChainsAcrossSplits) {
  EXPECT_EQ(fnv1a32(bytes_of("bar"), fnv1a32(bytes_of("foo"))),
            fnv1a32(bytes_of("foobar")));
  EXPECT_EQ(fnv1a64(bytes_of("bar"), fnv1a64(bytes_of("foo"))),
            fnv1a64(bytes_of("foobar")));
}

}  // namespace
}  // namespace vdx::core
