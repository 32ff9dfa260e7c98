// FNV-1a hashing, the one checksum every envelope in the repo uses: the
// proto message frame (32-bit), the shard wire frame and the snapshot
// container (64-bit), plus the fingerprints that pin shard plans and run
// configurations. Both variants take the basis as a parameter so a hash can
// continue from an earlier one (the snapshot section checksum chains its
// framing bytes into its payload this way).
#pragma once

#include <cstdint>
#include <span>

namespace vdx::core {

inline constexpr std::uint32_t kFnv1a32Basis = 0x811c9dc5u;
inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

[[nodiscard]] constexpr std::uint32_t fnv1a32(
    std::span<const std::uint8_t> bytes, std::uint32_t basis = kFnv1a32Basis) noexcept {
  std::uint32_t hash = basis;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x01000193u;
  }
  return hash;
}

[[nodiscard]] constexpr std::uint64_t fnv1a64(
    std::span<const std::uint8_t> bytes, std::uint64_t basis = kFnv1a64Basis) noexcept {
  std::uint64_t hash = basis;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace vdx::core
