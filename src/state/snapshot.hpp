// Versioned, checksummed snapshot container for crash-consistent
// checkpointing (DESIGN.md §10).
//
// A snapshot is a flat sequence of typed byte sections wrapped in a
// self-validating envelope:
//
//   [magic u64]["VDXSNAP1" little-endian]
//   [format version u32]
//   [section count u32]
//   section*:  [id u32][length u64][payload bytes][fnv1a64(id‖length‖payload)]
//   [file checksum u64 = fnv1a64 of every preceding byte]
//
// Every integer is little-endian; doubles travel as IEEE-754 bit patterns
// (the proto wire convention). Parsing never throws across the trust
// boundary: a truncated, bit-flipped, wrong-magic, or wrong-version file is
// rejected with a typed core::Result error (Errc::kCorruptSnapshot /
// kVersionMismatch) naming the first violated invariant. Trailing bytes
// after the file checksum are an error too — a duplicated or concatenated
// snapshot must not silently parse as its first copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <vector>

#include "core/fnv1a.hpp"
#include "core/result.hpp"

namespace vdx::state {

/// "VDXSNAP1" read as a little-endian u64.
inline constexpr std::uint64_t kSnapshotMagic = 0x3150414E53584456ULL;
inline constexpr std::uint32_t kFormatVersion = 1;

/// FNV-1a 64-bit over `bytes`, continuing from `basis` (chainable).
[[nodiscard]] constexpr std::uint64_t fnv1a(
    std::span<const std::uint8_t> bytes,
    std::uint64_t basis = core::kFnv1a64Basis) noexcept {
  return core::fnv1a64(bytes, basis);
}

struct Section {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> bytes;
};

/// Accumulates sections and serializes the envelope.
class SnapshotWriter {
 public:
  void add_section(std::uint32_t id, std::vector<std::uint8_t> bytes);
  /// Serializes magic + version + sections + checksums. The writer can be
  /// reused after finish() (sections are kept).
  [[nodiscard]] std::vector<std::uint8_t> finish() const;

 private:
  std::vector<Section> sections_;
};

/// A parsed, fully validated snapshot. Construction via parse() is the only
/// path, so holding a SnapshotView implies every checksum verified.
class SnapshotView {
 public:
  [[nodiscard]] static core::Result<SnapshotView> parse(
      std::span<const std::uint8_t> bytes);

  [[nodiscard]] const std::vector<Section>& sections() const noexcept {
    return sections_;
  }
  /// First section with this id, or nullptr.
  [[nodiscard]] const Section* find(std::uint32_t id) const noexcept;

 private:
  std::vector<Section> sections_;
};

class FileSystem;

/// Atomically writes `bytes` to `path` through `fs`: the payload lands in
/// `path` + ".tmp" first, is fsynced, and is renamed into place, so a crash
/// at any syscall boundary can never leave a half-written file under the
/// final name (the stale .tmp is ignored by the store and overwritten by the
/// next attempt). The fsync-before-rename is what makes the renamed file's
/// content durable, not just its name — state::FaultFs proves this ordering
/// by crash-sweeping every boundary.
[[nodiscard]] core::Status write_file_atomic(FileSystem& fs,
                                             const std::filesystem::path& path,
                                             std::span<const std::uint8_t> bytes);
/// Convenience overload on the host filesystem (real_fs()).
[[nodiscard]] core::Status write_file_atomic(const std::filesystem::path& path,
                                             std::span<const std::uint8_t> bytes);

/// Reads a whole file; Errc::kUnavailable when it cannot be opened.
[[nodiscard]] core::Result<std::vector<std::uint8_t>> read_file(
    const std::filesystem::path& path);

}  // namespace vdx::state
