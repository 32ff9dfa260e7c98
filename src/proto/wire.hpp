// Binary wire codec for the VDX marketplace protocol.
//
// Little-endian, fixed-width integers; doubles as IEEE-754 bit patterns;
// strings/blobs length-prefixed with u32. The reader is strictly
// bounds-checked and throws WireError on any truncation or overrun — a
// malformed peer must never crash the exchange.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace vdx::proto {

class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class ByteWriter {
 public:
  void write_u8(std::uint8_t value);
  void write_u16(std::uint16_t value);
  void write_u32(std::uint32_t value);
  void write_u64(std::uint64_t value);
  void write_f64(double value);
  /// u32 length prefix + raw bytes.
  void write_string(std::string_view value);
  void write_bytes(std::span<const std::uint8_t> value);

  [[nodiscard]] const std::vector<std::uint8_t>& data() const noexcept { return data_; }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept { return std::move(data_); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }

  /// Overwrites 4 bytes at `offset` (for back-patching length prefixes).
  void patch_u32(std::size_t offset, std::uint32_t value);

 private:
  std::vector<std::uint8_t> data_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t read_u8();
  [[nodiscard]] std::uint16_t read_u16();
  [[nodiscard]] std::uint32_t read_u32();
  [[nodiscard]] std::uint64_t read_u64();
  [[nodiscard]] double read_f64();
  [[nodiscard]] std::string read_string();
  /// Reads exactly n bytes.
  [[nodiscard]] std::span<const std::uint8_t> read_bytes(std::size_t n);
  /// Reads a u64 (or u32) element count and throws WireError unless that
  /// many records of at least `record_size` bytes fit in what is left, so a
  /// lying count can neither drive reserve() nor wrap a `count * size`
  /// product.
  [[nodiscard]] std::size_t read_count(std::size_t record_size);
  [[nodiscard]] std::size_t read_count_u32(std::size_t record_size);

  [[nodiscard]] std::size_t remaining() const noexcept { return data_.size() - pos_; }
  [[nodiscard]] bool exhausted() const noexcept { return remaining() == 0; }

 private:
  void require(std::size_t n) const;
  [[nodiscard]] std::size_t bounded(std::uint64_t count, std::size_t record_size) const;

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace vdx::proto
