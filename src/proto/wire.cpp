#include "proto/wire.hpp"

#include <bit>
#include <cstring>

namespace vdx::proto {

namespace {

template <typename T>
void append_le(std::vector<std::uint8_t>& out, T value) {
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<std::uint8_t>(value >> (8 * i)));
  }
}

template <typename T>
T read_le(std::span<const std::uint8_t> data, std::size_t pos) {
  T value = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    value |= static_cast<T>(data[pos + i]) << (8 * i);
  }
  return value;
}

}  // namespace

void ByteWriter::write_u8(std::uint8_t value) { data_.push_back(value); }
void ByteWriter::write_u16(std::uint16_t value) { append_le(data_, value); }
void ByteWriter::write_u32(std::uint32_t value) { append_le(data_, value); }
void ByteWriter::write_u64(std::uint64_t value) { append_le(data_, value); }

void ByteWriter::write_f64(double value) {
  write_u64(std::bit_cast<std::uint64_t>(value));
}

void ByteWriter::write_string(std::string_view value) {
  if (value.size() > UINT32_MAX) throw WireError{"string too long"};
  write_u32(static_cast<std::uint32_t>(value.size()));
  data_.insert(data_.end(), value.begin(), value.end());
}

void ByteWriter::write_bytes(std::span<const std::uint8_t> value) {
  data_.insert(data_.end(), value.begin(), value.end());
}

void ByteWriter::patch_u32(std::size_t offset, std::uint32_t value) {
  if (offset + 4 > data_.size()) throw WireError{"patch_u32 out of range"};
  for (std::size_t i = 0; i < 4; ++i) {
    data_[offset + i] = static_cast<std::uint8_t>(value >> (8 * i));
  }
}

void ByteReader::require(std::size_t n) const {
  if (remaining() < n) throw WireError{"truncated message"};
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return data_[pos_++];
}

std::uint16_t ByteReader::read_u16() {
  require(2);
  const auto v = read_le<std::uint16_t>(data_, pos_);
  pos_ += 2;
  return v;
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  const auto v = read_le<std::uint32_t>(data_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  const auto v = read_le<std::uint64_t>(data_, pos_);
  pos_ += 8;
  return v;
}

double ByteReader::read_f64() { return std::bit_cast<double>(read_u64()); }

std::string ByteReader::read_string() {
  const std::uint32_t length = read_u32();
  require(length);
  std::string out(reinterpret_cast<const char*>(data_.data() + pos_), length);
  pos_ += length;
  return out;
}

std::span<const std::uint8_t> ByteReader::read_bytes(std::size_t n) {
  require(n);
  const auto out = data_.subspan(pos_, n);
  pos_ += n;
  return out;
}

std::size_t ByteReader::bounded(std::uint64_t count, std::size_t record_size) const {
  if (count > remaining() / record_size) {
    throw WireError{"element count overruns the message"};
  }
  return static_cast<std::size_t>(count);
}

std::size_t ByteReader::read_count(std::size_t record_size) {
  const std::uint64_t count = read_u64();
  return bounded(count, record_size);
}

std::size_t ByteReader::read_count_u32(std::size_t record_size) {
  const std::uint32_t count = read_u32();
  return bounded(count, record_size);
}

}  // namespace vdx::proto
