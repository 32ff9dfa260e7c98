// In-place radix sort for the trace generator's arrival order.
//
// A block's sessions arrive in random order, so a comparison sort of them
// spends most of its time on mispredicted branches. Sorting by the bits of
// the key instead is several times faster and needs no scratch buffer (an
// American flag sort: one count table per level, elements swapped into
// their buckets in place).
//
// Radix sorting is not a comparison sort: for equal keys it yields another
// order than std::sort would. It therefore reports whether all keys were
// distinct, and a caller that must match std::sort's order sorts again with
// it when they were not.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>

namespace vdx::trace {

namespace detail {

/// Buckets at or below this size are finished by insertion sort.
inline constexpr std::ptrdiff_t kInsertionMax = 32;

template <typename T, typename KeyFn>
void insertion_sort_by_key(T* first, T* last, const KeyFn& key) {
  for (T* i = first + 1; i < last; ++i) {
    T item = std::move(*i);
    const std::uint64_t k = key(item);
    T* j = i;
    for (; j > first && key(*(j - 1)) > k; --j) *j = std::move(*(j - 1));
    *j = std::move(item);
  }
}

/// Sorts [first, last) by key bits [0, shift + 8), given that all keys in
/// the range agree on every bit above shift + 7.
template <typename T, typename KeyFn>
void flag_sort_by_key(T* first, T* last, int shift, const KeyFn& key) {
  if (last - first <= kInsertionMax) {
    insertion_sort_by_key(first, last, key);
    return;
  }
  const auto digit = [&](const T& item) {
    return static_cast<std::size_t>((key(item) >> shift) & 0xFFu);
  };
  std::array<std::size_t, 256> next{};  // next unplaced slot of each bucket
  std::array<std::size_t, 256> end{};   // one past each bucket
  for (const T* p = first; p < last; ++p) ++end[digit(*p)];
  std::size_t offset = 0;
  for (std::size_t d = 0; d < 256; ++d) {
    next[d] = offset;
    offset += end[d];
    end[d] = offset;
  }
  // Each element moves straight to the next free slot of its bucket; the
  // one it displaces continues the cycle until one belongs in bucket d.
  for (std::size_t d = 0; d < 256; ++d) {
    while (next[d] < end[d]) {
      T item = std::move(first[next[d]]);
      std::size_t item_digit = digit(item);
      while (item_digit != d) {
        std::swap(item, first[next[item_digit]++]);
        item_digit = digit(item);
      }
      first[next[d]++] = std::move(item);
    }
  }
  if (shift == 0) return;
  const int lower = shift >= 8 ? shift - 8 : 0;
  T* bucket = first;
  for (std::size_t d = 0; d < 256; ++d) {
    T* const bucket_end = first + end[d];
    if (bucket_end - bucket > 1) flag_sort_by_key(bucket, bucket_end, lower, key);
    bucket = bucket_end;
  }
}

}  // namespace detail

/// Sorts `items` ascending by `key(item)`, a std::uint64_t. Returns true
/// when every key is distinct: the order is then the one any correct sort
/// gives. Returns false when two items share a key, leaving them sorted by
/// key but with equal keys in an unspecified order.
template <typename T, typename KeyFn>
[[nodiscard]] bool radix_sort_distinct(std::span<T> items, const KeyFn& key) {
  if (items.size() < 2) return true;
  // Bits above the highest one in which some two keys differ are common to
  // all keys; the first level sorts on the eight bits ending at it.
  const std::uint64_t first_key = key(items.front());
  std::uint64_t differ = 0;
  for (const T& item : items) differ |= key(item) ^ first_key;
  if (differ == 0) return false;
  const int top = std::bit_width(differ) - 1;
  detail::flag_sort_by_key(items.data(), items.data() + items.size(),
                           std::max(top - 7, 0), key);
  for (std::size_t i = 1; i < items.size(); ++i) {
    if (key(items[i - 1]) == key(items[i])) return false;
  }
  return true;
}

}  // namespace vdx::trace
