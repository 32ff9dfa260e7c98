// radix_sort_distinct: the generator's arrival sort. With distinct keys it
// must give the one sorted order; with a repeated key it must say so.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "trace/arrival_sort.hpp"

namespace vdx::trace {
namespace {

struct Item {
  double arrival = 0.0;
  std::uint32_t payload = 0;
};

std::uint64_t arrival_key(const Item& item) {
  return std::bit_cast<std::uint64_t>(item.arrival);
}

std::vector<Item> uniform_items(std::size_t n, double lo, double hi, std::uint64_t seed) {
  core::Rng rng{seed};
  std::vector<Item> items(n);
  for (std::size_t i = 0; i < n; ++i) {
    items[i] = Item{rng.uniform(lo, hi), static_cast<std::uint32_t>(i)};
  }
  return items;
}

/// Sorts a copy both ways; with distinct keys the results must agree item
/// for item (payload included, so no item was lost or duplicated).
void expect_matches_std_sort(std::vector<Item> items) {
  std::vector<Item> expected = items;
  std::sort(expected.begin(), expected.end(),
            [](const Item& a, const Item& b) { return a.arrival < b.arrival; });
  ASSERT_TRUE(radix_sort_distinct(std::span{items}, arrival_key));
  ASSERT_EQ(items.size(), expected.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(items[i].arrival, expected[i].arrival) << "at " << i;
    ASSERT_EQ(items[i].payload, expected[i].payload) << "at " << i;
  }
}

TEST(ArrivalSort, DistinctKeysGiveTheSortedOrder) {
  // Sizes around the insertion-sort cutoff and a full default block; windows
  // spanning many binades (block 0) and one narrow window deep in the horizon.
  for (const std::size_t n : {0, 1, 2, 31, 32, 33, 257, 5000, 65'536}) {
    for (const auto& [lo, hi] : {std::pair{0.0, 3600.0}, std::pair{1108.0, 1385.0},
                                std::pair{21'000.0, 21'100.0}}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " lo=" + std::to_string(lo));
      expect_matches_std_sort(uniform_items(n, lo, hi, 7 + n));
    }
  }
}

TEST(ArrivalSort, KeysDifferingOnlyInLowBits) {
  // Consecutive doubles: every level but the last sees one bucket.
  std::vector<Item> items;
  double x = 1000.0;
  for (std::uint32_t i = 0; i < 3000; ++i) {
    items.push_back(Item{x, i});
    x = std::nextafter(x, 2000.0);
  }
  std::reverse(items.begin(), items.end());
  expect_matches_std_sort(items);
}

TEST(ArrivalSort, RepeatedKeyIsReported) {
  std::vector<Item> items = uniform_items(5000, 0.0, 3600.0, 11);
  items[4000].arrival = items[17].arrival;
  EXPECT_FALSE(radix_sort_distinct(std::span{items}, arrival_key));
  // Still ordered by key; only the order among the equal pair is open.
  EXPECT_TRUE(std::is_sorted(items.begin(), items.end(),
                             [](const Item& a, const Item& b) {
                               return a.arrival < b.arrival;
                             }));

  std::vector<Item> same(100, Item{42.0, 0});
  EXPECT_FALSE(radix_sort_distinct(std::span{same}, arrival_key));
  std::vector<Item> pair{{1.0, 0}, {1.0, 1}};
  EXPECT_FALSE(radix_sort_distinct(std::span{pair}, arrival_key));
}

}  // namespace
}  // namespace vdx::trace
