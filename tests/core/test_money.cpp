#include "core/money.hpp"

#include <gtest/gtest.h>

namespace vdx::core {
namespace {

TEST(Money, DefaultIsZero) {
  EXPECT_EQ(Money{}.micros(), 0);
  EXPECT_DOUBLE_EQ(Money{}.dollars(), 0.0);
}

TEST(Money, DollarsRoundTrip) {
  const Money m = Money::from_dollars(12.345678);
  EXPECT_EQ(m.micros(), 12'345'678);
  EXPECT_DOUBLE_EQ(m.dollars(), 12.345678);
}

TEST(Money, RoundsHalfAwayFromZero) {
  EXPECT_EQ(Money::from_dollars(0.0000005).micros(), 1);
  EXPECT_EQ(Money::from_dollars(-0.0000005).micros(), -1);
}

TEST(Money, Arithmetic) {
  const Money a = Money::from_dollars(1.5);
  const Money b = Money::from_dollars(0.25);
  EXPECT_EQ((a + b).micros(), 1'750'000);
  EXPECT_EQ((a - b).micros(), 1'250'000);
  EXPECT_EQ((-b).micros(), -250'000);
  Money c = a;
  c += b;
  c -= a;
  EXPECT_EQ(c, b);
}

TEST(Money, Comparisons) {
  EXPECT_LT(Money::from_dollars(1.0), Money::from_dollars(2.0));
  EXPECT_EQ(Money::from_dollars(1.0), Money::from_micros(1'000'000));
  EXPECT_GT(Money::from_dollars(-1.0), Money::from_dollars(-2.0));
}

TEST(Money, ScaledAppliesMarkup) {
  const Money cost = Money::from_dollars(100.0);
  EXPECT_DOUBLE_EQ(cost.scaled(1.2).dollars(), 120.0);
  EXPECT_DOUBLE_EQ(cost.scaled(0.0).dollars(), 0.0);
}

TEST(Money, ToStringFormatsMicros) {
  EXPECT_EQ(Money::from_dollars(3.5).to_string(), "$3.500000");
  EXPECT_EQ(Money::from_micros(-1).to_string(), "-$0.000001");
  EXPECT_EQ(Money{}.to_string(), "$0.000000");
}

TEST(Money, OverflowThrows) {
  EXPECT_THROW((void)Money::from_dollars(1e300), std::overflow_error);
}

}  // namespace
}  // namespace vdx::core
