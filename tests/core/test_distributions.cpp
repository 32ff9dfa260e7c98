#include "core/distributions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

namespace vdx::core {
namespace {

TEST(Zipf, RejectsBadArguments) {
  EXPECT_THROW(ZipfDistribution(0, 1.0), std::invalid_argument);
  EXPECT_THROW(ZipfDistribution(10, -0.5), std::invalid_argument);
}

TEST(Zipf, PmfSumsToOne) {
  ZipfDistribution zipf{100, 0.8};
  double total = 0.0;
  for (std::size_t k = 0; k < zipf.size(); ++k) total += zipf.pmf(k);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Zipf, RankZeroIsMostPopular) {
  ZipfDistribution zipf{50, 1.0};
  for (std::size_t k = 1; k < zipf.size(); ++k) {
    EXPECT_GT(zipf.pmf(0), zipf.pmf(k));
  }
}

TEST(Zipf, EmpiricalFrequenciesMatchPmf) {
  ZipfDistribution zipf{20, 0.8};
  Rng rng{123};
  std::vector<double> counts(20, 0.0);
  constexpr int kN = 200'000;
  for (int i = 0; i < kN; ++i) counts[zipf(rng)] += 1.0;
  for (std::size_t k = 0; k < 20; ++k) {
    EXPECT_NEAR(counts[k] / kN, zipf.pmf(k), 0.01) << "rank " << k;
  }
}

TEST(Zipf, ZeroExponentIsUniform) {
  ZipfDistribution zipf{8, 0.0};
  for (std::size_t k = 0; k < 8; ++k) EXPECT_NEAR(zipf.pmf(k), 0.125, 1e-12);
}

// The guide table must pick exactly the rank a full lower_bound over the
// same CDF picks, for every u, or the trace's video and AS draws change.
TEST(Zipf, GuideTableMatchesLowerBound) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{50},
                              std::size_t{3000}, std::size_t{100'000}}) {
    for (const double exponent : {0.0, 0.8, 1.1, 2.5}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " s=" + std::to_string(exponent));
      const ZipfDistribution zipf{n, exponent};
      const std::span<const double> cdf = zipf.cdf();
      ASSERT_EQ(cdf.size(), n);
      const auto expected = [&](double u) {
        return static_cast<std::size_t>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                        cdf.begin());
      };
      std::size_t mismatches = 0;
      const auto check = [&](double u) {
        if (zipf.rank_of(u) != expected(u) && ++mismatches <= 5) {
          ADD_FAILURE() << "u=" << u << " rank " << zipf.rank_of(u)
                        << " lower_bound " << expected(u);
        }
      };
      check(0.0);
      check(1.0 - std::ldexp(1.0, -53));  // the largest uniform draw
      const auto check_around = [&](double u) {
        check(u);
        check(std::nextafter(u, -std::numeric_limits<double>::infinity()));
        check(std::nextafter(u, std::numeric_limits<double>::infinity()));
      };
      for (const double c : cdf) check_around(c);
      // The guide table's bucket edges j/n, where u * n rounds either way.
      for (std::size_t j = 1; j <= n; ++j) {
        check_around(static_cast<double>(j) / static_cast<double>(n));
      }
      Rng rng{2017};
      Rng same{2017};
      for (int i = 0; i < 1'000'000; ++i) {
        const std::size_t drawn = zipf(rng);
        const std::size_t want = expected(same.uniform());
        if (drawn != want && ++mismatches <= 5) {
          ADD_FAILURE() << "draw " << i << " rank " << drawn << " lower_bound " << want;
        }
      }
      EXPECT_EQ(mismatches, 0u);
    }
  }
}

TEST(BoundedPareto, RejectsBadArguments) {
  EXPECT_THROW(BoundedParetoDistribution(0.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoDistribution(2.0, 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(BoundedParetoDistribution(1.0, 2.0, 0.0), std::invalid_argument);
}

TEST(BoundedPareto, SamplesWithinBounds) {
  BoundedParetoDistribution pareto{1.0, 100.0, 1.3};
  Rng rng{7};
  for (int i = 0; i < 20'000; ++i) {
    const double x = pareto(rng);
    EXPECT_GE(x, 1.0);
    EXPECT_LE(x, 100.0);
  }
}

TEST(BoundedPareto, HeavyTailSkewsLow) {
  // Closed-form CDF at 10 for alpha=1.5 on [1, 1000] is
  // (1 - 10^-0.5) / (1 - 1000^-0.5) ~= 0.706; check the empirical mass.
  BoundedParetoDistribution pareto{1.0, 1000.0, 1.5};
  Rng rng{11};
  int below_ten = 0;
  constexpr int kN = 50'000;
  for (int i = 0; i < kN; ++i) {
    if (pareto(rng) < 10.0) ++below_ten;
  }
  EXPECT_NEAR(static_cast<double>(below_ten) / kN, 0.706, 0.02);
}

TEST(BoundedPareto, AlphaOneSpecialCaseInBounds) {
  BoundedParetoDistribution pareto{2.0, 64.0, 1.0};
  Rng rng{13};
  for (int i = 0; i < 10'000; ++i) {
    const double x = pareto(rng);
    EXPECT_GE(x, 2.0);
    EXPECT_LE(x, 64.0);
  }
}

TEST(Discrete, RejectsBadWeights) {
  EXPECT_THROW(DiscreteDistribution(std::span<const double>{}), std::invalid_argument);
  const std::array<double, 2> zero{0.0, 0.0};
  EXPECT_THROW(DiscreteDistribution(std::span<const double>{zero}), std::invalid_argument);
  const std::array<double, 2> negative{1.0, -0.5};
  EXPECT_THROW(DiscreteDistribution(std::span<const double>{negative}),
               std::invalid_argument);
}

TEST(Discrete, FrequenciesMatchWeights) {
  const std::array<double, 4> weights{1.0, 2.0, 3.0, 4.0};
  DiscreteDistribution dist{std::span<const double>{weights}};
  Rng rng{17};
  std::array<double, 4> counts{};
  constexpr int kN = 400'000;
  for (int i = 0; i < kN; ++i) counts[dist(rng)] += 1.0;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(counts[i] / kN, weights[i] / 10.0, 0.005) << "outcome " << i;
  }
}

TEST(Discrete, ProbabilityOfIsNormalized) {
  const std::array<double, 3> weights{2.0, 2.0, 6.0};
  DiscreteDistribution dist{std::span<const double>{weights}};
  EXPECT_NEAR(dist.probability_of(0), 0.2, 1e-12);
  EXPECT_NEAR(dist.probability_of(2), 0.6, 1e-12);
  EXPECT_THROW((void)dist.probability_of(3), std::out_of_range);
}

TEST(Discrete, ZeroWeightOutcomeNeverSampled) {
  const std::array<double, 3> weights{1.0, 0.0, 1.0};
  DiscreteDistribution dist{std::span<const double>{weights}};
  Rng rng{19};
  for (int i = 0; i < 50'000; ++i) EXPECT_NE(dist(rng), 1u);
}

TEST(Bimodal, SamplesClampedAndBimodal) {
  BimodalDistribution bitrates{{0.5, 0.2, 0.6}, {4.0, 0.5, 0.4}, 0.2, 5.0};
  Rng rng{23};
  int low = 0;
  int high = 0;
  constexpr int kN = 100'000;
  for (int i = 0; i < kN; ++i) {
    const double x = bitrates(rng);
    EXPECT_GE(x, 0.2);
    EXPECT_LE(x, 5.0);
    if (x < 1.5) ++low;
    if (x > 3.0) ++high;
  }
  // Both modes carry substantial mass (paper: peaks at lowest & highest).
  EXPECT_GT(static_cast<double>(low) / kN, 0.4);
  EXPECT_GT(static_cast<double>(high) / kN, 0.25);
}

TEST(Bimodal, RejectsBadClamp) {
  EXPECT_THROW(BimodalDistribution({0.0, 1.0, 0.5}, {1.0, 1.0, 0.5}, 2.0, 1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace vdx::core
