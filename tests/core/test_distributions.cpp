#include "core/distributions.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numeric>
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
