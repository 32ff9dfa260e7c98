// Heavy-tailed and discrete samplers used by the workload synthesizers.
//
// The CoNEXT'17 broker trace (paper §3.1) exhibits Zipf video popularity, a
// power-law city distribution, a bimodal bitrate mix, and ~78% immediate
// abandonment. These samplers reproduce those marginals deterministically
// from a seeded Rng.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/rng.hpp"

namespace vdx::core {

/// Zipf(s) sampler over ranks {0, .., n-1}: P(k) ∝ 1/(k+1)^s.
/// Precomputes the CDF and a guide table over it (Chen–Asau): a draw
/// searches only the ranks whose CDF values share its 1/n bucket, so a
/// sample costs O(1) expected instead of a search over the whole CDF.
class ZipfDistribution {
 public:
  ZipfDistribution(std::size_t n, double exponent);

  [[nodiscard]] std::size_t operator()(Rng& rng) const { return rank_of(rng.uniform()); }
  /// The rank a uniform draw `u` maps to: exactly the std::lower_bound
  /// index of `u` in cdf() (size() when `u` exceeds every entry).
  [[nodiscard]] std::size_t rank_of(double u) const;
  [[nodiscard]] std::size_t size() const noexcept { return cdf_.size(); }
  [[nodiscard]] double exponent() const noexcept { return exponent_; }
  [[nodiscard]] std::span<const double> cdf() const noexcept { return cdf_; }
  /// Probability mass of rank k.
  [[nodiscard]] double pmf(std::size_t k) const;

 private:
  double exponent_;
  std::vector<double> cdf_;  // cumulative, cdf_.back() == 1.0
  /// guide_[j] = lower_bound index of j/n in cdf_, for j in [0, n + 1]:
  /// u * n can round up to n (u = 1 - 2^-53), and bucket j's search ends at
  /// guide_[j + 1].
  std::vector<std::size_t> guide_;
};

/// Continuous bounded Pareto (power-law) sampler on [lo, hi] with density
/// ∝ x^-alpha. Used for city populations / request volumes.
class BoundedParetoDistribution {
 public:
  BoundedParetoDistribution(double lo, double hi, double alpha);

  [[nodiscard]] double operator()(Rng& rng) const;
  [[nodiscard]] double alpha() const noexcept { return alpha_; }

 private:
  double lo_;
  double hi_;
  double alpha_;
};

/// General discrete distribution over arbitrary non-negative weights.
/// Walker alias method: O(n) build, O(1) sample.
class DiscreteDistribution {
 public:
  explicit DiscreteDistribution(std::span<const double> weights);

  [[nodiscard]] std::size_t operator()(Rng& rng) const;
  [[nodiscard]] std::size_t size() const noexcept { return probability_.size(); }
  /// Normalized probability of outcome i.
  [[nodiscard]] double probability_of(std::size_t i) const;

 private:
  std::vector<double> probability_;  // alias-table cell probability
  std::vector<std::uint32_t> alias_;
  std::vector<double> normalized_;  // original weights / sum
};

/// Bimodal mixture of two normals clamped to [lo, hi]; the paper's bitrate
/// distribution peaks at the lowest and highest bitrate.
class BimodalDistribution {
 public:
  struct Mode {
    double mean = 0.0;
    double stddev = 1.0;
    double weight = 0.5;
  };

  BimodalDistribution(Mode low, Mode high, double clamp_lo, double clamp_hi);

  [[nodiscard]] double operator()(Rng& rng) const;

 private:
  Mode low_;
  Mode high_;
  double clamp_lo_;
  double clamp_hi_;
};

}  // namespace vdx::core
