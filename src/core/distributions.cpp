#include "core/distributions.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace vdx::core {

ZipfDistribution::ZipfDistribution(std::size_t n, double exponent)
    : exponent_(exponent) {
  if (n == 0) throw std::invalid_argument{"ZipfDistribution: n must be > 0"};
  if (exponent < 0.0) throw std::invalid_argument{"ZipfDistribution: exponent must be >= 0"};
  cdf_.resize(n);
  double total = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    total += std::pow(static_cast<double>(k + 1), -exponent);
    cdf_[k] = total;
  }
  for (auto& c : cdf_) c /= total;
  cdf_.back() = 1.0;  // guard against fp round-off

  guide_.resize(n + 2);
  const double buckets = static_cast<double>(n);
  for (std::size_t j = 0; j < guide_.size(); ++j) {
    const auto it =
        std::lower_bound(cdf_.begin(), cdf_.end(), static_cast<double>(j) / buckets);
    guide_[j] = static_cast<std::size_t>(it - cdf_.begin());
  }
}

std::size_t ZipfDistribution::rank_of(double u) const {
  // Bucket j = floor(u * n) holds u in [j/n, (j+1)/n], so its rank lies in
  // [guide_[j], guide_[j + 1]]. Rounding in u * n or j / n can put u just
  // outside its bucket; the two walks then restore the exact lower_bound.
  if (!(u > 0.0)) return 0;  // every CDF entry is >= 0 (NaN compares false)
  const std::size_t n = cdf_.size();
  const double scaled = u * static_cast<double>(n);
  const std::size_t j =
      scaled < static_cast<double>(n) ? static_cast<std::size_t>(scaled) : n;
  const auto first = cdf_.begin() + static_cast<std::ptrdiff_t>(guide_[j]);
  const auto last = cdf_.begin() + static_cast<std::ptrdiff_t>(guide_[j + 1]);
  auto k = static_cast<std::size_t>(std::lower_bound(first, last, u) - cdf_.begin());
  while (k > 0 && cdf_[k - 1] >= u) --k;
  while (k < n && cdf_[k] < u) ++k;
  return k;
}

double ZipfDistribution::pmf(std::size_t k) const {
  if (k >= cdf_.size()) throw std::out_of_range{"ZipfDistribution::pmf"};
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

BoundedParetoDistribution::BoundedParetoDistribution(double lo, double hi, double alpha)
    : lo_(lo), hi_(hi), alpha_(alpha) {
  if (!(lo > 0.0) || !(hi > lo)) {
    throw std::invalid_argument{"BoundedParetoDistribution: require 0 < lo < hi"};
  }
  if (!(alpha > 0.0)) {
    throw std::invalid_argument{"BoundedParetoDistribution: require alpha > 0"};
  }
}

double BoundedParetoDistribution::operator()(Rng& rng) const {
  // Inverse-CDF for the bounded Pareto. Handle the measure-zero alpha==1
  // case of the exponent formula explicitly.
  const double u = rng.uniform();
  if (std::abs(alpha_ - 1.0) < 1e-12) {
    return lo_ * std::pow(hi_ / lo_, u);
  }
  const double la = std::pow(lo_, 1.0 - alpha_);
  const double ha = std::pow(hi_, 1.0 - alpha_);
  return std::pow(la + u * (ha - la), 1.0 / (1.0 - alpha_));
}

DiscreteDistribution::DiscreteDistribution(std::span<const double> weights) {
  if (weights.empty()) throw std::invalid_argument{"DiscreteDistribution: empty weights"};
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (!(sum > 0.0)) throw std::invalid_argument{"DiscreteDistribution: weights must sum > 0"};
  for (const double w : weights) {
    if (w < 0.0) throw std::invalid_argument{"DiscreteDistribution: negative weight"};
  }

  const std::size_t n = weights.size();
  normalized_.resize(n);
  probability_.assign(n, 0.0);
  alias_.assign(n, 0);

  // Walker alias construction.
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i) {
    normalized_[i] = weights[i] / sum;
    scaled[i] = normalized_[i] * static_cast<double>(n);
  }
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    probability_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (const std::uint32_t i : large) probability_[i] = 1.0;
  for (const std::uint32_t i : small) probability_[i] = 1.0;
}

std::size_t DiscreteDistribution::operator()(Rng& rng) const {
  const std::size_t cell = static_cast<std::size_t>(rng.below(probability_.size()));
  return rng.uniform() < probability_[cell] ? cell : alias_[cell];
}

double DiscreteDistribution::probability_of(std::size_t i) const {
  if (i >= normalized_.size()) throw std::out_of_range{"DiscreteDistribution::probability_of"};
  return normalized_[i];
}

BimodalDistribution::BimodalDistribution(Mode low, Mode high, double clamp_lo,
                                         double clamp_hi)
    : low_(low), high_(high), clamp_lo_(clamp_lo), clamp_hi_(clamp_hi) {
  if (!(clamp_lo < clamp_hi)) {
    throw std::invalid_argument{"BimodalDistribution: require clamp_lo < clamp_hi"};
  }
  const double wsum = low_.weight + high_.weight;
  if (!(wsum > 0.0)) throw std::invalid_argument{"BimodalDistribution: weights must sum > 0"};
  low_.weight /= wsum;
  high_.weight /= wsum;
}

double BimodalDistribution::operator()(Rng& rng) const {
  const Mode& mode = rng.uniform() < low_.weight ? low_ : high_;
  return std::clamp(rng.normal(mode.mean, mode.stddev), clamp_lo_, clamp_hi_);
}

}  // namespace vdx::core
