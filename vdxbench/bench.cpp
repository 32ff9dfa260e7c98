#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <span>

#include "state/snapshot.hpp"

namespace vdx::bench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double position = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto below = static_cast<std::size_t>(std::floor(position));
  const std::size_t above = std::min(below + 1, samples.size() - 1);
  const double fraction = position - static_cast<double>(below);
  return samples[below] + fraction * (samples[above] - samples[below]);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string digest_of(std::string_view bytes) {
  const std::uint64_t sum = state::fnv1a(std::span<const std::uint8_t>{
      reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()});
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx", static_cast<unsigned long long>(sum));
  return buffer;
}

void Repetitions::add(double setup_s, std::vector<double> round_ms, double wall_s) {
  double rounds_s = 0.0;
  for (const double ms : round_ms) rounds_s += ms / 1e3;
  setup_s_.push_back(setup_s);
  outside_s_.push_back(std::max(0.0, wall_s - rounds_s));
  round_ms_.push_back(std::move(round_ms));
}

void Repetitions::report(Result& result, double sessions) const {
  std::size_t rounds = round_ms_.empty() ? 0 : round_ms_.front().size();
  for (const std::vector<double>& rep : round_ms_) rounds = std::min(rounds, rep.size());
  std::vector<double> round_ms(rounds);
  double wall_s = *std::min_element(outside_s_.begin(), outside_s_.end());
  for (std::size_t i = 0; i < rounds; ++i) {
    round_ms[i] = round_ms_.front()[i];
    for (const std::vector<double>& rep : round_ms_) {
      round_ms[i] = std::min(round_ms[i], rep[i]);
    }
    wall_s += round_ms[i] / 1e3;
  }
  result.repetitions = round_ms_.size();
  result.round_samples = rounds;
  result.set("setup_s", median(setup_s_));
  result.set("sessions_per_s", sessions / wall_s);
  result.set("rounds_per_s", static_cast<double>(rounds) / wall_s);
  result.set("round_ms_p50", quantile(round_ms, 0.50));
  result.set("round_ms_p90", quantile(round_ms, 0.90));
}

}  // namespace vdx::bench
