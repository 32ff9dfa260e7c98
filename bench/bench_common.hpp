// Shared helpers for the figure/table regeneration benches.
//
// BenchReporter routes bench output through the vdx::obs metrics registry
// and emits it as machine-readable `BENCH_JSON {...}` lines (one JSON object
// per metric) alongside the human tables, so CI and plotting scripts can
// scrape results without parsing prose.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "core/flags.hpp"
#include "obs/observe.hpp"
#include "sim/experiments.hpp"

namespace vdx::bench {

/// Reads a bench's command line through core::Flags: `read` pulls every flag
/// the bench accepts and returns what it read; any other flag is rejected.
/// A bad or unknown flag prints one line and exits 2. Benches stay runnable
/// with no arguments.
template <typename Read>
auto parse_flags(int argc, char** argv, Read&& read) {
  try {
    core::Flags flags{argc, argv, 1};
    auto values = read(flags);
    flags.check_all_used();
    return values;
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    std::exit(2);
  }
}

/// `--threads N` for a bench that takes no other flag (0 = all cores, the
/// default; 1 = serial).
inline std::size_t threads_flag(int argc, char** argv) {
  return parse_flags(argc, argv,
                     [](core::Flags& flags) { return flags.count("threads", 0); });
}

/// The paper-scale scenario: 33.4K broker sessions + 3x background over the
/// 14-CDN world (§5.1). One shared seed keeps all benches consistent.
inline sim::Scenario paper_scenario(std::size_t city_cdns = 0) {
  sim::ScenarioConfig config;
  config.city_cdn_count = city_cdns;
  double setup_seconds = 0.0;
  sim::Scenario scenario = [&] {
    const obs::ScopedTimer timer{&setup_seconds};
    return sim::Scenario::build(config);
  }();
  std::printf("[setup] scenario: %zu broker sessions, %zu background, %zu CDNs, "
              "%zu clusters (%.1fs)\n",
              scenario.broker_trace().size(), scenario.background_trace().size(),
              scenario.catalog().cdns().size(), scenario.catalog().clusters().size(),
              setup_seconds);
  return scenario;
}

/// Bench-result sink backed by a MetricsRegistry. Every metric carries a
/// {"bench": <name>} label; emit() (or destruction) writes one
/// `BENCH_JSON {...}` line per metric, sorted by (name, labels) so output
/// is deterministic.
class BenchReporter {
 public:
  explicit BenchReporter(std::string name) : name_(std::move(name)) {}
  BenchReporter(const BenchReporter&) = delete;
  BenchReporter& operator=(const BenchReporter&) = delete;
  ~BenchReporter() {
    if (!emitted_) emit();
  }

  [[nodiscard]] obs::MetricsRegistry& registry() noexcept { return registry_; }

  [[nodiscard]] obs::Counter counter(std::string_view metric, obs::Labels labels = {}) {
    return registry_.counter(metric, tagged(std::move(labels)));
  }
  [[nodiscard]] obs::Gauge gauge(std::string_view metric, obs::Labels labels = {}) {
    return registry_.gauge(metric, tagged(std::move(labels)));
  }
  [[nodiscard]] obs::Histogram histogram(std::string_view metric,
                                         obs::Labels labels = {}) {
    return registry_.histogram(metric, tagged(std::move(labels)));
  }

  void emit(std::ostream& out = std::cout) {
    registry_.write_jsonl(out, "BENCH_JSON ");
    emitted_ = true;
  }

 private:
  [[nodiscard]] obs::Labels tagged(obs::Labels labels) const {
    labels.emplace_back("bench", name_);
    return labels;
  }

  std::string name_;
  obs::MetricsRegistry registry_;
  bool emitted_ = false;
};

}  // namespace vdx::bench
