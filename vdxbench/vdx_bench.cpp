// bench_vdx: the VDX benchmark. One workload per process:
//
//   bench_vdx --workload <name> [--seed 2017] [--seconds 20] [--trace 0|1]
//             [--trace-out spans.jsonl] [--smoke]
//
// Untraced (--trace 0) it prints the end-to-end metrics; traced (--trace 1,
// or --trace-out) it runs one untraced and one traced pass and prints the
// per-layer profile. Every metric is printed as a `BENCH_JSON` line with its
// name, unit and workload; the correctness checks run in both modes, and
// the last line of stdout is the run's result object:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// The exit code is 0 only when every check held.
#include <cmath>
#include <cstdio>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "core/flags.hpp"
#include "workloads.hpp"

namespace {

using namespace vdx::bench;

struct Workload {
  std::string_view name;
  Result (*run)(const Options&);
};

// Sizes and reasons are documented in README.md; --smoke shrinks every
// workload to seconds for the CI test.
constexpr Workload kWorkloads[] = {
    {"stream-6h",
     [](const Options& o) {
       return run_stream(o, o.smoke ? StreamShape{20'000, 6.0}
                                    : StreamShape{1'000'000, 6.0});
     }},
    {"stream-1h-dense",
     [](const Options& o) {
       return run_stream(o, o.smoke ? StreamShape{20'000, 1.0}
                                    : StreamShape{800'000, 1.0});
     }},
    {"serve-steady",
     [](const Options& o) {
       return run_serve(o, o.smoke ? ServeShape{2'000.0, 0.5, 0.0, 10, 10}
                                   : ServeShape{10'000.0, 2.0, 0.0, 10, 15});
     }},
    {"serve-overload-4x",
     [](const Options& o) {
       return run_serve(o, o.smoke ? ServeShape{8'000.0, 0.5, 200.0, 0, 10}
                                   : ServeShape{40'000.0, 3.0, 1060.0, 0, 15});
     }},
    {"shard-churn",
     [](const Options& o) {
       return run_shard(o, o.smoke ? ShardShape{20'000, 500, 10}
                                   : ShardShape{1'000'000, 10'000, 60});
     }},
};

/// Metric names and units of the requested mode, in print order.
std::vector<std::pair<std::string, std::string>> catalogue(bool traced) {
  std::vector<std::pair<std::string, std::string>> out;
  if (!traced) {
    for (const MetricSpec& m : kEndToEnd) out.emplace_back(m.name, m.unit);
    return out;
  }
  for (const MetricSpec& m : kPerLayerCounts) out.emplace_back(m.name, m.unit);
  for (const std::string_view layer : kTimedLayers) {
    out.emplace_back(std::string{layer} + "_s", "s");
    out.emplace_back(std::string{layer} + "_share", "frac");
  }
  return out;
}

Options parse(int argc, char** argv) {
  std::vector<std::string> names;
  for (const Workload& w : kWorkloads) names.emplace_back(w.name);
  vdx::core::Flags flags{argc, argv, 1};
  Options options;
  options.workload = flags.one_of("workload", "", names);
  options.seed = flags.count("seed", 2017);
  options.seconds = flags.positive("seconds", 20.0);
  options.trace = flags.one_of("trace", "0", {"0", "1"}) == "1";
  options.trace_out = flags.text("trace-out", "");
  options.trace |= !options.trace_out.empty();
  options.smoke = flags.boolean("smoke");
  flags.check_all_used();
  if (options.workload.empty()) throw std::invalid_argument{"--workload is required"};
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  try {
    options = parse(argc, argv);
  } catch (const std::invalid_argument& error) {
    std::fprintf(stderr, "bench_vdx: %s\n", error.what());
    return 2;
  }

  Result result;
  try {
    for (const Workload& w : kWorkloads) {
      if (w.name == options.workload) result = w.run(options);
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "bench_vdx: %s failed: %s\n", options.workload.c_str(),
                 error.what());
    return 1;
  }

  const char* workload = options.workload.c_str();
  std::string metrics_json;
  for (const auto& [name, unit] : catalogue(options.trace)) {
    const auto found = result.metrics.find(name);
    // A layer a workload does not exercise reads 0; an end-to-end metric
    // must always be measured.
    result.check(found != result.metrics.end() || options.trace,
                 "metric " + name + " was measured");
    const double value = found != result.metrics.end() ? found->second : 0.0;
    result.check(std::isfinite(value), "metric " + name + " is finite");
    const double shown = std::isfinite(value) ? value : 0.0;
    std::printf("BENCH_JSON {\"workload\":\"%s\",\"name\":\"%s\",\"unit\":\"%s\","
                "\"value\":%.17g}\n",
                workload, name.c_str(), unit.c_str(), shown);
    char entry[192];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics_json.empty() ? "" : ", ", name.c_str(), shown, unit.c_str());
    metrics_json += entry;
  }
  result.check(result.attempted > 0, "the workload attempted operations");
  std::printf("BENCH_JSON {\"workload\":\"%s\",\"name\":\"round_samples\","
              "\"unit\":\"count\",\"value\":%zu}\n",
              workload, result.round_samples);
  std::printf("BENCH_JSON {\"workload\":\"%s\",\"name\":\"repetitions\","
              "\"unit\":\"count\",\"value\":%zu}\n",
              workload, result.repetitions);
  std::printf("BENCH_JSON {\"workload\":\"%s\",\"output_digest\":\"%s\"}\n", workload,
              result.output_digest.c_str());
  for (const std::string& failure : result.failures) {
    std::printf("CHECK FAILED [%s] %s\n", workload, failure.c_str());
  }
  std::printf("CHECKS [%s] %zu run, %zu failed\n", workload, result.checks,
              result.failures.size());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed), metrics_json.c_str());
  return result.correct() ? 0 : 1;
}
