// Shard-scaling bench (DESIGN.md §14): price a large, slowly churning
// session population through the sharded exchange at N in {1, 2, 4, 8} and
// compare against the monolithic baseline.
//
// The workloads are deliberately interface-faithful rather than identical
// code paths. The monolith's public demand interface is stateless —
// set_active_load(full demand) — so its per-round cost includes regrouping
// the whole active population (broker::group_sessions over P sessions).
// The sharded exchange adds the sessionized interface: the coordinator
// keeps one incremental session book, so a round costs only the churn delta
// (K adds + K removes), a re-slice of the book's groups, and the
// slice/collect/merge frames. The differential suite
// under tests/shard/ proves the settlement bytes are identical; this bench
// measures what the incremental interface buys at scale.
//
//   bench_shard_scale                             # 1M active, 10K churn, 12 rounds
//   bench_shard_scale --smoke                     # CI-sized (same curve, seconds)
//   bench_shard_scale --sessions 5e4 --churn 1e3 --rounds 10
#include "bench_common.hpp"

#include <cmath>
#include <string>
#include <tuple>
#include <vector>

#include "broker/grouping.hpp"
#include "market/shard.hpp"
#include "sim/designs.hpp"
#include "trace/session.hpp"

namespace {

using namespace vdx;



constexpr double kRungs[] = {1.2, 3.6};

/// Deterministic session attributes from a ring id: cities round-robin,
/// bitrates cycle the rung ladder. Both runners see the identical stream.
struct ChurnStream {
  std::size_t cities;

  [[nodiscard]] std::uint32_t city_of(std::uint64_t id) const {
    return static_cast<std::uint32_t>(id % cities);
  }
  [[nodiscard]] double bitrate_of(std::uint64_t id) const {
    return kRungs[(id / cities) % std::size(kRungs)];
  }
  [[nodiscard]] trace::Session session_of(std::uint64_t id) const {
    trace::Session s;
    s.id = trace::SessionId{static_cast<std::uint32_t>(id)};
    s.city = geo::CityId{city_of(id)};
    s.bitrate_mbps = bitrate_of(id);
    s.duration_s = 600.0;
    return s;
  }
  [[nodiscard]] proto::ShardSessionAdd add_of(std::uint64_t id) const {
    return proto::ShardSessionAdd{static_cast<std::uint32_t>(id), city_of(id),
                                  bitrate_of(id)};
  }
};

}  // namespace

int main(int argc, char** argv) {
  const auto [population, churn, rounds] =
      bench::parse_flags(argc, argv, [](core::Flags& flags) {
        const bool smoke = flags.boolean("smoke");
        return std::tuple{flags.count("sessions", smoke ? 600'000 : 1'000'000),
                          flags.count("churn", smoke ? 3'000 : 10'000),
                          flags.count("rounds", smoke ? 6 : 12, 1)};
      });

  sim::ScenarioConfig scenario_config;
  scenario_config.trace.session_count = 10'000;  // pilot only; demand is synthetic
  double setup_seconds = 0.0;
  const sim::Scenario scenario = [&] {
    const obs::ScopedTimer timer{&setup_seconds};
    return sim::Scenario::build(scenario_config);
  }();
  const std::vector<double> background = sim::place_background(scenario);
  const ChurnStream stream{scenario.world().cities().size()};
  std::printf("[setup] %zu cities, %zu clusters (%.1fs); population %zu, "
              "churn %zu/round, %zu rounds\n",
              scenario.world().cities().size(),
              scenario.catalog().clusters().size(), setup_seconds, population,
              churn, rounds);

  bench::BenchReporter reporter{"shard_scale"};

  // Small bid menus keep the (identical on both sides) settlement from
  // drowning the demand-aggregation path this bench measures.
  market::ExchangeConfig exchange_config;
  exchange_config.agent.bid_count = 4;

  // Monolithic baseline: regroup the whole population every round and push
  // it through the stateless demand interface.
  double mono_rps = 0.0;
  {
    market::VdxExchange exchange{scenario, exchange_config};
    std::vector<trace::Session> active;
    active.reserve(population + churn);
    std::uint64_t tail = 0;
    for (; tail < population; ++tail) active.push_back(stream.session_of(tail));
    double seconds = 0.0;
    {
      const obs::ScopedTimer timer{&seconds};
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t k = 0; k < churn; ++k) {
          active.push_back(stream.session_of(tail++));
        }
        active.erase(active.begin(), active.begin() + static_cast<long>(churn));
        const auto groups = broker::group_sessions(active);
        exchange.set_active_load(groups, background);
        (void)exchange.run_round();
      }
    }
    mono_rps = static_cast<double>(rounds) / seconds;
    std::printf("[mono    ] %6.2f rounds/s (%.2fs, %zu groups)\n", mono_rps,
                seconds, broker::group_sessions(active).size());
    reporter.gauge("shard.rounds_per_sec", {{"shards", "0"}}).set(mono_rps);
  }

  // Sharded: the same churn stream through the coordinator's session book.
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{4}, std::size_t{8}}) {
    market::ShardedConfig config;
    config.shards = shards;
    config.exchange = exchange_config;
    config.collect_threads = shards > 1 ? shards : 1;
    market::ShardedExchange exchange{scenario, config};
    std::uint64_t head = 0, tail = 0;
    {
      // Prefill outside the timed window, mirroring the baseline.
      std::vector<proto::ShardSessionAdd> adds;
      adds.reserve(population);
      for (; tail < population; ++tail) adds.push_back(stream.add_of(tail));
      if (auto status = exchange.push_session_delta(adds, {}); !status.ok()) {
        std::fprintf(stderr, "prefill failed: %s\n", status.error().message.c_str());
        return 1;
      }
    }
    double seconds = 0.0;
    {
      const obs::ScopedTimer timer{&seconds};
      std::vector<proto::ShardSessionAdd> adds(churn);
      std::vector<std::uint32_t> removes(churn);
      for (std::size_t r = 0; r < rounds; ++r) {
        for (std::size_t k = 0; k < churn; ++k) {
          adds[k] = stream.add_of(tail++);
          removes[k] = static_cast<std::uint32_t>(head++);
        }
        if (auto status = exchange.push_session_delta(adds, removes);
            !status.ok()) {
          std::fprintf(stderr, "delta failed: %s\n", status.error().message.c_str());
          return 1;
        }
        (void)exchange.run_round();
      }
    }
    const double rps = static_cast<double>(rounds) / seconds;
    std::printf("[shards=%zu] %6.2f rounds/s (%.2fs, %.2fx mono)\n", shards, rps,
                seconds, rps / mono_rps);
    reporter.gauge("shard.rounds_per_sec", {{"shards", std::to_string(shards)}})
        .set(rps);
    reporter.gauge("shard.speedup_vs_mono", {{"shards", std::to_string(shards)}})
        .set(rps / mono_rps);
  }

  reporter.emit();
  return 0;
}
