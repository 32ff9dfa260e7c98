// ShardedExchange: the session-fed benchmark's name for a book-fed
// VdxExchange (DESIGN.md §14).
//
// The session book, its validation and its recovery now live in
// market::VdxExchange (push_session_delta, book_cursor, restore_state with a
// book). This header only forwards to one for the vdxbench shard-churn
// workload, its only caller; the tests drive VdxExchange itself.
// The class once partitioned cities across worker shards; the shard-count
// knobs of ShardedConfig have no effect.
#pragma once

#include <cstdint>
#include <span>
#include <utility>

#include "market/exchange.hpp"

namespace vdx::proto {

/// One session of a ShardedExchange::push_session_delta batch.
using ShardSessionAdd = market::SessionAdd;

}  // namespace vdx::proto

namespace vdx::market {

struct ShardedConfig {
  /// No effect: there is one book and one settlement at any value.
  std::size_t shards = 2;
  /// No effect (see shards).
  std::size_t collect_threads = 1;
  /// Configuration of the VdxExchange the shim forwards to.
  ExchangeConfig exchange;
};

class ShardedExchange {
 public:
  explicit ShardedExchange(const sim::Scenario& scenario, ShardedConfig config = {})
      : settlement_(scenario, std::move(config.exchange)) {}

  /// VdxExchange::run_round as a Result; it has no failure of its own to
  /// report.
  [[nodiscard]] core::Result<RoundReport> try_run_round() {
    return settlement_.run_round();
  }
  /// VdxExchange::push_session_delta.
  [[nodiscard]] core::Status push_session_delta(
      std::span<const proto::ShardSessionAdd> adds,
      std::span<const std::uint32_t> removes) {
    return settlement_.push_session_delta(adds, removes);
  }

  [[nodiscard]] const VdxExchange& settlement() const noexcept { return settlement_; }

 private:
  VdxExchange settlement_;
};

}  // namespace vdx::market
