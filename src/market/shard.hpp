// Session-fed exchange: one session book in front of one settlement
// VdxExchange (DESIGN.md §14).
//
// Callers stream session deltas instead of whole demand snapshots:
// push_session_delta validates a batch of adds and removes against the
// book (a sim::SessionStore whose sessions never depart on their own),
// folds it in, and hands the book's groups to the settlement exchange —
// exactly what a monolith fed broker::group_sessions of the same live
// sessions would price. Rounds settle on that VdxExchange, so every report,
// placement, journal line and metric is the monolith's by construction.
//
// The class keeps its historical name: it once partitioned cities across
// worker shards, and the shard-count knobs of ShardedConfig survive only so
// existing callers still compile. They have no effect.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "market/exchange.hpp"
#include "sim/session_store.hpp"

namespace vdx::proto {

/// One session of a ShardedExchange::push_session_delta batch.
struct ShardSessionAdd {
  std::uint32_t id = 0;
  std::uint32_t city = 0;
  double bitrate_mbps = 1.0;

  friend bool operator==(const ShardSessionAdd&, const ShardSessionAdd&) = default;
};

}  // namespace vdx::proto

namespace vdx::market {

struct ShardedConfig {
  /// No effect: there is one book and one settlement at any value.
  std::size_t shards = 2;
  /// No effect (see shards).
  std::size_t collect_threads = 1;
  /// Settlement-layer configuration (CDN chaos, strategies, overload policy,
  /// observer) — what a monolith with the same config would use.
  ExchangeConfig exchange;
};

class ShardedExchange {
 public:
  ShardedExchange(const sim::Scenario& scenario, ShardedConfig config = {});
  ~ShardedExchange();
  ShardedExchange(const ShardedExchange&) = delete;
  ShardedExchange& operator=(const ShardedExchange&) = delete;

  /// One settlement round on the book's current demand. An exchange that
  /// was never pushed a delta settles the scenario's broker groups, as a
  /// fresh monolith does.
  RoundReport run_round();
  /// run_round as a Result; it has no failure of its own to report.
  [[nodiscard]] core::Result<RoundReport> try_run_round();

  /// Validates the whole batch against the book, applies it (adds before
  /// removes, so a remove cancels an add of the same batch) and hands the
  /// book's groups to the settlement. A rejected batch (kInvalidArgument:
  /// unknown city, a non-finite or non-positive bitrate, the reserved id
  /// UINT32_MAX, a live or same-batch id added again with different data)
  /// changes nothing. Re-adding a live session with identical data and
  /// removing an unknown id are no-ops, so a retried batch is harmless.
  [[nodiscard]] core::Status push_session_delta(
      std::span<const proto::ShardSessionAdd> adds,
      std::span<const std::uint32_t> removes);

  [[nodiscard]] const VdxExchange& settlement() const noexcept { return *settlement_; }

  /// The book and the settlement exchange in one snapshot envelope.
  [[nodiscard]] std::vector<std::uint8_t> save_state() const;
  /// Restores a save_state() image, typically on a freshly built exchange.
  /// Every section is checked before anything is applied: an image of
  /// another format version fails with kVersionMismatch, a book no batch
  /// could have built fails with kCorruptSnapshot, and a settlement section
  /// fails with the settlement's own error; either way nothing changes.
  [[nodiscard]] core::Status restore_state(std::span<const std::uint8_t> bytes);

 private:
  /// Checks a push_session_delta batch against the book without mutating.
  [[nodiscard]] core::Status validate_delta(
      std::span<const proto::ShardSessionAdd> adds) const;

  const sim::Scenario& scenario_;
  std::unique_ptr<VdxExchange> settlement_;
  /// The scenario's placed background load, which every feed prices against.
  std::vector<double> background_loads_;
  sim::SessionStore book_;
};

}  // namespace vdx::market
