// Sharded multi-process exchange: one marketplace, N region shards
// (DESIGN.md §14; ROADMAP "sharded multi-process exchange").
//
// Topology. The marketplace is partitioned by city across N worker shards
// (farthest-point region seeding, the federation idiom). Each worker holds
// one demand slice — the broker groups of its cities, tagged with their
// global ids — plus its own journal and metrics. There is one session
// book, and it lives at the coordinator: push_session_delta folds
// adds/removes into a sim::SessionStore and re-slices its groups through
// the same path set_active_load uses, so workers never see a session.
// Both feeds hand the coordinator's demand straight to an internal
// VdxExchange, exactly as a monolith is fed, and push each worker its
// slice. A coordinator drives every settlement round on the shared logical
// clock:
//
//   re-push the slice of every flagged or dead shard  ->  settle globally
//   on the internal VdxExchange  ->  broadcast each shard's slice of the
//   allocation.
//
// Byte-identity by construction. Settlement reads the coordinator's own
// demand and runs on the same VdxExchange machinery a monolithic
// deployment uses — so the settlement RoundReports, placements, journal,
// and metrics exports are byte-identical to the monolith at ANY shard
// count. No frame carries demand back from a worker. The differential
// suite under tests/shard/ pins this at N in {1, 2, 4, 7}.
//
// Chaos isolation. Shard links run through their own proto::FaultInjector
// (separate seed and link streams from the settlement transport's CDN
// chaos). The coordinator retries a corrupted/dropped exchange until an
// intact one lands (workers are idempotent per round), so link chaos costs
// retries — never settlement bytes. Faults are injected at the coordinator
// on both legs, which keeps the in-process and process backends on the
// identical fault sequence. Control-plane frames (hello, state transfer,
// journal export) bypass injection: chaos drills target the data path, and
// checkpoint cadence must not perturb the fault streams.
//
// Crash tolerance. Settlement never reads a worker, so a worker that dies
// mid-run (real SIGKILL under the process backend) is respawned with a
// fresh journal and re-sent its slice, without losing settlement bytes.
// There is one checkpoint path: save_state() bundles the coordinator core
// (with the session book), the settlement exchange and every worker's
// state into one snapshot, and restore_state() on a fresh exchange
// continues from it. Whoever persists those bytes (the serving daemon's
// CheckpointStore, at --shards N) owns the filesystem; the exchange never
// writes a file.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/parallel.hpp"
#include "market/exchange.hpp"
#include "net/shard_channel.hpp"
#include "proto/shard_wire.hpp"
#include "resilience/breaker.hpp"
#include "resilience/supervisor.hpp"
#include "sim/session_store.hpp"

namespace vdx::market {

enum class ShardBackend : std::uint8_t {
  /// Workers are in-process handlers (deterministic default; batch calls
  /// can fan out across a ThreadPool).
  kInproc = 0,
  /// Workers are fork()ed processes on socketpairs (vdxd --shard style).
  kProcess = 1,
};

[[nodiscard]] std::string_view to_string(ShardBackend backend) noexcept;
[[nodiscard]] std::optional<ShardBackend> shard_backend_from(
    std::string_view name) noexcept;

/// City -> shard partition: farthest-point seeds (market::pick_region_seeds)
/// with nearest-seed assignment, so shards are geographically coherent and
/// the partition is a pure function of (world, shard_count).
struct ShardPlan {
  std::size_t shard_count = 1;
  /// Owning shard per city id.
  std::vector<std::uint32_t> shard_of_city;
  /// Cities per shard.
  std::vector<std::size_t> city_counts;

  /// Clamps `shards` to [1, city count]. Throws std::invalid_argument on an
  /// empty world (via pick_region_seeds).
  [[nodiscard]] static ShardPlan build(const geo::World& world, std::size_t shards);

  [[nodiscard]] std::uint32_t shard_of(geo::CityId city) const {
    return shard_of_city.at(city.value());
  }
  /// Stable fingerprint of the partition; restore paths refuse state saved
  /// under a different plan.
  [[nodiscard]] std::uint64_t hash() const noexcept;
};

/// One worker shard: a self-contained frame server over the shard codec.
/// It is constructed knowing only its shard id — everything else (topology,
/// cluster->CDN table, journal capacity) arrives in the kHello frame, so a
/// fork()ed process worker needs no Scenario and no shared memory.
///
/// Contract for every mutating frame: decode and validate the COMPLETE
/// payload first, then commit — a rejected frame (kError response) never
/// partially applies state. Handlers are idempotent per settlement round,
/// which is what lets the coordinator retry through link chaos.
class ShardWorker {
 public:
  explicit ShardWorker(std::uint32_t shard);

  /// Handles one decoded frame. Never throws on wire-derived input.
  [[nodiscard]] proto::ShardFrame handle(const proto::ShardFrame& request);

  /// Byte-level entry: decode -> handle -> encode. Malformed bytes come
  /// back as an encoded kError(kCorruptFrame) frame. Sets *shutdown when
  /// the request was an acknowledged kShutdown.
  [[nodiscard]] std::vector<std::uint8_t> handle_bytes(
      std::span<const std::uint8_t> bytes, bool* shutdown = nullptr);

  /// Process-backend child loop: serve frames on `fd` until EOF or
  /// kShutdown. Returns the child's exit code.
  [[nodiscard]] static int serve_fd(std::uint32_t shard, int fd);

  [[nodiscard]] std::uint32_t shard() const noexcept { return shard_; }
  [[nodiscard]] bool configured() const noexcept { return configured_; }
  [[nodiscard]] std::uint64_t rounds_applied() const noexcept { return rounds_applied_; }
  [[nodiscard]] const obs::RunJournal& journal() const noexcept { return journal_; }
  [[nodiscard]] const obs::MetricsRegistry& metrics() const noexcept { return metrics_; }

  /// A worker snapshot decoded and checked, not yet applied.
  struct State {
    std::uint64_t rounds_applied = 0;
    std::uint64_t last_allocation_round = 0;
    std::vector<proto::ShardGroup> demand;
    obs::RunJournal journal;
    std::vector<std::pair<std::string, double>> counters;
  };

  /// Checkpointable worker state (demand slice, journal window,
  /// deterministic shard.* counters, round bookkeeping) in a
  /// state::Snapshot envelope. Volatile transport counters (frames seen,
  /// errors returned) are deliberately excluded: they depend on link chaos,
  /// and restored state must match the uninterrupted run's deterministic
  /// surfaces.
  [[nodiscard]] std::vector<std::uint8_t> save_state() const;
  /// Decodes a save_state() image and checks it against the hello the
  /// worker was configured with (`context`), touching no worker: the
  /// coordinator runs it on every embedded worker state before a restore
  /// changes anything.
  [[nodiscard]] static core::Result<State> decode_state(
      std::span<const std::uint8_t> bytes, const proto::ShardHello& context);
  /// decode_state against this worker's own hello, then commit; a rejected
  /// image changes nothing.
  [[nodiscard]] core::Status restore_state(std::span<const std::uint8_t> bytes);

 private:
  [[nodiscard]] proto::ShardFrame ack(const proto::ShardFrame& request,
                                      std::uint64_t value) const;
  [[nodiscard]] proto::ShardFrame fail(const proto::ShardFrame& request,
                                       core::Errc code, std::string message);

  [[nodiscard]] proto::ShardFrame on_hello(const proto::ShardFrame& request);
  [[nodiscard]] proto::ShardFrame on_set_demand(const proto::ShardFrame& request);
  [[nodiscard]] proto::ShardFrame on_allocation(const proto::ShardFrame& request);

  void commit_state(State state);
  void refresh_gauges();

  static constexpr std::uint64_t kNoRound = UINT64_MAX;

  std::uint32_t shard_;
  bool configured_ = false;
  proto::ShardHello context_;
  std::vector<proto::ShardGroup> demand_;

  std::uint64_t rounds_applied_ = 0;
  std::uint64_t last_allocation_round_ = kNoRound;

  obs::MetricsRegistry metrics_;
  obs::RunJournal journal_;

  struct Counters {
    obs::Counter frames, errors;                     // volatile (not saved)
    obs::Counter rounds, groups_announced, placements, awarded_mbps;
    obs::Gauge demand_mbps;
  } counters_;
};

struct ShardedConfig {
  std::size_t shards = 2;
  ShardBackend backend = ShardBackend::kInproc;
  /// Settlement-layer configuration (CDN chaos, strategies, overload policy,
  /// observer). The observer's journal/metrics see exactly what a monolith's
  /// would — coordinator bookkeeping lands in the separate shard registry.
  ExchangeConfig exchange;
  /// Chaos on the coordinator<->worker links (independent injector; its
  /// seed defaults differ from the CDN transport's so the streams never
  /// alias).
  proto::FaultProfile link_faults;
  /// Per-link retry budget before a round fails with kTimeout.
  std::size_t max_link_retries = 64;
  /// >1 fans the in-process allocation broadcast out across a ThreadPool
  /// on the fault-free path (0 = hardware). With link faults configured the
  /// coordinator always walks shards serially — the injector streams are
  /// ordered state.
  std::size_t collect_threads = 1;
  std::size_t worker_journal_capacity = 4096;
  /// Restart budget + deterministic backoff for worker respawns, on the
  /// settlement round clock. The default policy (unbounded, immediate) is
  /// exactly the pre-supervisor behavior.
  resilience::RestartPolicy worker_restart;
  /// Per shard-link circuit breaker. Disabled by default (failure_threshold
  /// 0): every existing call site keeps its fail-closed semantics. When
  /// enabled, a tripped shard is quarantined — it gets no slice pushes or
  /// allocations, instead of burning the link retry budget every round —
  /// until a half-open probe re-pushes its slice. Settlement is unaffected:
  /// it reads the coordinator's demand, never a worker.
  resilience::BreakerConfig link_breaker;
};

/// The coordinator. See the file comment for the topology and invariants.
class ShardedExchange final : public ExchangeFrontend {
 public:
  ShardedExchange(const sim::Scenario& scenario, ShardedConfig config = {});
  ~ShardedExchange() override;
  ShardedExchange(const ShardedExchange&) = delete;
  ShardedExchange& operator=(const ShardedExchange&) = delete;

  /// One settlement round: re-push flagged or dead shards -> settle ->
  /// broadcast the allocation. Throws std::runtime_error when the topology
  /// is unrecoverable (try_run_round surfaces the typed error instead).
  RoundReport run_round() override;
  [[nodiscard]] core::Result<RoundReport> try_run_round();
  std::vector<RoundReport> run(std::size_t rounds);

  /// Replaces the global demand: hands `groups` to the settlement exchange,
  /// partitions them by city and pushes one slice per shard. Ids must be
  /// dense (== index), as everywhere else. A failed push throws after the
  /// settlement and the slice cache took the new demand; the shards that
  /// missed their slice are re-pushed before the next round settles.
  void set_active_load(std::span<const broker::ClientGroup> groups,
                       std::span<const double> background_loads) override;

  /// Session-fed mode: validates the whole batch against the coordinator's
  /// session book, applies it (adds before removes), re-slices the book's
  /// groups and pushes them exactly like set_active_load. A rejected batch
  /// (kInvalidArgument: unknown city, a non-finite or non-positive bitrate,
  /// a live or same-batch id added again with different data) changes
  /// nothing. Re-adding a live session with identical data and removing an
  /// unknown id are no-ops, so a retried batch is harmless. A failed slice
  /// push returns its error with the batch already applied; the shards that
  /// missed their slice are re-pushed before the next round settles. Mutually
  /// exclusive with set_active_load on one exchange (kInvalidArgument here,
  /// logic_error there).
  [[nodiscard]] core::Status push_session_delta(
      std::span<const proto::ShardSessionAdd> adds,
      std::span<const std::uint32_t> removes);

  void set_demand_budget(double budget_mbps) override;
  [[nodiscard]] double demand_budget() const override;
  [[nodiscard]] std::size_t rounds_completed() const override;
  [[nodiscard]] core::Result<proto::DeliveryOutcome> deliver(
      std::uint32_t session_id, geo::CityId city, double bitrate_mbps) override;
  [[nodiscard]] const obs::MetricsRegistry& metrics() const override;

  void set_failed(cdn::CdnId cdn, bool failed);
  void set_fraudulent(cdn::CdnId cdn, bool fraudulent);

  /// The one checkpoint: coordinator core + settlement exchange + every
  /// worker's state in one envelope. try_save_state returns the typed error
  /// when a worker's state is unavailable (dead and unrecoverable);
  /// save_state throws on it.
  [[nodiscard]] core::Result<std::vector<std::uint8_t>> try_save_state()
      const override;
  [[nodiscard]] std::vector<std::uint8_t> save_state() const override;
  /// Restores a save_state() image, typically on a freshly built exchange
  /// after a coordinator crash. Every section, each embedded worker state
  /// included, is decoded and checked before anything is applied: slices
  /// that could never settle (an invalid group, a city on another shard's
  /// slice, ids that are not dense across the slices) or background loads
  /// that are not one finite non-negative value per cluster fail with
  /// kCorruptSnapshot, and a worker state the worker would reject fails
  /// with that worker's error; either way nothing changes.
  [[nodiscard]] core::Status restore_state(
      std::span<const std::uint8_t> bytes) override;

  /// Crash drills: hard-kills a worker (SIGKILL under the process backend).
  /// The next slice push or round finds the dead shard and recovers it
  /// before settlement: respawn, hello, and a re-push of the cached slice.
  void kill_worker(std::size_t shard);
  [[nodiscard]] bool worker_alive(std::size_t shard) const noexcept;

  /// Merged view of every worker's journal window on the shared clock
  /// (obs::merge_journal_slices — seqs reassigned, strictly monotone).
  [[nodiscard]] core::Result<std::vector<obs::Event>> merged_worker_journal() const;

  [[nodiscard]] const ShardPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] const VdxExchange& settlement() const noexcept { return *settlement_; }
  [[nodiscard]] const sim::Scenario& scenario() const noexcept { return scenario_; }
  /// Coordinator-side exchange.shard.* registry (kept separate so the
  /// settlement metrics export stays byte-identical to the monolith's).
  [[nodiscard]] const obs::MetricsRegistry& shard_metrics() const noexcept {
    return shard_metrics_;
  }
  [[nodiscard]] proto::FaultCounters link_fault_counters() const noexcept;
  [[nodiscard]] std::size_t worker_restarts() const noexcept {
    return worker_restarts_;
  }

  /// Shard links whose breaker is currently open (ExchangeFrontend hook for
  /// the daemon's brownout signals). Always 0 with the breaker disabled.
  [[nodiscard]] std::size_t open_breakers() const override;
  /// True while `shard` is quarantined (breaker open, or a fresh slice push
  /// has not landed since the last failure).
  [[nodiscard]] bool shard_quarantined(std::size_t shard) const noexcept;
  /// Rounds that settled while at least one shard was quarantined.
  [[nodiscard]] std::size_t stale_rounds() const noexcept { return stale_rounds_; }
  [[nodiscard]] const resilience::Supervisor& worker_supervisor() const noexcept {
    return supervisor_;
  }

 private:
  using FrameResult = core::Result<proto::ShardFrame>;

  [[nodiscard]] proto::ShardHello hello_for(std::size_t shard) const;
  [[nodiscard]] core::Status send_hello(std::size_t shard) const;

  /// Control-plane exchange: no fault injection; transparently respawns a
  /// dead worker (when recover is true) before failing.
  [[nodiscard]] FrameResult direct_call(std::size_t shard,
                                        const proto::ShardFrame& request,
                                        bool recover) const;
  /// Data-plane exchange: both legs through the link injector, retried
  /// until an intact response lands or the retry budget dies.
  [[nodiscard]] FrameResult chaotic_call(std::size_t shard,
                                         const proto::ShardFrame& request) const;
  [[nodiscard]] FrameResult data_call(std::size_t shard,
                                      const proto::ShardFrame& request) const;
  /// Fault-free batch fan-out (transport broadcast); chaos falls back to
  /// ordered serial chaotic_call.
  [[nodiscard]] core::Result<std::vector<proto::ShardFrame>> data_broadcast(
      const std::vector<proto::ShardFrame>& requests) const;

  /// Respawn + restore + re-push of the cached slice; on failure the worker
  /// is re-killed so it cannot linger half-initialized. The supervisor can
  /// deny the respawn outright (budget spent / backoff running), which also
  /// fails typed (kUnavailable).
  [[nodiscard]] core::Status recover_worker(std::size_t shard) const;
  [[nodiscard]] core::Status try_recover_worker(std::size_t shard) const;

  [[nodiscard]] bool breaker_active() const noexcept {
    return !link_breakers_.empty();
  }
  /// Observer for resilience bookkeeping: shard-side registry (never the
  /// settlement metrics, whose export must stay byte-identical to the
  /// monolith's) plus the settlement journal/tracer for typed transitions.
  [[nodiscard]] obs::Observer resilience_obs() const noexcept;
  /// Partitions a dense global demand vector into per-shard ShardGroup
  /// slices (index = global id). Throws std::invalid_argument on non-dense
  /// ids or unknown cities.
  [[nodiscard]] std::vector<std::vector<proto::ShardGroup>> slice_demand(
      std::span<const broker::ClientGroup> groups) const;
  /// Caches `slices` (slice_demand of `groups`), pushes them and hands
  /// `groups` to the settlement exchange: the one path behind both feeds
  /// and the default demand.
  [[nodiscard]] core::Status feed(std::span<const broker::ClientGroup> groups,
                                  std::vector<std::vector<proto::ShardGroup>> slices);
  /// Flags every shard, then resync_flagged: each shard owes an ack for
  /// the new slices.
  [[nodiscard]] core::Status push_demand_slices() const;
  [[nodiscard]] core::Status push_slice_to(std::size_t shard) const;
  /// Re-pushes the current slice to every flagged shard. Without the
  /// breaker the first failure is returned; with it only shards whose
  /// breaker admits traffic are pushed, and a skipped or failed shard just
  /// stays flagged (quarantined).
  [[nodiscard]] core::Status resync_flagged(std::uint64_t round) const;
  [[nodiscard]] core::Status ensure_fed();
  /// Slices the settlement's placements by owning shard and broadcasts
  /// kAllocation (every shard gets a frame — empty slices close the round).
  [[nodiscard]] core::Status broadcast_allocation(std::uint64_t round);

  /// Checks a push_session_delta batch against the book without mutating.
  [[nodiscard]] core::Status validate_delta(
      std::span<const proto::ShardSessionAdd> adds) const;
  [[nodiscard]] std::vector<std::uint8_t> encode_coordinator_core() const;
  [[nodiscard]] std::vector<std::uint8_t> encode_slices() const;

  const sim::Scenario& scenario_;
  ShardedConfig config_;
  ShardPlan plan_;
  std::unique_ptr<VdxExchange> settlement_;
  /// Declared before transport_: the in-process transport borrows the pool.
  std::unique_ptr<core::ThreadPool> pool_;
  std::unique_ptr<net::ShardTransport> transport_;
  /// Null when link_faults has no fault (perfect links).
  std::unique_ptr<proto::FaultInjector> link_injector_;

  std::vector<double> background_loads_;
  bool fed_ = false;
  /// Fed through push_session_delta (exclusive with set_active_load).
  bool session_fed_ = false;
  /// Current demand slice per shard: what every worker should hold (the
  /// re-push source for recovery and resync, and a checkpoint payload).
  std::vector<std::vector<proto::ShardGroup>> last_slices_;
  /// The session book of a session-fed exchange (empty otherwise).
  sim::SessionStore book_;

  /// Gates worker respawns (restart budget + deterministic backoff on the
  /// settlement round clock).
  mutable resilience::Supervisor supervisor_;
  /// One breaker per shard link; empty when the breaker is disabled.
  mutable std::vector<resilience::CircuitBreaker> link_breakers_;
  /// Shard must accept a fresh slice push before it gets an allocation
  /// again (set when its slice changed, a push was skipped or failed, or
  /// it was found dead; cleared by the next successful push).
  mutable std::vector<char> needs_resync_;
  mutable std::size_t stale_rounds_ = 0;

  mutable std::size_t worker_restarts_ = 0;
  mutable obs::MetricsRegistry shard_metrics_;
  struct Counters {
    obs::Counter rounds, frames, retries, rejects, restarts;
    obs::Counter stale_slices, skipped_pushes;
    obs::Gauge shards;
  };
  mutable Counters counters_;
};

}  // namespace vdx::market
