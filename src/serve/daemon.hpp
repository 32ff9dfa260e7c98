// ServeDaemon: the long-lived serving loop behind vdxd (DESIGN.md §12).
//
// Owns a VdxExchange, admits arrival events online from an ArrivalFeed into
// the exchange's session book, and answers Decision-Protocol rounds
// continuously: round r prices the population active at the midpoint
// (r + 0.5) * round_s on the logical-clock engine. Arrivals go through the
// book's validated push_session_delta, so an arrival the book refuses
// (unknown city, reserved id, a live id sent again with other data) is
// counted and dropped instead of reaching the decision round.
// Per-round service latency lands in the serve.* histograms (wall ms for
// the SLO, logical ticks for the determinism contract), admission
// backpressure reuses the exchange's shed_to_budget round budget plus an
// arrival-queue bound, checkpoints go through state::CheckpointStore, and a
// stop flag (vdxd wires SIGTERM to it) drains gracefully with a final
// snapshot.
//
// Determinism contract: with a seekable deterministic feed (GeneratorFeed)
// the full serving run — decision lines, journal, shed totals, checkpoint
// bytes — is a pure function of (scenario, config, feed); resume() from any
// mid-run snapshot continues byte-identically. Wall-clock latency is
// recorded but never flows into a deterministic output.
#pragma once

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <span>

#include "market/exchange.hpp"
#include "resilience/breaker.hpp"
#include "resilience/brownout.hpp"
#include "serve/feed.hpp"
#include "serve/health.hpp"
#include "serve/latency.hpp"
#include "sim/scenario.hpp"
#include "state/checkpoint.hpp"
#include "state/fs.hpp"

namespace vdx::serve {

/// RunFingerprint::design value marking daemon snapshots (timeline designs
/// are small enums; this cannot collide).
inline constexpr std::uint8_t kDaemonDesign = 0xD0;

struct ServeConfig {
  /// Decision-round period (seconds of feed time). Rounds sample the
  /// population at midpoints (r + 0.5) * round_s.
  double round_s = 5.0;
  /// Arrival-queue bound per round: when the incoming batch would push the
  /// active population past this, the latest arrivals are turned away at
  /// the door (counted, journaled as kAdmit). 0 = unbounded.
  std::size_t queue_capacity = 0;
  /// Checkpoint every N elapsed rounds (0 = off; needs checkpoint_dir).
  std::size_t checkpoint_every_rounds = 0;
  std::filesystem::path checkpoint_dir;
  std::size_t checkpoint_keep = 3;
  /// Crash drill: stop the loop abruptly after this many rounds (no drain,
  /// no final snapshot) — recovery tests resume from the last checkpoint.
  std::uint64_t halt_after_rounds = 0;
  /// Abnormal-exit drill: throw std::runtime_error after this many rounds —
  /// the ExportGuard test asserts the journal tail still lands well-formed.
  std::uint64_t throw_after_rounds = 0;
  /// Graceful-drain flag (non-owning; vdxd points it at its SIGTERM flag).
  /// When it flips true the daemon records kDrain, takes a final snapshot,
  /// and returns with ServeReport::drained set.
  const std::atomic<bool>* stop = nullptr;
  /// Decision-line sink (one codec decision line per answered round).
  std::ostream* decisions = nullptr;
  /// Exchange configuration; the daemon forces broker.allow_unbid_groups
  /// (incremental demand) and threads `obs` through it. The admission
  /// budget lives in exchange.overload.demand_budget_mbps.
  market::ExchangeConfig exchange;
  /// Circuit breaker over the checkpointer: consecutive checkpoint failures
  /// (snapshot capture or storage write) suspend checkpointing — journaled
  /// as checkpoint_skip — until a probe succeeds after the disk heals.
  /// Disabled by default: a failed checkpoint is then retried next period.
  resilience::BreakerConfig checkpoint_breaker;
  /// Brownout ladder driven by checkpoint/latency signals; the latency
  /// trigger stays off unless brownout.p99_slo_ms > 0.
  resilience::BrownoutConfig brownout;
  /// Storage seam for the checkpoint store (nullptr = the host filesystem).
  /// Fault-injection tests pass a state::FaultFs here.
  state::FileSystem* checkpoint_fs = nullptr;
  /// Live health snapshot published for /healthz (non-owning; optional).
  HealthState* health = nullptr;
  /// Test/drill hook invoked at the top of every round with the round index
  /// — fault schedules key off it so chaos lands on the logical clock.
  std::function<void(std::uint64_t)> round_hook;
  /// Identity stamped into checkpoints; resume() validates it. The daemon
  /// overrides `design` with kDaemonDesign and `epoch_s` with round_s.
  state::RunFingerprint fingerprint;
  obs::Observer obs;
};

struct ServeReport {
  /// Rounds elapsed (answered + skipped); the resumed-run total covers the
  /// whole serve, not just the post-resume stretch.
  std::uint64_t rounds = 0;
  std::uint64_t decision_rounds = 0;
  /// Rounds with zero active broker sessions (no exchange round, no
  /// decision line).
  std::uint64_t skipped_rounds = 0;
  /// Sessions consumed from the feed.
  std::uint64_t arrivals = 0;
  /// Arrivals turned away by the queue bound.
  std::uint64_t queue_dropped = 0;
  /// Arrivals the session book refused (they never join the population).
  /// Not checkpointed: only a live feed, which cannot resume, carries them.
  std::uint64_t arrivals_refused = 0;
  std::uint64_t peak_active_sessions = 0;
  /// Admission-control (shed_to_budget) totals across all rounds.
  double shed_mbps_total = 0.0;
  double shed_clients_total = 0.0;
  std::uint64_t shed_rounds = 0;
  std::uint64_t checkpoints_written = 0;
  /// Checkpoint attempts skipped (breaker open) or failed (capture/write).
  std::uint64_t checkpoint_skips = 0;
  /// Rounds served at brownout step >= 1.
  std::uint64_t brownout_rounds = 0;
  /// Ladder position when the loop ended (0 = fully recovered).
  int final_brownout_step = 0;
  bool drained = false;
  bool halted = false;
  LatencyRecorder::Slo slo;
};

class ServeDaemon {
 public:
  /// `feed` must outlive the daemon. Throws std::invalid_argument on a
  /// non-positive round_s or a checkpoint policy without a directory.
  ServeDaemon(const sim::Scenario& scenario, ArrivalFeed& feed,
              ServeConfig config);
  ~ServeDaemon();
  ServeDaemon(const ServeDaemon&) = delete;
  ServeDaemon& operator=(const ServeDaemon&) = delete;

  /// Serves the whole feed from round 0.
  [[nodiscard]] ServeReport run();

  /// Resumes from encode(DaemonCheckpoint) bytes: validates the
  /// fingerprint and the feed cursor against the scenario (kCorruptSnapshot
  /// before anything is applied), seeks the feed (kInvalidArgument when the
  /// feed cannot seek), restores the exchange/journal/accumulators, then
  /// continues the loop. The continuation is byte-identical to the
  /// uninterrupted run. A refused resume leaves the daemon as it was, so a
  /// later run() serves like a daemon that never saw the snapshot.
  [[nodiscard]] core::Result<ServeReport> resume(
      std::span<const std::uint8_t> snapshot_bytes);

  [[nodiscard]] const LatencyRecorder& latency() const noexcept {
    return *latency_;
  }
  [[nodiscard]] const market::VdxExchange& exchange() const noexcept {
    return *exchange_;
  }

 private:
  [[nodiscard]] ServeReport run_loop(std::uint64_t start_round);
  [[nodiscard]] state::DaemonCheckpoint make_checkpoint(
      std::uint64_t next_round) const;

  const sim::Scenario& scenario_;
  ServeConfig config_;
  ArrivalFeed* feed_;
  /// Fallback registry when ServeConfig::obs brings none (the latency
  /// recorder and the /metrics endpoint need one to exist).
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  /// Holds the active population in its session book; checkpoints pair
  /// the book cursor with the feed position.
  std::unique_ptr<market::VdxExchange> exchange_;
  std::unique_ptr<LatencyRecorder> latency_;
  obs::Observer obs_;

  /// Resilience layer: checkpointer breaker + brownout ladder (DESIGN §15).
  resilience::CircuitBreaker checkpoint_breaker_;
  resilience::BrownoutController brownout_;
  /// Unshrunk admission budget, captured before brownout scales it.
  double base_demand_budget_ = 0.0;

  /// Cross-resume accumulators (mirrored into ServeReport).
  std::uint64_t decision_rounds_ = 0;
  std::uint64_t skipped_rounds_ = 0;
  std::uint64_t queue_dropped_ = 0;
  std::uint64_t arrivals_refused_ = 0;
  std::uint64_t peak_active_ = 0;
  double shed_mbps_total_ = 0.0;
  double shed_clients_total_ = 0.0;
  std::uint64_t shed_rounds_ = 0;

  /// Pre-interned serve.* handles.
  obs::Counter rounds_counter_;
  obs::Counter arrivals_counter_;
  obs::Counter queue_dropped_counter_;
  obs::Counter arrivals_refused_counter_;
  obs::Counter shed_mbps_counter_;
  obs::Counter shed_clients_counter_;
  obs::Counter checkpoints_counter_;
  obs::Counter checkpoint_skips_counter_;
  obs::Gauge active_gauge_;
};

}  // namespace vdx::serve
