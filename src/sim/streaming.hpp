// StreamingTimeline: the timeline simulation as an event-driven engine over
// a bounded session stream — the repo's one timeline engine.
//
// The engine consumes sessions in arrival order from a SessionStream,
// maintains the active population incrementally — an arrival cursor over
// lean Arrival records plus a bucketed departure queue delta-update the
// per-(city, bitrate) group counts and the per-cluster load inputs — and re-runs the Decision Protocol each epoch
// over state whose size is the *concurrent* session count, not the horizon
// total. Background placements are recomputed only when the background
// population actually changed. At million-session scale, GeneratorStream
// feeds it from trace::BrokerTraceGenerator so the full trace never exists
// in memory; run_timeline feeds it a scenario's materialized traces.
//
// Equivalence guarantee (tier-1-checked): driven by TraceStream over a
// scenario's materialized traces, the engine reproduces byte-identically the
// epoch reports of a from-scratch test oracle (tests/support/
// reference_timeline.hpp) that rescans both traces at every epoch midpoint,
// regroups with broker::group_sessions, re-places the background, runs
// run_design_over with qoe_epoch = e+1 over uncached menus, and assigns
// sessions through its own (city, kbps) map and quota fill. The engine's
// incremental bookkeeping and per-run CandidateMenuCache are thus checked
// against a naive rescan at any thread count and pull size.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/result.hpp"
#include "obs/observe.hpp"
#include "sim/timeline.hpp"
#include "state/checkpoint.hpp"
#include "state/store.hpp"
#include "trace/generator.hpp"

namespace vdx::sim {

class SupplyStressController;

/// A bounded, arrival-ordered session source. Implementations must emit
/// sessions with non-decreasing arrival_s and dense ids in emission order
/// (the invariant both adapters below inherit from the trace layer).
class SessionStream {
 public:
  virtual ~SessionStream() = default;
  /// Up to `max_sessions` further sessions; empty means exhausted.
  [[nodiscard]] virtual std::vector<trace::Session> next_batch(
      std::size_t max_sessions) = 0;
  /// The next up to `max_sessions` sessions as Arrival records in `out`
  /// (cleared first, capacity reused); empty means exhausted. Advances the
  /// same cursor as next_batch. The engine admits through this call; the
  /// default projects next_batch, and the adapters below fill it without
  /// copying whole sessions.
  virtual void next_arrivals(std::size_t max_sessions,
                             std::vector<trace::Arrival>& out);
  [[nodiscard]] virtual bool exhausted() const = 0;
  /// The stream horizon (drives the epoch count).
  [[nodiscard]] virtual double duration_s() const = 0;
  /// Repositions so the next emitted session is number `consumed` (0-based
  /// in emission order). Checkpoint resume rewinds streams through this;
  /// implementations throw std::invalid_argument past their horizon.
  virtual void seek(std::uint64_t consumed) = 0;
};

/// Adapter over a materialized trace (seed-scale runs, run_timeline and the
/// equivalence tests).
class TraceStream final : public SessionStream {
 public:
  explicit TraceStream(const trace::BrokerTrace& trace) : trace_(&trace) {}

  [[nodiscard]] std::vector<trace::Session> next_batch(
      std::size_t max_sessions) override;
  void next_arrivals(std::size_t max_sessions,
                     std::vector<trace::Arrival>& out) override;
  [[nodiscard]] bool exhausted() const override {
    return pos_ >= trace_->sessions().size();
  }
  [[nodiscard]] double duration_s() const override { return trace_->duration_s(); }
  void seek(std::uint64_t consumed) override;

 private:
  const trace::BrokerTrace* trace_;
  std::size_t pos_ = 0;
};

/// Adapter over the chunked generator (million-session runs: memory is
/// bounded by the generator's block size plus the concurrent active set).
class GeneratorStream final : public SessionStream {
 public:
  explicit GeneratorStream(trace::BrokerTraceGenerator& generator)
      : generator_(&generator) {}

  [[nodiscard]] std::vector<trace::Session> next_batch(
      std::size_t max_sessions) override {
    return generator_->next_batch(max_sessions);
  }
  void next_arrivals(std::size_t max_sessions,
                     std::vector<trace::Arrival>& out) override {
    generator_->next_arrivals(max_sessions, out);
  }
  [[nodiscard]] bool exhausted() const override { return generator_->exhausted(); }
  [[nodiscard]] double duration_s() const override { return generator_->duration_s(); }
  void seek(std::uint64_t consumed) override {
    generator_->seek(static_cast<std::size_t>(consumed));
  }

 private:
  trace::BrokerTraceGenerator* generator_;
};

/// Crash-consistency policy for a streaming run (DESIGN.md §10). Disabled
/// by default; when enabled, the engine snapshots its complete state after
/// every `every_epochs`-th epoch into `store`.
struct CheckpointPolicy {
  /// 0 disables checkpointing.
  std::size_t every_epochs = 0;
  /// Snapshot destination; required (non-null) when every_epochs > 0.
  state::CheckpointStore* store = nullptr;
  /// Run identity stamped into every snapshot and validated on resume.
  state::RunFingerprint fingerprint;
};

/// Overload-graceful admission control for streaming runs (DESIGN.md §11).
/// When the broker-side active population exceeds the budget after an
/// epoch's arrivals, the engine sheds the overflow lowest-value-first
/// (ascending bitrate, then id — the deterministic tiebreak) before the
/// decision round, so the round never sees more demand than the budget.
struct OverloadPolicy {
  /// Maximum broker sessions admitted to a decision round; 0 disables.
  std::size_t max_active_sessions = 0;
};

struct StreamingConfig {
  Design design = Design::kMarketplace;
  RunConfig run;
  /// Decision Protocol period (paper: every few minutes).
  double epoch_s = 300.0;
  /// Stream pull granularity. Pure mechanics: results are identical for any
  /// value (chunk-boundary determinism), it only trades pull overhead
  /// against peak buffered sessions.
  std::size_t batch_sessions = 8192;
  /// Observability sinks (timeline.* metrics/spans, per-epoch journal
  /// events). Default: disabled.
  obs::Observer obs;
  CheckpointPolicy checkpoint;
  /// Admission control; disabled by default.
  OverloadPolicy overload;
  /// Optional supply-side stress (blackouts, price shocks), applied at each
  /// epoch midpoint; non-owning, must outlive the engine. Because the
  /// controller mutates catalog values that candidate menus bake in, the
  /// engine rebuilds its menu caches on every stress transition — which is
  /// why an external RunConfig::menus is rejected when stress is attached
  /// (it would silently go stale).
  SupplyStressController* stress = nullptr;
  /// Test hook simulating a crash: when > 0, run()/resume() return after
  /// executing this many epochs of the current invocation (checkpoints
  /// taken on the way are durable; the partial result is discarded by the
  /// recovery drill).
  std::size_t halt_after_epochs = 0;
};

/// TimelineResult plus the streaming engine's resource accounting.
struct StreamingResult {
  TimelineResult timeline;
  /// Sessions pulled from the broker / background streams.
  std::size_t broker_sessions = 0;
  std::size_t background_sessions = 0;
  /// Peak concurrent active sessions across both populations — with the
  /// stream batch size, the engine's memory bound (no full-trace residency).
  std::size_t peak_active_sessions = 0;
  /// Epochs that ran a decision round (epochs with no active broker
  /// sessions are skipped and produce no report).
  std::size_t decision_rounds = 0;
  /// Background placements actually recomputed (≤ decision_rounds; the
  /// delta engine reuses the previous placement when no background session
  /// arrived or departed).
  std::size_t background_recomputes = 0;
  /// Broker sessions shed by admission control across the run.
  std::size_t shed_sessions = 0;
};

class StreamingTimeline {
 public:
  StreamingTimeline(const Scenario& scenario, StreamingConfig config);

  /// Plays both streams through repeated decision rounds. Single-shot per
  /// stream pair (streams are consumed); the engine itself is reusable.
  [[nodiscard]] StreamingResult run(SessionStream& broker,
                                    SessionStream& background) const;

  /// Resumes a run from a serialized checkpoint: decodes and validates the
  /// snapshot (typed rejection of corrupt/mismatched-version bytes, of
  /// fingerprints that disagree with config.checkpoint.fingerprint, and —
  /// as kCorruptSnapshot, before anything is applied — of values out of
  /// range for the scenario: cursor cities/bitrates, churn clusters and
  /// sums, background loads that are not one per cluster), seeks
  /// both streams, restores the engine/journal state, records a kResume
  /// journal event, and continues from the checkpointed epoch. The epochs
  /// executed after resume are byte-identical — reports, placements,
  /// journal tail — to the same epochs of an uninterrupted run (the
  /// recovery drill's acceptance invariant). The returned result covers
  /// only the epochs executed by this invocation; churn means and resource
  /// accounting still span the whole horizon.
  [[nodiscard]] core::Result<StreamingResult> resume(
      SessionStream& broker, SessionStream& background,
      std::span<const std::uint8_t> snapshot) const;

 private:
  StreamingResult run_impl(SessionStream& broker, SessionStream& background,
                           const state::TimelineCheckpoint* checkpoint,
                           std::size_t snapshot_bytes) const;

  const Scenario* scenario_;
  StreamingConfig config_;
};

/// Plays the scenario's materialized broker and background traces through
/// the engine (two TraceStreams into StreamingTimeline::run) and returns the
/// epoch reports. Throws std::invalid_argument on the config errors the
/// StreamingTimeline constructor rejects.
[[nodiscard]] TimelineResult run_timeline(const Scenario& scenario,
                                          const StreamingConfig& config = {});

}  // namespace vdx::sim
