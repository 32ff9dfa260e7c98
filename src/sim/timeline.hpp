// Time-dynamics simulation: the result types of re-running the Decision
// Protocol periodically over a trace.
//
// The snapshot evaluation freezes one protocol round; the timeline plays the
// horizon back in epochs (the paper: decisions re-run "every few minutes",
// §4.1) with the then-active sessions, and measures *assignment churn* —
// the fraction of sessions surviving from one epoch to the next whose
// serving CDN changed. Under today's Brokered interface the broker's QoE
// estimates fluctuate between rounds (it keeps re-measuring), so decisions
// keep flapping — the Figure-4 phenomenon. Under VDX the broker optimizes
// over announced (stable) cluster data, so assignments only move when
// demand actually moves (§6.2: "traffic unpredictability is greatly reduced
// in VDX as CDNs are explicitly involved before brokers move any traffic").
//
// The one engine producing these reports is sim::StreamingTimeline
// (sim/streaming.hpp); run_timeline, declared there, is its adapter over a
// scenario's materialized traces.
#pragma once

#include <vector>

#include "sim/designs.hpp"
#include "sim/metrics.hpp"

namespace vdx::sim {

struct EpochReport {
  std::size_t epoch = 0;
  double time_s = 0.0;
  std::size_t active_sessions = 0;
  /// Sessions that received a cluster assignment this epoch — sessions whose
  /// group won placements; at most active_sessions, and each active session
  /// is assigned at most once (the conservation invariant the property
  /// tests pin).
  std::size_t assigned_sessions = 0;
  /// Sessions shed by admission control this epoch (overload-graceful
  /// streaming runs only; 0 and absent from exports otherwise). Shedding
  /// preserves conservation: assigned + shed <= active.
  std::size_t shed_sessions = 0;
  /// Sessions active in both this and the previous epoch whose serving CDN
  /// changed (0 for the first epoch).
  double cdn_switch_fraction = 0.0;
  /// Same, at cluster granularity.
  double cluster_switch_fraction = 0.0;
  DesignMetrics metrics;
};

struct TimelineResult {
  std::vector<EpochReport> epochs;
  /// Time-weighted mean CDN-switch fraction over epochs 1..n.
  double mean_cdn_switch_fraction = 0.0;
};

}  // namespace vdx::sim
