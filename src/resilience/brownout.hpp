// BrownoutController: explicit, journaled partial-degradation ladder
// (DESIGN.md §15).
//
// Instead of failing rounds outright when the serving loop is unhealthy —
// round p99 over SLO, checkpointing suspended — the daemon climbs a small
// ladder of increasingly aggressive sheds, one step per unhealthy round,
// and climbs back down hysteretically (one step per
// `recover_after_rounds` consecutive healthy rounds) so a single good round
// never snaps straight back to full service:
//
//   step 0  full service                                   health ok
//   step 1  skip non-critical exports (telemetry detail)   health degraded
//   step 2  no further shed (a buffer before step 3)       health degraded
//   step 3  shrink the admission budget                    health critical
//
// Step transitions are journaled (brownout_step, value = new step) and the
// current step/health are exported via /healthz. All triggers are logical
// (round-indexed), and the latency trigger is off by default (p99_slo_ms =
// 0) so deterministic tests can drive the ladder purely from checkpointer
// breaker state.
#pragma once

#include <cstdint>

#include "obs/observe.hpp"

namespace vdx::resilience {

struct BrownoutConfig {
  /// Round-latency SLO in ms; 0 disables the latency trigger.
  double p99_slo_ms = 0.0;
  /// Rounds to observe before the p99 estimate is trusted.
  std::uint64_t min_rounds_for_slo = 16;
  /// Consecutive healthy rounds required per step-down.
  std::uint64_t recover_after_rounds = 3;
  /// Admission budget multiplier while at step >= 3.
  double admission_shrink = 0.5;
  /// Ladder ceiling (<= 3). Drills that must stay byte-transparent cap at 2:
  /// budget shrink changes decisions and diverges downstream state.
  int max_step = 3;
};

enum class Health : std::uint8_t { kOk, kDegraded, kCritical };

[[nodiscard]] const char* to_string(Health health) noexcept;

class BrownoutController {
 public:
  explicit BrownoutController(BrownoutConfig config = {}, obs::Observer obs = {});

  /// Health inputs for one serving round.
  struct Signals {
    bool checkpoint_suspended = false;
    /// Observed round-latency p99 in ms (ignored while p99_slo_ms == 0 or
    /// fewer than min_rounds_for_slo rounds have completed).
    double p99_ms = 0.0;
    std::uint64_t rounds_observed = 0;
  };

  /// Re-evaluates the ladder after round `round`; returns the active step.
  int evaluate(const Signals& signals, std::uint64_t round);

  [[nodiscard]] int step() const noexcept { return step_; }
  [[nodiscard]] Health health() const noexcept;
  /// Step >= 1: drop non-critical telemetry exports for the round.
  [[nodiscard]] bool skip_noncritical_exports() const noexcept { return step_ >= 1; }
  /// Budget multiplier for admission (1.0 below step 3).
  [[nodiscard]] double admission_factor() const noexcept {
    return step_ >= 3 ? config_.admission_shrink : 1.0;
  }
  /// Rounds spent at step >= 1 so far.
  [[nodiscard]] std::uint64_t rounds_degraded() const noexcept { return degraded_n_; }

  [[nodiscard]] const BrownoutConfig& config() const noexcept { return config_; }

 private:
  void move_to(int step, std::uint64_t round);

  BrownoutConfig config_;
  obs::Observer obs_;
  int step_ = 0;
  std::uint64_t healthy_streak_ = 0;
  std::uint64_t degraded_n_ = 0;
  obs::Gauge step_gauge_;
  obs::Counter steps_up_;
  obs::Counter steps_down_;
};

}  // namespace vdx::resilience
