// CircuitBreaker: quarantine for flapping dependencies (DESIGN.md §15).
//
// Classic three-state machine driven entirely by the logical clock:
//
//     closed --(N consecutive typed failures)--> open
//     open   --(open_ticks elapsed)-----------> half-open
//     half-open --(probe_successes in a row)--> closed
//     half-open --(any failure)---------------> open (timer restarts)
//
// The daemon keeps one for the checkpointer; while it is open the daemon
// suspends checkpoints instead of failing a write every round. Transitions
// are journaled (breaker_open / breaker_half_open / breaker_close, subject =
// breaker id) and counted under resilience.breaker.*.
#pragma once

#include <cstdint>

#include "obs/observe.hpp"

namespace vdx::resilience {

struct BreakerConfig {
  /// Consecutive failures that trip closed -> open. 0 disables the breaker
  /// entirely (it never opens), which is the permissive default for callers
  /// that predate this layer.
  std::size_t failure_threshold = 0;
  /// Ticks to hold open before allowing a half-open probe.
  std::uint64_t open_ticks = 4;
  /// Consecutive half-open successes required to close again.
  std::size_t probe_successes = 1;

  [[nodiscard]] bool enabled() const noexcept { return failure_threshold > 0; }
};

enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };

[[nodiscard]] const char* to_string(BreakerState state) noexcept;

class CircuitBreaker {
 public:
  /// `subject` tags journal events and is the caller's id for this link.
  explicit CircuitBreaker(BreakerConfig config = {}, obs::Observer obs = {},
                          std::uint32_t subject = obs::RunJournal::kNoSubject);

  /// Whether a call may proceed at logical time `now`. Open breakers flip
  /// to half-open (journaled) once `open_ticks` have elapsed, admitting
  /// exactly the probe traffic; otherwise the call must be skipped.
  [[nodiscard]] bool allow(std::uint64_t now);

  void on_success(std::uint64_t now);
  void on_failure(std::uint64_t now);

  [[nodiscard]] BreakerState state() const noexcept { return state_; }
  [[nodiscard]] bool open() const noexcept { return state_ == BreakerState::kOpen; }
  [[nodiscard]] std::uint64_t opened_total() const noexcept { return opened_n_; }

 private:
  void trip(std::uint64_t now);

  BreakerConfig config_;
  obs::Observer obs_;
  std::uint32_t subject_;
  BreakerState state_ = BreakerState::kClosed;
  std::size_t consecutive_failures_ = 0;
  std::size_t probe_streak_ = 0;
  std::uint64_t opened_at_ = 0;
  std::uint64_t opened_n_ = 0;
  obs::Counter opens_;
  obs::Counter closes_;
  obs::Counter rejected_;
};

}  // namespace vdx::resilience
