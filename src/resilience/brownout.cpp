#include "resilience/brownout.hpp"

#include <algorithm>

namespace vdx::resilience {

const char* to_string(Health health) noexcept {
  switch (health) {
    case Health::kOk: return "ok";
    case Health::kDegraded: return "degraded";
    case Health::kCritical: return "critical";
  }
  return "unknown";
}

BrownoutController::BrownoutController(BrownoutConfig config, obs::Observer obs)
    : config_(config), obs_(obs) {
  config_.max_step = std::clamp(config_.max_step, 0, 3);
  if (config_.recover_after_rounds == 0) config_.recover_after_rounds = 1;
  if (obs.metrics != nullptr) {
    step_gauge_ = obs.metrics->gauge("resilience.brownout.step");
    steps_up_ = obs.metrics->counter("resilience.brownout.steps_up");
    steps_down_ = obs.metrics->counter("resilience.brownout.steps_down");
  }
}

int BrownoutController::evaluate(const Signals& signals, std::uint64_t round) {
  const bool slo_breach = config_.p99_slo_ms > 0.0 &&
                          signals.rounds_observed >= config_.min_rounds_for_slo &&
                          signals.p99_ms > config_.p99_slo_ms;
  const bool unhealthy = signals.checkpoint_suspended || slo_breach;

  if (unhealthy) {
    healthy_streak_ = 0;
    if (step_ < config_.max_step) move_to(step_ + 1, round);
  } else if (step_ > 0) {
    if (++healthy_streak_ >= config_.recover_after_rounds) {
      healthy_streak_ = 0;
      move_to(step_ - 1, round);
    }
  }
  if (step_ > 0) ++degraded_n_;
  return step_;
}

void BrownoutController::move_to(int step, std::uint64_t round) {
  if (step == step_) return;
  (step > step_ ? steps_up_ : steps_down_).add(1.0);
  step_ = step;
  step_gauge_.set(static_cast<double>(step_));
  obs_.record(obs::EventKind::kBrownoutStep,
              static_cast<std::uint32_t>(round & 0xFFFFFFFFu),
              static_cast<double>(step_));
}

Health BrownoutController::health() const noexcept {
  if (step_ <= 0) return Health::kOk;
  return step_ >= 3 ? Health::kCritical : Health::kDegraded;
}

}  // namespace vdx::resilience
