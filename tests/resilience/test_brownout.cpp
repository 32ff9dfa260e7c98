// BrownoutController ladder semantics: one step up per unhealthy round,
// hysteretic one-step-down recovery, health mapping, and journaling.
#include "resilience/brownout.hpp"

#include <gtest/gtest.h>

#include "obs/observe.hpp"

namespace vdx::resilience {
namespace {

BrownoutController::Signals unhealthy() {
  BrownoutController::Signals signals;
  signals.checkpoint_suspended = true;
  return signals;
}

TEST(Brownout, ClimbsOneStepPerUnhealthyRound) {
  BrownoutController brownout;
  EXPECT_EQ(brownout.evaluate(unhealthy(), 1), 1);
  EXPECT_EQ(brownout.evaluate(unhealthy(), 2), 2);
  EXPECT_EQ(brownout.evaluate(unhealthy(), 3), 3);
  EXPECT_EQ(brownout.evaluate(unhealthy(), 4), 3);  // capped at max_step
  EXPECT_EQ(brownout.health(), Health::kCritical);
  EXPECT_TRUE(brownout.skip_noncritical_exports());
  EXPECT_LT(brownout.admission_factor(), 1.0);
}

TEST(Brownout, HystereticRecoveryOneStepPerStreak) {
  BrownoutConfig config;
  config.recover_after_rounds = 3;
  BrownoutController brownout{config};
  (void)brownout.evaluate(unhealthy(), 1);
  (void)brownout.evaluate(unhealthy(), 2);
  ASSERT_EQ(brownout.step(), 2);
  // Two healthy rounds are not enough; the third steps down once.
  EXPECT_EQ(brownout.evaluate({}, 3), 2);
  EXPECT_EQ(brownout.evaluate({}, 4), 2);
  EXPECT_EQ(brownout.evaluate({}, 5), 1);
  // An unhealthy blip resets the healthy streak.
  EXPECT_EQ(brownout.evaluate({}, 6), 1);
  EXPECT_EQ(brownout.evaluate(unhealthy(), 7), 2);
  EXPECT_EQ(brownout.evaluate({}, 8), 2);
  EXPECT_EQ(brownout.evaluate({}, 9), 2);
  EXPECT_EQ(brownout.evaluate({}, 10), 1);
  EXPECT_EQ(brownout.health(), Health::kDegraded);
}

TEST(Brownout, MaxStepTwoNeverShrinksAdmission) {
  BrownoutConfig config;
  config.max_step = 2;  // the byte-transparent drill ceiling
  BrownoutController brownout{config};
  for (std::uint64_t r = 1; r <= 10; ++r) (void)brownout.evaluate(unhealthy(), r);
  EXPECT_EQ(brownout.step(), 2);
  EXPECT_EQ(brownout.health(), Health::kDegraded);
  EXPECT_DOUBLE_EQ(brownout.admission_factor(), 1.0);
}

TEST(Brownout, CheckpointSuspensionAloneDegrades) {
  BrownoutController brownout;
  BrownoutController::Signals signals;
  signals.checkpoint_suspended = true;
  EXPECT_EQ(brownout.evaluate(signals, 1), 1);
  EXPECT_EQ(brownout.health(), Health::kDegraded);
}

TEST(Brownout, LatencyTriggerGatedBySloAndWarmup) {
  BrownoutConfig config;
  config.p99_slo_ms = 50.0;
  config.min_rounds_for_slo = 4;
  BrownoutController brownout{config};
  BrownoutController::Signals signals;
  signals.p99_ms = 500.0;
  signals.rounds_observed = 3;  // still warming up: p99 not trusted
  EXPECT_EQ(brownout.evaluate(signals, 1), 0);
  signals.rounds_observed = 4;
  EXPECT_EQ(brownout.evaluate(signals, 2), 1);
  // Same p99 with the trigger disabled stays healthy.
  BrownoutController off;
  EXPECT_EQ(off.evaluate(signals, 1), 0);
}

TEST(Brownout, StepTransitionsJournaledWithRoundAndStep) {
  obs::MetricsRegistry metrics;
  obs::RunJournal journal;
  BrownoutController brownout{{}, obs::Observer{&metrics, nullptr, &journal}};
  (void)brownout.evaluate(unhealthy(), 42);
  const std::vector<obs::Event> events = journal.events();
  ASSERT_EQ(events.size(), 1u);
  const obs::Event& event = events.front();
  EXPECT_EQ(event.kind, obs::EventKind::kBrownoutStep);
  EXPECT_EQ(event.subject, 42u);
  EXPECT_DOUBLE_EQ(event.value, 1.0);
  EXPECT_EQ(brownout.rounds_degraded(), 1u);
}

}  // namespace
}  // namespace vdx::resilience
