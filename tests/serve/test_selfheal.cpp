// Self-healing serving drills (DESIGN.md §15): the checkpointer breaker
// suspends-then-resumes across a disk outage, /healthz tracks the brownout
// ladder live, and the drill — a checkpoint outage with the ladder capped
// at step 2 and the admission budget armed — never kills the daemon and
// never changes a decision byte.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/serve_util.hpp"
#include "state/fault_fs.hpp"

namespace vdx::serve {
namespace {

using test::HarnessOptions;
using test::RunOutput;

bool journal_has(const std::vector<obs::Event>& events, obs::EventKind kind) {
  for (const obs::Event& event : events) {
    if (event.kind == kind) return true;
  }
  return false;
}

// A disk outage mid-run: checkpoint writes fail, the checkpointer breaker
// opens (suspending further attempts), a half-open probe eventually lands
// after the disk heals, and checkpointing resumes. Decision lines never
// notice — checkpointing is off the decision path by design.
TEST(ServeSelfHeal, CheckpointBreakerSuspendsThenResumes) {
  HarnessOptions options;
  options.checkpoint_every = 2;
  options.checkpoint_dir = "ckpt";
  const RunOutput clean = test::run_serve([&] {
    HarnessOptions o = options;
    o.checkpoint_dir.clear();
    o.checkpoint_every = 0;
    return o;
  }());

  state::FaultFs fs;
  HealthState health;
  std::vector<std::string> sampled_health;
  options.customize = [&](ServeConfig& config) {
    config.checkpoint_fs = &fs;
    config.checkpoint_breaker.failure_threshold = 2;
    config.checkpoint_breaker.open_ticks = 4;
    config.health = &health;
    config.round_hook = [&](std::uint64_t r) {
      // Disk dead while serving rounds [6, 14); checkpoints land at even
      // next_round values, so attempts 8/10 fail (tripping the breaker),
      // 12/16 are suspended, the probe at 14 fails, and 18 heals.
      fs.set_failing(r >= 6 && r < 14);
      if (r == 12 || r == 29) sampled_health.push_back(health.healthz_body());
    };
  };
  const RunOutput faulted = test::run_serve(options);

  // Suspension accounting: 2 failures + 2 suspended skips + 1 failed probe.
  EXPECT_EQ(faulted.report.checkpoint_skips, 5u);
  // 2, 4, 6 before the outage; 18 through 30 after it healed.
  EXPECT_EQ(faulted.report.checkpoints_written, 10u);
  EXPECT_TRUE(journal_has(faulted.journal, obs::EventKind::kCheckpointSkip));
  EXPECT_TRUE(journal_has(faulted.journal, obs::EventKind::kBreakerOpen));
  EXPECT_TRUE(journal_has(faulted.journal, obs::EventKind::kBreakerHalfOpen));
  EXPECT_TRUE(journal_has(faulted.journal, obs::EventKind::kBreakerClose));

  // The brownout ladder rode the suspension up and recovered fully.
  EXPECT_GT(faulted.report.brownout_rounds, 0u);
  EXPECT_EQ(faulted.report.final_brownout_step, 0);

  // /healthz mid-outage vs. end-of-run, sampled live from the loop. By
  // round 12 the suspension has driven the default ladder to its ceiling.
  ASSERT_EQ(sampled_health.size(), 2u);
  EXPECT_NE(sampled_health[0].find("critical"), std::string::npos)
      << sampled_health[0];
  EXPECT_NE(sampled_health[0].find("brownout_step=3"), std::string::npos);
  EXPECT_NE(sampled_health[0].find("lifecycle=serving"), std::string::npos);
  EXPECT_EQ(sampled_health[1].substr(0, 2), "ok") << sampled_health[1];
  EXPECT_EQ(health.lifecycle(), Lifecycle::kStopped);

  // The decision stream is byte-identical to a run with no checkpointing
  // at all: storage faults must never leak into settlement.
  EXPECT_EQ(clean.decisions, faulted.decisions);
  EXPECT_EQ(clean.report.decision_rounds, faulted.report.decision_rounds);
}

// The drill: a checkpoint disk outage behind the checkpointer breaker, and
// the brownout ladder capped at step 2 with the admission budget armed —
// across multiple feed seeds the daemon finishes every round and the
// decision stream stays byte-identical to the clean run.
TEST(ServeSelfHeal, CompoundDrillKeepsDecisionsByteIdentical) {
  for (const std::uint64_t seed : {11ULL, 23ULL}) {
    HarnessOptions options;
    options.seed = seed;
    options.budget_mbps = 50'000.0;  // armed so a step-3 shrink WOULD diverge
    const RunOutput clean = test::run_serve(options);
    ASSERT_GT(clean.report.decision_rounds, 0u);

    state::FaultFs fs;
    HarnessOptions drill = options;
    drill.checkpoint_every = 2;
    drill.checkpoint_dir = "ckpt";
    drill.customize = [&](ServeConfig& config) {
      config.checkpoint_fs = &fs;
      config.checkpoint_breaker.failure_threshold = 1;
      config.checkpoint_breaker.open_ticks = 3;
      config.brownout.max_step = 2;  // byte-transparency ceiling
      config.round_hook = [&fs](std::uint64_t r) {
        fs.set_failing(r >= 8 && r < 16);  // disk outage mid-drill
      };
    };
    const RunOutput faulted = test::run_serve(drill);

    const std::string at = "seed " + std::to_string(seed);
    // Alive to the end: every clean round was served, none skipped or
    // failed, and the report covers the full horizon.
    EXPECT_EQ(faulted.report.rounds, clean.report.rounds) << at;
    EXPECT_EQ(faulted.report.decision_rounds, clean.report.decision_rounds) << at;
    // Decisions are byte-identical through suspended checkpoints and
    // brownout steps.
    EXPECT_EQ(clean.decisions, faulted.decisions) << at;
    // The drill actually exercised the machinery it claims to survive.
    EXPECT_TRUE(journal_has(faulted.journal, obs::EventKind::kBreakerOpen)) << at;
    EXPECT_GT(faulted.report.checkpoint_skips, 0u) << at;
    EXPECT_GT(faulted.report.checkpoints_written, 0u) << at;
    EXPECT_GT(faulted.report.brownout_rounds, 0u) << at;
    EXPECT_LE(faulted.report.final_brownout_step, 2) << at;
  }
}

}  // namespace
}  // namespace vdx::serve
