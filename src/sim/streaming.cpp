#include "sim/streaming.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "cdn/menu_cache.hpp"
#include "sim/session_store.hpp"
#include "sim/stress.hpp"
#include "sim/timeline_detail.hpp"

namespace vdx::sim {

std::vector<trace::Session> TraceStream::next_batch(std::size_t max_sessions) {
  const auto sessions = trace_->sessions();
  const std::size_t take = std::min(max_sessions, sessions.size() - pos_);
  std::vector<trace::Session> out(sessions.begin() + static_cast<std::ptrdiff_t>(pos_),
                                  sessions.begin() +
                                      static_cast<std::ptrdiff_t>(pos_ + take));
  pos_ += take;
  return out;
}

void SessionStream::next_arrivals(std::size_t max_sessions,
                                  std::vector<trace::Arrival>& out) {
  out.clear();
  for (const trace::Session& s : next_batch(max_sessions)) {
    out.push_back(trace::to_arrival(s));
  }
}

void TraceStream::next_arrivals(std::size_t max_sessions,
                                std::vector<trace::Arrival>& out) {
  out.clear();
  const auto sessions = trace_->sessions();
  const std::size_t take = std::min(max_sessions, sessions.size() - pos_);
  for (std::size_t i = pos_; i < pos_ + take; ++i) {
    out.push_back(trace::to_arrival(sessions[i]));
  }
  pos_ += take;
}

void TraceStream::seek(std::uint64_t consumed) {
  if (consumed > trace_->sessions().size()) {
    throw std::invalid_argument{"TraceStream::seek: position " +
                                std::to_string(consumed) + " past trace size " +
                                std::to_string(trace_->sessions().size())};
  }
  pos_ = static_cast<std::size_t>(consumed);
}

namespace {

/// The incrementally maintained active population of one stream: an arrival
/// cursor (pending arrivals pulled but not yet begun, in a reused buffer
/// read from `head_`) feeding a SessionStore, which holds the population as
/// flat parallel arrays and serves groups, shedding, departures and the
/// checkpoint cursor (see sim/session_store.hpp).
class ActiveSet {
 public:
  ActiveSet(SessionStream& stream, std::size_t batch_sessions)
      : stream_(&stream), batch_(std::max<std::size_t>(1, batch_sessions)) {}

  /// Admits arrivals with arrival_s <= t (t non-decreasing across calls;
  /// the stream and the pending buffer are arrival-ordered). A session that
  /// already ended by t never becomes active. Returns whether the
  /// population changed.
  bool admit_until(double t) {
    bool changed = false;
    while (true) {
      for (; head_ < pending_.size() && pending_[head_].arrival_s <= t; ++head_) {
        const trace::Arrival& a = pending_[head_];
        changed |= store_.admit(a.id.value(), a.city, a.bitrate_mbps, a.end_s, t);
      }
      if (head_ < pending_.size() || stream_->exhausted()) break;
      stream_->next_arrivals(batch_, pending_);
      head_ = 0;
      if (pending_.empty()) break;
      pulled_ += pending_.size();
    }
    return changed;
  }

  /// Drops departures with end_s <= t (the half-open [arrival, end)
  /// activity convention). Returns whether the population changed.
  bool drop_until(double t) { return store_.drop_until(t) > 0; }

  [[nodiscard]] std::span<const broker::ClientGroup> groups() {
    return store_.groups();
  }

  std::size_t shed_lowest(std::size_t n) { return store_.shed_lowest(n); }

  [[nodiscard]] std::size_t active_count() const noexcept { return store_.size(); }
  [[nodiscard]] std::size_t pulled() const noexcept { return pulled_; }

  [[nodiscard]] SessionStore& store() noexcept { return store_; }

  /// Checkpointable position: sessions consumed from the stream (admitted
  /// or skipped from the pending buffer — sessions pulled but still pending
  /// are re-pulled on resume) plus the active population in id order.
  [[nodiscard]] state::StreamCursor cursor() const {
    state::StreamCursor cursor = store_.cursor();
    cursor.consumed = pulled_ - (pending_.size() - head_);
    return cursor;
  }

  /// Restores a cursor(): seeks the stream and rebuilds the store. Throws
  /// std::invalid_argument (via SessionStream::seek) when the position is
  /// past the horizon.
  void restore(const state::StreamCursor& cursor) {
    stream_->seek(cursor.consumed);
    pulled_ = static_cast<std::size_t>(cursor.consumed);
    pending_.clear();
    head_ = 0;
    store_.restore(cursor.active);
  }

 private:
  SessionStream* stream_;
  std::size_t batch_;
  std::vector<trace::Arrival> pending_;
  std::size_t head_ = 0;
  SessionStore store_;
  std::size_t pulled_ = 0;
};

/// The stages of one epoch, each timed into timeline.stage_seconds{stage}.
enum class Stage : std::uint8_t {
  kArrivals,
  kDrop,  // departures and admission-control shedding
  kGroups,
  kBackground,
  kDesign,
  kAssign,
  kMetrics,
  kChurn,
};
constexpr std::array<const char*, 8> kStageNames{
    "arrivals", "drop", "groups", "background", "design", "assign", "metrics", "churn"};

/// Times one stage into its histogram. Without a metrics registry the
/// histogram is a no-op handle and no clock is read.
class StageTimer {
 public:
  explicit StageTimer(obs::Histogram histogram) {
    if (histogram.valid()) timer_.emplace(histogram);
  }

 private:
  std::optional<obs::ScopedTimer> timer_;
};

/// Range checks on a decoded checkpoint against the scenario it resumes
/// into (DESIGN.md §9). decode_timeline only vouches for grammar and
/// checksums; everything run_impl indexes by a snapshot value is checked
/// here, before anything is applied.
core::Status check_checkpoint(const Scenario& scenario,
                              const state::TimelineCheckpoint& cp) {
  const std::size_t cities = scenario.world().cities().size();
  const std::size_t clusters = scenario.catalog().clusters().size();
  for (const state::StreamCursor* cursor : {&cp.broker, &cp.background}) {
    const core::Status status = check_restorable(cursor->active, cities);
    if (!status.ok()) return status;
  }
  const auto corrupt = [](const std::string& what) {
    return core::Status::failure(core::Errc::kCorruptSnapshot, "checkpoint " + what);
  };
  for (const auto& [session, cluster] : cp.churn.previous) {
    if (cluster >= clusters) {
      return corrupt("churn entry for session " + std::to_string(session) +
                     " names cluster " + std::to_string(cluster) + " of " +
                     std::to_string(clusters));
    }
  }
  if (!std::isfinite(cp.churn.sum) || !std::isfinite(cp.churn.weight) ||
      cp.churn.weight < 0.0) {
    return corrupt("churn mean state is not finite with weight >= 0");
  }
  if (cp.background_loads.empty()) {
    if (!cp.background_stale) {
      return corrupt("has no background loads but does not mark them stale");
    }
  } else if (cp.background_loads.size() != clusters) {
    return corrupt("has " + std::to_string(cp.background_loads.size()) +
                   " background loads for " + std::to_string(clusters) + " clusters");
  }
  for (const double load : cp.background_loads) {
    if (!std::isfinite(load) || load < 0.0) {
      return corrupt("background load is negative or not finite");
    }
  }
  return core::ok_status();
}

}  // namespace

StreamingTimeline::StreamingTimeline(const Scenario& scenario, StreamingConfig config)
    : scenario_(&scenario), config_(std::move(config)) {
  if (!(config_.epoch_s > 0.0)) {
    throw std::invalid_argument{"StreamingConfig: epoch_s must be > 0"};
  }
  if (config_.stress != nullptr && config_.run.menus != nullptr) {
    throw std::invalid_argument{
        "StreamingConfig: supply stress mutates catalog values that candidate "
        "menus bake in; an external RunConfig::menus cache would go stale — "
        "leave menus null so the engine owns (and rebuilds) the caches"};
  }
}

StreamingResult StreamingTimeline::run(SessionStream& broker,
                                       SessionStream& background) const {
  return run_impl(broker, background, nullptr, 0);
}

TimelineResult run_timeline(const Scenario& scenario, const StreamingConfig& config) {
  TraceStream broker{scenario.broker_trace()};
  TraceStream background{scenario.background_trace()};
  return StreamingTimeline{scenario, config}.run(broker, background).timeline;
}

core::Result<StreamingResult> StreamingTimeline::resume(
    SessionStream& broker, SessionStream& background,
    std::span<const std::uint8_t> snapshot) const {
  auto decoded = state::decode_timeline(snapshot);
  if (!decoded.ok()) return core::Result<StreamingResult>{decoded.error()};
  const state::TimelineCheckpoint checkpoint = std::move(decoded).value();

  if (!(checkpoint.fingerprint == config_.checkpoint.fingerprint)) {
    return core::Result<StreamingResult>::failure(
        core::Errc::kInvalidArgument,
        "snapshot fingerprint does not match this run's configuration "
        "(different seed, design, horizon, or scenario)");
  }
  const auto epochs = static_cast<std::size_t>(
      std::ceil(broker.duration_s() / config_.epoch_s));
  if (checkpoint.next_epoch == 0 || checkpoint.next_epoch > epochs) {
    return core::Result<StreamingResult>::failure(
        core::Errc::kCorruptSnapshot,
        "checkpoint resumes at epoch " + std::to_string(checkpoint.next_epoch) +
            ", outside the run's " + std::to_string(epochs) + "-epoch horizon");
  }
  const core::Status in_range = check_checkpoint(*scenario_, checkpoint);
  if (!in_range.ok()) return core::Result<StreamingResult>{in_range.error()};
  try {
    return run_impl(broker, background, &checkpoint, snapshot.size());
  } catch (const std::invalid_argument& error) {
    // Stream seeks and journal restores reject internally inconsistent
    // positions; surface them as typed corruption, not a crash.
    return core::Result<StreamingResult>::failure(
        core::Errc::kCorruptSnapshot,
        std::string{"checkpoint rejected during restore: "} + error.what());
  }
}

StreamingResult StreamingTimeline::run_impl(SessionStream& broker,
                                            SessionStream& background,
                                            const state::TimelineCheckpoint* resume_from,
                                            std::size_t snapshot_bytes) const {
  const Scenario& scenario = *scenario_;
  StreamingResult result;
  const double duration = broker.duration_s();
  const auto epochs = static_cast<std::size_t>(std::ceil(duration / config_.epoch_s));

  // Menus are a pure function of the scenario (and the stress state), so
  // build them once per run and let every epoch's round hit the cache
  // (cached and uncached menus are byte-identical, DESIGN.md §8).
  // Background placement needs default-config menus; the design round may
  // need a trimmed config — share one cache when the two coincide.
  RunConfig base_run = config_.run;
  const std::size_t cities = scenario.world().cities().size();
  std::optional<cdn::CandidateMenuCache> design_cache;
  std::optional<cdn::CandidateMenuCache> background_cache;
  const cdn::CandidateMenuCache* background_menus = nullptr;
  const auto build_menus = [&] {
    if (config_.run.menus == nullptr) {
      design_cache.emplace(scenario.catalog(), scenario.mapping(), cities,
                           menu_config_for(config_.design, base_run));
      base_run.menus = &*design_cache;
    }
    background_menus = base_run.menus;
    if (!(background_menus->config() == cdn::MatchingConfig{})) {
      background_cache.emplace(scenario.catalog(), scenario.mapping(), cities,
                               cdn::MatchingConfig{});
      background_menus = &*background_cache;
    }
  };
  build_menus();

  obs::Counter rounds_counter;
  obs::Counter recompute_counter;
  obs::Counter resume_counter;
  obs::Counter shed_counter;
  obs::Counter overload_epochs_counter;
  obs::Counter supply_shift_counter;
  obs::Gauge active_gauge;
  obs::Gauge peak_gauge;
  obs::Histogram epoch_seconds;
  std::array<obs::Histogram, kStageNames.size()> stage_seconds;
  if (config_.obs.metrics != nullptr) {
    rounds_counter = config_.obs.metrics->counter("timeline.decision_rounds");
    recompute_counter = config_.obs.metrics->counter("timeline.background_recomputes");
    resume_counter = config_.obs.metrics->counter("state.resumes");
    shed_counter = config_.obs.metrics->counter("timeline.overload.shed_sessions");
    overload_epochs_counter = config_.obs.metrics->counter("timeline.overload.epochs");
    supply_shift_counter = config_.obs.metrics->counter("timeline.stress.supply_shifts");
    active_gauge = config_.obs.metrics->gauge("timeline.active_sessions");
    peak_gauge = config_.obs.metrics->gauge("timeline.peak_active_sessions");
    epoch_seconds = config_.obs.metrics->histogram("timeline.epoch_seconds");
    for (std::size_t i = 0; i < kStageNames.size(); ++i) {
      stage_seconds[i] = config_.obs.metrics->histogram("timeline.stage_seconds",
                                                        {{"stage", kStageNames[i]}});
    }
  }
  const auto stage = [&](Stage which) {
    return StageTimer{stage_seconds[static_cast<std::size_t>(which)]};
  };

  ActiveSet broker_set{broker, config_.batch_sessions};
  ActiveSet background_set{background, config_.batch_sessions};
  std::vector<double> background_loads;
  bool background_stale = true;
  detail::ChurnTracker churn;
  std::size_t start_epoch = 0;

  if (resume_from != nullptr) {
    const state::TimelineCheckpoint& cp = *resume_from;
    broker_set.restore(cp.broker);
    background_set.restore(cp.background);
    background_loads = cp.background_loads;
    background_stale = cp.background_stale;
    churn.restore(detail::ChurnTracker::Saved{cp.churn.previous, cp.churn.sum,
                                              cp.churn.weight});
    result.peak_active_sessions = static_cast<std::size_t>(cp.peak_active_sessions);
    result.decision_rounds = static_cast<std::size_t>(cp.decision_rounds);
    result.background_recomputes =
        static_cast<std::size_t>(cp.background_recomputes);
    result.shed_sessions = static_cast<std::size_t>(cp.shed_sessions);
    start_epoch = static_cast<std::size_t>(cp.next_epoch);
    if (config_.obs.journal != nullptr) {
      auto restored = config_.obs.journal->restore(
          cp.journal.events, cp.journal.total, cp.journal.round);
      if (!restored.ok()) throw std::invalid_argument{restored.error().message};
    }
    if (config_.obs.tracer != nullptr) {
      config_.obs.tracer->set_logical(cp.logical_clock);
    }
    // The kResume event lands at exactly the seq the uninterrupted run's
    // kCheckpoint occupied (the snapshot captured the journal *before*
    // recording kCheckpoint), so the two journals agree on every later seq.
    config_.obs.record(obs::EventKind::kResume,
                       static_cast<std::uint32_t>(start_epoch - 1),
                       static_cast<double>(snapshot_bytes));
    resume_counter.add(1.0);
  }

  // Snapshots the complete engine state after epoch e into the policy's
  // store. Journal state is captured before the kCheckpoint event is
  // recorded — see the kResume note above.
  const auto take_checkpoint = [&](std::size_t e) {
    state::TimelineCheckpoint cp;
    cp.fingerprint = config_.checkpoint.fingerprint;
    cp.next_epoch = e + 1;
    cp.broker = broker_set.cursor();
    cp.background = background_set.cursor();
    const detail::ChurnTracker::Saved saved = churn.save();
    cp.churn.previous = saved.previous;
    cp.churn.sum = saved.sum;
    cp.churn.weight = saved.weight;
    cp.background_loads = background_loads;
    cp.background_stale = background_stale;
    cp.peak_active_sessions = result.peak_active_sessions;
    cp.decision_rounds = result.decision_rounds;
    cp.background_recomputes = result.background_recomputes;
    cp.shed_sessions = result.shed_sessions;
    cp.logical_clock =
        config_.obs.tracer != nullptr ? config_.obs.tracer->logical_now() : 0;
    if (config_.obs.journal != nullptr) {
      cp.journal.events = config_.obs.journal->events();
      cp.journal.total = config_.obs.journal->total_recorded();
      cp.journal.round = config_.obs.journal->current_round();
    }
    const std::vector<std::uint8_t> bytes = state::encode(cp);
    // A failed write must not kill a long-horizon run: the previous
    // snapshot is still durable, so recovery merely loses one interval.
    // The missing kCheckpoint event keeps the journal honest about it.
    if (config_.checkpoint.store->write(e, bytes).ok()) {
      config_.obs.record(obs::EventKind::kCheckpoint, static_cast<std::uint32_t>(e),
                         static_cast<double>(bytes.size()));
    }
  };

  std::size_t executed = 0;
  for (std::size_t e = start_epoch; e < epochs; ++e) {
    {
      const obs::SpanTracer::Scoped span{config_.obs.tracer, "timeline.epoch"};
      const obs::ScopedTimer timer{epoch_seconds};
      const double mid = (static_cast<double>(e) + 0.5) * config_.epoch_s;

      // Supply-side stress is a pure function of the epoch midpoint, so a
      // resumed run's first apply() reconstitutes the identical catalog
      // state. On a transition everything that baked catalog values —
      // candidate menus, the background placement — must be rebuilt.
      if (config_.stress != nullptr && config_.stress->apply(mid)) {
        build_menus();
        background_stale = true;
        supply_shift_counter.add(1.0);
        config_.obs.record(obs::EventKind::kSupplyShift,
                           static_cast<std::uint32_t>(e),
                           static_cast<double>(config_.stress->state_key()));
      }

      {
        const StageTimer timer = stage(Stage::kArrivals);
        broker_set.admit_until(mid);
        background_stale |= background_set.admit_until(mid);
      }
      {
        const StageTimer timer = stage(Stage::kDrop);
        broker_set.drop_until(mid);
        background_stale |= background_set.drop_until(mid);
      }

      const std::size_t concurrent =
          broker_set.active_count() + background_set.active_count();
      result.peak_active_sessions = std::max(result.peak_active_sessions, concurrent);
      active_gauge.set(static_cast<double>(concurrent));

      // Admission control: shed the overflow before the decision round so
      // the round never sees more demand than the budget.
      const std::size_t pre_shed_active = broker_set.active_count();
      std::size_t shed_now = 0;
      if (config_.overload.max_active_sessions > 0 &&
          pre_shed_active > config_.overload.max_active_sessions) {
        {
          const StageTimer timer = stage(Stage::kDrop);
          shed_now = broker_set.shed_lowest(pre_shed_active -
                                            config_.overload.max_active_sessions);
        }
        result.shed_sessions += shed_now;
        shed_counter.add(static_cast<double>(shed_now));
        overload_epochs_counter.add(1.0);
        config_.obs.record(obs::EventKind::kShed, static_cast<std::uint32_t>(e),
                           static_cast<double>(shed_now));
      }

      if (broker_set.active_count() > 0) {
        // The background only moves when a background session arrived or
        // departed; otherwise last epoch's placement is still exact.
        const auto groups = [&] {
          const StageTimer timer = stage(Stage::kGroups);
          return broker_set.groups();
        }();
        if (background_stale) {
          const StageTimer timer = stage(Stage::kBackground);
          background_loads = place_background_over(scenario, background_set.groups(),
                                                   background_menus);
          background_stale = false;
          ++result.background_recomputes;
          recompute_counter.add(1.0);
        }

        RunConfig run = base_run;
        run.qoe_epoch = e + 1;  // fresh broker-side measurements each round
        const DesignOutcome outcome = [&] {
          const StageTimer timer = stage(Stage::kDesign);
          return run_design_over(scenario, config_.design, run, groups, background_loads);
        }();

        auto assignment = [&] {
          const StageTimer timer = stage(Stage::kAssign);
          auto assigned = detail::assign_sessions(broker_set.store(), outcome);
          broker_set.store().apply_assignment(assigned);
          return assigned;
        }();

        EpochReport report;
        report.epoch = e;
        report.time_s = mid;
        // Pre-shed population: with assigned computed post-shed, the
        // conservation the property tests pin is assigned + shed <= active.
        report.active_sessions = pre_shed_active;
        report.shed_sessions = shed_now;
        report.assigned_sessions = assignment.size();
        {
          const StageTimer timer = stage(Stage::kMetrics);
          report.metrics = compute_metrics_over(scenario, outcome, groups);
        }
        {
          const StageTimer timer = stage(Stage::kChurn);
          churn.observe(scenario.catalog(), std::move(assignment), report);
        }

        ++result.decision_rounds;
        rounds_counter.add(1.0);
        config_.obs.record(obs::EventKind::kEpoch, static_cast<std::uint32_t>(e),
                           static_cast<double>(report.active_sessions));
        result.timeline.epochs.push_back(std::move(report));
      }
    }

    // Epoch e is complete (checkpoints sit on epoch boundaries; the final
    // epoch is never checkpointed — the run is already done).
    if (config_.checkpoint.every_epochs > 0 && config_.checkpoint.store != nullptr &&
        (e + 1) % config_.checkpoint.every_epochs == 0 && e + 1 < epochs) {
      take_checkpoint(e);
    }
    ++executed;
    if (config_.halt_after_epochs > 0 && executed >= config_.halt_after_epochs) {
      break;  // simulated crash (recovery-drill hook)
    }
  }

  result.timeline.mean_cdn_switch_fraction = churn.mean_cdn_switch_fraction();
  result.broker_sessions = broker_set.pulled();
  result.background_sessions = background_set.pulled();
  peak_gauge.set(static_cast<double>(result.peak_active_sessions));
  return result;
}

}  // namespace vdx::sim
