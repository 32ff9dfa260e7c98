#include "serve/daemon.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "serve/codec.hpp"
#include "state/store.hpp"

namespace vdx::serve {

namespace {
/// Journal subject tagging the checkpointer's circuit breaker.
constexpr std::uint32_t kCheckpointerSubject = 0xC4EC;

/// Pushes `arrivals` into the exchange's session book; returns how many it
/// refused. A refused batch is retried one arrival at a time, so only the
/// offending arrivals stay out.
std::size_t admit(market::VdxExchange& exchange,
                  std::span<const trace::Session> arrivals) {
  std::vector<market::SessionAdd> adds;
  adds.reserve(arrivals.size());
  for (const trace::Session& s : arrivals) {
    adds.push_back({s.id.value(), s.city.value(), s.bitrate_mbps, s.end_s()});
  }
  if (exchange.push_session_delta(adds, {}).ok()) return 0;
  std::size_t refused = 0;
  for (const market::SessionAdd& add : adds) {
    if (!exchange.push_session_delta({&add, 1}, {}).ok()) ++refused;
  }
  return refused;
}
}  // namespace

ServeDaemon::ServeDaemon(const sim::Scenario& scenario, ArrivalFeed& feed,
                         ServeConfig config)
    : scenario_(scenario), config_(std::move(config)), feed_(&feed) {
  if (!std::isfinite(config_.round_s) || config_.round_s <= 0.0) {
    throw std::invalid_argument{"ServeDaemon: round_s must be > 0"};
  }
  if (config_.checkpoint_every_rounds > 0 && config_.checkpoint_dir.empty()) {
    throw std::invalid_argument{
        "ServeDaemon: checkpoint_every_rounds needs checkpoint_dir"};
  }
  if (config_.obs.metrics == nullptr) {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    config_.obs.metrics = owned_metrics_.get();
  }
  obs_ = config_.obs;
  // Incremental demand can momentarily present groups every CDN is too
  // loaded to bid for; the broker must tolerate them (PR 4 contract).
  config_.exchange.broker.allow_unbid_groups = true;
  config_.exchange.obs = obs_;
  config_.fingerprint.design = kDaemonDesign;
  config_.fingerprint.epoch_s = config_.round_s;

  exchange_ = std::make_unique<market::VdxExchange>(scenario_, config_.exchange);
  // The daemon's feed is the whole audience: no background load to net out.
  exchange_->set_background_loads(
      std::vector<double>(scenario_.catalog().clusters().size(), 0.0));
  latency_ = std::make_unique<LatencyRecorder>(*obs_.metrics);

  checkpoint_breaker_ = resilience::CircuitBreaker{config_.checkpoint_breaker,
                                                   obs_, kCheckpointerSubject};
  brownout_ = resilience::BrownoutController{config_.brownout, obs_};
  base_demand_budget_ = config_.exchange.overload.demand_budget_mbps;
  if (config_.health != nullptr) {
    config_.health->set_lifecycle(Lifecycle::kStarting);
  }

  rounds_counter_ = obs_.metrics->counter("serve.rounds");
  arrivals_counter_ = obs_.metrics->counter("serve.arrivals");
  queue_dropped_counter_ = obs_.metrics->counter("serve.queue_dropped");
  arrivals_refused_counter_ = obs_.metrics->counter("serve.arrivals_refused");
  shed_mbps_counter_ = obs_.metrics->counter("serve.shed.mbps");
  shed_clients_counter_ = obs_.metrics->counter("serve.shed.clients");
  checkpoints_counter_ = obs_.metrics->counter("serve.checkpoints");
  checkpoint_skips_counter_ = obs_.metrics->counter("serve.checkpoint_skips");
  active_gauge_ = obs_.metrics->gauge("serve.active_sessions");
}

ServeDaemon::~ServeDaemon() = default;

ServeReport ServeDaemon::run() { return run_loop(0); }

core::Result<ServeReport> ServeDaemon::resume(
    std::span<const std::uint8_t> snapshot_bytes) {
  auto decoded = state::decode_daemon(snapshot_bytes);
  if (!decoded.ok()) return core::Result<ServeReport>{decoded.error()};
  const state::DaemonCheckpoint& cp = decoded.value();
  if (!(cp.fingerprint == config_.fingerprint)) {
    return core::Result<ServeReport>::failure(
        core::Errc::kInvalidArgument,
        "serve resume: snapshot fingerprint does not match this run");
  }
  if (!feed_->seekable()) {
    return core::Result<ServeReport>::failure(
        core::Errc::kInvalidArgument,
        "serve resume: the arrival feed cannot seek (live feeds are not "
        "resumable)");
  }
  // The exchange checks the book and its image before applying either.
  // Restore order matters: the exchange restore also sets the tracer's
  // logical clock to the exchange's saved value; the daemon's own clock
  // (which may run ahead across skipped rounds) is reapplied after.
  const core::Status restored =
      exchange_->restore_state(cp.exchange_state, cp.feed.active);
  if (!restored.ok()) return core::Result<ServeReport>{restored.error()};
  try {
    feed_->seek(cp.feed.consumed);
  } catch (const std::invalid_argument& error) {
    return core::Result<ServeReport>::failure(core::Errc::kCorruptSnapshot,
                                              error.what());
  }
  if (obs_.journal != nullptr) {
    const core::Status journal = obs_.journal->restore(
        cp.journal.events, cp.journal.total, cp.journal.round);
    if (!journal.ok()) return core::Result<ServeReport>{journal.error()};
  }
  if (obs_.tracer != nullptr) obs_.tracer->set_logical(cp.logical_clock);
  decision_rounds_ = cp.decision_rounds;
  skipped_rounds_ = cp.skipped_rounds;
  queue_dropped_ = cp.queue_dropped;
  peak_active_ = cp.peak_active_sessions;
  shed_mbps_total_ = cp.shed_mbps_total;
  shed_clients_total_ = cp.shed_clients_total;
  shed_rounds_ = cp.shed_rounds;
  // kResume lands in the seq slot the checkpoint's own kCheckpoint event
  // occupied (the snapshot captured the journal *before* that event), so
  // the resumed journal stays byte-identical to the uninterrupted run's.
  obs_.record(obs::EventKind::kResume, obs::RunJournal::kNoSubject,
              static_cast<double>(cp.next_round));
  return run_loop(cp.next_round);
}

state::DaemonCheckpoint ServeDaemon::make_checkpoint(std::uint64_t next_round) const {
  state::DaemonCheckpoint cp;
  cp.fingerprint = config_.fingerprint;
  cp.next_round = next_round;
  cp.feed = exchange_->book_cursor();
  cp.feed.consumed = feed_->consumed();
  cp.exchange_state = exchange_->save_state();
  cp.decision_rounds = decision_rounds_;
  cp.skipped_rounds = skipped_rounds_;
  cp.queue_dropped = queue_dropped_;
  cp.peak_active_sessions = peak_active_;
  cp.shed_mbps_total = shed_mbps_total_;
  cp.shed_clients_total = shed_clients_total_;
  cp.shed_rounds = shed_rounds_;
  cp.logical_clock = obs_.tracer != nullptr ? obs_.tracer->logical_now() : 0;
  if (obs_.journal != nullptr) {
    cp.journal.events = obs_.journal->events();
    cp.journal.total = obs_.journal->total_recorded();
    cp.journal.round = obs_.journal->current_round();
  }
  return cp;
}

ServeReport ServeDaemon::run_loop(std::uint64_t start_round) {
  ServeReport report;
  const double horizon_s = feed_->duration_s();
  const std::uint64_t horizon_rounds =
      horizon_s > 0.0
          ? static_cast<std::uint64_t>(std::ceil(horizon_s / config_.round_s))
          : UINT64_MAX;

  std::unique_ptr<state::CheckpointStore> store;
  if (config_.checkpoint_every_rounds > 0) {
    store = std::make_unique<state::CheckpointStore>(
        config_.checkpoint_dir, std::max<std::size_t>(1, config_.checkpoint_keep),
        obs_, config_.checkpoint_fs);
  }
  const auto skip_checkpoint = [&](std::uint64_t next_round) {
    ++report.checkpoint_skips;
    checkpoint_skips_counter_.add();
    obs_.record(obs::EventKind::kCheckpointSkip, obs::RunJournal::kNoSubject,
                static_cast<double>(next_round));
  };
  const auto write_checkpoint = [&](std::uint64_t next_round) {
    // The checkpointer is supervised by a circuit breaker on the round
    // clock: consecutive write failures (a sick disk) suspend checkpointing
    // — the previous snapshot stays the resume point and serving continues
    // — until a half-open probe succeeds after the fault clears. Every
    // skipped or failed attempt is journaled (checkpoint_skip) and counted.
    if (!checkpoint_breaker_.allow(next_round)) {
      skip_checkpoint(next_round);
      return;
    }
    const state::DaemonCheckpoint cp = make_checkpoint(next_round);
    obs_.record(obs::EventKind::kCheckpoint, obs::RunJournal::kNoSubject,
                static_cast<double>(next_round));
    if (store->write(next_round, state::encode(cp)).ok()) {
      checkpoints_counter_.add();
      ++report.checkpoints_written;
      checkpoint_breaker_.on_success(next_round);
    } else {
      checkpoint_breaker_.on_failure(next_round);
      skip_checkpoint(next_round);
    }
  };

  if (config_.health != nullptr) {
    config_.health->set_lifecycle(Lifecycle::kServing);
  }
  // Brownout budget shrink is applied as a multiplier over the configured
  // budget; track what is currently applied so the (journaling-free) setter
  // only runs on transitions.
  double applied_budget_factor = 1.0;

  std::uint64_t r = start_round;
  while (r < horizon_rounds) {
    if (config_.round_hook) config_.round_hook(r);
    if (config_.stop != nullptr && config_.stop->load(std::memory_order_relaxed)) {
      // Graceful drain: journal the event, snapshot, and hand back a
      // resumable state instead of finishing the horizon.
      if (config_.health != nullptr) {
        config_.health->set_lifecycle(Lifecycle::kDraining);
      }
      obs_.record(obs::EventKind::kDrain, obs::RunJournal::kNoSubject,
                  static_cast<double>(exchange_->live_sessions()));
      if (store != nullptr) write_checkpoint(r);
      report.drained = true;
      break;
    }

    const double t = (static_cast<double>(r) + 0.5) * config_.round_s;
    if (obs_.tracer != nullptr) obs_.tracer->advance(1);

    std::vector<trace::Session> arrivals = feed_->next_until(t);
    // Departures leave before the door bound is applied: a session that
    // ended by t must not hold a newcomer's place.
    exchange_->expire_sessions(t);
    const std::size_t live = exchange_->live_sessions();
    std::size_t turned_away = 0;
    if (config_.queue_capacity > 0 && live + arrivals.size() > config_.queue_capacity) {
      // Door backpressure: the latest arrivals are rejected outright (they
      // never enter the population the exchange prices).
      const std::size_t room =
          config_.queue_capacity > live ? config_.queue_capacity - live : 0;
      turned_away = arrivals.size() - room;
      arrivals.resize(room);
    }
    const std::size_t refused = admit(*exchange_, arrivals);
    // Arrivals that already ended by t leave in the same round.
    exchange_->expire_sessions(t);
    if (!arrivals.empty()) {
      arrivals_counter_.add(static_cast<double>(arrivals.size()));
    }
    if (refused > 0) {
      arrivals_refused_ += refused;
      arrivals_refused_counter_.add(static_cast<double>(refused));
    }
    if (turned_away > 0) {
      queue_dropped_ += turned_away;
      queue_dropped_counter_.add(static_cast<double>(turned_away));
      obs_.record(obs::EventKind::kAdmit, obs::RunJournal::kNoSubject,
                  static_cast<double>(turned_away));
    }
    const std::size_t active = exchange_->live_sessions();
    peak_active_ = std::max(peak_active_, static_cast<std::uint64_t>(active));
    // Brownout step >= 1 sheds non-critical telemetry first: the active-
    // population gauge goes stale while the SLO-critical serve.* histograms
    // keep recording.
    if (!brownout_.skip_noncritical_exports()) {
      active_gauge_.set(static_cast<double>(active));
    }

    if (active == 0 && feed_->exhausted()) break;

    if (active == 0) {
      // Nothing to price: no exchange round, no decision line (the skip is
      // itself deterministic — it depends only on the feed).
      ++skipped_rounds_;
    } else {
      const std::uint64_t logical_before = obs_.logical_now();
      double wall_s = 0.0;
      market::RoundReport round_report;
      {
        const obs::ScopedTimer timer{&wall_s};
        round_report = exchange_->run_round();
      }
      const std::uint64_t ticks = obs_.logical_now() - logical_before;
      const double demand_mbps = round_report.demand_mbps;
      latency_->record_round(wall_s * 1000.0, ticks, demand_mbps,
                             demand_mbps - round_report.shed_mbps);
      if (round_report.shed_mbps > 0.0) {
        shed_mbps_total_ += round_report.shed_mbps;
        shed_clients_total_ += round_report.shed_clients;
        ++shed_rounds_;
        shed_mbps_counter_.add(round_report.shed_mbps);
        shed_clients_counter_.add(round_report.shed_clients);
      }
      if (config_.decisions != nullptr) {
        DecisionLine line;
        line.round = r;
        line.active_sessions = active;
        line.demand_mbps = demand_mbps;
        line.admitted_mbps = demand_mbps - round_report.shed_mbps;
        line.shed_mbps = round_report.shed_mbps;
        line.shed_clients = round_report.shed_clients;
        line.mean_score = round_report.mean_score;
        line.mean_cost = round_report.mean_cost;
        line.logical_ticks = ticks;
        write_decision(*config_.decisions, line);
      }
      ++decision_rounds_;
    }

    ++r;
    rounds_counter_.add();
    if (store != nullptr && r % config_.checkpoint_every_rounds == 0) {
      write_checkpoint(r);
    }

    // Re-evaluate the brownout ladder once per round, after the checkpoint
    // attempt so a fresh suspension registers the same round. The latency
    // trigger only reads quantiles when armed (p99_slo_ms > 0) — slo() walks
    // every histogram bucket, which is waste on the default path.
    resilience::BrownoutController::Signals signals;
    signals.checkpoint_suspended = checkpoint_breaker_.open();
    if (brownout_.config().p99_slo_ms > 0.0) {
      const LatencyRecorder::Slo slo = latency_->slo();
      signals.p99_ms = slo.p99_ms;
      signals.rounds_observed = slo.rounds;
    }
    const int step = brownout_.evaluate(signals, r);
    if (step > 0) ++report.brownout_rounds;
    const double factor = brownout_.admission_factor();
    if (base_demand_budget_ > 0.0 && factor != applied_budget_factor) {
      exchange_->set_demand_budget(base_demand_budget_ * factor);
      applied_budget_factor = factor;
    }
    if (config_.health != nullptr) {
      config_.health->set_brownout(brownout_.health(), step);
      config_.health->set_open_breakers(signals.checkpoint_suspended ? 1 : 0);
    }
    if (config_.halt_after_rounds > 0 &&
        r - start_round >= config_.halt_after_rounds) {
      report.halted = true;
      break;
    }
    if (config_.throw_after_rounds > 0 &&
        r - start_round >= config_.throw_after_rounds) {
      throw std::runtime_error{"ServeDaemon: injected failure after round " +
                               std::to_string(r)};
    }
  }

  if (config_.health != nullptr) {
    config_.health->set_lifecycle(Lifecycle::kStopped);
  }
  report.rounds = r;
  report.final_brownout_step = brownout_.step();
  report.decision_rounds = decision_rounds_;
  report.skipped_rounds = skipped_rounds_;
  report.arrivals = feed_->consumed();
  report.queue_dropped = queue_dropped_;
  report.arrivals_refused = arrivals_refused_;
  report.peak_active_sessions = peak_active_;
  report.shed_mbps_total = shed_mbps_total_;
  report.shed_clients_total = shed_clients_total_;
  report.shed_rounds = shed_rounds_;
  report.slo = latency_->slo();
  return report;
}

}  // namespace vdx::serve
