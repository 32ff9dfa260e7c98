#include "market/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "market/federation.hpp"
#include "proto/wire.hpp"
#include "sim/designs.hpp"
#include "sim/scenario.hpp"
#include "state/snapshot.hpp"

namespace vdx::market {
namespace {

using core::Errc;
using core::Result;
using core::Status;
using proto::ShardFrame;
using proto::ShardFrameType;

// Worker snapshot sections (its own envelope, ids disjoint from the
// monolith exchange's 10-14 purely for greppability).
constexpr std::uint32_t kWorkerVersionSection = 19;
constexpr std::uint32_t kWorkerCoreSection = 20;
constexpr std::uint32_t kWorkerJournalSection = 21;
constexpr std::uint32_t kWorkerCountersSection = 22;
// Coordinator snapshot sections.
constexpr std::uint32_t kCoordVersionSection = 29;
constexpr std::uint32_t kCoordCoreSection = 30;
constexpr std::uint32_t kCoordSettlementSection = 31;
constexpr std::uint32_t kCoordSlicesSection = 32;
constexpr std::uint32_t kCoordWorkersSection = 33;
// Version 1 (per-shard session ledgers, no version section) became version
// 2 when the session book moved to the coordinator, and version 3 when the
// collect round trip was retired (the worker's last-collect round and the
// coordinator's demand-dirty byte went with it).
constexpr std::uint32_t kWorkerSnapshotVersion = 3;
constexpr std::uint32_t kCoordinatorSnapshotVersion = 3;

/// Book sessions never depart on their own; push_session_delta removes them.
constexpr double kForever = std::numeric_limits<double>::infinity();

/// The coordinator core section, decoded before a restore commits it.
struct CoordinatorCore {
  bool fed = false;
  bool session_fed = false;
  std::vector<double> background_loads;
  std::vector<state::ActiveSession> book;
};

[[nodiscard]] Status invalid(std::string message) {
  return Status::failure(Errc::kInvalidArgument, std::move(message));
}

[[nodiscard]] bool finite_nonneg(double v) noexcept {
  return std::isfinite(v) && v >= 0.0;
}

[[nodiscard]] Status corrupt_snapshot(std::string message) {
  return Status::failure(Errc::kCorruptSnapshot, std::move(message));
}

void add_version(state::SnapshotWriter& writer, std::uint32_t section,
                 std::uint32_t version) {
  proto::ByteWriter w;
  w.write_u32(version);
  writer.add_section(section, w.take());
}

/// kVersionMismatch unless the snapshot carries `version`; a snapshot
/// without the section is version 1.
[[nodiscard]] Status check_version(const state::SnapshotView& view,
                                   std::uint32_t section, std::uint32_t version,
                                   const std::string& what) {
  std::uint32_t found = 1;
  if (const state::Section* s = view.find(section); s != nullptr) {
    if (s->bytes.size() != sizeof(std::uint32_t)) {
      return corrupt_snapshot(what + " snapshot: malformed version section");
    }
    found = proto::ByteReader{s->bytes}.read_u32();
  }
  if (found == version) return core::ok_status();
  return Status::failure(Errc::kVersionMismatch,
                         what + " snapshot format version " + std::to_string(found) +
                             " (this build reads version " +
                             std::to_string(version) + ")");
}

/// Rejects a demand slice a worker must not hold: unknown city, or a
/// non-finite bitrate/client count.
[[nodiscard]] Status validate_slice(std::span<const proto::ShardGroup> slice,
                                    std::uint32_t city_count) {
  for (const proto::ShardGroup& g : slice) {
    if (g.group.city.value() >= city_count) {
      return invalid("demand slice references unknown city " +
                     std::to_string(g.group.city.value()));
    }
    if (!std::isfinite(g.group.bitrate_mbps) || g.group.bitrate_mbps <= 0.0 ||
        !finite_nonneg(g.group.client_count)) {
      return invalid("demand slice group with non-finite bitrate/clients");
    }
  }
  return core::ok_status();
}

/// Decodes a worker's response bytes. A malformed frame or error payload
/// fails kCorruptFrame; a kError frame fails with the worker's own code as
/// "shard s: message".
[[nodiscard]] core::Result<ShardFrame> decode_response(
    std::size_t shard, std::span<const std::uint8_t> bytes) {
  auto decoded = proto::try_decode_shard_frame(bytes);
  if (!decoded.ok() || decoded.value().type != ShardFrameType::kError) {
    return decoded;
  }
  auto err = proto::decode_shard_error(decoded.value().payload);
  if (!err.ok()) return core::Result<ShardFrame>{err.error()};
  return core::Result<ShardFrame>::failure(
      err.value().code, "shard " + std::to_string(shard) + ": " + err.value().message);
}

/// kCorruptSnapshot unless `slices` is a cache a coordinator on `plan`
/// could have built: every group valid, on its own shard's slice, and the
/// ids dense across all slices (each global id 0..n-1 exactly once, equal
/// to its group's id).
[[nodiscard]] Status check_restored_slices(
    const ShardPlan& plan, const std::vector<std::vector<proto::ShardGroup>>& slices) {
  const auto city_count = static_cast<std::uint32_t>(plan.shard_of_city.size());
  std::vector<std::uint32_t> ids;
  for (std::size_t s = 0; s < slices.size(); ++s) {
    if (auto status = validate_slice(slices[s], city_count); !status.ok()) {
      return corrupt_snapshot("coordinator snapshot: " + status.error().message);
    }
    for (const proto::ShardGroup& g : slices[s]) {
      if (plan.shard_of(g.group.city) != s) {
        return corrupt_snapshot("coordinator snapshot: slice " + std::to_string(s) +
                                " holds city " + std::to_string(g.group.city.value()) +
                                " of shard " +
                                std::to_string(plan.shard_of(g.group.city)));
      }
      if (g.global_id != g.group.id.value()) {
        return corrupt_snapshot("coordinator snapshot: group id " +
                                std::to_string(g.group.id.value()) +
                                " under global id " + std::to_string(g.global_id));
      }
      ids.push_back(g.global_id);
    }
  }
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] != i) {
      return corrupt_snapshot(
          "coordinator snapshot: slice ids are not dense — slices overlap or "
          "lost groups");
    }
  }
  return core::ok_status();
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardBackend
// ---------------------------------------------------------------------------

std::string_view to_string(ShardBackend backend) noexcept {
  switch (backend) {
    case ShardBackend::kInproc: return "inproc";
    case ShardBackend::kProcess: return "process";
  }
  return "inproc";
}

std::optional<ShardBackend> shard_backend_from(std::string_view name) noexcept {
  if (name == "inproc") return ShardBackend::kInproc;
  if (name == "process") return ShardBackend::kProcess;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// ShardPlan
// ---------------------------------------------------------------------------

ShardPlan ShardPlan::build(const geo::World& world, std::size_t shards) {
  ShardPlan plan;
  const auto cities = world.cities();
  plan.shard_count = std::clamp<std::size_t>(shards, 1, std::max<std::size_t>(
                                                           cities.size(), 1));
  const auto seeds = pick_region_seeds(world, plan.shard_count);
  plan.shard_count = seeds.size();
  plan.shard_of_city.resize(cities.size(), 0);
  plan.city_counts.assign(plan.shard_count, 0);
  for (const geo::City& city : cities) {
    std::uint32_t best = 0;
    double best_km = world.distance_km(city.id, seeds[0]);
    for (std::size_t s = 1; s < seeds.size(); ++s) {
      const double km = world.distance_km(city.id, seeds[s]);
      if (km < best_km) {  // strict: the lower-index seed wins ties
        best_km = km;
        best = static_cast<std::uint32_t>(s);
      }
    }
    plan.shard_of_city[city.id.value()] = best;
    ++plan.city_counts[best];
  }
  return plan;
}

std::uint64_t ShardPlan::hash() const noexcept {
  proto::ByteWriter w;
  w.write_u64(static_cast<std::uint64_t>(shard_count));
  for (const std::uint32_t s : shard_of_city) w.write_u32(s);
  return state::fnv1a(w.data());
}

// ---------------------------------------------------------------------------
// ShardWorker
// ---------------------------------------------------------------------------

ShardWorker::ShardWorker(std::uint32_t shard) : shard_(shard), journal_(4096) {
  counters_.frames = metrics_.counter("shard.frames");
  counters_.errors = metrics_.counter("shard.errors");
  counters_.rounds = metrics_.counter("shard.rounds");
  counters_.groups_announced = metrics_.counter("shard.groups_announced");
  counters_.placements = metrics_.counter("shard.placements");
  counters_.awarded_mbps = metrics_.counter("shard.awarded_mbps");
  counters_.demand_mbps = metrics_.gauge("shard.demand_mbps");
}

proto::ShardFrame ShardWorker::ack(const proto::ShardFrame& request,
                                   std::uint64_t value) const {
  ShardFrame out;
  out.type = ShardFrameType::kAck;
  out.shard = shard_;
  out.round = request.round;
  out.payload = proto::encode_shard_ack(value);
  return out;
}

proto::ShardFrame ShardWorker::fail(const proto::ShardFrame& request,
                                    core::Errc code, std::string message) {
  counters_.errors.add();
  ShardFrame out;
  out.type = ShardFrameType::kError;
  out.shard = shard_;
  out.round = request.round;
  out.payload = proto::encode_shard_error(code, message);
  return out;
}

void ShardWorker::refresh_gauges() {
  double demand = 0.0;
  for (const proto::ShardGroup& g : demand_) demand += g.group.demand_mbps();
  counters_.demand_mbps.set(demand);
}

proto::ShardFrame ShardWorker::on_hello(const proto::ShardFrame& request) {
  auto decoded = proto::decode_shard_hello(request.payload);
  if (!decoded.ok()) {
    return fail(request, decoded.error().code, decoded.error().message);
  }
  const proto::ShardHello& hello = decoded.value();
  if (hello.shard != shard_) {
    return fail(request, Errc::kInvalidArgument,
                "hello addressed to shard " + std::to_string(hello.shard));
  }
  if (configured_) {
    if (hello == context_) return ack(request, 0);  // idempotent re-hello
    return fail(request, Errc::kInvalidArgument,
                "worker already configured with a different topology");
  }
  context_ = hello;
  journal_ = obs::RunJournal{static_cast<std::size_t>(
      std::max<std::uint64_t>(hello.journal_capacity, 1))};
  configured_ = true;
  return ack(request, 0);
}

proto::ShardFrame ShardWorker::on_set_demand(const proto::ShardFrame& request) {
  auto decoded = proto::decode_shard_groups(request.payload);
  if (!decoded.ok()) {
    return fail(request, decoded.error().code, decoded.error().message);
  }
  if (auto status = validate_slice(decoded.value(), context_.city_count);
      !status.ok()) {
    return fail(request, status.error().code, status.error().message);
  }
  demand_ = std::move(decoded).value();  // replace: trivially idempotent
  refresh_gauges();
  return ack(request, static_cast<std::uint64_t>(demand_.size()));
}

proto::ShardFrame ShardWorker::on_allocation(const proto::ShardFrame& request) {
  auto decoded = proto::decode_allocation(request.payload);
  if (!decoded.ok()) {
    return fail(request, decoded.error().code, decoded.error().message);
  }
  // Idempotent per round: a chaos retry of an already-applied allocation is
  // re-acked without touching state.
  if (last_allocation_round_ != kNoRound && request.round <= last_allocation_round_) {
    return ack(request, request.round);
  }
  const auto cluster_count =
      static_cast<std::uint32_t>(context_.cdn_of_cluster.size());
  for (const proto::ShardPlacement& p : decoded.value()) {
    if (p.cluster >= cluster_count) {
      return fail(request, Errc::kInvalidArgument,
                  "allocation references unknown cluster " + std::to_string(p.cluster));
    }
    if (!finite_nonneg(p.clients) || !std::isfinite(p.bitrate_mbps)) {
      return fail(request, Errc::kInvalidArgument,
                  "allocation with non-finite clients/bitrate");
    }
  }
  // Validated: commit (never before this point — a rejected allocation must
  // not partially apply). The round's bookkeeping lives here, behind the
  // per-round guard above, so a redelivered allocation records nothing.
  journal_.begin_round(static_cast<std::uint32_t>(request.round));
  journal_.record(obs::EventKind::kRoundStart, shard_,
                  static_cast<double>(demand_.size()), request.round);
  counters_.rounds.add();
  counters_.groups_announced.add(static_cast<double>(demand_.size()));
  double awarded = 0.0;
  for (const proto::ShardPlacement& p : decoded.value()) {
    journal_.record(obs::EventKind::kBid, context_.cdn_of_cluster[p.cluster],
                    p.clients, request.round);
    awarded += p.clients * p.bitrate_mbps;
  }
  journal_.record(obs::EventKind::kRoundEnd, shard_, awarded, request.round);
  counters_.placements.add(static_cast<double>(decoded.value().size()));
  counters_.awarded_mbps.add(awarded);
  rounds_applied_ = request.round + 1;
  last_allocation_round_ = request.round;
  return ack(request, request.round);
}

proto::ShardFrame ShardWorker::handle(const proto::ShardFrame& request) {
  counters_.frames.add();
  if (request.type == ShardFrameType::kHello) return on_hello(request);
  if (!configured_) {
    return fail(request, Errc::kNotReady, "worker awaits hello");
  }
  if (request.shard != shard_) {
    return fail(request, Errc::kInvalidArgument,
                "frame addressed to shard " + std::to_string(request.shard));
  }
  switch (request.type) {
    case ShardFrameType::kSetDemand: return on_set_demand(request);
    case ShardFrameType::kAllocation: return on_allocation(request);
    case ShardFrameType::kStateRequest: {
      ShardFrame out;
      out.type = ShardFrameType::kStateResponse;
      out.shard = shard_;
      out.round = request.round;
      out.payload = save_state();
      return out;
    }
    case ShardFrameType::kRestoreState: {
      if (auto status = restore_state(request.payload); !status.ok()) {
        return fail(request, status.error().code, status.error().message);
      }
      return ack(request, rounds_applied_);
    }
    case ShardFrameType::kJournalRequest: {
      proto::ShardJournalSlice slice;
      slice.total_recorded = journal_.total_recorded();
      slice.round = journal_.current_round();
      slice.events = journal_.events();
      ShardFrame out;
      out.type = ShardFrameType::kJournalSlice;
      out.shard = shard_;
      out.round = request.round;
      out.payload = proto::encode_journal_slice(slice);
      return out;
    }
    case ShardFrameType::kShutdown: return ack(request, rounds_applied_);
    default:
      return fail(request, Errc::kInvalidArgument, "unexpected frame type");
  }
}

std::vector<std::uint8_t> ShardWorker::handle_bytes(
    std::span<const std::uint8_t> bytes, bool* shutdown) {
  auto decoded = proto::try_decode_shard_frame(bytes);
  if (!decoded.ok()) {
    counters_.frames.add();
    counters_.errors.add();
    ShardFrame out;
    out.type = ShardFrameType::kError;
    out.shard = shard_;
    out.payload =
        proto::encode_shard_error(decoded.error().code, decoded.error().message);
    return proto::encode_shard_frame(out);
  }
  const ShardFrame response = handle(decoded.value());
  if (shutdown != nullptr && decoded.value().type == ShardFrameType::kShutdown &&
      response.type == ShardFrameType::kAck) {
    *shutdown = true;
  }
  return proto::encode_shard_frame(response);
}

int ShardWorker::serve_fd(std::uint32_t shard, int fd) {
  ShardWorker worker{shard};
  for (;;) {
    auto request = net::read_frame_fd(fd);
    if (!request.ok()) {
      // EOF (coordinator gone) is a clean exit; a framing-level length lie
      // leaves the stream unsynchronized, so bail out.
      return request.error().code == Errc::kUnavailable ? 0 : 1;
    }
    bool shutdown = false;
    const auto response = worker.handle_bytes(request.value(), &shutdown);
    if (auto status = net::write_frame_fd(fd, response); !status.ok()) return 1;
    if (shutdown) return 0;
  }
}

std::vector<std::uint8_t> ShardWorker::save_state() const {
  state::SnapshotWriter writer;
  add_version(writer, kWorkerVersionSection, kWorkerSnapshotVersion);
  {
    proto::ByteWriter w;
    w.write_u32(shard_);
    w.write_u32(context_.shard_count);
    w.write_u32(context_.city_count);
    w.write_u64(context_.plan_hash);
    w.write_u64(rounds_applied_);
    w.write_u64(last_allocation_round_);
    const auto demand_bytes = proto::encode_shard_groups(demand_);
    w.write_u32(static_cast<std::uint32_t>(demand_bytes.size()));
    w.write_bytes(demand_bytes);
    writer.add_section(kWorkerCoreSection, w.take());
  }
  {
    proto::ShardJournalSlice slice;
    slice.total_recorded = journal_.total_recorded();
    slice.round = journal_.current_round();
    slice.events = journal_.events();
    writer.add_section(kWorkerJournalSection, proto::encode_journal_slice(slice));
  }
  {
    // Deterministic counters only: shard.frames/shard.errors depend on link
    // chaos and retry luck, so a restored worker must NOT inherit them — the
    // deterministic surfaces are what the kill-and-resume drill compares.
    proto::ByteWriter w;
    const std::pair<const char*, double> saved[] = {
        {"shard.rounds", counters_.rounds.value()},
        {"shard.groups_announced", counters_.groups_announced.value()},
        {"shard.placements", counters_.placements.value()},
        {"shard.awarded_mbps", counters_.awarded_mbps.value()},
    };
    w.write_u32(static_cast<std::uint32_t>(std::size(saved)));
    for (const auto& [name, value] : saved) {
      w.write_string(name);
      w.write_f64(value);
    }
    writer.add_section(kWorkerCountersSection, w.take());
  }
  return writer.finish();
}

core::Result<ShardWorker::State> ShardWorker::decode_state(
    std::span<const std::uint8_t> bytes, const proto::ShardHello& context) {
  using R = core::Result<State>;
  auto parsed = state::SnapshotView::parse(bytes);
  if (!parsed.ok()) return R{parsed.error()};
  const state::SnapshotView& view = parsed.value();
  if (auto status = check_version(view, kWorkerVersionSection,
                                  kWorkerSnapshotVersion, "worker");
      !status.ok()) {
    return R{status.error()};
  }
  const state::Section* core_section = view.find(kWorkerCoreSection);
  const state::Section* journal_section = view.find(kWorkerJournalSection);
  const state::Section* counters_section = view.find(kWorkerCountersSection);
  if (core_section == nullptr || journal_section == nullptr ||
      counters_section == nullptr) {
    return R::failure(Errc::kCorruptSnapshot, "worker snapshot: missing section");
  }

  State out;
  try {
    proto::ByteReader r{core_section->bytes};
    const std::uint32_t shard = r.read_u32();
    const std::uint32_t shard_count = r.read_u32();
    const std::uint32_t city_count = r.read_u32();
    const std::uint64_t plan_hash = r.read_u64();
    if (shard != context.shard || shard_count != context.shard_count ||
        city_count != context.city_count || plan_hash != context.plan_hash) {
      return R::failure(Errc::kInvalidArgument,
                        "worker snapshot: taken under a different shard topology");
    }
    out.rounds_applied = r.read_u64();
    out.last_allocation_round = r.read_u64();
    const std::uint32_t demand_len = r.read_u32();
    auto decoded = proto::decode_shard_groups(r.read_bytes(demand_len));
    if (!decoded.ok()) return R{decoded.error()};
    out.demand = std::move(decoded).value();
    if (!r.exhausted()) {
      return R::failure(Errc::kCorruptSnapshot, "worker snapshot: trailing core bytes");
    }
  } catch (const proto::WireError& e) {
    return R::failure(Errc::kCorruptSnapshot,
                      std::string{"worker snapshot: "} + e.what());
  }

  // A checksum-valid snapshot can still carry a slice no kSetDemand would
  // have been accepted with.
  if (auto status = validate_slice(out.demand, context.city_count); !status.ok()) {
    return R{status.error()};
  }

  auto journal_slice = proto::decode_journal_slice(journal_section->bytes);
  if (!journal_slice.ok()) return R{journal_slice.error()};

  try {
    proto::ByteReader r{counters_section->bytes};
    const std::uint32_t count = r.read_u32();
    for (std::uint32_t i = 0; i < count; ++i) {
      std::string name = r.read_string();
      const double value = r.read_f64();
      out.counters.emplace_back(std::move(name), value);
    }
    if (!r.exhausted()) {
      return R::failure(Errc::kCorruptSnapshot,
                        "worker snapshot: trailing counter bytes");
    }
  } catch (const proto::WireError& e) {
    return R::failure(Errc::kCorruptSnapshot,
                      std::string{"worker snapshot: "} + e.what());
  }

  // The journal is rebuilt here too, so its restore() check (window
  // consistent with total) also runs before anything is committed.
  out.journal = obs::RunJournal{static_cast<std::size_t>(
      std::max<std::uint64_t>(context.journal_capacity, 1))};
  if (auto status = out.journal.restore(journal_slice.value().events,
                                        journal_slice.value().total_recorded,
                                        journal_slice.value().round);
      !status.ok()) {
    return R{status.error()};
  }
  return out;
}

void ShardWorker::commit_state(State state) {
  rounds_applied_ = state.rounds_applied;
  last_allocation_round_ = state.last_allocation_round;
  demand_ = std::move(state.demand);
  journal_ = std::move(state.journal);
  const std::pair<const char*, obs::Counter*> handles[] = {
      {"shard.rounds", &counters_.rounds},
      {"shard.groups_announced", &counters_.groups_announced},
      {"shard.placements", &counters_.placements},
      {"shard.awarded_mbps", &counters_.awarded_mbps},
  };
  for (const auto& [name, value] : state.counters) {
    for (const auto& [known, handle] : handles) {
      // Delta-add: counters have no set(), and restore may land on a worker
      // that already accumulated (idempotent re-restore).
      if (name == known) handle->add(value - handle->value());
    }
  }
  refresh_gauges();
}

core::Status ShardWorker::restore_state(std::span<const std::uint8_t> bytes) {
  if (!configured_) {
    return Status::failure(Errc::kNotReady, "worker awaits hello before restore");
  }
  auto decoded = decode_state(bytes, context_);
  if (!decoded.ok()) return Status{decoded.error()};
  commit_state(std::move(decoded).value());
  return core::ok_status();
}

// ---------------------------------------------------------------------------
// ShardedExchange
// ---------------------------------------------------------------------------

ShardedExchange::ShardedExchange(const sim::Scenario& scenario, ShardedConfig config)
    : scenario_(scenario), config_(std::move(config)) {
  plan_ = ShardPlan::build(scenario_.world(), config_.shards);
  config_.shards = plan_.shard_count;
  settlement_ = std::make_unique<VdxExchange>(scenario_, config_.exchange);
  background_loads_ = sim::place_background(scenario_);
  last_slices_.resize(plan_.shard_count);
  if (config_.link_faults.any()) {
    link_injector_ = std::make_unique<proto::FaultInjector>(config_.link_faults);
  }
  if (config_.backend == ShardBackend::kProcess) {
    // The WorkerMain runs post-fork: it must capture nothing and touch no
    // coordinator state (the child shares nothing but the socket).
    transport_ = std::make_unique<net::ProcessShardTransport>(
        plan_.shard_count, [](std::size_t shard, int fd) {
          return ShardWorker::serve_fd(static_cast<std::uint32_t>(shard), fd);
        });
  } else {
    if (config_.collect_threads != 1 && link_injector_ == nullptr) {
      pool_ = std::make_unique<core::ThreadPool>(config_.collect_threads);
    }
    transport_ = std::make_unique<net::InprocShardTransport>(
        plan_.shard_count,
        [](std::size_t shard) {
          auto worker =
              std::make_shared<ShardWorker>(static_cast<std::uint32_t>(shard));
          return [worker](std::span<const std::uint8_t> bytes) {
            return worker->handle_bytes(bytes);
          };
        },
        pool_.get());
  }

  counters_.rounds = shard_metrics_.counter("exchange.shard.rounds");
  counters_.frames = shard_metrics_.counter("exchange.shard.frames");
  counters_.retries = shard_metrics_.counter("exchange.shard.retries");
  counters_.rejects = shard_metrics_.counter("exchange.shard.rejects");
  counters_.restarts = shard_metrics_.counter("exchange.shard.restarts");
  counters_.stale_slices = shard_metrics_.counter("exchange.shard.stale_slices");
  counters_.skipped_pushes = shard_metrics_.counter("exchange.shard.skipped_pushes");
  counters_.shards = shard_metrics_.gauge("exchange.shard.shards");
  counters_.shards.set(static_cast<double>(plan_.shard_count));

  supervisor_ = resilience::Supervisor{config_.worker_restart, resilience_obs()};
  needs_resync_.assign(plan_.shard_count, 0);
  if (config_.link_breaker.enabled()) {
    link_breakers_.reserve(plan_.shard_count);
    for (std::size_t s = 0; s < plan_.shard_count; ++s) {
      link_breakers_.emplace_back(config_.link_breaker, resilience_obs(),
                                  static_cast<std::uint32_t>(s));
    }
  }

  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    if (auto status = send_hello(s); !status.ok()) {
      throw std::runtime_error{"ShardedExchange: hello to shard " +
                               std::to_string(s) + " failed: " +
                               status.error().message};
    }
  }
}

ShardedExchange::~ShardedExchange() = default;

obs::Observer ShardedExchange::resilience_obs() const noexcept {
  obs::Observer obs;
  obs.metrics = &shard_metrics_;
  obs.tracer = config_.exchange.obs.tracer;
  obs.journal = config_.exchange.obs.journal;
  return obs;
}

std::size_t ShardedExchange::open_breakers() const {
  std::size_t open = 0;
  for (const resilience::CircuitBreaker& breaker : link_breakers_) {
    if (breaker.open()) ++open;
  }
  return open;
}

bool ShardedExchange::shard_quarantined(std::size_t shard) const noexcept {
  if (link_breakers_.empty() || shard >= plan_.shard_count) return false;
  return link_breakers_[shard].open() || needs_resync_[shard] != 0;
}

proto::ShardHello ShardedExchange::hello_for(std::size_t shard) const {
  proto::ShardHello hello;
  hello.shard = static_cast<std::uint32_t>(shard);
  hello.shard_count = static_cast<std::uint32_t>(plan_.shard_count);
  hello.city_count = static_cast<std::uint32_t>(scenario_.world().cities().size());
  hello.plan_hash = plan_.hash();
  const auto clusters = scenario_.catalog().clusters();
  hello.cdn_of_cluster.reserve(clusters.size());
  for (const cdn::Cluster& cluster : clusters) {
    hello.cdn_of_cluster.push_back(cluster.cdn.value());
  }
  hello.journal_capacity = config_.worker_journal_capacity;
  return hello;
}

core::Status ShardedExchange::send_hello(std::size_t shard) const {
  ShardFrame frame;
  frame.type = ShardFrameType::kHello;
  frame.shard = static_cast<std::uint32_t>(shard);
  frame.payload = proto::encode_shard_hello(hello_for(shard));
  auto response = direct_call(shard, frame, /*recover=*/false);
  if (!response.ok()) return Status{response.error()};
  if (response.value().type != ShardFrameType::kAck) {
    return Status::failure(Errc::kCorruptFrame, "hello: unexpected response type");
  }
  return core::ok_status();
}

ShardedExchange::FrameResult ShardedExchange::direct_call(
    std::size_t shard, const proto::ShardFrame& request, bool recover) const {
  const auto bytes = proto::encode_shard_frame(request);
  counters_.frames.add();
  auto raw = transport_->roundtrip(shard, bytes);
  if (!raw.ok() && raw.error().code == Errc::kUnavailable && recover) {
    if (auto status = recover_worker(shard); !status.ok()) {
      return FrameResult{status.error()};
    }
    raw = transport_->roundtrip(shard, bytes);
  }
  if (!raw.ok()) return FrameResult{raw.error()};
  return decode_response(shard, raw.value());
}

ShardedExchange::FrameResult ShardedExchange::chaotic_call(
    std::size_t shard, const proto::ShardFrame& request) const {
  const auto request_bytes = proto::encode_shard_frame(request);
  // Link streams: shard s transmits on link s, receives on link N + s, so
  // the two legs draw from independent deterministic fault sequences.
  const std::size_t tx_link = shard;
  const std::size_t rx_link = plan_.shard_count + shard;
  for (std::size_t attempt = 0; attempt <= config_.max_link_retries; ++attempt) {
    if (attempt > 0) counters_.retries.add();
    auto tx_copies = link_injector_->apply(tx_link, request_bytes);
    if (tx_copies.empty()) continue;  // dropped on the wire
    counters_.frames.add(static_cast<double>(tx_copies.size()));
    // Deliver EVERY copy the injector emitted: a duplicated frame really
    // reaches the worker twice, exercising per-round idempotency end to end.
    // The coordinator acts on the response to the LAST copy delivered;
    // earlier copies' responses are stale and discarded unread, so the rx
    // fault stream still advances exactly once per attempt.
    core::Result<std::vector<std::uint8_t>> raw =
        transport_->roundtrip(shard, tx_copies.front().bytes);
    for (std::size_t c = 1; c < tx_copies.size() && raw.ok(); ++c) {
      raw = transport_->roundtrip(shard, tx_copies[c].bytes);
    }
    if (!raw.ok()) {
      if (raw.error().code == Errc::kUnavailable) {
        if (auto status = recover_worker(shard); !status.ok()) {
          return FrameResult{status.error()};
        }
        continue;
      }
      return FrameResult{raw.error()};
    }
    auto rx_copies = link_injector_->apply(rx_link, raw.value());
    if (rx_copies.empty()) continue;  // response dropped
    // A duplicated response doesn't re-execute anything — the receiving end
    // simply consumes the last copy delivered. kCorruptFrame means either
    // leg was mutated in flight (the response here, or the request at the
    // worker): retry intact.
    auto response = decode_response(shard, rx_copies.back().bytes);
    if (!response.ok() && response.error().code == Errc::kCorruptFrame) {
      counters_.rejects.add();
      continue;
    }
    return response;
  }
  return FrameResult::failure(
      Errc::kTimeout, "shard " + std::to_string(shard) +
                          ": link retry budget exhausted under chaos");
}

ShardedExchange::FrameResult ShardedExchange::data_call(
    std::size_t shard, const proto::ShardFrame& request) const {
  return link_injector_ != nullptr ? chaotic_call(shard, request)
                                   : direct_call(shard, request, /*recover=*/true);
}

core::Result<std::vector<proto::ShardFrame>> ShardedExchange::data_broadcast(
    const std::vector<proto::ShardFrame>& requests) const {
  using R = core::Result<std::vector<proto::ShardFrame>>;
  std::vector<proto::ShardFrame> out;
  out.reserve(requests.size());
  if (link_injector_ != nullptr) {
    // Chaos keeps the coordinator serial and in shard order: the injector's
    // per-link RNG streams are ordered state, and determinism wins over
    // overlap here.
    for (std::size_t s = 0; s < requests.size(); ++s) {
      auto response = chaotic_call(s, requests[s]);
      if (!response.ok()) return R{response.error()};
      out.push_back(std::move(response).value());
    }
    return out;
  }
  std::vector<std::vector<std::uint8_t>> encoded;
  encoded.reserve(requests.size());
  for (const ShardFrame& frame : requests) {
    encoded.push_back(proto::encode_shard_frame(frame));
  }
  counters_.frames.add(static_cast<double>(requests.size()));
  auto raw = transport_->broadcast(encoded);
  for (std::size_t s = 0; s < raw.size(); ++s) {
    if (!raw[s].ok() && raw[s].error().code == Errc::kUnavailable) {
      if (auto status = recover_worker(s); !status.ok()) {
        return R{status.error()};
      }
      raw[s] = transport_->roundtrip(s, encoded[s]);
    }
    if (!raw[s].ok()) return R{raw[s].error()};
    auto response = decode_response(s, raw[s].value());
    if (!response.ok()) return R{response.error()};
    out.push_back(std::move(response).value());
  }
  return out;
}

core::Status ShardedExchange::recover_worker(std::size_t shard) const {
  auto status = try_recover_worker(shard);
  if (!status.ok()) {
    // A worker that failed recovery must not linger half-initialized: a
    // respawned worker without its slice would book allocations against
    // empty demand. Keep it dead so every subsequent call fails typed
    // instead.
    transport_->kill(shard);
  }
  return status;
}

core::Status ShardedExchange::try_recover_worker(std::size_t shard) const {
  // The supervisor owns the restart budget: a denied respawn fails typed so
  // the caller (breaker-aware paths quarantine; legacy paths fail closed)
  // sees kUnavailable instead of a free respawn loop. The default policy is
  // unbounded and immediate, matching the pre-supervisor behavior.
  switch (supervisor_.on_failure(static_cast<std::uint32_t>(shard),
                                 settlement_->rounds_completed())) {
    case resilience::RestartDecision::kRestart:
      break;
    case resilience::RestartDecision::kBackoff:
      return Status::failure(
          Errc::kUnavailable,
          "shard " + std::to_string(shard) + ": restart backoff until round " +
              std::to_string(supervisor_.retry_at(static_cast<std::uint32_t>(shard))));
    case resilience::RestartDecision::kGiveUp:
      return Status::failure(Errc::kUnavailable,
                             "shard " + std::to_string(shard) +
                                 ": restart budget exhausted for this window");
  }
  if (auto status = transport_->respawn(shard); !status.ok()) return status;
  ++worker_restarts_;
  counters_.restarts.add();
  if (auto status = send_hello(shard); !status.ok()) return status;
  // The respawned worker starts with an empty journal and gets its cached
  // slice back; settlement never reads it.
  ShardFrame push;
  push.type = ShardFrameType::kSetDemand;
  push.shard = static_cast<std::uint32_t>(shard);
  push.payload = proto::encode_shard_groups(last_slices_[shard]);
  auto response = direct_call(shard, push, /*recover=*/false);
  if (!response.ok()) return Status{response.error()};
  supervisor_.on_success(static_cast<std::uint32_t>(shard));
  return core::ok_status();
}

std::vector<std::vector<proto::ShardGroup>> ShardedExchange::slice_demand(
    std::span<const broker::ClientGroup> groups) const {
  std::vector<std::vector<proto::ShardGroup>> slices(plan_.shard_count);
  for (std::size_t i = 0; i < groups.size(); ++i) {
    const broker::ClientGroup& group = groups[i];
    if (group.id.value() != i) {
      throw std::invalid_argument{
          "ShardedExchange: demand group ids must be dense (== index)"};
    }
    if (group.city.value() >= plan_.shard_of_city.size()) {
      throw std::invalid_argument{"ShardedExchange: demand references unknown city"};
    }
    slices[plan_.shard_of(group.city)].push_back(
        proto::ShardGroup{static_cast<std::uint32_t>(i), group});
  }
  return slices;
}

core::Status ShardedExchange::push_slice_to(std::size_t shard) const {
  ShardFrame frame;
  frame.type = ShardFrameType::kSetDemand;
  frame.shard = static_cast<std::uint32_t>(shard);
  frame.payload = proto::encode_shard_groups(last_slices_[shard]);
  auto response = data_call(shard, frame);
  if (!response.ok()) return Status{response.error()};
  if (response.value().type != ShardFrameType::kAck) {
    return Status::failure(Errc::kCorruptFrame,
                           "set_demand: unexpected response type");
  }
  return core::ok_status();
}

core::Status ShardedExchange::push_demand_slices() const {
  // Every shard owes an ack for the new slices: its flag stays up until its
  // own push lands, so a shard the loop never reached cannot pass for fresh.
  std::fill(needs_resync_.begin(), needs_resync_.end(), 1);
  return resync_flagged(settlement_->rounds_completed());
}

/// A successful push of the current slice is the only thing that clears
/// needs_resync_, because only a push proves the worker's demand matches
/// the coordinator cache again. Under the breaker this is the half-open
/// probe; without it a shard that still cannot take its slice fails the
/// call rather than settle a round it would book against an older slice.
core::Status ShardedExchange::resync_flagged(std::uint64_t round) const {
  const bool breakers = breaker_active();
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    if (needs_resync_[s] == 0) continue;
    if (breakers && !link_breakers_[s].allow(round)) {
      // Quarantined: leave the shard alone instead of burning the link
      // retry budget, until a half-open probe lands a fresh push.
      counters_.skipped_pushes.add();
      continue;
    }
    auto pushed = push_slice_to(s);
    if (pushed.ok()) {
      if (breakers) link_breakers_[s].on_success(round);
      needs_resync_[s] = 0;
    } else if (breakers) {
      link_breakers_[s].on_failure(round);
    } else {
      return pushed;
    }
  }
  return core::ok_status();
}

core::Status ShardedExchange::feed(
    std::span<const broker::ClientGroup> groups,
    std::vector<std::vector<proto::ShardGroup>> slices) {
  last_slices_ = std::move(slices);
  fed_ = true;
  auto pushed = push_demand_slices();
  // The settlement takes the demand on every feed, pushed or not, as a
  // monolith does: its broker keeps the post-shed demand between feeds, so
  // only a feed may replace it. (The order changes no output; handing the
  // demand over after the pushes rather than before measured 10-20% faster
  // shard-churn rounds under the benchmark's fixed address layout.)
  settlement_->set_active_load(groups, background_loads_);
  return pushed;
}

void ShardedExchange::set_active_load(std::span<const broker::ClientGroup> groups,
                                      std::span<const double> background_loads) {
  if (background_loads.size() != scenario_.catalog().clusters().size()) {
    throw std::invalid_argument{
        "ShardedExchange::set_active_load: loads arity mismatch"};
  }
  if (session_fed_) {
    throw std::logic_error{
        "ShardedExchange: exchange is session-fed; set_active_load is exclusive"};
  }
  auto slices = slice_demand(groups);
  background_loads_.assign(background_loads.begin(), background_loads.end());
  if (auto status = feed(groups, std::move(slices)); !status.ok()) {
    throw std::runtime_error{"ShardedExchange::set_active_load: " +
                             status.error().message};
  }
}

core::Status ShardedExchange::validate_delta(
    std::span<const proto::ShardSessionAdd> adds) const {
  const auto conflict = [](std::uint32_t id, const char* how) {
    return invalid("push_session_delta: session " + std::to_string(id) + how);
  };
  for (const proto::ShardSessionAdd& add : adds) {
    if (!std::isfinite(add.bitrate_mbps) || add.bitrate_mbps <= 0.0) {
      return invalid("push_session_delta: bitrate must be finite and > 0");
    }
    if (add.city >= plan_.shard_of_city.size()) {
      return invalid("push_session_delta: unknown city " + std::to_string(add.city));
    }
    if (add.id == UINT32_MAX) {
      return conflict(add.id, " uses the reserved id");
    }
    if (const auto slot = book_.slot_of(add.id);
        slot && (book_.city_of_slot(*slot).value() != add.city ||
                 book_.bitrate_of_slot(*slot) != add.bitrate_mbps)) {
      return conflict(add.id, " re-added with different city/bitrate");
    }
  }
  // Same-batch copies of one id must agree too. Batches usually arrive in
  // ascending id order, which rules copies out without sorting.
  if (std::adjacent_find(adds.begin(), adds.end(),
                         [](const proto::ShardSessionAdd& a,
                            const proto::ShardSessionAdd& b) {
                           return a.id >= b.id;
                         }) == adds.end()) {
    return core::ok_status();
  }
  std::vector<proto::ShardSessionAdd> sorted{adds.begin(), adds.end()};
  std::sort(sorted.begin(), sorted.end(),
            [](const proto::ShardSessionAdd& a, const proto::ShardSessionAdd& b) {
              return a.id < b.id;
            });
  for (std::size_t i = 1; i < sorted.size(); ++i) {
    if (sorted[i].id == sorted[i - 1].id && sorted[i] != sorted[i - 1]) {
      return conflict(sorted[i].id, " added twice with different city/bitrate");
    }
  }
  return core::ok_status();
}

core::Status ShardedExchange::push_session_delta(
    std::span<const proto::ShardSessionAdd> adds,
    std::span<const std::uint32_t> removes) {
  if (fed_ && !session_fed_) {
    return invalid(
        "ShardedExchange: exchange holds explicit demand; session deltas are "
        "exclusive");
  }
  if (auto status = validate_delta(adds); !status.ok()) return status;
  // Adds before removes: a remove in the same batch as its add cancels it.
  for (const proto::ShardSessionAdd& add : adds) {
    if (book_.slot_of(add.id)) continue;  // identical re-add
    book_.admit(add.id, geo::CityId{add.city}, add.bitrate_mbps, kForever, 0.0);
  }
  for (const std::uint32_t id : removes) (void)book_.remove(id);
  session_fed_ = true;
  const auto groups = book_.groups();
  return feed(groups, slice_demand(groups));
}

core::Status ShardedExchange::ensure_fed() {
  if (fed_) return core::ok_status();
  // Default demand, exactly like the monolith: the scenario's broker groups
  // against the placed background load.
  const auto& groups = scenario_.broker_groups();
  return feed(groups, slice_demand(groups));
}

core::Status ShardedExchange::broadcast_allocation(std::uint64_t round) {
  const auto placements = settlement_->placements();
  const auto demand = settlement_->active_demand();
  std::vector<std::vector<proto::ShardPlacement>> slices(plan_.shard_count);
  for (const sim::Placement& p : placements) {
    const broker::ClientGroup& group = demand[p.group];
    proto::ShardPlacement out;
    out.global_group = static_cast<std::uint32_t>(p.group);
    out.cluster = p.cluster.value();
    out.clients = p.clients;
    out.price = p.price;
    out.score = p.score;
    out.bitrate_mbps = group.bitrate_mbps;
    slices[plan_.shard_of(group.city)].push_back(out);
  }
  std::vector<ShardFrame> requests(plan_.shard_count);
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    requests[s].type = ShardFrameType::kAllocation;
    requests[s].shard = static_cast<std::uint32_t>(s);
    requests[s].round = round;
    requests[s].payload = proto::encode_allocation(slices[s]);
  }

  if (breaker_active()) {
    // A quarantined shard misses its allocation slice (it re-syncs later);
    // a live shard that fails here trips its breaker. Either way the round
    // closes — allocation fan-out is worker-side bookkeeping, settlement
    // bytes are already committed.
    for (std::size_t s = 0; s < plan_.shard_count; ++s) {
      if (needs_resync_[s] != 0 || link_breakers_[s].open()) continue;
      auto response = data_call(s, requests[s]);
      bool acked = false;
      if (response.ok() && response.value().type == ShardFrameType::kAck) {
        auto value = proto::decode_shard_ack(response.value().payload);
        acked = value.ok() && value.value() == round;
      }
      if (acked) {
        link_breakers_[s].on_success(round);
      } else {
        link_breakers_[s].on_failure(round);
        needs_resync_[s] = 1;
      }
    }
    return core::ok_status();
  }

  auto responses = data_broadcast(requests);
  if (!responses.ok()) return Status{responses.error()};
  for (std::size_t s = 0; s < responses.value().size(); ++s) {
    const ShardFrame& frame = responses.value()[s];
    if (frame.type != ShardFrameType::kAck) {
      return Status::failure(Errc::kCorruptFrame,
                             "allocation: unexpected response type from shard " +
                                 std::to_string(s));
    }
    auto acked = proto::decode_shard_ack(frame.payload);
    if (!acked.ok()) return Status{acked.error()};
    if (acked.value() != round) {
      return Status::failure(Errc::kCorruptFrame,
                             "allocation: shard " + std::to_string(s) +
                                 " acked round " + std::to_string(acked.value()) +
                                 " instead of " + std::to_string(round));
    }
  }
  return core::ok_status();
}

core::Result<RoundReport> ShardedExchange::try_run_round() {
  using R = core::Result<RoundReport>;
  if (auto status = ensure_fed(); !status.ok()) return R{status.error()};
  const std::uint64_t round = settlement_->rounds_completed();

  // Shards that missed their current slice, or died since their last
  // push, are re-pushed first (a dead worker is respawned on the way), so
  // every worker that gets this round's allocation holds the slice the
  // settlement priced. Under the breaker this is the half-open probe: a
  // quarantined shard that accepts the push rejoins in the same round.
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    if (!transport_->alive(s)) needs_resync_[s] = 1;
  }
  if (auto status = resync_flagged(round); !status.ok()) return R{status.error()};

  // Settlement reads the coordinator's demand, so a shard still flagged
  // here (quarantined) changes no settlement byte; the journal records it.
  bool any_stale = false;
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    if (needs_resync_[s] == 0) continue;
    any_stale = true;
    counters_.stale_slices.add();
    resilience_obs().record(obs::EventKind::kStaleBid, static_cast<std::uint32_t>(s),
                            static_cast<double>(last_slices_[s].size()));
  }
  if (any_stale) ++stale_rounds_;

  RoundReport report = settlement_->run_round();

  if (auto status = broadcast_allocation(round); !status.ok()) {
    return R{status.error()};
  }
  counters_.rounds.add();
  return report;
}

RoundReport ShardedExchange::run_round() {
  auto report = try_run_round();
  if (!report.ok()) {
    throw std::runtime_error{"ShardedExchange::run_round: " +
                             report.error().message};
  }
  return std::move(report).value();
}

std::vector<RoundReport> ShardedExchange::run(std::size_t rounds) {
  std::vector<RoundReport> reports;
  reports.reserve(rounds);
  for (std::size_t i = 0; i < rounds; ++i) reports.push_back(run_round());
  return reports;
}

void ShardedExchange::set_demand_budget(double budget_mbps) {
  settlement_->set_demand_budget(budget_mbps);
}

double ShardedExchange::demand_budget() const {
  return settlement_->demand_budget();
}

std::size_t ShardedExchange::rounds_completed() const {
  return settlement_->rounds_completed();
}

core::Result<proto::DeliveryOutcome> ShardedExchange::deliver(
    std::uint32_t session_id, geo::CityId city, double bitrate_mbps) {
  return settlement_->deliver(session_id, city, bitrate_mbps);
}

const obs::MetricsRegistry& ShardedExchange::metrics() const {
  return settlement_->metrics();
}

void ShardedExchange::set_failed(cdn::CdnId cdn, bool failed) {
  settlement_->set_failed(cdn, failed);
}

void ShardedExchange::set_fraudulent(cdn::CdnId cdn, bool fraudulent) {
  settlement_->set_fraudulent(cdn, fraudulent);
}

void ShardedExchange::kill_worker(std::size_t shard) {
  transport_->kill(shard);
}

bool ShardedExchange::worker_alive(std::size_t shard) const noexcept {
  return transport_->alive(shard);
}

proto::FaultCounters ShardedExchange::link_fault_counters() const noexcept {
  return link_injector_ != nullptr ? link_injector_->counters()
                                   : proto::FaultCounters{};
}

core::Result<std::vector<obs::Event>> ShardedExchange::merged_worker_journal()
    const {
  using R = core::Result<std::vector<obs::Event>>;
  std::vector<obs::JournalSlice> slices;
  slices.reserve(plan_.shard_count);
  for (std::size_t s = 0; s < plan_.shard_count; ++s) {
    ShardFrame frame;
    frame.type = ShardFrameType::kJournalRequest;
    frame.shard = static_cast<std::uint32_t>(s);
    auto response = direct_call(s, frame, /*recover=*/true);
    if (!response.ok()) return R{response.error()};
    if (response.value().type != ShardFrameType::kJournalSlice) {
      return R::failure(Errc::kCorruptFrame,
                        "journal request: unexpected response type");
    }
    auto slice = proto::decode_journal_slice(response.value().payload);
    if (!slice.ok()) return R{slice.error()};
    slices.push_back(obs::JournalSlice{static_cast<std::uint32_t>(s),
                                       slice.value().total_recorded,
                                       std::move(slice.value().events)});
  }
  return obs::merge_journal_slices(slices);
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> ShardedExchange::encode_coordinator_core() const {
  proto::ByteWriter w;
  w.write_u64(static_cast<std::uint64_t>(settlement_->rounds_completed()));
  w.write_u32(static_cast<std::uint32_t>(plan_.shard_count));
  w.write_u64(plan_.hash());
  w.write_u8(fed_ ? 1 : 0);
  w.write_u8(session_fed_ ? 1 : 0);
  w.write_u32(static_cast<std::uint32_t>(background_loads_.size()));
  for (const double load : background_loads_) w.write_f64(load);
  // The session book in its canonical id order (every end is +inf).
  const state::StreamCursor book = book_.cursor();
  w.write_u32(static_cast<std::uint32_t>(book.active.size()));
  for (const state::ActiveSession& session : book.active) {
    w.write_u32(session.id);
    w.write_u32(session.city);
    w.write_f64(session.bitrate_mbps);
  }
  return w.take();
}

std::vector<std::uint8_t> ShardedExchange::encode_slices() const {
  proto::ByteWriter w;
  w.write_u32(static_cast<std::uint32_t>(last_slices_.size()));
  for (const auto& slice : last_slices_) {
    const auto bytes = proto::encode_shard_groups(slice);
    w.write_u32(static_cast<std::uint32_t>(bytes.size()));
    w.write_bytes(bytes);
  }
  return w.take();
}

core::Result<std::vector<std::uint8_t>> ShardedExchange::try_save_state() const {
  using R = core::Result<std::vector<std::uint8_t>>;
  state::SnapshotWriter writer;
  add_version(writer, kCoordVersionSection, kCoordinatorSnapshotVersion);
  writer.add_section(kCoordCoreSection, encode_coordinator_core());
  writer.add_section(kCoordSettlementSection, settlement_->save_state());
  writer.add_section(kCoordSlicesSection, encode_slices());
  {
    proto::ByteWriter w;
    w.write_u32(static_cast<std::uint32_t>(plan_.shard_count));
    for (std::size_t s = 0; s < plan_.shard_count; ++s) {
      ShardFrame frame;
      frame.type = ShardFrameType::kStateRequest;
      frame.shard = static_cast<std::uint32_t>(s);
      auto response = direct_call(s, frame, /*recover=*/true);
      if (!response.ok()) {
        return R::failure(response.error().code,
                          "save_state: shard " + std::to_string(s) +
                              " state unavailable: " + response.error().message);
      }
      if (response.value().type != ShardFrameType::kStateResponse) {
        return R::failure(Errc::kCorruptFrame,
                          "save_state: shard " + std::to_string(s) +
                              " returned an unexpected frame type");
      }
      w.write_u32(static_cast<std::uint32_t>(response.value().payload.size()));
      w.write_bytes(response.value().payload);
    }
    writer.add_section(kCoordWorkersSection, w.take());
  }
  return writer.finish();
}

std::vector<std::uint8_t> ShardedExchange::save_state() const {
  auto state = try_save_state();
  if (!state.ok()) {
    throw std::runtime_error{"ShardedExchange::save_state: " +
                             state.error().message};
  }
  return std::move(state).value();
}

core::Status ShardedExchange::restore_state(std::span<const std::uint8_t> bytes) {
  auto parsed = state::SnapshotView::parse(bytes);
  if (!parsed.ok()) return Status{parsed.error()};
  const state::SnapshotView& view = parsed.value();
  if (auto status = check_version(view, kCoordVersionSection,
                                  kCoordinatorSnapshotVersion, "coordinator");
      !status.ok()) {
    return status;
  }
  const state::Section* core_section = view.find(kCoordCoreSection);
  const state::Section* settlement_section = view.find(kCoordSettlementSection);
  const state::Section* slices_section = view.find(kCoordSlicesSection);
  const state::Section* workers_section = view.find(kCoordWorkersSection);
  if (core_section == nullptr || settlement_section == nullptr ||
      slices_section == nullptr || workers_section == nullptr) {
    return corrupt_snapshot("coordinator snapshot: missing section");
  }

  // Decode and check everything into locals before mutating anything.
  CoordinatorCore core;
  std::vector<std::vector<proto::ShardGroup>> slices;
  std::vector<std::vector<std::uint8_t>> worker_states;
  try {
    proto::ByteReader r{core_section->bytes};
    (void)r.read_u64();  // rounds: the settlement section carries its own
    const std::uint32_t shard_count = r.read_u32();
    const std::uint64_t plan_hash = r.read_u64();
    if (shard_count != plan_.shard_count || plan_hash != plan_.hash()) {
      return invalid("coordinator snapshot: taken under a different shard plan");
    }
    core.fed = r.read_u8() != 0;
    core.session_fed = r.read_u8() != 0;
    const std::uint32_t load_count = r.read_u32();
    if (load_count != scenario_.catalog().clusters().size()) {
      return invalid("coordinator snapshot: cluster arity mismatch");
    }
    core.background_loads.reserve(load_count);
    for (std::uint32_t i = 0; i < load_count; ++i) {
      core.background_loads.push_back(r.read_f64());
      if (!finite_nonneg(core.background_loads.back())) {
        return corrupt_snapshot("coordinator snapshot: background load of cluster " +
                                std::to_string(i) + " is not finite and >= 0");
      }
    }
    const std::size_t book_count = r.read_count_u32(16);
    core.book.reserve(book_count);
    for (std::size_t i = 0; i < book_count; ++i) {
      state::ActiveSession session;
      session.id = r.read_u32();
      session.city = r.read_u32();
      session.bitrate_mbps = r.read_f64();
      session.end_s = kForever;
      // Exactly what push_session_delta could have admitted, in id order.
      if ((i > 0 && session.id <= core.book.back().id) || session.id == UINT32_MAX ||
          session.city >= plan_.shard_of_city.size() ||
          !std::isfinite(session.bitrate_mbps) || session.bitrate_mbps <= 0.0) {
        return corrupt_snapshot("coordinator snapshot: invalid session " +
                                std::to_string(session.id));
      }
      core.book.push_back(session);
    }
    if (!r.exhausted()) {
      return corrupt_snapshot("coordinator snapshot: trailing core bytes");
    }

    proto::ByteReader slice_reader{slices_section->bytes};
    if (slice_reader.read_u32() != plan_.shard_count) {
      return invalid("coordinator snapshot: slice arity mismatch");
    }
    slices.resize(plan_.shard_count);
    for (auto& slice : slices) {
      const std::uint32_t len = slice_reader.read_u32();
      auto decoded = proto::decode_shard_groups(slice_reader.read_bytes(len));
      if (!decoded.ok()) return Status{decoded.error()};
      slice = std::move(decoded).value();
    }
    if (!slice_reader.exhausted()) {
      return corrupt_snapshot("coordinator snapshot: trailing slice bytes");
    }

    proto::ByteReader worker_reader{workers_section->bytes};
    if (worker_reader.read_u32() != plan_.shard_count) {
      return invalid("coordinator snapshot: worker state arity mismatch");
    }
    worker_states.reserve(plan_.shard_count);
    for (std::size_t s = 0; s < plan_.shard_count; ++s) {
      const std::uint32_t len = worker_reader.read_u32();
      const auto state_bytes = worker_reader.read_bytes(len);
      worker_states.emplace_back(state_bytes.begin(), state_bytes.end());
    }
    if (!worker_reader.exhausted()) {
      return corrupt_snapshot("coordinator snapshot: trailing worker bytes");
    }
  } catch (const proto::WireError& e) {
    return corrupt_snapshot(std::string{"coordinator snapshot: "} + e.what());
  }
  // A checksum-valid snapshot can still carry slices no worker would take;
  // refuse them here rather than fail (or, under the breaker, quarantine a
  // shard) at every later push.
  if (auto status = check_restored_slices(plan_, slices); !status.ok()) return status;
  // Every worker state must be one its worker would accept, checked before
  // the settlement is touched: a worker that rejects its state after the
  // commit would leave the exchange half-restored.
  for (std::size_t s = 0; s < worker_states.size(); ++s) {
    auto decoded = ShardWorker::decode_state(worker_states[s], hello_for(s));
    if (!decoded.ok()) {
      return Status::failure(decoded.error().code, "shard " + std::to_string(s) +
                                                       ": " + decoded.error().message);
    }
  }

  // The settlement exchange restores atomically (its own contract); commit
  // the coordinator state only after it succeeded.
  if (auto status = settlement_->restore_state(settlement_section->bytes);
      !status.ok()) {
    return status;
  }
  fed_ = core.fed;
  session_fed_ = core.session_fed;
  background_loads_ = std::move(core.background_loads);
  book_.restore(core.book);
  last_slices_ = std::move(slices);
  // Whatever slice each worker ends up holding, the next round re-pushes the
  // restored cache before it settles.
  std::fill(needs_resync_.begin(), needs_resync_.end(), 1);

  for (std::size_t s = 0; s < worker_states.size(); ++s) {
    ShardFrame frame;
    frame.type = ShardFrameType::kRestoreState;
    frame.shard = static_cast<std::uint32_t>(s);
    frame.payload = std::move(worker_states[s]);
    auto response = direct_call(s, frame, /*recover=*/true);
    if (!response.ok()) return Status{response.error()};
  }
  return core::ok_status();
}

}  // namespace vdx::market
