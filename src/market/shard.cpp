#include "market/shard.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "proto/wire.hpp"
#include "sim/designs.hpp"
#include "sim/scenario.hpp"
#include "state/snapshot.hpp"

namespace vdx::market {
namespace {

using core::Errc;
using core::Status;

constexpr std::uint32_t kVersionSection = 29;
constexpr std::uint32_t kBookSection = 30;
constexpr std::uint32_t kSettlementSection = 31;
// Version 1 (per-shard session ledgers, no version section) became version
// 2 when the session book moved to the coordinator, version 3 when the
// collect round trip was retired, and version 4 when the worker plane went:
// the slice cache, the worker states, the shard plan and the background
// loads left the image, and the core section became the bare book.
constexpr std::uint32_t kSnapshotVersion = 4;

/// Book sessions never depart on their own; push_session_delta removes them.
constexpr double kForever = std::numeric_limits<double>::infinity();

[[nodiscard]] Status invalid(std::string message) {
  return Status::failure(Errc::kInvalidArgument, std::move(message));
}

[[nodiscard]] Status corrupt_snapshot(std::string message) {
  return Status::failure(Errc::kCorruptSnapshot, std::move(message));
}

/// kVersionMismatch unless the snapshot carries kSnapshotVersion; a
/// snapshot without the section is version 1.
[[nodiscard]] Status check_version(const state::SnapshotView& view) {
  std::uint32_t found = 1;
  if (const state::Section* s = view.find(kVersionSection); s != nullptr) {
    if (s->bytes.size() != sizeof(std::uint32_t)) {
      return corrupt_snapshot("session exchange snapshot: malformed version section");
    }
    found = proto::ByteReader{s->bytes}.read_u32();
  }
  if (found == kSnapshotVersion) return core::ok_status();
  return Status::failure(Errc::kVersionMismatch,
                         "session exchange snapshot format version " +
                             std::to_string(found) + " (this build reads version " +
                             std::to_string(kSnapshotVersion) + ")");
}

}  // namespace

ShardedExchange::ShardedExchange(const sim::Scenario& scenario, ShardedConfig config)
    : scenario_(scenario),
      settlement_(std::make_unique<VdxExchange>(scenario, std::move(config.exchange))),
      background_loads_(sim::place_background(scenario)) {}

ShardedExchange::~ShardedExchange() = default;

RoundReport ShardedExchange::run_round() { return settlement_->run_round(); }

core::Result<RoundReport> ShardedExchange::try_run_round() { return run_round(); }

core::Status ShardedExchange::validate_delta(
    std::span<const proto::ShardSessionAdd> adds) const {
  const auto conflict = [](std::uint32_t id, const char* how) {
    return invalid("push_session_delta: session " + std::to_string(id) + how);
  };
  const std::size_t cities = scenario_.world().cities().size();
  for (const proto::ShardSessionAdd& add : adds) {
    if (!std::isfinite(add.bitrate_mbps) || add.bitrate_mbps <= 0.0) {
      return invalid("push_session_delta: bitrate must be finite and > 0");
    }
    if (add.city >= cities) {
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
  if (auto status = validate_delta(adds); !status.ok()) return status;
  // Adds before removes: a remove in the same batch as its add cancels it.
  for (const proto::ShardSessionAdd& add : adds) {
    if (book_.slot_of(add.id)) continue;  // identical re-add
    book_.admit(add.id, geo::CityId{add.city}, add.bitrate_mbps, kForever, 0.0);
  }
  for (const std::uint32_t id : removes) (void)book_.remove(id);
  settlement_->set_active_load(book_.groups(), background_loads_);
  return core::ok_status();
}

// ---------------------------------------------------------------------------
// Checkpoint / resume
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> ShardedExchange::save_state() const {
  state::SnapshotWriter writer;
  {
    proto::ByteWriter w;
    w.write_u32(kSnapshotVersion);
    writer.add_section(kVersionSection, w.take());
  }
  {
    // The book in its canonical id order (every end is +inf).
    const state::StreamCursor book = book_.cursor();
    proto::ByteWriter w;
    w.write_u32(static_cast<std::uint32_t>(book.active.size()));
    for (const state::ActiveSession& session : book.active) {
      w.write_u32(session.id);
      w.write_u32(session.city);
      w.write_f64(session.bitrate_mbps);
    }
    writer.add_section(kBookSection, w.take());
  }
  writer.add_section(kSettlementSection, settlement_->save_state());
  return writer.finish();
}

core::Status ShardedExchange::restore_state(std::span<const std::uint8_t> bytes) {
  auto parsed = state::SnapshotView::parse(bytes);
  if (!parsed.ok()) return Status{parsed.error()};
  const state::SnapshotView& view = parsed.value();
  if (auto status = check_version(view); !status.ok()) return status;
  const state::Section* book_section = view.find(kBookSection);
  const state::Section* settlement_section = view.find(kSettlementSection);
  if (book_section == nullptr || settlement_section == nullptr) {
    return corrupt_snapshot("session exchange snapshot: missing section");
  }

  // Decode and check the book before mutating anything.
  std::vector<state::ActiveSession> book;
  try {
    proto::ByteReader r{book_section->bytes};
    const std::size_t count = r.read_count_u32(16);
    book.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      state::ActiveSession session;
      session.id = r.read_u32();
      session.city = r.read_u32();
      session.bitrate_mbps = r.read_f64();
      session.end_s = kForever;
      // Ids strictly ascending and never the reserved one: what
      // push_session_delta could have admitted, in canonical order.
      if ((i > 0 && session.id <= book.back().id) || session.id == UINT32_MAX) {
        return corrupt_snapshot("session exchange snapshot: invalid session " +
                                std::to_string(session.id));
      }
      book.push_back(session);
    }
    if (!r.exhausted()) {
      return corrupt_snapshot("session exchange snapshot: trailing book bytes");
    }
  } catch (const proto::WireError& e) {
    return corrupt_snapshot(std::string{"session exchange snapshot: "} + e.what());
  }
  if (auto status = sim::check_restorable(book, scenario_.world().cities().size());
      !status.ok()) {
    return status;
  }

  // The settlement restores atomically (its own contract); commit the book
  // only after it succeeded.
  if (auto status = settlement_->restore_state(settlement_section->bytes);
      !status.ok()) {
    return status;
  }
  book_.restore(book);
  return core::ok_status();
}

}  // namespace vdx::market
