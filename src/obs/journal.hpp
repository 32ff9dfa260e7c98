// RunJournal: a bounded ring of structured run events (DESIGN.md §7).
//
// Where metrics aggregate and spans time, the journal *narrates*: every
// consequential decision-path event — bids landing, messages timing out,
// stale bids substituted, rounds degraded, sessions failing over — becomes
// one fixed-schema Event. The ring keeps the most recent `capacity` events
// (overwrites are counted, never silent), exports as JSONL or CSV, parses
// its own JSONL back (round-trip tested), and renders a compact end-of-run
// summary table of event counts.
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <optional>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "core/result.hpp"
#include "core/table.hpp"

namespace vdx::obs {

enum class EventKind : std::uint8_t {
  kRoundStart,
  kRoundEnd,
  kBid,
  kRetry,
  kTimeout,
  kDecodeReject,
  kStaleBid,
  kQuorumMiss,
  kDegradedRound,
  kFailover,
  kSolve,
  kEpoch,
  kCheckpoint,
  kResume,
  kShed,
  kSupplyShift,
  kAdmit,
  kDrain,
  kBreakerOpen,
  kBreakerHalfOpen,
  kBreakerClose,
  kBrownoutStep,
  kCheckpointSkip,
  // No producer since the shard-worker supervisor was retired; kept so the
  // kind bytes and names of every later kind stay stable.
  kRestartDenied,
  kCustom,  // must stay last: the checkpoint codec bounds kind bytes by it
};

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;
[[nodiscard]] std::optional<EventKind> event_kind_from(std::string_view name) noexcept;

struct Event {
  EventKind kind = EventKind::kCustom;
  /// Monotonic position in the run (assigned by the journal; survives
  /// ring overwrites, so gaps in an exported window are detectable).
  std::uint64_t seq = 0;
  /// Engine logical clock when recorded (0 when no tracer drives one).
  std::uint64_t logical = 0;
  /// Exchange round the event belongs to.
  std::uint32_t round = 0;
  /// Event-specific id (CDN/link/cluster/backend); kNoSubject when n/a.
  std::uint32_t subject = UINT32_MAX;
  /// Event-specific payload (count, Mbps, ticks, ...).
  double value = 0.0;

  friend bool operator==(const Event&, const Event&) = default;
};

class RunJournal {
 public:
  static constexpr std::uint32_t kNoSubject = UINT32_MAX;

  explicit RunJournal(std::size_t capacity = 4096);

  /// Sets the ambient round stamped onto subsequent events; the exchange
  /// calls this once per round so lower layers need no round plumbing.
  void begin_round(std::uint32_t round) noexcept { round_ = round; }
  [[nodiscard]] std::uint32_t current_round() const noexcept { return round_; }

  void record(EventKind kind, std::uint32_t subject = kNoSubject,
              double value = 0.0, std::uint64_t logical = 0);

  /// Events currently retained, oldest first (handles wraparound).
  [[nodiscard]] std::vector<Event> events() const;
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] std::size_t capacity() const noexcept { return buffer_.size(); }
  [[nodiscard]] std::uint64_t total_recorded() const noexcept { return total_; }
  /// Events pushed out of the ring by newer ones.
  [[nodiscard]] std::uint64_t overwritten() const noexcept {
    return total_ > buffer_.size() ? total_ - buffer_.size() : 0;
  }

  void write_jsonl(std::ostream& out) const;
  void write_csv(std::ostream& out) const;
  /// Parses write_jsonl() output; throws std::runtime_error on malformed
  /// input. write_jsonl -> read_jsonl round-trips exactly.
  [[nodiscard]] static std::vector<Event> read_jsonl(std::istream& in);

  /// Restores a checkpointed journal: `events` is the retained window
  /// (oldest first, seq-contiguous, ending at `total` - 1), `total` the
  /// all-time record count, `round` the ambient round. Each event returns
  /// to its original ring slot (seq % capacity), so a restored journal's
  /// events(), seq numbering, and overwrite accounting are byte-identical
  /// to the uninterrupted run's — seq stays strictly monotone across the
  /// crash. Fails (kInvalidArgument) when the window is inconsistent with
  /// `total` or larger than this journal's capacity.
  [[nodiscard]] core::Status restore(std::span<const Event> events,
                                     std::uint64_t total, std::uint32_t round);
  /// The checks restore() makes, without applying anything.
  [[nodiscard]] core::Status check_restore(std::span<const Event> events,
                                           std::uint64_t total) const;

  /// Compact end-of-run view: events per kind with first/last round.
  [[nodiscard]] core::Table summary_table() const;

 private:
  std::vector<Event> buffer_;
  std::uint64_t total_ = 0;
  std::uint32_t round_ = 0;
};

}  // namespace vdx::obs
