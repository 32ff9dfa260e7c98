#include "state/checkpoint.hpp"

#include <limits>
#include <string>
#include <utility>

#include "proto/wire.hpp"
#include "state/snapshot.hpp"

namespace vdx::state {

namespace {

// Section ids inside the snapshot envelope. Readers locate sections by id,
// so the on-disk order is free to change without a format bump.
constexpr std::uint32_t kSectionFingerprint = 1;
constexpr std::uint32_t kSectionProgress = 2;
constexpr std::uint32_t kSectionBrokerCursor = 3;
constexpr std::uint32_t kSectionBackgroundCursor = 4;
constexpr std::uint32_t kSectionChurn = 5;
constexpr std::uint32_t kSectionJournal = 6;
// Daemon-checkpoint sections (disjoint from the timeline's 2..5, so each
// decoder rejects the other kind with a missing-section error).
constexpr std::uint32_t kSectionFeedCursor = 7;
constexpr std::uint32_t kSectionDaemonProgress = 8;
constexpr std::uint32_t kSectionExchangeState = 9;

template <typename T>
core::Result<T> malformed(std::string message) {
  return core::Result<T>::failure(core::Errc::kCorruptSnapshot, std::move(message));
}

std::vector<std::uint8_t> encode_fingerprint(const RunFingerprint& fingerprint) {
  proto::ByteWriter out;
  out.write_u64(fingerprint.seed);
  out.write_u8(fingerprint.design);
  out.write_u64(fingerprint.broker_sessions);
  out.write_u64(fingerprint.background_sessions);
  out.write_f64(fingerprint.duration_s);
  out.write_f64(fingerprint.epoch_s);
  out.write_u64(fingerprint.config_hash);
  return out.take();
}

RunFingerprint decode_fingerprint(proto::ByteReader& in) {
  RunFingerprint fingerprint;
  fingerprint.seed = in.read_u64();
  fingerprint.design = in.read_u8();
  fingerprint.broker_sessions = in.read_u64();
  fingerprint.background_sessions = in.read_u64();
  fingerprint.duration_s = in.read_f64();
  fingerprint.epoch_s = in.read_f64();
  fingerprint.config_hash = in.read_u64();
  return fingerprint;
}

std::vector<std::uint8_t> encode_cursor(const StreamCursor& cursor) {
  proto::ByteWriter out;
  out.write_u64(cursor.consumed);
  out.write_u64(cursor.active.size());
  for (const ActiveSession& session : cursor.active) {
    out.write_u32(session.id);
    out.write_u32(session.city);
    out.write_f64(session.bitrate_mbps);
    out.write_f64(session.end_s);
  }
  return out.take();
}

core::Result<StreamCursor> decode_cursor(proto::ByteReader& in) {
  StreamCursor cursor;
  cursor.consumed = in.read_u64();
  // Each active session occupies 24 bytes on the wire.
  const std::size_t count = in.read_count(24);
  cursor.active.reserve(count);
  std::uint64_t previous_id = 0;
  for (std::size_t i = 0; i < count; ++i) {
    ActiveSession session;
    session.id = in.read_u32();
    session.city = in.read_u32();
    session.bitrate_mbps = in.read_f64();
    session.end_s = in.read_f64();
    if (i > 0 && session.id <= previous_id) {
      return malformed<StreamCursor>("stream cursor sessions are not id-ascending");
    }
    previous_id = session.id;
    cursor.active.push_back(session);
  }
  if (cursor.active.size() > cursor.consumed) {
    return malformed<StreamCursor>("stream cursor has more active sessions than consumed");
  }
  return cursor;
}

std::vector<std::uint8_t> encode_progress(const TimelineCheckpoint& checkpoint) {
  proto::ByteWriter out;
  out.write_u64(checkpoint.next_epoch);
  out.write_u64(checkpoint.peak_active_sessions);
  out.write_u64(checkpoint.decision_rounds);
  out.write_u64(checkpoint.background_recomputes);
  out.write_u64(checkpoint.logical_clock);
  out.write_u8(checkpoint.background_stale ? 1 : 0);
  out.write_u64(checkpoint.shed_sessions);
  out.write_u64(checkpoint.background_loads.size());
  for (const double load : checkpoint.background_loads) out.write_f64(load);
  return out.take();
}

std::vector<std::uint8_t> encode_churn(const ChurnState& churn) {
  proto::ByteWriter out;
  out.write_f64(churn.sum);
  out.write_f64(churn.weight);
  out.write_u64(churn.previous.size());
  for (const auto& [id, cluster] : churn.previous) {
    out.write_u32(id);
    out.write_u32(cluster);
  }
  return out.take();
}

std::vector<std::uint8_t> encode_journal(const JournalState& journal) {
  proto::ByteWriter out;
  out.write_u64(journal.total);
  out.write_u32(journal.round);
  out.write_u64(journal.events.size());
  for (const obs::Event& event : journal.events) {
    out.write_u8(static_cast<std::uint8_t>(event.kind));
    out.write_u64(event.seq);
    out.write_u64(event.logical);
    out.write_u32(event.round);
    out.write_u32(event.subject);
    out.write_f64(event.value);
  }
  return out.take();
}

core::Result<JournalState> decode_journal(proto::ByteReader& in) {
  JournalState journal;
  journal.total = in.read_u64();
  journal.round = in.read_u32();
  const std::size_t count = in.read_count(33);
  if (count > journal.total) {
    return malformed<JournalState>("journal retains more events than were recorded");
  }
  journal.events.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    obs::Event event;
    const std::uint8_t kind = in.read_u8();
    if (kind > static_cast<std::uint8_t>(obs::EventKind::kCustom)) {
      return malformed<JournalState>("journal event has an unknown kind byte");
    }
    event.kind = static_cast<obs::EventKind>(kind);
    event.seq = in.read_u64();
    event.logical = in.read_u64();
    event.round = in.read_u32();
    event.subject = in.read_u32();
    event.value = in.read_f64();
    if (!journal.events.empty() && event.seq != journal.events.back().seq + 1) {
      return malformed<JournalState>("journal event seqs are not contiguous");
    }
    journal.events.push_back(event);
  }
  if (!journal.events.empty() && journal.events.back().seq + 1 != journal.total) {
    return malformed<JournalState>("journal tail seq disagrees with total_recorded");
  }
  return journal;
}

/// Locates a section and hands its payload to `reader`; a missing section is
/// a corruption-class error (the envelope validated, but a section an
/// intact timeline checkpoint always carries is gone).
core::Result<proto::ByteReader> section_reader(const SnapshotView& view,
                                               std::uint32_t id, const char* name) {
  const Section* section = view.find(id);
  if (section == nullptr) {
    return malformed<proto::ByteReader>(std::string{"snapshot is missing the "} +
                                        name + " section");
  }
  return proto::ByteReader{section->bytes};
}

}  // namespace

std::vector<std::uint8_t> encode(const TimelineCheckpoint& checkpoint) {
  SnapshotWriter writer;
  writer.add_section(kSectionFingerprint, encode_fingerprint(checkpoint.fingerprint));
  writer.add_section(kSectionProgress, encode_progress(checkpoint));
  writer.add_section(kSectionBrokerCursor, encode_cursor(checkpoint.broker));
  writer.add_section(kSectionBackgroundCursor, encode_cursor(checkpoint.background));
  writer.add_section(kSectionChurn, encode_churn(checkpoint.churn));
  writer.add_section(kSectionJournal, encode_journal(checkpoint.journal));
  return writer.finish();
}

std::vector<std::uint8_t> encode(const DaemonCheckpoint& checkpoint) {
  proto::ByteWriter progress;
  progress.write_u64(checkpoint.next_round);
  progress.write_u64(checkpoint.decision_rounds);
  progress.write_u64(checkpoint.skipped_rounds);
  progress.write_u64(checkpoint.queue_dropped);
  progress.write_u64(checkpoint.peak_active_sessions);
  progress.write_f64(checkpoint.shed_mbps_total);
  progress.write_f64(checkpoint.shed_clients_total);
  progress.write_u64(checkpoint.shed_rounds);
  progress.write_u64(checkpoint.logical_clock);

  SnapshotWriter writer;
  writer.add_section(kSectionFingerprint, encode_fingerprint(checkpoint.fingerprint));
  writer.add_section(kSectionDaemonProgress, progress.take());
  writer.add_section(kSectionFeedCursor, encode_cursor(checkpoint.feed));
  writer.add_section(kSectionExchangeState, checkpoint.exchange_state);
  writer.add_section(kSectionJournal, encode_journal(checkpoint.journal));
  return writer.finish();
}

core::Result<DaemonCheckpoint> decode_daemon(std::span<const std::uint8_t> bytes) {
  auto parsed = SnapshotView::parse(bytes);
  if (!parsed.ok()) return core::Result<DaemonCheckpoint>{parsed.error()};
  const SnapshotView view = std::move(parsed).value();

  DaemonCheckpoint checkpoint;
  try {
    auto fingerprint = section_reader(view, kSectionFingerprint, "fingerprint");
    if (!fingerprint.ok()) return core::Result<DaemonCheckpoint>{fingerprint.error()};
    checkpoint.fingerprint = decode_fingerprint(fingerprint.value());

    auto progress = section_reader(view, kSectionDaemonProgress, "daemon progress");
    if (!progress.ok()) return core::Result<DaemonCheckpoint>{progress.error()};
    {
      proto::ByteReader& in = progress.value();
      checkpoint.next_round = in.read_u64();
      checkpoint.decision_rounds = in.read_u64();
      checkpoint.skipped_rounds = in.read_u64();
      checkpoint.queue_dropped = in.read_u64();
      checkpoint.peak_active_sessions = in.read_u64();
      checkpoint.shed_mbps_total = in.read_f64();
      checkpoint.shed_clients_total = in.read_f64();
      checkpoint.shed_rounds = in.read_u64();
      checkpoint.logical_clock = in.read_u64();
    }
    if (checkpoint.decision_rounds + checkpoint.skipped_rounds >
        checkpoint.next_round) {
      return malformed<DaemonCheckpoint>(
          "daemon progress counts more rounds than have elapsed");
    }

    auto feed = section_reader(view, kSectionFeedCursor, "feed cursor");
    if (!feed.ok()) return core::Result<DaemonCheckpoint>{feed.error()};
    auto feed_cursor = decode_cursor(feed.value());
    if (!feed_cursor.ok()) return core::Result<DaemonCheckpoint>{feed_cursor.error()};
    checkpoint.feed = std::move(feed_cursor).value();

    // The exchange payload is opaque here; VdxExchange::restore_state()
    // validates it (it is itself a nested snapshot envelope).
    auto exchange = section_reader(view, kSectionExchangeState, "exchange state");
    if (!exchange.ok()) return core::Result<DaemonCheckpoint>{exchange.error()};
    {
      proto::ByteReader& in = exchange.value();
      checkpoint.exchange_state.resize(in.remaining());
      for (std::uint8_t& byte : checkpoint.exchange_state) byte = in.read_u8();
    }

    auto journal = section_reader(view, kSectionJournal, "journal");
    if (!journal.ok()) return core::Result<DaemonCheckpoint>{journal.error()};
    auto journal_state = decode_journal(journal.value());
    if (!journal_state.ok()) return core::Result<DaemonCheckpoint>{journal_state.error()};
    checkpoint.journal = std::move(journal_state).value();
  } catch (const proto::WireError& e) {
    return malformed<DaemonCheckpoint>(std::string{"checkpoint section: "} + e.what());
  }
  return checkpoint;
}

core::Result<TimelineCheckpoint> decode_timeline(std::span<const std::uint8_t> bytes) {
  auto parsed = SnapshotView::parse(bytes);
  if (!parsed.ok()) return core::Result<TimelineCheckpoint>{parsed.error()};
  const SnapshotView view = std::move(parsed).value();

  TimelineCheckpoint checkpoint;
  try {
    auto fingerprint = section_reader(view, kSectionFingerprint, "fingerprint");
    if (!fingerprint.ok()) return core::Result<TimelineCheckpoint>{fingerprint.error()};
    checkpoint.fingerprint = decode_fingerprint(fingerprint.value());

    auto progress = section_reader(view, kSectionProgress, "progress");
    if (!progress.ok()) return core::Result<TimelineCheckpoint>{progress.error()};
    {
      proto::ByteReader& in = progress.value();
      checkpoint.next_epoch = in.read_u64();
      checkpoint.peak_active_sessions = in.read_u64();
      checkpoint.decision_rounds = in.read_u64();
      checkpoint.background_recomputes = in.read_u64();
      checkpoint.logical_clock = in.read_u64();
      checkpoint.background_stale = in.read_u8() != 0;
      checkpoint.shed_sessions = in.read_u64();
      const std::size_t loads = in.read_count(8);
      checkpoint.background_loads.reserve(loads);
      for (std::size_t i = 0; i < loads; ++i) {
        checkpoint.background_loads.push_back(in.read_f64());
      }
    }

    auto broker = section_reader(view, kSectionBrokerCursor, "broker cursor");
    if (!broker.ok()) return core::Result<TimelineCheckpoint>{broker.error()};
    auto broker_cursor = decode_cursor(broker.value());
    if (!broker_cursor.ok()) return core::Result<TimelineCheckpoint>{broker_cursor.error()};
    checkpoint.broker = std::move(broker_cursor).value();

    auto background = section_reader(view, kSectionBackgroundCursor, "background cursor");
    if (!background.ok()) return core::Result<TimelineCheckpoint>{background.error()};
    auto background_cursor = decode_cursor(background.value());
    if (!background_cursor.ok()) {
      return core::Result<TimelineCheckpoint>{background_cursor.error()};
    }
    checkpoint.background = std::move(background_cursor).value();

    auto churn = section_reader(view, kSectionChurn, "churn");
    if (!churn.ok()) return core::Result<TimelineCheckpoint>{churn.error()};
    {
      proto::ByteReader& in = churn.value();
      checkpoint.churn.sum = in.read_f64();
      checkpoint.churn.weight = in.read_f64();
      const std::size_t count = in.read_count(8);
      checkpoint.churn.previous.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        const std::uint32_t id = in.read_u32();
        const std::uint32_t cluster = in.read_u32();
        checkpoint.churn.previous.emplace_back(id, cluster);
      }
    }

    auto journal = section_reader(view, kSectionJournal, "journal");
    if (!journal.ok()) return core::Result<TimelineCheckpoint>{journal.error()};
    auto journal_state = decode_journal(journal.value());
    if (!journal_state.ok()) return core::Result<TimelineCheckpoint>{journal_state.error()};
    checkpoint.journal = std::move(journal_state).value();
  } catch (const proto::WireError& e) {
    return malformed<TimelineCheckpoint>(std::string{"checkpoint section: "} + e.what());
  }
  return checkpoint;
}

}  // namespace vdx::state
