#include "obs/journal.hpp"

#include <algorithm>
#include <array>
#include <cinttypes>
#include <cstdio>
#include <stdexcept>
#include <string>

namespace vdx::obs {

namespace {

constexpr std::array<std::string_view, 25> kKindNames{
    "round_start",    "round_end",   "bid",      "retry",
    "timeout",        "decode_reject", "stale_bid", "quorum_miss",
    "degraded_round", "failover",    "solve",    "epoch",
    "checkpoint",     "resume",      "shed",     "supply_shift",
    "admit",          "drain",       "breaker_open", "breaker_half_open",
    "breaker_close",  "brownout_step", "checkpoint_skip", "restart_denied",
    "custom",
};

}  // namespace

std::string_view to_string(EventKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  return index < kKindNames.size() ? kKindNames[index] : "unknown";
}

std::optional<EventKind> event_kind_from(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (kKindNames[i] == name) return static_cast<EventKind>(i);
  }
  return std::nullopt;
}

RunJournal::RunJournal(std::size_t capacity) {
  buffer_.resize(capacity > 0 ? capacity : 1);
}

void RunJournal::record(EventKind kind, std::uint32_t subject, double value,
                        std::uint64_t logical) {
  Event event;
  event.kind = kind;
  event.seq = total_;
  event.logical = logical;
  event.round = round_;
  event.subject = subject;
  event.value = value;
  buffer_[total_ % buffer_.size()] = event;
  ++total_;
}

std::size_t RunJournal::size() const noexcept {
  return total_ < buffer_.size() ? static_cast<std::size_t>(total_) : buffer_.size();
}

std::vector<Event> RunJournal::events() const {
  std::vector<Event> out;
  const std::size_t n = size();
  out.reserve(n);
  const std::uint64_t first = total_ - n;
  for (std::uint64_t i = first; i < total_; ++i) {
    out.push_back(buffer_[i % buffer_.size()]);
  }
  return out;
}

void RunJournal::write_jsonl(std::ostream& out) const {
  for (const Event& event : events()) {
    char line[256];
    if (event.subject == kNoSubject) {
      std::snprintf(line, sizeof line,
                    "{\"event\":\"%s\",\"seq\":%" PRIu64 ",\"round\":%u,"
                    "\"logical\":%" PRIu64 ",\"value\":%.17g}",
                    std::string{to_string(event.kind)}.c_str(), event.seq,
                    event.round, event.logical, event.value);
    } else {
      std::snprintf(line, sizeof line,
                    "{\"event\":\"%s\",\"seq\":%" PRIu64 ",\"round\":%u,"
                    "\"subject\":%u,\"logical\":%" PRIu64 ",\"value\":%.17g}",
                    std::string{to_string(event.kind)}.c_str(), event.seq,
                    event.round, event.subject, event.logical, event.value);
    }
    out << line << '\n';
  }
}

void RunJournal::write_csv(std::ostream& out) const {
  out << "event,seq,round,subject,logical,value\n";
  for (const Event& event : events()) {
    char line[192];
    std::snprintf(line, sizeof line, "%s,%" PRIu64 ",%u,%s,%" PRIu64 ",%.17g",
                  std::string{to_string(event.kind)}.c_str(), event.seq, event.round,
                  event.subject == kNoSubject ? ""
                                              : std::to_string(event.subject).c_str(),
                  event.logical, event.value);
    out << line << '\n';
  }
}

namespace {

/// Pulls `"key":<raw value>` out of one flat JSON object line. The journal
/// parses only its own fixed-schema output, so a targeted scanner beats a
/// JSON dependency.
std::optional<std::string_view> json_field(std::string_view line,
                                           std::string_view key) {
  const std::string needle = "\"" + std::string{key} + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string_view::npos) return std::nullopt;
  std::size_t begin = at + needle.size();
  std::size_t end = begin;
  if (begin < line.size() && line[begin] == '"') {
    ++begin;
    end = line.find('"', begin);
    if (end == std::string_view::npos) return std::nullopt;
  } else {
    while (end < line.size() && line[end] != ',' && line[end] != '}') ++end;
  }
  return line.substr(begin, end - begin);
}

}  // namespace

std::vector<Event> RunJournal::read_jsonl(std::istream& in) {
  std::vector<Event> out;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fail = [&](const char* what) -> std::runtime_error {
      return std::runtime_error{"RunJournal::read_jsonl: line " +
                                std::to_string(line_no) + ": " + what};
    };
    const auto kind_text = json_field(line, "event");
    if (!kind_text) throw fail("missing \"event\"");
    const auto kind = event_kind_from(*kind_text);
    if (!kind) throw fail("unknown event kind");
    Event event;
    event.kind = *kind;
    const auto seq = json_field(line, "seq");
    const auto round = json_field(line, "round");
    const auto logical = json_field(line, "logical");
    const auto value = json_field(line, "value");
    if (!seq || !round || !logical || !value) throw fail("missing field");
    try {
      event.seq = std::stoull(std::string{*seq});
      event.round = static_cast<std::uint32_t>(std::stoul(std::string{*round}));
      event.logical = std::stoull(std::string{*logical});
      event.value = std::stod(std::string{*value});
      if (const auto subject = json_field(line, "subject")) {
        event.subject = static_cast<std::uint32_t>(std::stoul(std::string{*subject}));
      }
    } catch (const std::exception&) {
      throw fail("unparsable number");
    }
    out.push_back(event);
  }
  return out;
}

core::Status RunJournal::restore(std::span<const Event> events, std::uint64_t total,
                                 std::uint32_t round) {
  const core::Status checked = check_restore(events, total);
  if (!checked.ok()) return checked;
  for (const Event& event : events) buffer_[event.seq % buffer_.size()] = event;
  total_ = total;
  round_ = round;
  return core::ok_status();
}

core::Status RunJournal::check_restore(std::span<const Event> events,
                                       std::uint64_t total) const {
  const auto reject = [](std::string message) {
    return core::Status::failure(core::Errc::kInvalidArgument, std::move(message));
  };
  // The retained window must be exactly what a journal of this capacity
  // would hold at `total` records — anything else would leave stale or
  // missing ring slots and break events()/overwritten() equivalence.
  const std::uint64_t expected =
      total < buffer_.size() ? total : static_cast<std::uint64_t>(buffer_.size());
  if (events.size() != expected) {
    return reject("journal restore: window holds " + std::to_string(events.size()) +
                  " events, capacity " + std::to_string(buffer_.size()) +
                  " at total " + std::to_string(total) + " requires " +
                  std::to_string(expected));
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const std::uint64_t want = total - events.size() + i;
    if (events[i].seq != want) {
      return reject("journal restore: event " + std::to_string(i) + " has seq " +
                    std::to_string(events[i].seq) + ", expected " +
                    std::to_string(want));
    }
  }
  return core::ok_status();
}

core::Table RunJournal::summary_table() const {
  struct KindStats {
    std::uint64_t count = 0;
    double value_sum = 0.0;
    std::uint32_t first_round = UINT32_MAX;
    std::uint32_t last_round = 0;
  };
  std::array<KindStats, kKindNames.size()> stats{};
  for (const Event& event : events()) {
    KindStats& s = stats[static_cast<std::size_t>(event.kind)];
    ++s.count;
    s.value_sum += event.value;
    s.first_round = std::min(s.first_round, event.round);
    s.last_round = std::max(s.last_round, event.round);
  }
  core::Table table{{"Event", "Count", "Value sum", "Rounds"}};
  table.set_title("Run journal summary (" + std::to_string(size()) + " events, " +
                  std::to_string(overwritten()) + " overwritten)");
  for (std::size_t i = 0; i < stats.size(); ++i) {
    if (stats[i].count == 0) continue;
    table.add_row({std::string{kKindNames[i]}, std::to_string(stats[i].count),
                   core::format_double(stats[i].value_sum, 3),
                   std::to_string(stats[i].first_round) + "-" +
                       std::to_string(stats[i].last_round)});
  }
  return table;
}

}  // namespace vdx::obs
