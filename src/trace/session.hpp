// Broker trace record types.
//
// Mirrors the fields of the paper's broker dataset (§3.1): "an entry for
// each client session containing the request arrival time, which video was
// requested, the average bitrate, session duration, the client city and AS,
// the initial CDN contacted, and the current CDN delivering the video."
// The trace names three large CDNs ("A", "B", "C") and buckets the rest as
// "other" — we keep exactly that label space.
#pragma once

#include <cstdint>
#include <vector>

#include "core/ids.hpp"

namespace vdx::trace {

using core::CityId;
using core::SessionId;
using core::VideoId;

/// CDN label space of the broker trace (§3.1).
enum class TraceCdn : std::uint8_t { kCdnA, kCdnB, kCdnC, kOther };
inline constexpr std::size_t kTraceCdnCount = 4;

[[nodiscard]] constexpr const char* to_string(TraceCdn cdn) noexcept {
  switch (cdn) {
    case TraceCdn::kCdnA:
      return "CDN A";
    case TraceCdn::kCdnB:
      return "CDN B";
    case TraceCdn::kCdnC:
      return "CDN C";
    case TraceCdn::kOther:
      return "other";
  }
  return "?";
}

/// One broker-initiated mid-stream CDN switch.
struct SwitchEvent {
  double time_s = 0.0;
  TraceCdn from = TraceCdn::kOther;
  TraceCdn to = TraceCdn::kOther;
};

struct Session {
  SessionId id;
  double arrival_s = 0.0;
  VideoId video;
  double bitrate_mbps = 1.0;
  double duration_s = 0.0;
  CityId city;
  std::uint32_t as_number = 0;
  bool abandoned = false;  // left almost immediately (paper: ~78%)
  TraceCdn initial_cdn = TraceCdn::kOther;
  std::vector<SwitchEvent> switches;  // time-ordered

  [[nodiscard]] double end_s() const noexcept { return arrival_s + duration_s; }
  [[nodiscard]] bool active_at(double t) const noexcept {
    return t >= arrival_s && t < end_s();
  }
  /// CDN delivering at time t (assumes active_at(t) or t past the end).
  [[nodiscard]] TraceCdn cdn_at(double t) const noexcept {
    TraceCdn current = initial_cdn;
    for (const SwitchEvent& s : switches) {
      if (s.time_s > t) break;
      current = s.to;
    }
    return current;
  }
  /// Whether the broker has moved this session at least once by time t.
  [[nodiscard]] bool moved_by(double t) const noexcept {
    return !switches.empty() && switches.front().time_s <= t;
  }
  [[nodiscard]] TraceCdn final_cdn() const noexcept {
    return switches.empty() ? initial_cdn : switches.back().to;
  }
};

/// What an engine admitting a session reads of it: the session less its
/// video, AS, CDN labels and switches. `end_s` equals Session::end_s().
struct Arrival {
  SessionId id;
  CityId city;
  double arrival_s = 0.0;
  double bitrate_mbps = 1.0;
  double end_s = 0.0;
};

[[nodiscard]] inline Arrival to_arrival(const Session& s) noexcept {
  return Arrival{s.id, s.city, s.arrival_s, s.bitrate_mbps, s.end_s()};
}

}  // namespace vdx::trace
