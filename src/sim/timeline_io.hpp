// Deterministic JSONL serialization of timeline results and placement
// summaries.
//
// These are the byte-compare surfaces: the golden-snapshot suite commits
// these lines under tests/golden/, and the equivalence tests diff the
// timeline engine's against the from-scratch reference oracle's
// byte-for-byte. Doubles are rendered with %.17g (the
// repo-wide deterministic export format, same as vdx::obs), so two runs are
// equal iff every derived quantity is bit-equal.
#pragma once

#include <ostream>
#include <string>

#include "sim/timeline.hpp"

namespace vdx::sim {

/// One JSON object per epoch report, in epoch order, then one trailing
/// summary object ({"epochs":N,"mean_cdn_switch_fraction":...}).
void write_epoch_reports_jsonl(std::ostream& out, const TimelineResult& result);
[[nodiscard]] std::string epoch_reports_jsonl(const TimelineResult& result);

/// One JSON object per placement, in outcome order (deterministic), then a
/// trailing summary object with the design name and placement count.
void write_placement_summary_jsonl(std::ostream& out, const DesignOutcome& outcome);
[[nodiscard]] std::string placement_summary_jsonl(const DesignOutcome& outcome);

}  // namespace vdx::sim
