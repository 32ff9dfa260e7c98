// Per-layer profile of one traced pass.
//
// Spans come from one obs::SpanTracer shared by the benchmark (its round
// spans and the seam decorators) and the program (decision.*,
// broker.optimize, solver.solve, switched on through obs::Observer). A
// span's self time is its duration minus the time its direct children
// cover; each span name maps onto one layer, and whatever the layers do not
// cover of the pass's wall time is reported as `unattributed`.
#pragma once

#include <ostream>
#include <string_view>
#include <vector>

#include "bench.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace vdx::bench {

/// The wire counters the Decision Protocol engine records into its metrics
/// registry (proto.*), read back after a traced pass.
struct ProtocolCounts {
  double shares_sent = 0.0;
  double bids_received = 0.0;
  double accepts_sent = 0.0;
  double bytes_on_wire = 0.0;

  [[nodiscard]] static ProtocolCounts read(const obs::MetricsRegistry& metrics);

  /// Sets proto.messages, proto.bids_received, proto.accepts_sent,
  /// proto.bytes_on_wire, proto.accept_fanout and market.groups_per_round
  /// (every CDN is shared every group once per decision round).
  void report(Result& result, double cdns, double decision_rounds) const;
};

/// Sets every `<layer>_s` and `<layer>_share` of kTimedLayers, plus wall_s,
/// from the spans of a pass that took `wall_s`. Also checks that no span
/// was dropped, that every span closed, and that unattributed time is at
/// most 5% of the wall time.
void add_layer_times(Result& result, const obs::SpanTracer& tracer, double wall_s);

/// Wall durations (ms) of every closed span called `name`, in open order.
[[nodiscard]] std::vector<double> span_ms(const obs::SpanTracer& tracer,
                                          std::string_view name);

/// One JSON object per span: name, id, parent (absent for roots), round
/// (ordinal of the enclosing span named `round_span`, absent outside one),
/// start_s and end_s on the tracer's wall clock.
void write_spans_jsonl(std::ostream& out, const obs::SpanTracer& tracer,
                       std::string_view round_span);

/// write_spans_jsonl into options.trace_out, when one was asked for.
/// Throws std::runtime_error when the file cannot be written.
void save_spans(const Options& options, const obs::SpanTracer& tracer,
                std::string_view round_span);

}  // namespace vdx::bench
