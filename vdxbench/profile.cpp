#include "profile.hpp"

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>

namespace vdx::bench {

namespace {

/// Span name -> layer. Round spans of the benchmark's own loops map to the
/// layer that owns their self time; sim.epoch and shard.round do no work of
/// their own beyond the benchmark's bookkeeping, and decision.round /
/// decision.estimate are engine glue, so those stay unattributed.
constexpr std::pair<std::string_view, std::string_view> kLayerOfSpan[] = {
    {"trace.generate", "trace.generate"},
    {"sim.store.admit", "sim.store.admit"},
    {"sim.store.drop", "sim.store.drop"},
    {"sim.store.groups", "sim.store.groups"},
    {"sim.background.place", "sim.background.place"},
    {"sim.design_round", "sim.design_round"},
    {"sim.assign", "sim.assign"},
    {"sim.metrics", "sim.metrics"},
    {"sim.churn", "sim.churn"},
    {"cdn.menus.build", "cdn.menus.build"},
    {"decision.gather", "proto.gather"},
    {"decision.share", "proto.share"},
    {"decision.matching", "proto.matching"},
    {"decision.announce", "proto.announce"},
    {"decision.optimize", "proto.optimize"},
    {"decision.accept", "proto.accept"},
    {"broker.optimize", "broker.optimize"},
    {"solver.solve", "solver.solve"},
    {"serve.feed", "serve.feed"},
    {"serve.round", "serve.daemon_self"},
    {"state.fs", "state.fs"},
    {"shard.push_delta", "shard.push_delta"},
    {"shard.run_round", "shard.run_round"},
};

double duration_s(const obs::SpanTracer::Span& span) {
  return span.wall_close_s - span.wall_open_s;
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

ProtocolCounts ProtocolCounts::read(const obs::MetricsRegistry& metrics) {
  const auto value = [&](std::string_view name) {
    const auto row = metrics.find(name);
    return row ? row->value : 0.0;
  };
  return ProtocolCounts{value("proto.shares_sent"), value("proto.bids_received"),
                        value("proto.accepts_sent"), value("proto.bytes_on_wire")};
}

void ProtocolCounts::report(Result& result, double cdns, double decision_rounds) const {
  result.set("proto.messages", shares_sent + bids_received + accepts_sent);
  result.set("proto.bids_received", bids_received);
  result.set("proto.accepts_sent", accepts_sent);
  result.set("proto.bytes_on_wire", bytes_on_wire);
  // Optimize answers every bid with one Accept; each goes to every CDN.
  result.set("proto.accept_fanout", ratio(accepts_sent, bids_received));
  result.set("market.groups_per_round", ratio(shares_sent, cdns * decision_rounds));
}

void add_layer_times(Result& result, const obs::SpanTracer& tracer, double wall_s) {
  const auto spans = tracer.spans();
  std::vector<double> self(spans.size(), 0.0);
  bool all_closed = true;
  for (const obs::SpanTracer::Span& span : spans) {
    all_closed &= span.closed;
    self[span.id] += duration_s(span);
    if (span.parent != UINT32_MAX) self[span.parent] -= duration_s(span);
  }
  result.check(tracer.dropped() == 0, "traced pass: no span dropped");
  result.check(all_closed, "traced pass: every span closed");

  std::map<std::string_view, double> by_layer;
  for (const obs::SpanTracer::Span& span : spans) {
    const std::string_view name = tracer.name(span);
    for (const auto& [span_name, layer] : kLayerOfSpan) {
      if (span_name == name) {
        by_layer[layer] += self[span.id];
        break;
      }
    }
  }
  double attributed = 0.0;
  for (const auto& [layer, seconds] : by_layer) attributed += seconds;
  by_layer["unattributed"] = wall_s - attributed;
  result.check(std::abs(by_layer["unattributed"]) <= 0.05 * wall_s,
               "traced pass: the layers account for all but 5% of its wall time");

  result.set("wall_s", wall_s);
  for (const std::string_view layer : kTimedLayers) {
    const double seconds = by_layer[layer];
    result.set(std::string{layer} + "_s", seconds);
    result.set(std::string{layer} + "_share", ratio(seconds, wall_s));
  }
}

std::vector<double> span_ms(const obs::SpanTracer& tracer, std::string_view name) {
  std::vector<double> out;
  for (const obs::SpanTracer::Span& span : tracer.spans()) {
    if (span.closed && tracer.name(span) == name) out.push_back(duration_s(span) * 1e3);
  }
  return out;
}

void write_spans_jsonl(std::ostream& out, const obs::SpanTracer& tracer,
                       std::string_view round_span) {
  const auto spans = tracer.spans();
  // Parents open before their children, so one pass in open order resolves
  // every span's round from its parent's.
  std::vector<std::int64_t> round(spans.size(), -1);
  std::int64_t rounds = 0;
  char buffer[96];
  for (const obs::SpanTracer::Span& span : spans) {
    const std::string_view name = tracer.name(span);
    if (span.parent == UINT32_MAX) {
      round[span.id] = name == round_span ? rounds++ : -1;
    } else {
      round[span.id] = round[span.parent];
    }
    out << "{\"name\":\"" << name << "\",\"id\":" << span.id;
    if (span.parent != UINT32_MAX) out << ",\"parent\":" << span.parent;
    if (round[span.id] >= 0) out << ",\"round\":" << round[span.id];
    std::snprintf(buffer, sizeof buffer, ",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                  span.wall_open_s, span.wall_close_s);
    out << buffer;
  }
}

void save_spans(const Options& options, const obs::SpanTracer& tracer,
                std::string_view round_span) {
  if (options.trace_out.empty()) return;
  std::ofstream out{options.trace_out};
  write_spans_jsonl(out, tracer, round_span);
  if (!out.flush()) {
    throw std::runtime_error{"cannot write spans to " + options.trace_out};
  }
}

}  // namespace vdx::bench
