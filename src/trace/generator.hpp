// Synthetic broker trace generator.
//
// Substitution note (DESIGN.md §2): the paper's broker trace is proprietary,
// but §3.1–§3.2 state every marginal the evaluation consumes; this generator
// reproduces them by construction:
//   * ~33.4K sessions over ~1 hour for one content provider;
//   * Zipf video popularity, power-law client-city distribution (inherited
//     from the World demand weights);
//   * bimodal bitrate distribution peaking at the lowest & highest rungs;
//   * ~78% of clients abandon almost immediately;
//   * per-country CDN usage shares that vary wildly (Fig. 7), with the
//     distributed "CDN A" increasingly favored in small cities (Fig. 5);
//   * a mid-stream switching process whose per-5s moved fraction averages
//     ~40% and swings between ~20% and ~60% (Fig. 4).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/rng.hpp"
#include "geo/world.hpp"
#include "trace/session.hpp"

namespace vdx::trace {

class WorkloadModulation;

struct TraceConfig {
  std::size_t session_count = 33'400;
  double duration_s = 3600.0;
  std::size_t video_count = 3000;
  double video_zipf_exponent = 0.8;
  std::size_t as_count = 50;
  double as_zipf_exponent = 1.1;
  /// Discrete bitrate ladder (Mbps) and its bimodal weights.
  std::vector<double> bitrate_ladder{0.35, 0.75, 1.5, 2.8, 4.5};
  std::vector<double> bitrate_weights{0.34, 0.09, 0.08, 0.14, 0.35};
  double abandonment_rate = 0.78;
  /// Mean watch time of abandoning / engaged sessions (seconds).
  double abandon_mean_s = 8.0;
  double engaged_mean_s = 420.0;
  /// Mid-stream switching: base hazard (per second of active streaming) and
  /// the amplitude/period of its slow modulation (drives Fig. 4's swing).
  double switch_rate_per_s = 0.0030;
  double switch_modulation = 0.8;
  double switch_period_s = 1400.0;
  /// Strength of CDN A's small-city advantage (Fig. 5): A's weight is
  /// multiplied by 1 + boost * exp(-city_requests / small_city_scale).
  double small_city_boost = 3.0;
  double small_city_scale = 500.0;
};

/// The generated trace plus the per-country CDN share model behind it
/// (exposed so tests can assert the generative story).
class BrokerTrace {
 public:
  BrokerTrace(std::vector<Session> sessions, double duration_s)
      : sessions_(std::move(sessions)), duration_s_(duration_s) {}

  [[nodiscard]] std::span<const Session> sessions() const noexcept { return sessions_; }
  [[nodiscard]] double duration_s() const noexcept { return duration_s_; }
  [[nodiscard]] std::size_t size() const noexcept { return sessions_.size(); }

 private:
  std::vector<Session> sessions_;
  double duration_s_;
};

/// Generates the broker-optimized trace.
[[nodiscard]] BrokerTrace generate_trace(const geo::World& world,
                                         const TraceConfig& config, core::Rng& rng);

/// Generates non-broker background traffic: `multiplier` x the session count
/// of `config`, same marginals, all labelled TraceCdn::kOther and never
/// switched (the broker does not control it; paper §5.1 uses 3x).
[[nodiscard]] BrokerTrace generate_background(const geo::World& world,
                                              const TraceConfig& config,
                                              double multiplier, core::Rng& rng);

/// Streaming trace generation for multi-hour, million-session horizons.
///
/// The monolithic generate_trace materializes (and globally sorts) the whole
/// trace, which caps the reachable scale at available memory. This generator
/// produces the *same statistical model* as a bounded stream: the horizon is
/// cut into fixed time blocks, each block's sessions are drawn from an
/// independent RNG substream forked off the base seed by block index, sorted
/// by arrival within the block, and handed out through `next_batch(n)` in
/// global arrival order (blocks cover disjoint time windows). Session ids
/// are issued densely in arrival order, matching the materialized trace's
/// id convention.
///
/// A block is generated as compact records (a Session's scalar fields plus
/// an offset into a per-block switch pool) and turned into Sessions only
/// when next_batch() hands them out; next_arrivals() hands out the few
/// fields an engine admits by without building a Session at all. When the horizon has more than one
/// block, one worker thread, started at the first refill, generates block
/// b + 1 while the caller drains block b (DESIGN.md §9).
///
/// Determinism contract:
///   * the emitted session sequence is a pure function of (world, config,
///     seed, options) — the `n` passed to next_batch() or next_arrivals()
///     only chunks the stream, it never changes it (chunk-boundary
///     determinism);
///   * block substreams are independent: block b's sessions depend only on
///     the base seed and b, never on how many other blocks were generated;
///   * the worker changes when a block is generated, never what it holds:
///     block b is a pure function of (seed, b) and blocks are handed out in
///     index order, so no byte depends on thread timing. reset(), seek()
///     and destruction join the worker and drop a block it prepared;
///   * memory is bounded by two compact blocks, which together take no more
///     than one block of Sessions (options.block_sessions), plus their
///     switch events; not by config.session_count.
///
/// Note the stream is *statistically* equivalent to generate_trace, not
/// byte-identical to it: the monolithic path draws all fields from one
/// sequential stream, the blocked path from per-block substreams.
class BrokerTraceGenerator {
 public:
  struct Options {
    /// Generation granularity: the horizon is split into
    /// ceil(session_count / block_sessions) time blocks. A model parameter
    /// (changes the substream layout), unlike next_batch's `n`.
    std::size_t block_sessions = 65'536;
    /// false: background traffic (all TraceCdn::kOther, never switched).
    bool broker_controlled = true;
    /// Optional demand modulators (non-owning; must outlive the generator).
    /// When null or inactive the generator is byte-identical to the
    /// unmodulated stream. When active, the horizon partition follows the
    /// cumulative modulated intensity — total_sessions() scales with the
    /// injected load (a 50x flash crowd adds sessions, a suppression removes
    /// them) — and every block stays a pure function of (seed, block), so
    /// reset()/seek()/resume() keep their byte-identity contracts.
    const WorkloadModulation* modulation = nullptr;
  };

  /// `config.duration_s` is the stream horizon (vdxsim exposes it in
  /// hours); `config.session_count` may be 0 (empty stream, no throw).
  BrokerTraceGenerator(const geo::World& world, const TraceConfig& config,
                       core::Rng rng);
  BrokerTraceGenerator(const geo::World& world, const TraceConfig& config,
                       core::Rng rng, Options options);
  ~BrokerTraceGenerator();
  BrokerTraceGenerator(const BrokerTraceGenerator&) = delete;
  BrokerTraceGenerator& operator=(const BrokerTraceGenerator&) = delete;

  /// Up to `max_sessions` further sessions in arrival order; empty once the
  /// horizon is exhausted. `max_sessions == 0` returns an empty batch.
  [[nodiscard]] std::vector<Session> next_batch(std::size_t max_sessions);

  /// The same sessions as next_batch(max_sessions) would hand out, as
  /// Arrival records in `out` (cleared first; its capacity is reused). They
  /// are read straight from the block's compact records, so no Session and
  /// no switch vector is built. Both calls advance one cursor: they may be
  /// interleaved, and emitted() counts both.
  void next_arrivals(std::size_t max_sessions, std::vector<Arrival>& out);

  [[nodiscard]] bool exhausted() const noexcept;
  /// Sessions handed out so far / over the full horizon.
  [[nodiscard]] std::size_t emitted() const noexcept { return emitted_; }
  [[nodiscard]] std::size_t total_sessions() const noexcept;
  [[nodiscard]] double duration_s() const noexcept;
  [[nodiscard]] std::size_t block_count() const noexcept { return block_count_; }
  /// Sessions of the current block not yet handed out (at most one block).
  [[nodiscard]] std::size_t buffered() const noexcept;
  /// Bytes the generator holds for blocks: both record buffers and both
  /// switch pools at their capacity (the sort is in place and needs no
  /// scratch). Waits for a block the worker is generating, so the count
  /// includes what it allocated.
  [[nodiscard]] std::size_t block_bytes() const;

  /// Rewinds to the start of the stream; the replayed sequence is identical.
  void reset();

  /// Repositions the stream so the next emitted session is number `emitted`
  /// (0-based, as counted by emitted()). Because block substreams are pure
  /// functions of (seed, block index), only the block containing that
  /// position is regenerated — a checkpoint can resume a million-session
  /// stream by storing one integer. Sessions emitted after a seek are
  /// byte-identical to an uninterrupted pass. Throws std::invalid_argument
  /// when `emitted` exceeds the horizon total.
  void seek(std::size_t emitted);

  /// The shared sampling model (also backs the monolithic generators).
  struct Model;
  /// One generated block: arrival-sorted compact records and their
  /// switch events.
  struct Block;

 private:
  /// The worker that generates the next block ahead of the caller.
  struct Prefetch;

  void refill();
  /// Generates block `b` into `block`; reads only state fixed at
  /// construction, so the worker may run it concurrently with the caller.
  void generate_block(std::size_t b, Block& block) const;

  std::unique_ptr<Model> model_;
  core::Rng base_rng_;
  Options options_;
  /// Modulated-mode state: base city demand weights and the cumulative
  /// session partition (block b emits offsets[b+1] - offsets[b] sessions).
  /// Empty in the unmodulated path, which keeps the seed integer partition.
  std::vector<double> city_weights_;
  std::vector<std::uint64_t> mod_offsets_;
  bool modulated_ = false;
  std::size_t block_count_ = 0;
  /// No block has more sessions (each record buffer's capacity).
  std::size_t max_block_sessions_ = 0;
  std::size_t next_block_ = 0;
  std::size_t emitted_ = 0;
  /// The block being handed out and the position of its next record.
  std::unique_ptr<Block> front_;
  std::size_t front_pos_ = 0;
  /// Declared last, so destruction joins the worker before the state it
  /// reads goes away.
  std::unique_ptr<Prefetch> prefetch_;
};

}  // namespace vdx::trace
