#include "trace/generator.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>

#include "core/distributions.hpp"
#include "trace/arrival_sort.hpp"
#include "trace/modulation.hpp"

namespace vdx::trace {

namespace {
/// Sub-intervals discretizing one block window for the modulated arrival
/// inverse-CDF and the block-mass integrals (midpoint rule). A pure model
/// constant: changing it changes the modulated stream.
constexpr std::size_t kModulationBins = 256;
}  // namespace

namespace {

void check_config(const TraceConfig& config, bool allow_empty) {
  if (config.session_count == 0 && !allow_empty) {
    throw std::invalid_argument{"TraceConfig: no sessions"};
  }
  if (!(config.duration_s > 0.0)) throw std::invalid_argument{"TraceConfig: duration"};
  if (config.bitrate_ladder.empty() ||
      config.bitrate_ladder.size() != config.bitrate_weights.size()) {
    throw std::invalid_argument{"TraceConfig: bitrate ladder/weights mismatch"};
  }
  if (config.bitrate_ladder.size() > std::numeric_limits<std::uint16_t>::max() + 1u) {
    throw std::invalid_argument{"TraceConfig: bitrate ladder longer than 65536 rungs"};
  }
  if (!(config.abandonment_rate >= 0.0 && config.abandonment_rate <= 1.0)) {
    throw std::invalid_argument{"TraceConfig: abandonment_rate outside [0,1]"};
  }
}

/// Per-country base CDN shares with heavy cross-country variance (Fig. 7:
/// "CDN B barely serves 7, yet almost entirely serves 8").
std::vector<std::array<double, kTraceCdnCount>> country_share_model(
    const geo::World& world, core::Rng& rng) {
  constexpr std::array<double, kTraceCdnCount> kBase{0.30, 0.25, 0.25, 0.20};
  std::vector<std::array<double, kTraceCdnCount>> shares(world.countries().size());
  for (auto& row : shares) {
    for (std::size_t c = 0; c < kTraceCdnCount; ++c) {
      // Lognormal with sigma 1.2 gives the occasional near-total dominance
      // by one CDN within a country.
      row[c] = kBase[c] * rng.lognormal(0.0, 1.2);
    }
  }
  return shares;
}

/// Non-homogeneous Poisson switch times over [0, duration) after `arrival`,
/// via thinning against the modulated hazard, into `times` (cleared first;
/// the caller reuses it across sessions).
void sample_switch_times(double arrival, double duration, const TraceConfig& config,
                         core::Rng& rng, std::vector<double>& times) {
  times.clear();
  const double max_rate = config.switch_rate_per_s * (1.0 + config.switch_modulation);
  if (max_rate <= 0.0) return;
  double t = arrival;
  const double end = arrival + duration;
  while (true) {
    t += rng.exponential(max_rate);
    if (t >= end) break;
    const double rate =
        config.switch_rate_per_s *
        (1.0 + config.switch_modulation *
                   std::sin(2.0 * M_PI * t / config.switch_period_s));
    if (rng.uniform() * max_rate < rate) times.push_back(t);
  }
}

/// Runs `draw`, which refills `items` from `rng` in draw order, and sorts
/// `items` by `arrival_s` into exactly the order the seed code's std::sort
/// with its arrival-only comparator gave, ties included.
template <typename T, typename Draw>
void draw_sorted_by_arrival(core::Rng& rng, std::vector<T>& items, const Draw& draw) {
  const core::Rng start = rng;
  draw();
  // Distinct arrivals have one sorted order, so the radix sort finds the
  // seed code's. Non-negative doubles order like their bit patterns.
  const bool keyable = std::all_of(items.begin(), items.end(), [](const T& item) {
    return item.arrival_s >= 0.0 && !std::signbit(item.arrival_s);
  });
  if (keyable && radix_sort_distinct(std::span{items}, [](const T& item) {
        return std::bit_cast<std::uint64_t>(item.arrival_s);
      })) {
    return;
  }
  // Equal arrivals: their order is the one std::sort leaves them in. Its
  // permutation depends only on the sequence of comparison results, so
  // sorting any items with the same arrivals in draw order reproduces it;
  // draw them again to restore that order.
  rng = start;
  draw();
  std::sort(items.begin(), items.end(),
            [](const T& a, const T& b) { return a.arrival_s < b.arrival_s; });
}

}  // namespace

struct BrokerTraceGenerator::Block {
  /// A session as a block holds it: the Session's scalar fields, with the
  /// bitrate as its ladder index and the switches as a slice of the block's
  /// pool. Half a Session, and no heap allocation of its own.
  struct Record {
    double arrival_s = 0.0;
    double duration_s = 0.0;  // already clamped to the horizon
    std::uint32_t video = 0;
    std::uint32_t city = 0;
    std::uint32_t as_number = 0;
    std::uint32_t switch_offset = 0;
    std::uint32_t switch_count = 0;
    std::uint16_t bitrate_index = 0;
    bool abandoned = false;
    TraceCdn initial_cdn = TraceCdn::kOther;
  };
  static_assert(2 * sizeof(Record) <= sizeof(Session),
                "two compact blocks must fit in one block of Sessions");

  /// Arrival-ordered once the block is complete.
  std::vector<Record> records;
  std::vector<SwitchEvent> switches;
  /// Per-session thinning scratch (switch times before the CDN draws).
  std::vector<double> switch_times;

  [[nodiscard]] std::size_t bytes() const noexcept {
    return records.capacity() * sizeof(Record) +
           switches.capacity() * sizeof(SwitchEvent) +
           switch_times.capacity() * sizeof(double);
  }
};

/// The sampling model shared by the monolithic generators and the streaming
/// BrokerTraceGenerator: the samplers and the per-city CDN choice model,
/// derived once per trace. sample() draws one session's fields in the exact
/// order generate_impl always used, so the monolithic trace stays
/// byte-identical to the seed code.
struct BrokerTraceGenerator::Model {
  TraceConfig config;
  bool broker_controlled = true;
  core::DiscreteDistribution city_dist;
  core::ZipfDistribution video_dist;
  core::ZipfDistribution as_dist;
  core::DiscreteDistribution bitrate_dist;
  std::vector<core::DiscreteDistribution> city_cdn;
  double engaged_mu = 0.0;

  Model(const geo::World& world, const TraceConfig& cfg, std::size_t session_count,
        bool broker, core::Rng& rng)
      : config(cfg),
        broker_controlled(broker),
        city_dist(city_weights(world)),
        video_dist(cfg.video_count, cfg.video_zipf_exponent),
        as_dist(cfg.as_count, cfg.as_zipf_exponent),
        bitrate_dist(cfg.bitrate_weights) {
    // Per-city CDN choice distributions: country base shares with CDN A's
    // small-city boost (Fig. 5).
    core::Rng shares_rng = rng.fork("country-shares");
    const auto country_shares = country_share_model(world, shares_rng);
    city_cdn.reserve(world.cities().size());
    for (const auto& city : world.cities()) {
      auto weights = country_shares[city.country.value()];
      const double expected_requests =
          city.demand_weight * static_cast<double>(session_count);
      weights[static_cast<std::size_t>(TraceCdn::kCdnA)] *=
          1.0 + cfg.small_city_boost *
                    std::exp(-expected_requests / cfg.small_city_scale);
      city_cdn.emplace_back(std::span<const double>{weights.data(), weights.size()});
    }
    engaged_mu = std::log(cfg.engaged_mean_s) - 0.32;  // lognormal(mu, 0.8) mean fix
  }

  static std::vector<double> city_weights(const geo::World& world) {
    std::vector<double> weights;
    weights.reserve(world.cities().size());
    for (const auto& city : world.cities()) weights.push_back(city.demand_weight);
    return weights;
  }

  /// City draw. Unmodulated: the base demand distribution. Modulated with
  /// hotspots: mixture of the time-dependent hotspot mass and the remaining
  /// base mass (the diurnal term cancels in this conditional); the
  /// non-hotspot branch rejection-samples the base distribution, which
  /// terminates fast because hotspots carry a small base mass.
  [[nodiscard]] std::size_t sample_city(core::Rng& rng, double t,
                                        const BlockModulation* mod) const {
    if (mod == nullptr || !mod->has_hotspots()) return city_dist(rng);
    const double hot = mod->hot_mass(t);
    const double rest = 1.0 - mod->hot_base_mass();
    const double pick = rng.uniform() * (hot + rest);
    if (pick < hot) return mod->pick_hotspot(t, pick);
    for (int attempt = 0; attempt < 64; ++attempt) {
      const std::size_t city = city_dist(rng);
      if (!mod->is_hotspot(city)) return city;
    }
    return city_dist(rng);  // pathological weights: accept anything
  }

  /// Draws one session with arrival uniform in [arrival_lo, arrival_hi) and
  /// duration clamped to the horizon end, appending its record and switches
  /// to `block`. Field draw order matches the seed generate_impl exactly.
  /// With `mod`, the arrival follows the modulated intensity's inverse-CDF
  /// over the window and the city draw mixes the flash-crowd hotspots in at
  /// their time-dependent weight (one extra uniform draw — draw order is
  /// still a pure function of the block).
  void sample(core::Rng& rng, double arrival_lo, double arrival_hi,
              const BlockModulation* mod, Block& block) const {
    Block::Record r;
    r.arrival_s = mod != nullptr ? mod->arrival_from(rng.uniform())
                                 : rng.uniform(arrival_lo, arrival_hi);
    r.video = static_cast<std::uint32_t>(video_dist(rng));
    r.city = static_cast<std::uint32_t>(sample_city(rng, r.arrival_s, mod));
    r.as_number = static_cast<std::uint32_t>(as_dist(rng)) + 1;
    r.bitrate_index = static_cast<std::uint16_t>(bitrate_dist(rng));
    r.abandoned = rng.chance(config.abandonment_rate);
    r.duration_s = r.abandoned ? rng.exponential(1.0 / config.abandon_mean_s)
                               : rng.lognormal(engaged_mu, 0.8);
    r.duration_s = std::min(r.duration_s, config.duration_s - r.arrival_s);

    const std::size_t first_switch = block.switches.size();
    if (broker_controlled) {
      r.initial_cdn = static_cast<TraceCdn>(city_cdn[r.city](rng));
      // The broker only bothers moving sessions that live long enough.
      if (!r.abandoned) {
        TraceCdn current = r.initial_cdn;
        sample_switch_times(r.arrival_s, r.duration_s, config, rng, block.switch_times);
        for (const double t : block.switch_times) {
          // Move to a different CDN drawn from the same city model.
          TraceCdn next = current;
          for (int attempt = 0; attempt < 8 && next == current; ++attempt) {
            next = static_cast<TraceCdn>(city_cdn[r.city](rng));
          }
          if (next == current) continue;
          block.switches.push_back(SwitchEvent{t, current, next});
          current = next;
        }
      }
    } else {
      r.initial_cdn = TraceCdn::kOther;
    }
    if (block.switches.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error{"BrokerTraceGenerator: switch pool exceeds 2^32 events"};
    }
    r.switch_offset = static_cast<std::uint32_t>(first_switch);
    r.switch_count = static_cast<std::uint32_t>(block.switches.size() - first_switch);
    block.records.push_back(r);
  }

  /// Replaces `block` with `count` sessions drawn by sample(), sorted by
  /// arrival into exactly the order the seed code's sort of whole Sessions
  /// gave.
  void fill(core::Rng& rng, std::size_t count, double arrival_lo, double arrival_hi,
            const BlockModulation* mod, Block& block) const {
    draw_sorted_by_arrival(rng, block.records, [&] {
      block.records.clear();
      block.switches.clear();
      block.records.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        sample(rng, arrival_lo, arrival_hi, mod, block);
      }
    });
  }

  /// The Session for record `i` of `block`.
  [[nodiscard]] Session materialize(const Block& block, std::size_t i,
                                    SessionId id) const {
    const Block::Record& r = block.records[i];
    Session s;
    s.id = id;
    s.arrival_s = r.arrival_s;
    s.video = VideoId{r.video};
    s.bitrate_mbps = config.bitrate_ladder[r.bitrate_index];
    s.duration_s = r.duration_s;
    s.city = CityId{r.city};
    s.as_number = r.as_number;
    s.abandoned = r.abandoned;
    s.initial_cdn = r.initial_cdn;
    const auto first = block.switches.begin() + r.switch_offset;
    s.switches.assign(first, first + r.switch_count);
    return s;
  }
};

namespace {

BrokerTrace generate_impl(const geo::World& world, const TraceConfig& config,
                          std::size_t session_count, bool broker_controlled,
                          core::Rng& rng) {
  check_config(config, /*allow_empty=*/false);

  const BrokerTraceGenerator::Model model{world, config, session_count,
                                          broker_controlled, rng};

  // Sessions are drawn one at a time through a one-record block, so no
  // second trace-sized buffer exists next to `sessions`.
  std::vector<Session> sessions;
  sessions.reserve(session_count);
  BrokerTraceGenerator::Block one;
  draw_sorted_by_arrival(rng, sessions, [&] {
    sessions.clear();
    for (std::size_t i = 0; i < session_count; ++i) {
      one.records.clear();
      one.switches.clear();
      model.sample(rng, 0.0, config.duration_s, nullptr, one);
      sessions.push_back(model.materialize(one, 0, SessionId{}));
    }
  });
  // Ids issued in arrival order.
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    sessions[i].id = SessionId{static_cast<std::uint32_t>(i)};
  }
  return BrokerTrace{std::move(sessions), config.duration_s};
}

}  // namespace

BrokerTrace generate_trace(const geo::World& world, const TraceConfig& config,
                           core::Rng& rng) {
  return generate_impl(world, config, config.session_count, /*broker_controlled=*/true,
                       rng);
}

BrokerTrace generate_background(const geo::World& world, const TraceConfig& config,
                                double multiplier, core::Rng& rng) {
  if (!(multiplier > 0.0)) {
    throw std::invalid_argument{"generate_background: multiplier must be > 0"};
  }
  const auto count = static_cast<std::size_t>(
      std::llround(multiplier * static_cast<double>(config.session_count)));
  return generate_impl(world, config, std::max<std::size_t>(1, count),
                       /*broker_controlled=*/false, rng);
}

/// The one worker thread that generates the next block while the caller
/// drains the current one. The caller hands it a block index under the
/// mutex; the worker owns `block` until it clears `requested` again.
struct BrokerTraceGenerator::Prefetch {
  static constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

  /// `capacity` sessions are reserved on the caller's thread, so the worker
  /// reuses the buffer and allocates no records of its own.
  Prefetch(const BrokerTraceGenerator& generator, std::size_t capacity) {
    block.records.reserve(capacity);
    // Started last, so a failed reserve leaves no joinable thread behind.
    thread = std::thread([this, &generator] { run(generator); });
  }
  ~Prefetch() {
    {
      std::scoped_lock lock{mutex};
      stop = true;
    }
    wake.notify_one();
    thread.join();
  }
  Prefetch(const Prefetch&) = delete;
  Prefetch& operator=(const Prefetch&) = delete;

  /// Waits until the worker holds no request; the caller keeps `lock`.
  void wait_idle(std::unique_lock<std::mutex>& lock) {
    idle.wait(lock, [this] { return requested == kNone; });
  }

  void run(const BrokerTraceGenerator& generator) {
    std::unique_lock lock{mutex};
    while (true) {
      wake.wait(lock, [this] { return stop || requested != kNone; });
      if (stop) return;
      const std::size_t b = requested;
      lock.unlock();
      bool done = true;
      try {
        generator.generate_block(b, block);
      } catch (...) {
        // Not lost: the caller finds no ready block and generates b itself,
        // which raises the same (deterministic) failure on its own thread.
        done = false;
      }
      lock.lock();
      ready = done ? b : kNone;
      requested = kNone;
      idle.notify_all();
    }
  }

  std::mutex mutex;
  std::condition_variable wake;   // a request or stop for the worker
  std::condition_variable idle;   // the worker finished its request
  std::size_t requested = kNone;  // block the worker is generating
  std::size_t ready = kNone;      // block `block` holds complete
  bool stop = false;
  Block block;
  std::thread thread;
};

BrokerTraceGenerator::BrokerTraceGenerator(const geo::World& world,
                                           const TraceConfig& config, core::Rng rng)
    : BrokerTraceGenerator(world, config, rng, Options{}) {}

BrokerTraceGenerator::BrokerTraceGenerator(const geo::World& world,
                                           const TraceConfig& config, core::Rng rng,
                                           Options options)
    : base_rng_(rng), options_(options) {
  check_config(config, /*allow_empty=*/true);
  if (options_.block_sessions == 0) {
    throw std::invalid_argument{"BrokerTraceGenerator: block_sessions must be > 0"};
  }
  // The model consumes the base RNG exactly like generate_impl does (the
  // "country-shares" fork), leaving per-block substreams to fork cleanly
  // from the post-construction state.
  model_ = std::make_unique<Model>(world, config, config.session_count,
                                   options_.broker_controlled, base_rng_);
  const std::size_t n = config.session_count;
  block_count_ = n == 0 ? 0 : (n + options_.block_sessions - 1) / options_.block_sessions;

  if (options_.modulation != nullptr && options_.modulation->active() &&
      block_count_ > 0) {
    // Modulated partition: block b emits floor(N * cum_b / T) - floor(N *
    // cum_{b-1} / T) sessions, where cum_b integrates the modulated
    // intensity g(t) up to block b's end. With g == 1 this reduces to the
    // seed partition, but the unmodulated path below keeps its exact
    // integer arithmetic — float never touches the golden stream.
    modulated_ = true;
    city_weights_ = Model::city_weights(world);
    mod_offsets_.assign(block_count_ + 1, 0);
    const double horizon = config.duration_s;
    double cum = 0.0;
    for (std::size_t b = 0; b < block_count_; ++b) {
      const double lo =
          horizon * static_cast<double>(b) / static_cast<double>(block_count_);
      const double hi =
          horizon * static_cast<double>(b + 1) / static_cast<double>(block_count_);
      const BlockModulation block{*options_.modulation, city_weights_, lo, hi,
                                  kModulationBins};
      cum += block.integral();
      mod_offsets_[b + 1] = static_cast<std::uint64_t>(
          std::floor(static_cast<double>(n) * cum / horizon));
      max_block_sessions_ =
          std::max(max_block_sessions_,
                   static_cast<std::size_t>(mod_offsets_[b + 1] - mod_offsets_[b]));
    }
  } else if (block_count_ > 0) {
    max_block_sessions_ = (n + block_count_ - 1) / block_count_;  // ceil(N / B)
  }
}

BrokerTraceGenerator::~BrokerTraceGenerator() = default;

std::size_t BrokerTraceGenerator::total_sessions() const noexcept {
  return modulated_ ? static_cast<std::size_t>(mod_offsets_.back())
                    : model_->config.session_count;
}

double BrokerTraceGenerator::duration_s() const noexcept {
  return model_->config.duration_s;
}

bool BrokerTraceGenerator::exhausted() const noexcept {
  return next_block_ >= block_count_ && buffered() == 0;
}

std::size_t BrokerTraceGenerator::buffered() const noexcept {
  return front_ ? front_->records.size() - front_pos_ : 0;
}

std::size_t BrokerTraceGenerator::block_bytes() const {
  std::size_t bytes = front_ ? front_->bytes() : 0;
  if (prefetch_) {
    std::unique_lock lock{prefetch_->mutex};
    prefetch_->wait_idle(lock);
    bytes += prefetch_->block.bytes();
  }
  return bytes;
}

void BrokerTraceGenerator::reset() {
  prefetch_.reset();  // joins the worker, dropping any block it prepared
  next_block_ = 0;
  emitted_ = 0;
  if (front_) front_->records.clear();
  front_pos_ = 0;
}

void BrokerTraceGenerator::seek(std::size_t emitted) {
  const std::size_t total = total_sessions();
  if (emitted > total) {
    throw std::invalid_argument{"BrokerTraceGenerator::seek: position " +
                                std::to_string(emitted) + " past horizon total " +
                                std::to_string(total)};
  }
  reset();
  if (total == 0) return;
  if (emitted == total) {  // exhausted stream: nothing left to regenerate
    next_block_ = block_count_;
    emitted_ = total;
    return;
  }

  std::size_t b = 0;
  std::size_t block_lo = 0;
  if (modulated_) {
    // Containing block: the last b with offsets[b] <= emitted (consecutive
    // equal offsets are empty blocks, skipped by upper_bound).
    const auto it = std::upper_bound(mod_offsets_.begin(), mod_offsets_.end(),
                                     static_cast<std::uint64_t>(emitted));
    b = static_cast<std::size_t>(it - mod_offsets_.begin()) - 1;
    block_lo = static_cast<std::size_t>(mod_offsets_[b]);
  } else {
    // Containing block: the b with floor(bN/B) <= emitted < floor((b+1)N/B).
    // The initial estimate is within one block of the answer; nudge exactly.
    const std::size_t n = model_->config.session_count;
    const std::size_t B = block_count_;
    b = emitted * B / n;
    while (b + 1 < B && (b + 1) * n / B <= emitted) ++b;
    while (b > 0 && b * n / B > emitted) --b;
    block_lo = b * n / B;
  }

  next_block_ = b;
  refill();  // regenerates block b (advances next_block_ to b + 1)
  front_pos_ = emitted - block_lo;
  emitted_ = emitted;
}

void BrokerTraceGenerator::generate_block(std::size_t b, Block& block) const {
  const std::size_t n = model_->config.session_count;
  const std::size_t B = block_count_;
  // Deterministic partition of N sessions over B blocks. Unmodulated: block
  // b gets floor((b+1)N/B) - floor(bN/B) sessions (sums to N, spread
  // evenly). Modulated: the precomputed intensity-cumulative offsets.
  const std::size_t lo_count =
      modulated_ ? static_cast<std::size_t>(mod_offsets_[b]) : b * n / B;
  const std::size_t hi_count =
      modulated_ ? static_cast<std::size_t>(mod_offsets_[b + 1]) : (b + 1) * n / B;
  const double horizon = model_->config.duration_s;
  const double window_lo = horizon * static_cast<double>(b) / static_cast<double>(B);
  const double window_hi =
      horizon * static_cast<double>(b + 1) / static_cast<double>(B);

  // Substream independence: block b's draws depend only on the base seed
  // and b — never on the other blocks or on batch granularity. Forking
  // consumes parent state, so fork from a fresh copy every time; the label
  // alone differentiates the blocks (and reset() replays exactly).
  core::Rng fork_parent = base_rng_;
  core::Rng block_rng = fork_parent.fork("block-" + std::to_string(b));

  std::optional<BlockModulation> block_mod;
  if (modulated_ && hi_count > lo_count) {
    block_mod.emplace(*options_.modulation, city_weights_, window_lo, window_hi,
                      kModulationBins);
  }
  // Arrival order within the block; blocks cover disjoint time windows, so
  // this yields global arrival order. Ids are issued densely on emission.
  model_->fill(block_rng, hi_count - lo_count, window_lo, window_hi,
               block_mod ? &*block_mod : nullptr, block);
}

void BrokerTraceGenerator::refill() {
  const std::size_t b = next_block_++;
  front_pos_ = 0;
  if (!front_) {
    front_ = std::make_unique<Block>();
    front_->records.reserve(max_block_sessions_);
  }
  bool taken = false;
  if (block_count_ > 1) {
    if (!prefetch_) prefetch_ = std::make_unique<Prefetch>(*this, max_block_sessions_);
    {
      std::unique_lock lock{prefetch_->mutex};
      prefetch_->wait_idle(lock);
      if (prefetch_->ready == b) {
        std::swap(*front_, prefetch_->block);
        taken = true;
      }
      // Anything else the worker holds is stale (not the block asked for).
      prefetch_->ready = Prefetch::kNone;
      if (b + 1 < block_count_) prefetch_->requested = b + 1;
    }
    prefetch_->wake.notify_one();
  }
  // Without a prepared block (the first one, or after reset()/seek()), this
  // thread generates b while the worker already works on b + 1.
  if (!taken) generate_block(b, *front_);
}

std::vector<Session> BrokerTraceGenerator::next_batch(std::size_t max_sessions) {
  std::vector<Session> out;
  out.reserve(std::min(max_sessions, total_sessions() - emitted_));
  while (out.size() < max_sessions) {
    if (buffered() == 0) {
      if (next_block_ >= block_count_) break;
      refill();
      continue;
    }
    out.push_back(model_->materialize(*front_, front_pos_++,
                                      SessionId{static_cast<std::uint32_t>(emitted_++)}));
  }
  return out;
}

void BrokerTraceGenerator::next_arrivals(std::size_t max_sessions,
                                         std::vector<Arrival>& out) {
  out.clear();
  const std::vector<double>& ladder = model_->config.bitrate_ladder;
  while (out.size() < max_sessions) {
    if (buffered() == 0) {
      if (next_block_ >= block_count_) break;
      refill();
      continue;
    }
    const std::size_t take = std::min(max_sessions - out.size(), buffered());
    const Block::Record* r = front_->records.data() + front_pos_;
    for (std::size_t i = 0; i < take; ++i, ++r) {
      out.push_back(Arrival{SessionId{static_cast<std::uint32_t>(emitted_ + i)},
                            CityId{r->city}, r->arrival_s,
                            ladder[r->bitrate_index], r->arrival_s + r->duration_s});
    }
    front_pos_ += take;
    emitted_ += take;
  }
}

}  // namespace vdx::trace
