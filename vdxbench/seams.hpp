// Decorators over the program's public input seams. The benchmark measures
// each layer from outside: it wraps the session stream, the arrival feed and
// the checkpoint file system it hands the program, and times the calls the
// program makes through them. Every decorator forwards unchanged, so the
// program's outputs are the same with or without it.
#pragma once

#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "obs/tracer.hpp"
#include "serve/feed.hpp"
#include "sim/streaming.hpp"
#include "state/fs.hpp"

namespace vdx::bench {

/// SessionStream decorator: every pull runs inside a "trace.generate" span.
class TracedStream final : public sim::SessionStream {
 public:
  TracedStream(sim::SessionStream& inner, obs::SpanTracer& tracer)
      : inner_(&inner), tracer_(&tracer) {}

  [[nodiscard]] std::vector<trace::Session> next_batch(
      std::size_t max_sessions) override {
    const obs::SpanTracer::Scoped span{tracer_, "trace.generate"};
    std::vector<trace::Session> batch = inner_->next_batch(max_sessions);
    pulled_ += batch.size();
    return batch;
  }
  [[nodiscard]] bool exhausted() const override { return inner_->exhausted(); }
  [[nodiscard]] double duration_s() const override { return inner_->duration_s(); }
  void seek(std::uint64_t consumed) override { inner_->seek(consumed); }

  [[nodiscard]] std::uint64_t pulled() const noexcept { return pulled_; }

 private:
  sim::SessionStream* inner_;
  obs::SpanTracer* tracer_;
  std::uint64_t pulled_ = 0;
};

/// ArrivalFeed decorator that marks the daemon's rounds. The daemon pulls
/// exactly once per round, so the interval between consecutive next_until
/// calls is one round of service; finish() closes the last one when run()
/// returns. With a tracer, each round is a "serve.round" span (the daemon's
/// own decision.* spans nest inside it) and each pull a "serve.feed" span.
class RoundFeed final : public serve::ArrivalFeed {
 public:
  RoundFeed(serve::ArrivalFeed& inner, obs::SpanTracer* tracer)
      : inner_(&inner), tracer_(tracer) {}

  [[nodiscard]] std::vector<trace::Session> next_until(double t) override {
    marks_.push_back(Clock::now());
    if (tracer_ != nullptr) {
      tracer_->end(round_token_);
      round_token_ = tracer_->begin("serve.round");
    }
    const obs::SpanTracer::Scoped span{tracer_, "serve.feed"};
    std::vector<trace::Session> arrivals = inner_->next_until(t);
    arrivals_.push_back(arrivals.size());
    return arrivals;
  }
  [[nodiscard]] bool exhausted() const override { return inner_->exhausted(); }
  [[nodiscard]] double duration_s() const override { return inner_->duration_s(); }
  [[nodiscard]] std::uint64_t consumed() const override { return inner_->consumed(); }
  void seek(std::uint64_t consumed) override { inner_->seek(consumed); }
  [[nodiscard]] bool seekable() const override { return inner_->seekable(); }

  /// Ends the last round (call when ServeDaemon::run() returns).
  void finish() {
    marks_.push_back(Clock::now());
    if (tracer_ != nullptr) tracer_->end(round_token_);
    round_token_ = 0;
  }

  /// Rounds begun so far; the current round's index is rounds() - 1.
  [[nodiscard]] std::size_t rounds() const noexcept { return marks_.size(); }
  /// Wall milliseconds of every finished round, in round order.
  [[nodiscard]] std::vector<double> round_ms() const {
    std::vector<double> out;
    for (std::size_t i = 1; i < marks_.size(); ++i) {
      out.push_back(seconds_between(marks_[i - 1], marks_[i]) * 1e3);
    }
    return out;
  }
  /// Sessions handed to the daemon in each round, in round order.
  [[nodiscard]] const std::vector<std::size_t>& round_arrivals() const noexcept {
    return arrivals_;
  }

 private:
  serve::ArrivalFeed* inner_;
  obs::SpanTracer* tracer_;
  std::uint64_t round_token_ = 0;
  std::vector<Clock::time_point> marks_;
  std::vector<std::size_t> arrivals_;
};

/// FileSystem decorator for the checkpoint store: with a tracer every call
/// runs inside a "state.fs" span. It always counts the bytes written and
/// notes the round (from `rounds`) in which each snapshot file was opened.
class RecordingFs final : public state::FileSystem {
 public:
  RecordingFs(state::FileSystem& inner, const RoundFeed& rounds,
              obs::SpanTracer* tracer)
      : inner_(&inner), rounds_(&rounds), tracer_(tracer) {}

  core::Result<Handle> open_write(const std::filesystem::path& path) override {
    const obs::SpanTracer::Scoped span{tracer_, "state.fs"};
    write_rounds_.push_back(rounds_->rounds() - 1);
    return inner_->open_write(path);
  }
  core::Status write(Handle handle, std::span<const std::uint8_t> bytes) override {
    const obs::SpanTracer::Scoped span{tracer_, "state.fs"};
    bytes_written_ += bytes.size();
    return inner_->write(handle, bytes);
  }
  core::Status fsync(Handle handle) override {
    const obs::SpanTracer::Scoped span{tracer_, "state.fs"};
    return inner_->fsync(handle);
  }
  core::Status close(Handle handle) override {
    const obs::SpanTracer::Scoped span{tracer_, "state.fs"};
    return inner_->close(handle);
  }
  core::Status rename(const std::filesystem::path& from,
                      const std::filesystem::path& to) override {
    const obs::SpanTracer::Scoped span{tracer_, "state.fs"};
    return inner_->rename(from, to);
  }
  core::Status remove(const std::filesystem::path& path) override {
    const obs::SpanTracer::Scoped span{tracer_, "state.fs"};
    return inner_->remove(path);
  }
  core::Status create_directories(const std::filesystem::path& dir) override {
    const obs::SpanTracer::Scoped span{tracer_, "state.fs"};
    return inner_->create_directories(dir);
  }
  core::Result<std::vector<std::filesystem::path>> list_dir(
      const std::filesystem::path& dir) override {
    const obs::SpanTracer::Scoped span{tracer_, "state.fs"};
    return inner_->list_dir(dir);
  }
  core::Result<std::vector<std::uint8_t>> read_file(
      const std::filesystem::path& path) override {
    const obs::SpanTracer::Scoped span{tracer_, "state.fs"};
    return inner_->read_file(path);
  }

  [[nodiscard]] std::uint64_t bytes_written() const noexcept { return bytes_written_; }
  /// Round index of every snapshot write, in write order.
  [[nodiscard]] const std::vector<std::size_t>& write_rounds() const noexcept {
    return write_rounds_;
  }

 private:
  state::FileSystem* inner_;
  const RoundFeed* rounds_;
  obs::SpanTracer* tracer_;
  std::uint64_t bytes_written_ = 0;
  std::vector<std::size_t> write_rounds_;
};

}  // namespace vdx::bench
