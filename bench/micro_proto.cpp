// Wire-codec microbenchmarks: encode/decode throughput for the marketplace
// message types (the exchange transmits thousands of bids per round).
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <vector>

#include "proto/messages.hpp"

namespace {

using namespace vdx::proto;

void BM_EncodeBid(benchmark::State& state) {
  const Message bid = BidMessage{17, 42, 23.5, 1500.0, 1.75, 3};
  for (auto _ : state) {
    const auto frame = encode(bid);
    benchmark::DoNotOptimize(frame.data());
  }
}

void BM_DecodeBid(benchmark::State& state) {
  const auto frame = encode(Message{BidMessage{17, 42, 23.5, 1500.0, 1.75, 3}});
  for (auto _ : state) {
    const Message decoded = decode(frame);
    benchmark::DoNotOptimize(&decoded);
  }
}

void BM_RoundTripShare(benchmark::State& state) {
  const Message share = ShareMessage{42, 7, 12345, 99, 2.5, 120};
  for (auto _ : state) {
    const Message decoded = decode(encode(share));
    benchmark::DoNotOptimize(&decoded);
  }
}

void BM_DecodeStream(benchmark::State& state) {
  // A realistic Announce burst: N bids back to back.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> stream;
  for (std::size_t i = 0; i < n; ++i) {
    const auto frame = encode(Message{
        BidMessage{static_cast<std::uint32_t>(i), 42, 23.5, 1500.0, 1.75, 3}});
    stream.insert(stream.end(), frame.begin(), frame.end());
  }
  for (auto _ : state) {
    const auto messages = decode_stream(stream);
    benchmark::DoNotOptimize(messages.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

/// One fault-free Decision Protocol hop as the engine makes it: encode into
/// an exact-size stack frame, then the validated typed decode. The messages
/// come from a run-time table so no field folds to a constant.
template <typename T>
void transmit_hop(benchmark::State& state, const std::vector<T>& messages) {
  std::size_t i = 0;
  for (auto _ : state) {
    std::array<std::uint8_t, kFrameSize<T>> frame{};
    encode_into(messages[i++ % messages.size()], std::span{frame});
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
    const vdx::core::Result<T> decoded = try_decode_as<T>(frame);
    benchmark::DoNotOptimize(&decoded);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kFrameSize<T>));
}

void BM_TransmitBid(benchmark::State& state) {
  std::vector<BidMessage> bids;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    bids.push_back(BidMessage{i, 42 + i, 23.5 + i, 1500.0, 1.75 + 0.01 * i, i % 14});
  }
  transmit_hop(state, bids);
}

void BM_TransmitAccept(benchmark::State& state) {
  std::vector<AcceptMessage> accepts;
  for (std::uint32_t i = 0; i < 1024; ++i) {
    accepts.push_back(
        AcceptMessage{i, 42 + i, 23.5 + i, 1500.0, 1.75 + 0.01 * i, i % 14, 0.5 * i});
  }
  transmit_hop(state, accepts);
}

}  // namespace

BENCHMARK(BM_EncodeBid);
BENCHMARK(BM_DecodeBid);
BENCHMARK(BM_RoundTripShare);
BENCHMARK(BM_DecodeStream)->Arg(100)->Arg(10000);
BENCHMARK(BM_TransmitBid);
BENCHMARK(BM_TransmitAccept);
