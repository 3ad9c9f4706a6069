// asyncgossip-wire-v1 codec benchmarks (rt/wire.h).
//
// Unlike the simulation benches, this one measures real CPU: the codec is
// on the UdpTransport hot path — every submitted envelope is encoded once
// per transmission (plus once per retransmit) and decoded once per arrival,
// inside the endpoint lock. The interesting quantities:
//
//   envelopes_per_sec : codec throughput in envelopes (not frames; batch
//                       size is the driver's per-tick fan-out, so per-
//                       envelope cost is what scales), timed by the case's
//                       own loop; bytes_per_sec likewise
//   bytes_per_frame   : encoded size of the batch — the wire-compactness
//                       claim (varint-packed bitsets) made checkable
//
// Shapes mirror the algorithms: trivial (one n-bitset), tears (bitset +
// flag), epidemic (nested informed lists, the Theta(n^2)-bit worst case).
// Decode benches include the strict validation pass; a "golden" round-trip
// bench pins encode+decode agreement while measuring.
//
// Run `AG_BENCH_JSON=BENCH_wire.json ./bench_wire` for the JSON report.
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "gossip/epidemic.h"
#include "gossip/tears.h"
#include "gossip/trivial.h"
#include "rt/wire.h"

namespace asyncgossip::bench {

AG_BENCH_SUITE("wire");

namespace {

constexpr std::size_t kBatch = 16;  // envelopes per frame, a realistic tick

enum class Shape { kTrivial, kTears, kEpidemic };

const char* shape_name(Shape shape) {
  switch (shape) {
    case Shape::kTrivial:
      return "trivial";
    case Shape::kTears:
      return "tears";
    case Shape::kEpidemic:
      return "epidemic";
  }
  return "?";
}

PayloadPtr make_payload(Shape shape, std::size_t n, Xoshiro256SS* rng) {
  DynamicBitset rumors(n);
  for (std::size_t i = 0; i < n; ++i)
    if (rng->uniform(2) == 0) rumors.set(i);
  switch (shape) {
    case Shape::kTrivial: {
      auto p = std::make_shared<TrivialPayload>();
      p->rumors = std::move(rumors);
      return p;
    }
    case Shape::kTears: {
      auto p = std::make_shared<TearsPayload>();
      p->rumors = std::move(rumors);
      p->flag_up = rng->uniform(2) == 1;
      return p;
    }
    case Shape::kEpidemic: {
      auto p = std::make_shared<EpidemicPayload>();
      p->rumors = std::move(rumors);
      p->informed = InformedList(n);
      for (std::size_t r = 0; r < n; ++r) {
        if (rng->uniform(4) != 0) continue;  // sparse informed lists
        DynamicBitset row(n);
        for (std::size_t i = 0; i < n; ++i)
          if (rng->uniform(2) == 0) row.set(i);
        p->informed.note_row(r, row);
      }
      return p;
    }
  }
  return nullptr;
}

wire::DataFrame make_frame(Shape shape, std::size_t n) {
  Xoshiro256SS rng(7);
  wire::DataFrame frame;
  frame.from = 1;
  frame.to = 2;
  frame.seq = 1;
  for (std::size_t i = 0; i < kBatch; ++i) {
    Envelope env;
    env.id = i;
    env.from = 1;
    env.to = 2;
    env.send_time = 100;
    env.deliver_after = 100 + 1 + rng.uniform(8);
    env.payload = make_payload(shape, n, &rng);
    frame.envelopes.push_back(std::move(env));
  }
  return frame;
}

/// Rates from the case's own timed loop, as plain counters: record_case
/// sees raw counter values, so Google Benchmark's kIsRate counters (what
/// SetItemsProcessed/SetBytesProcessed create) cannot be reported.
void set_rates(benchmark::State& state,
               std::chrono::steady_clock::time_point start,
               std::size_t bytes_per_frame) {
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  const double frames = static_cast<double>(state.iterations());
  state.counters["envelopes_per_sec"] =
      frames * static_cast<double>(kBatch) / wall_s;
  state.counters["bytes_per_sec"] =
      frames * static_cast<double>(bytes_per_frame) / wall_s;
  state.counters["bytes_per_frame"] = static_cast<double>(bytes_per_frame);
}

void run_encode_case(benchmark::State& state, Shape shape) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const wire::DataFrame frame = make_frame(shape, n);
  std::vector<std::uint8_t> out;
  std::size_t bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    out.clear();
    wire::encode_data_frame(&out, frame);
    bytes = out.size();
    benchmark::DoNotOptimize(out.data());
  }
  set_rates(state, start, bytes);
  record_case(state, std::string("wire/encode/") + shape_name(shape) + "/n" +
                         std::to_string(n));
}

void run_decode_case(benchmark::State& state, Shape shape) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> bytes;
  wire::encode_data_frame(&bytes, make_frame(shape, n));
  wire::DataFrame back;
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    const wire::DecodeError err =
        wire::decode_data_frame(bytes.data(), bytes.size(), n, &back);
    if (err != wire::DecodeError::kOk) {
      state.SkipWithError(wire::to_string(err));
      return;
    }
    benchmark::DoNotOptimize(back.envelopes.data());
  }
  set_rates(state, start, bytes.size());
  record_case(state, std::string("wire/decode/") + shape_name(shape) + "/n" +
                         std::to_string(n));
}

void BM_WireEncodeTrivial(benchmark::State& state) {
  run_encode_case(state, Shape::kTrivial);
}
void BM_WireEncodeTears(benchmark::State& state) {
  run_encode_case(state, Shape::kTears);
}
void BM_WireEncodeEpidemic(benchmark::State& state) {
  run_encode_case(state, Shape::kEpidemic);
}
void BM_WireDecodeTrivial(benchmark::State& state) {
  run_decode_case(state, Shape::kTrivial);
}
void BM_WireDecodeTears(benchmark::State& state) {
  run_decode_case(state, Shape::kTears);
}
void BM_WireDecodeEpidemic(benchmark::State& state) {
  run_decode_case(state, Shape::kEpidemic);
}

BENCHMARK(BM_WireEncodeTrivial)->Arg(64)->Arg(1024);
BENCHMARK(BM_WireEncodeTears)->Arg(64)->Arg(1024);
BENCHMARK(BM_WireEncodeEpidemic)->Arg(64)->Arg(256);
BENCHMARK(BM_WireDecodeTrivial)->Arg(64)->Arg(1024);
BENCHMARK(BM_WireDecodeTears)->Arg(64)->Arg(1024);
BENCHMARK(BM_WireDecodeEpidemic)->Arg(64)->Arg(256);

}  // namespace
}  // namespace asyncgossip::bench
