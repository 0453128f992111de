// Microbenchmarks (google-benchmark) for the hot primitives on the real
// host CPU: hashing, CRC-32, Zipf sampling, histogram recording, bucket
// codec, B+-tree, and the discrete-event loop itself. These bound the
// simulator's own overhead and the per-op cost of the data structures a
// SmartNIC core would actually execute.

#include <benchmark/benchmark.h>

#include "common/crc32.h"
#include "common/hash.h"
#include "common/histogram.h"
#include "common/rand.h"
#include "common/zipf.h"
#include "sim/simulator.h"
#include "store/format.h"
#include "store/range_index.h"

namespace leed {
namespace {

void BM_HashKey(benchmark::State& state) {
  std::string key = "user000000012345";
  uint64_t sink = 0;
  for (auto _ : state) {
    sink ^= HashKey(key, 7);
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_HashKey);

void BM_ZipfSample(benchmark::State& state) {
  ZipfGenerator zipf(1'000'000, 0.99);
  Rng rng(1);
  uint64_t sink = 0;
  for (auto _ : state) sink ^= zipf.Next(rng);
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ZipfSample);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(2);
  for (auto _ : state) h.Record(static_cast<double>(rng.NextBounded(100000)));
  benchmark::DoNotOptimize(h.count());
}
BENCHMARK(BM_HistogramRecord);

// Both CRC-32 paths: range(1) == 0 is portable slicing-by-8, 1 the
// PCLMULQDQ folding path that Crc32 dispatches to when the CPU has it.
void BM_Crc32(benchmark::State& state) {
  std::vector<uint8_t> buf(static_cast<size_t>(state.range(0)));
  Rng rng(4);
  for (auto& b : buf) b = static_cast<uint8_t>(rng.Next());
  const bool hardware = state.range(1) != 0;
  if (hardware && !Crc32HardwareAvailable()) {
    state.SkipWithError("CPU lacks PCLMULQDQ");
    return;
  }
  state.SetLabel(hardware ? "pclmul" : "slicing-by-8");
  for (auto _ : state) {
    benchmark::DoNotOptimize(hardware ? Crc32ExtendHardware(0, buf.data(), buf.size())
                                      : Crc32ExtendPortable(0, buf.data(), buf.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->ArgsProduct({{512, 4096}, {0, 1}});

// A full 512 B bucket of YCSB-named keys, as a GET reads it.
std::vector<uint8_t> EncodedFullBucket() {
  store::Bucket b;
  for (int i = 0; i < 12; ++i) {
    store::KeyItem it;
    it.key = "user00000000" + std::to_string(1000 + i);
    it.value_len = 256;
    it.value_offset = static_cast<uint64_t>(i) * 512;
    b.Upsert(512, std::move(it));
  }
  return store::EncodeBucket(b, 512).value();
}

void BM_BucketEncode(benchmark::State& state) {
  auto b = store::DecodeBucket(EncodedFullBucket(), 0, 512).value();
  for (auto _ : state) benchmark::DoNotOptimize(store::EncodeBucket(b, 512).value().data());
}
BENCHMARK(BM_BucketEncode);

// The PUT path's head rewrite on the bytes it read: replace one item of a
// full bucket view straight into the append buffer.
void BM_BucketViewEncodeUpsert(benchmark::State& state) {
  const auto bytes = EncodedFullBucket();
  const auto view = store::BucketView::Parse(bytes, 0, 512).value();
  const store::KeyItemView item{"user000000001003", 256, 4096, 0};
  std::vector<uint8_t> out(512);
  for (auto _ : state) {
    view.EncodeUpsert(item, view.header(), out);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_BucketViewEncodeUpsert);

// The GET-path probe two ways: materialize the bucket and search it, or
// search a checked view in place. Both verify the CRC.
void BM_BucketDecodeFind(benchmark::State& state) {
  const auto bytes = EncodedFullBucket();
  for (auto _ : state) {
    auto b = store::DecodeBucket(bytes, 0, 512);
    benchmark::DoNotOptimize(b.value().Find("user000000001003"));
  }
}
BENCHMARK(BM_BucketDecodeFind);

void BM_BucketViewFind(benchmark::State& state) {
  const auto bytes = EncodedFullBucket();
  for (auto _ : state) {
    auto v = store::BucketView::Parse(bytes, 0, 512);
    benchmark::DoNotOptimize(v.value().Find("user000000001003"));
  }
}
BENCHMARK(BM_BucketViewFind);

void BM_RangeIndexFind(benchmark::State& state) {
  store::RangeIndex tree;
  for (int i = 0; i < 100000; ++i) {
    tree.Upsert("user" + std::to_string(i), {0, static_cast<uint64_t>(i), 0});
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        tree.Find("user" + std::to_string(rng.NextBounded(100000))));
  }
}
BENCHMARK(BM_RangeIndexFind);

void BM_SimulatorEventLoop(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator s;
    int fired = 0;
    for (int i = 0; i < 1000; ++i) {
      s.Schedule(i, [&fired] { ++fired; });
    }
    s.Run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SimulatorEventLoop);

}  // namespace
}  // namespace leed

BENCHMARK_MAIN();
