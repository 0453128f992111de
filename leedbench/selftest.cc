// The benchmark's own tests: the result checker must flag a corrupted
// value and a stale version, and two short runs of one seed must agree on
// every simulated metric and registry counter.

#include <cstdio>
#include <vector>

#include "checker.h"
#include "harness.h"
#include "workload/ycsb.h"

namespace {

int failures = 0;

void Expect(bool cond, const char* what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what);
  if (!cond) ++failures;
}

std::vector<uint8_t> Value(uint64_t key, uint32_t version) {
  leed::workload::YcsbConfig wc;
  wc.num_keys = 1;
  wc.zipf_theta = 0;
  wc.value_size = 1024;
  return leed::workload::YcsbGenerator(wc).MakeValue(key, version);
}

void CheckerTests() {
  using leedbench::ResultChecker;
  ResultChecker c(/*preloaded_keys=*/100, /*value_size=*/1024);

  Expect(c.CheckGet(7, c.ReadFloor(7), true, Value(7, 0)), "preloaded value accepted");
  std::vector<uint8_t> corrupt = Value(7, 0);
  corrupt[100] ^= 0x40;
  Expect(!c.CheckGet(7, c.ReadFloor(7), true, corrupt), "corrupted value flagged");
  Expect(!c.CheckGet(7, c.ReadFloor(7), true, Value(8, 0)), "other key's value flagged");
  Expect(!c.CheckGet(7, c.ReadFloor(7), false, {}), "lost preloaded key flagged");

  // v1 written and acked at t=10..20; a read invoked after the ack must
  // not return version 0.
  const uint32_t v1 = c.BeginPut(7, 10);
  c.RecordValue(7, v1, Value(7, v1));
  const leedbench::SimTime concurrent_floor = c.ReadFloor(7);  // read invoked at 15
  c.EndPut(7, v1, true, 20);
  Expect(c.CheckGet(7, concurrent_floor, true, Value(7, 0)),
         "old version accepted for a read concurrent with the write");
  Expect(c.CheckGet(7, concurrent_floor, true, Value(7, v1)),
         "new version accepted for a read concurrent with the write");
  Expect(!c.CheckGet(7, c.ReadFloor(7), true, Value(7, 0)), "stale version flagged");
  Expect(c.CheckGet(7, c.ReadFloor(7), true, Value(7, v1)), "acked version accepted");
  Expect(!c.CheckGet(7, c.ReadFloor(7), true, Value(7, v1 + 1)), "never-written version flagged");

  // Two concurrent writes may take effect in either order.
  const uint32_t v2 = c.BeginPut(9, 30);
  const uint32_t v3 = c.BeginPut(9, 31);
  c.RecordValue(9, v2, Value(9, v2));
  c.RecordValue(9, v3, Value(9, v3));
  c.EndPut(9, v3, true, 40);
  c.EndPut(9, v2, true, 45);
  Expect(c.CheckGet(9, c.ReadFloor(9), true, Value(9, v2)) &&
             c.CheckGet(9, c.ReadFloor(9), true, Value(9, v3)),
         "either order of concurrent writes accepted");

  // Scans: order, bounds, limit and values.
  auto item = [](uint64_t k, uint32_t v) {
    return leed::store::ScanItem{leed::workload::YcsbGenerator::KeyName(k), Value(k, v)};
  };
  Expect(c.CheckScan(10, 4, 50, {item(10, 0), item(11, 0), item(12, 0)}), "good scan accepted");
  Expect(!c.CheckScan(10, 4, 50, {item(11, 0), item(10, 0)}), "unordered scan flagged");
  Expect(!c.CheckScan(10, 4, 50, {item(9, 0)}), "scan item before start key flagged");
  Expect(!c.CheckScan(10, 2, 50, {item(10, 0), item(11, 0), item(12, 0)}),
         "scan over its limit flagged");
  Expect(!c.CheckScan(5, 4, 50, {item(7, 0)}), "stale scan item flagged");
  auto bad = item(12, 0);
  bad.value[0] ^= 1;
  Expect(!c.CheckScan(10, 4, 50, {item(10, 0), bad}), "corrupted scan item flagged");

  const std::vector<uint64_t> written = c.WrittenKeys();
  Expect(written == std::vector<uint64_t>{7, 9}, "written keys listed for read-back");
}

void DeterminismTest() {
  for (const auto& spec : leedbench::Workloads()) {
    leedbench::DriveOptions opt;
    opt.warmup = 10 * leed::kMillisecond;
    opt.window = 20 * leed::kMillisecond;
    leedbench::DriveResult r[2];
    for (auto& run : r) {
      leedbench::Bench bench(spec, 3);
      bench.Setup();
      run = bench.Drive(opt);
    }
    const bool same = r[0].sim_kqps == r[1].sim_kqps &&
                      r[0].sim_goodput_kqps == r[1].sim_goodput_kqps &&
                      r[0].put.p50_us == r[1].put.p50_us &&
                      r[0].put.p999_us == r[1].put.p999_us &&
                      r[0].get.p50_us == r[1].get.p50_us &&
                      r[0].scan.p50_us == r[1].scan.p50_us && r[0].counters == r[1].counters &&
                      !r[0].counters.empty() && r[0].layer == r[1].layer;
    std::printf("     %s: %.3f KQPS, %zu counters\n", spec.name.c_str(), r[0].sim_kqps,
                r[0].counters.size());
    Expect(same, ("two runs of one seed agree: " + spec.name).c_str());
    Expect(r[0].wrong_results == 0, ("no wrong results: " + spec.name).c_str());
  }
}

}  // namespace

int main() {
  CheckerTests();
  DeterminismTest();
  std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
  return failures ? 1 : 0;
}
