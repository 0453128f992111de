// Tests for the unified observability layer (leed::obs): registry
// semantics, hierarchical scopes, deterministic snapshot round-trips, the
// event trace ring, and the paper's NVMe access-count invariants (§3.3)
// observed through registry counters alone — the same counters CI gates on.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "log/circular_log.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/block_device.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
#include "store/data_store.h"
#include "test_util.h"

namespace leed::obs {
namespace {

TEST(RegistryTest, CounterSemantics) {
  Registry reg;
  Counter* c = reg.GetCounter("ops");
  EXPECT_EQ(c->value(), 0u);
  c->Inc();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
  // Resolve-or-create is idempotent: same name, same handle.
  EXPECT_EQ(reg.GetCounter("ops"), c);
  EXPECT_EQ(reg.CounterValue("ops"), 42u);
  c->Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(reg.CounterValue("absent"), 0u);
}

TEST(RegistryTest, GaugeSemantics) {
  Registry reg;
  Gauge* g = reg.GetGauge("power_w");
  g->Set(17.5);
  EXPECT_DOUBLE_EQ(g->value(), 17.5);
  g->Add(-2.5);
  EXPECT_DOUBLE_EQ(g->value(), 15.0);
  EXPECT_DOUBLE_EQ(reg.GaugeValue("power_w"), 15.0);
  g->Reset();
  EXPECT_DOUBLE_EQ(g->value(), 0.0);
}

TEST(RegistryTest, HistogramSemantics) {
  Registry reg;
  Histogram* h = reg.GetHistogram("lat_us");
  h->Record(10.0);
  h->Record(20.0);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_EQ(reg.GetHistogram("lat_us"), h);
}

TEST(RegistryTest, KindCollisionThrows) {
  Registry reg;
  reg.GetCounter("x")->Inc();
  EXPECT_THROW(reg.GetGauge("x"), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("x"), std::logic_error);
  // Find* and CounterValue degrade instead of throwing.
  EXPECT_EQ(reg.FindGauge("x"), nullptr);
  EXPECT_EQ(reg.FindHistogram("x"), nullptr);
  EXPECT_EQ(reg.CounterValue("x"), 1u);
}

TEST(RegistryTest, ResetPrefixRespectsDotBoundaries) {
  Registry reg;
  reg.GetCounter("node1.ops")->Add(5);
  reg.GetCounter("node10.ops")->Add(7);
  reg.ResetPrefix("node1");
  EXPECT_EQ(reg.CounterValue("node1.ops"), 0u);
  // "node10" is not inside the "node1" subtree.
  EXPECT_EQ(reg.CounterValue("node10.ops"), 7u);
  reg.GetCounter("node1.ops")->Add(3);
  reg.ResetAll();
  EXPECT_EQ(reg.CounterValue("node1.ops"), 0u);
  EXPECT_EQ(reg.CounterValue("node10.ops"), 0u);
}

TEST(RegistryTest, ScopeJoinsDotNames) {
  Registry reg;
  Scope node(&reg, "node3");
  Scope engine = node.Sub("engine");
  engine.GetCounter("executed")->Inc();
  EXPECT_EQ(reg.CounterValue("node3.engine.executed"), 1u);
  engine.ResetInstruments();
  EXPECT_EQ(reg.CounterValue("node3.engine.executed"), 0u);
  EXPECT_EQ(engine.prefix(), "node3.engine");
}

TEST(RegistryTest, SnapshotJsonRoundTrip) {
  Registry reg;
  reg.GetCounter("a.reads")->Add(123);
  reg.GetCounter("a.writes")->Add(456);
  reg.GetCounter("zero");
  reg.GetGauge("g")->Set(2.5);
  reg.GetHistogram("h")->Record(100.0);

  std::string json = reg.SnapshotJson();
  auto counters = ParseSnapshotCounters(json);
  ASSERT_EQ(counters.size(), 3u);
  EXPECT_EQ(counters.at("a.reads"), 123u);
  EXPECT_EQ(counters.at("a.writes"), 456u);
  EXPECT_EQ(counters.at("zero"), 0u);

  // Deterministic: an identical registry snapshots byte-identically.
  EXPECT_EQ(json, reg.SnapshotJson());
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
}

// A component's stats struct, as the registry owns it: two published
// counters, a published histogram and a private field.
struct DemoStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t private_count = 0;
  Histogram lat_us;
};
constexpr Field<DemoStats> kDemoFields[] = {
    {"hits", &DemoStats::hits},
    {"misses", &DemoStats::misses},
    {"lat_us", &DemoStats::lat_us},
};

TEST(StatsStructTest, ResolvingAPrefixTwiceGivesTheSameStruct) {
  Registry reg;
  DemoStats* first = Scope(&reg, "node1").Sub("demo").Resolve(kDemoFields);
  ++first->hits;
  DemoStats* again = Scope(&reg, "node1.demo").Resolve(kDemoFields);
  EXPECT_EQ(again, first);
  EXPECT_EQ(again->hits, 1u);
  EXPECT_NE(Scope(&reg, "node2.demo").Resolve(kDemoFields), first);
  EXPECT_EQ(reg.size(), 6u);  // three instruments per prefix
}

TEST(StatsStructTest, ResetZeroesPublishedFieldsOnly) {
  Registry reg;
  DemoStats* s = Scope(&reg, "node1").Resolve(kDemoFields);
  DemoStats* other = Scope(&reg, "node10").Resolve(kDemoFields);
  s->hits = 3;
  s->misses = 4;
  s->private_count = 5;
  s->lat_us.Record(10.0);
  other->hits = 7;
  reg.ResetPrefix("node1");
  EXPECT_EQ(s->hits, 0u);
  EXPECT_EQ(s->misses, 0u);
  EXPECT_EQ(s->lat_us.count(), 0u);
  EXPECT_EQ(s->private_count, 5u);
  EXPECT_EQ(other->hits, 7u);
  reg.ResetAll();
  EXPECT_EQ(other->hits, 0u);
  EXPECT_EQ(s->private_count, 5u);
}

TEST(StatsStructTest, SnapshotShowsTheFieldValues) {
  Registry reg;
  DemoStats* s = Scope(&reg, "demo").Resolve(kDemoFields);
  s->hits = 7;
  s->misses = 2;
  s->private_count = 9;
  s->lat_us.Record(4.0);
  const std::map<std::string, uint64_t> expected = {{"demo.hits", 7},
                                                    {"demo.misses", 2}};
  EXPECT_EQ(ParseSnapshotCounters(reg.SnapshotJson()), expected);
  EXPECT_EQ(reg.CounterValue("demo.hits"), 7u);
  EXPECT_EQ(reg.FindHistogram("demo.lat_us"), &s->lat_us);
  EXPECT_NE(reg.SnapshotJson().find("\"demo.lat_us\": {\"count\": 1"),
            std::string::npos);
}

TEST(StatsStructTest, KindClashAndSecondWriterThrow) {
  Registry reg;
  Scope(&reg, "demo").Resolve(kDemoFields);
  EXPECT_THROW(reg.GetGauge("demo.hits"), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("demo.hits"), std::logic_error);
  // A published field is written only through its struct.
  EXPECT_THROW(reg.GetCounter("demo.hits"), std::logic_error);
  EXPECT_THROW(reg.GetHistogram("demo.lat_us"), std::logic_error);
  reg.GetGauge("clash.misses");
  EXPECT_THROW(Scope(&reg, "clash").Resolve(kDemoFields), std::logic_error);
}

TEST(StatsStructTest, StandaloneScopeStillCounts) {
  Scope standalone(nullptr, "demo");
  DemoStats* s = standalone.Resolve(kDemoFields);
  ++s->hits;
  EXPECT_EQ(standalone.registry().CounterValue("demo.hits"), 1u);
  EXPECT_EQ(standalone.Sub("x").registry().CounterValue("demo.hits"), 1u);
}

TEST(TraceRingTest, DisabledRecordingIsANoOp) {
  TraceRing ring(8);
  ring.Record(100, TraceKind::kOpBegin, 0, 0, 1);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_recorded(), 0u);
}

TEST(TraceRingTest, OverflowKeepsNewestAndCountsDrops) {
  TraceRing ring(8);
  ring.set_enabled(true);
  for (uint64_t i = 0; i < 20; ++i) {
    ring.Record(static_cast<SimTime>(i), TraceKind::kOpBegin, 1, 0, i);
  }
  EXPECT_EQ(ring.capacity(), 8u);
  EXPECT_EQ(ring.size(), 8u);
  EXPECT_EQ(ring.total_recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);
  auto events = ring.Events();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].id, 12 + i) << "oldest-first order";
  }
  ring.Clear();
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_recorded(), 0u);
}

TEST(TraceRingTest, JsonCarriesKindNamesAndDrops) {
  TraceRing ring(2);
  ring.set_enabled(true);
  ring.Record(5, TraceKind::kChainHop, 2, 7, 99, 1);
  ring.Record(6, TraceKind::kCrrsShip, 2, 7, 100, 3);
  ring.Record(7, TraceKind::kOpEnd, 2, 0, 101, 0);
  std::string json = ring.Json();
  EXPECT_EQ(json.find("chain_hop"), std::string::npos);  // scrolled away
  EXPECT_NE(json.find("crrs_ship"), std::string::npos);
  EXPECT_NE(json.find("op_end"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 1"), std::string::npos);
}

// §3.3 invariant check through the registry only: the per-op NVMe access
// counts (GET 2 / PUT 3 / DEL 2) must be visible as "store0.ssd_reads" /
// "store0.ssd_writes" counter deltas, with no reference to StoreStats.
class ObsStoreTest : public ::testing::Test {
 protected:
  ObsStoreTest() : device_(sim_, 64ull << 20, 512), core_(sim_, 3.0) {}

  std::unique_ptr<store::DataStore> MakeStore() {
    key_log_ = std::make_unique<log::CircularLog>(device_, 0, 8 << 20);
    value_log_ = std::make_unique<log::CircularLog>(device_, 8 << 20, 8 << 20);
    store::LogSet home{0, key_log_.get(), value_log_.get()};
    store::StoreConfig cfg;
    cfg.store_id = 0;
    cfg.home_ssd = 0;
    cfg.num_segments = 64;
    cfg.bucket_size = 512;
    cfg.chain_bits = 4;
    cfg.metrics_registry = &reg_;
    return std::make_unique<store::DataStore>(sim_, core_, home, cfg);
  }

  uint64_t Reads() const { return reg_.CounterValue("store0.ssd_reads"); }
  uint64_t Writes() const { return reg_.CounterValue("store0.ssd_writes"); }

  Registry reg_;
  sim::Simulator sim_;
  sim::MemBlockDevice device_;
  sim::CpuCore core_;
  std::unique_ptr<log::CircularLog> key_log_;
  std::unique_ptr<log::CircularLog> value_log_;
};

TEST_F(ObsStoreTest, NvmeAccessInvariantsVisibleInRegistry) {
  auto ds = MakeStore();
  // Prime the bucket chain so the PUT below takes the common-case path.
  ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "key-a",
                                testutil::TestValue(1, 64)).ok());

  uint64_t r0 = Reads(), w0 = Writes();
  ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "key-a",
                                testutil::TestValue(2, 64)).ok());
  EXPECT_EQ(Reads() - r0, 1u);   // PUT: head bucket read...
  EXPECT_EQ(Writes() - w0, 2u);  // ...plus bucket + value appends = 3

  r0 = Reads(), w0 = Writes();
  ASSERT_TRUE(testutil::SyncGet(sim_, *ds, "key-a").ok());
  EXPECT_EQ(Reads() - r0, 2u);   // GET: bucket + value reads = 2
  EXPECT_EQ(Writes() - w0, 0u);

  r0 = Reads(), w0 = Writes();
  ASSERT_TRUE(testutil::SyncDel(sim_, *ds, "key-a").ok());
  EXPECT_EQ(Reads() - r0, 1u);   // DEL: bucket read...
  EXPECT_EQ(Writes() - w0, 1u);  // ...plus tombstone bucket append = 2

  // The op counters moved in lockstep, and stats() is the struct the
  // registry publishes.
  EXPECT_EQ(reg_.CounterValue("store0.puts"), 2u);
  EXPECT_EQ(reg_.CounterValue("store0.gets"), 1u);
  EXPECT_EQ(reg_.CounterValue("store0.dels"), 1u);
  EXPECT_EQ(ds->stats().ssd_reads, reg_.CounterValue("store0.ssd_reads"));
  EXPECT_EQ(ds->stats().ssd_writes, reg_.CounterValue("store0.ssd_writes"));
}

TEST_F(ObsStoreTest, ReconstructedStoreStartsFromZero) {
  {
    auto ds = MakeStore();
    ASSERT_TRUE(testutil::SyncPut(sim_, *ds, "k",
                                  testutil::TestValue(1, 64)).ok());
    EXPECT_GT(reg_.CounterValue("store0.ssd_writes"), 0u);
  }
  // A new store under the same prefix resets its own subtree (sequential
  // tests and benches in one process must not inherit counts).
  auto ds2 = MakeStore();
  EXPECT_EQ(reg_.CounterValue("store0.ssd_writes"), 0u);
  EXPECT_EQ(reg_.CounterValue("store0.puts"), 0u);
}

}  // namespace
}  // namespace leed::obs
