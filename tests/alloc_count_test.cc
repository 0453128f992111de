// Pins the store's write path to a constant number of heap allocations per
// operation, whatever the number of items per bucket: a key-compaction
// collapse of a maximum-length chain and a PUT that rewrites its chain
// head merge, pack and encode on the bytes they read, never one object per
// key item. Also pins how often a replicated PUT's value is copied on its
// way through the chain. The same idea as the EventFitsInline
// static_asserts, checked at run time: this binary replaces the global
// operator new with a counting one.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "leed/node.h"
#include "leed/wire.h"
#include "log/circular_log.h"
#include "sim/block_device.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
#include "store/data_store.h"
#include "test_util.h"

namespace {
uint64_t g_allocs = 0;
// Allocations of [g_sized_lo, g_sized_hi) bytes: the value-sized ones.
uint64_t g_sized_allocs = 0;
std::size_t g_sized_lo = 0;
std::size_t g_sized_hi = 0;

void* CountedAlloc(std::size_t n) {
  ++g_allocs;
  if (n >= g_sized_lo && n < g_sized_hi) ++g_sized_allocs;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace leed::store {
namespace {

using testutil::RunUntilFlag;
using testutil::SyncPut;
using testutil::TestValue;

constexpr uint32_t kBucketSize = 1024;
constexpr uint64_t kLogBytes = 2 << 20;

// One store whose every key lands in a single segment, so PUTs of fresh
// keys grow one chain bucket by bucket.
class WritePathAllocs {
 public:
  explicit WritePathAllocs(size_t key_len)
      : device_(sim_, 64ull << 20, 512), core_(sim_, 3.0), key_len_(key_len) {
    StoreConfig cfg;
    cfg.num_segments = 1;
    cfg.bucket_size = kBucketSize;
    cfg.chain_bits = 4;                  // chains of up to 15 buckets
    cfg.compaction_threshold = 0.99;     // only forced compactions run
    cfg.compaction_chunk = 8ull << 20;
    cfg.subcompactions = 1;
    key_log_ = std::make_unique<log::CircularLog>(device_, 0, kLogBytes);
    value_log_ = std::make_unique<log::CircularLog>(device_, kLogBytes, kLogBytes);
    ds_ = std::make_unique<DataStore>(sim_, core_,
                                      LogSet{0, key_log_.get(), value_log_.get()}, cfg);
  }

  std::string Key(int i) const {
    std::string k = "user" + std::to_string(1000000 + i);
    k.resize(key_len_, 'x');
    return k;
  }

  // Items that fit one bucket with keys of this length.
  int ItemsPerBucket() const {
    return static_cast<int>((kBucketSize - BucketHeader::kEncodedSize) /
                            (KeyItem::kFixedBytes + key_len_));
  }

  // Fresh keys until the segment's chain has its maximum length and every
  // bucket, the head included, is full.
  void FillChain() {
    const uint32_t max_chain = ds_->segments().max_chain();
    for (; next_key_ < static_cast<int>(max_chain) * ItemsPerBucket(); ++next_key_) {
      ASSERT_TRUE(SyncPut(sim_, *ds_, Key(next_key_), TestValue(next_key_, 64)).ok());
    }
    ASSERT_EQ(ds_->segments().At(0).chain_len, max_chain);
  }

  // Allocations made by one PUT that rewrites the full head bucket (its key
  // is the head's newest), start to finish.
  uint64_t PutAllocs() {
    std::string key = Key(next_key_ - 1);  // lives in the head bucket
    std::vector<uint8_t> value = TestValue(7, 64);
    bool done = false;
    const uint64_t before = g_allocs;
    ds_->Put(std::move(key), std::move(value), [&done](Status st) {
      EXPECT_TRUE(st.ok());
      done = true;
    });
    EXPECT_TRUE(RunUntilFlag(sim_, done));
    return g_allocs - before;
  }

  // The fewest allocations over `puts` such PUTs. An amortized growth of a
  // device-side vector lands in one PUT now and then; a per-item
  // allocation adds to every one, so it still shows in the minimum.
  uint64_t MinPutAllocs(int puts) {
    uint64_t fewest = UINT64_MAX;
    for (int i = 0; i < puts; ++i) fewest = std::min(fewest, PutAllocs());
    return fewest;
  }

  // Allocations made by a forced key compaction that collapses the chain.
  uint64_t CollapseAllocs() {
    const uint64_t collapsed = ds_->stats().segments_collapsed;
    bool done = false;
    const uint64_t before = g_allocs;
    ds_->ForceKeyCompaction([&done](Status st) {
      EXPECT_TRUE(st.ok());
      done = true;
    });
    EXPECT_TRUE(RunUntilFlag(sim_, done));
    const uint64_t allocs = g_allocs - before;
    sim_.Run();  // the prefetch the run issued
    EXPECT_EQ(ds_->stats().segments_collapsed, collapsed + 1);
    return allocs;
  }

 private:
  sim::Simulator sim_;
  sim::MemBlockDevice device_;
  sim::CpuCore core_;
  size_t key_len_;
  std::unique_ptr<log::CircularLog> key_log_;
  std::unique_ptr<log::CircularLog> value_log_;
  std::unique_ptr<DataStore> ds_;
  int next_key_ = 0;
};

// Long keys give 3 items per bucket, short ones 34; every key is past the
// small-string limit, so a per-item key copy would show.
constexpr size_t kFewItemsKeyLen = 300;
constexpr size_t kManyItemsKeyLen = 16;

// Enough for the op's own state, IO buffers, closures and events (11 and
// 123 when written); one allocation per key item would add 34 per bucket
// on the many-items side.
constexpr uint64_t kPutBudget = 16;
constexpr uint64_t kCollapseBudget = 140;

TEST(WritePathAllocTest, PutHeadRewriteIsConstant) {
  WritePathAllocs few(kFewItemsKeyLen);
  WritePathAllocs many(kManyItemsKeyLen);
  ASSERT_EQ(few.ItemsPerBucket(), 3);
  ASSERT_EQ(many.ItemsPerBucket(), 34);
  few.FillChain();
  many.FillChain();
  few.PutAllocs();  // warm the event loop's slabs on both sides
  many.PutAllocs();
  const uint64_t a = few.MinPutAllocs(3);
  const uint64_t b = many.MinPutAllocs(3);
  EXPECT_EQ(a, b);
  EXPECT_LE(b, kPutBudget);
}

TEST(WritePathAllocTest, MaxChainCollapseIsConstant) {
  WritePathAllocs few(kFewItemsKeyLen);
  WritePathAllocs many(kManyItemsKeyLen);
  few.FillChain();
  many.FillChain();
  const uint64_t a = few.CollapseAllocs();
  const uint64_t b = many.CollapseAllocs();
  EXPECT_EQ(a, b);
  EXPECT_LE(b, kCollapseBudget);
}

}  // namespace
}  // namespace leed::store

namespace leed {
namespace {

// Three LEED nodes, one vnode each, R = 3: a PUT sent to the head walks
// head -> mid -> tail, commits at the tail and acks back.
class ChainPutAllocs {
 public:
  ChainPutAllocs() : net_(sim_) {
    cp_ = net_.AddEndpoint(sim::NicSpec{});
    net_.SetReceiver(cp_, [](Message) {});
    client_ = net_.AddEndpoint(sim::NicSpec{});
    net_.SetReceiver(client_, [this](Message m) {
      if (auto* r = std::get_if<ResponseMsg>(m.payload.get())) last_ = r->code;
    });
    NodeConfig cfg;
    cfg.platform = sim::StingrayJbof();
    cfg.engine.ssd_count = 1;
    cfg.engine.stores_per_ssd = 1;
    cfg.engine.ssd = sim::Dct983Spec();
    cfg.engine.ssd.capacity_bytes = 1ull << 30;
    cfg.engine.store_template.num_segments = 256;
    cfg.engine.store_template.bucket_size = 4096;
    for (uint32_t i = 0; i < 3; ++i) {
      nodes_.push_back(
          std::make_unique<Node>(sim_, net_, cp_, cfg, i, 100 + i));
      endpoints_[i] = nodes_[i]->endpoint();
      nodes_[i]->set_node_endpoints(&endpoints_);
    }
    view_.epoch = 1;
    view_.replication_factor = 3;
    for (uint32_t i = 0; i < 3; ++i) {
      view_.vnodes[i] = cluster::VNodeInfo{i, i, 0, i * (UINT64_MAX / 3),
                                           cluster::VNodeState::kRunning};
    }
    for (auto& [id, ep] : endpoints_) {
      net_.Send(cp_, ep, cluster::ViewUpdateMsg{view_});
    }
    sim_.Run();
  }

  // Runs one PUT to completion (client response and every replica's
  // apply) and returns the value-sized allocations it made.
  uint64_t PutValueAllocs(const std::string& key, size_t value_len) {
    const auto chain = view_.ChainForKey(key);
    ClientRequestMsg msg;
    msg.req_id = ++req_id_;
    msg.op = engine::OpType::kPut;
    msg.key = key;
    msg.value = std::vector<uint8_t>(value_len, 0xab);
    msg.vnode = chain[0];
    msg.view_epoch = view_.epoch;
    msg.reply_to = client_;
    last_ = StatusCode::kInternal;
    g_sized_lo = value_len;
    g_sized_hi = 2 * value_len;
    const uint64_t before = g_sized_allocs;
    const uint32_t head = view_.Find(chain[0])->owner_node;
    net_.Send(client_, endpoints_[head], std::move(msg));
    sim_.Run();
    const uint64_t allocs = g_sized_allocs - before;
    g_sized_lo = g_sized_hi = 0;
    EXPECT_EQ(last_, StatusCode::kOk);
    return allocs;
  }

 private:
  sim::Simulator sim_;
  Network net_;
  sim::EndpointId cp_;
  sim::EndpointId client_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::map<uint32_t, sim::EndpointId> endpoints_;
  cluster::ClusterView view_;
  StatusCode last_ = StatusCode::kOk;
  uint64_t req_id_ = 0;
};

// A 2000-byte value: larger than every IO header and message, smaller than
// a 4 KB key-log bucket or a device chunk, so [2000, 4000)-byte
// allocations are copies of the value. The client's buffer is shared by
// the chain message, every replica's pending buffer and engine request,
// and the value-log append: each replica appends only the entry head and
// hands the device the same buffer, which the device keeps by reference
// (sim::PageStore extents). So a PUT copies its value nowhere. When each
// hand-off copied the value, this PUT made 20 (17 copies and 3 log
// encodes); with the log encode as the one copy, 3.
constexpr size_t kValueLen = 2000;

TEST(ChainPutAllocTest, ValueIsSharedNotCopiedAlongTheChain) {
  ChainPutAllocs cluster;
  cluster.PutValueAllocs("warm-up-key", kValueLen);
  const uint64_t fresh = cluster.PutValueAllocs("measured-key", kValueLen);
  const uint64_t overwrite = cluster.PutValueAllocs("measured-key", kValueLen);
  EXPECT_EQ(fresh, 0u);
  EXPECT_EQ(overwrite, 0u);
}

}  // namespace
}  // namespace leed
