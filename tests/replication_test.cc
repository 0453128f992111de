// Tests for chain topology helpers and CRRS replica state (dirty map,
// pending-write buffer, fill-tracking skip set).

#include <gtest/gtest.h>

#include "replication/chain.h"
#include "replication/crrs.h"

namespace leed::replication {
namespace {

using cluster::kInvalidVNode;
using cluster::VNodeId;

TEST(ChainTest, Roles) {
  std::vector<VNodeId> chain = {5, 7, 9};
  EXPECT_EQ(RoleIn(chain, 5), Role::kHead);
  EXPECT_EQ(RoleIn(chain, 7), Role::kMid);
  EXPECT_EQ(RoleIn(chain, 9), Role::kTail);
  EXPECT_EQ(RoleIn(chain, 42), Role::kNone);
}

TEST(ChainTest, TwoNodeChainHasNoMid) {
  std::vector<VNodeId> chain = {1, 2};
  EXPECT_EQ(RoleIn(chain, 1), Role::kHead);
  EXPECT_EQ(RoleIn(chain, 2), Role::kTail);
}

TEST(ChainTest, SingleNodeIsHead) {
  std::vector<VNodeId> chain = {1};
  // A 1-chain's only member is the head (and acts as commit point).
  EXPECT_EQ(RoleIn(chain, 1), Role::kHead);
}

TEST(ChainTest, Neighbors) {
  std::vector<VNodeId> chain = {5, 7, 9};
  EXPECT_EQ(NextIn(chain, 5), 7u);
  EXPECT_EQ(NextIn(chain, 9), kInvalidVNode);
  EXPECT_EQ(PrevIn(chain, 9), 7u);
  EXPECT_EQ(PrevIn(chain, 5), kInvalidVNode);
  EXPECT_EQ(NextIn(chain, 99), kInvalidVNode);
  EXPECT_EQ(IndexIn(chain, 7), 1);
  EXPECT_EQ(IndexIn(chain, 8), -1);
}

PendingWrite MakeWrite(uint64_t id, const std::string& key) {
  PendingWrite w;
  w.write_id = id;
  w.key = key;
  w.value = std::vector<uint8_t>{1, 2, 3};
  return w;
}

TEST(ReplicaStateTest, DirtyWhilePending) {
  ReplicaState rep;
  EXPECT_FALSE(rep.IsDirty("k"));
  rep.AddPending(MakeWrite(1, "k"));
  EXPECT_TRUE(rep.IsDirty("k"));
  auto w = rep.TakePending(1);
  ASSERT_TRUE(w.has_value());
  EXPECT_EQ(w->key, "k");
  EXPECT_FALSE(rep.IsDirty("k"));
}

TEST(ReplicaStateTest, OverlappingWritesKeepDirtyUntilLastAck) {
  ReplicaState rep;
  rep.AddPending(MakeWrite(1, "k"));
  rep.AddPending(MakeWrite(2, "k"));
  rep.TakePending(1);
  EXPECT_TRUE(rep.IsDirty("k"));  // write 2 still pending
  rep.TakePending(2);
  EXPECT_FALSE(rep.IsDirty("k"));
}

TEST(ReplicaStateTest, DuplicateAddIsIgnored) {
  ReplicaState rep;
  rep.AddPending(MakeWrite(7, "k"));
  rep.AddPending(MakeWrite(7, "k"));  // re-forward duplicate
  EXPECT_EQ(rep.pending_writes(), 1u);
  rep.TakePending(7);
  EXPECT_FALSE(rep.IsDirty("k"));  // dirty count not inflated
}

TEST(ReplicaStateTest, TakeUnknownIsEmpty) {
  ReplicaState rep;
  EXPECT_FALSE(rep.TakePending(99).has_value());
}

TEST(ReplicaStateTest, TakeAllDrainsInWriteIdOrder) {
  ReplicaState rep;
  rep.AddPending(MakeWrite(3, "c"));
  rep.AddPending(MakeWrite(1, "a"));
  rep.AddPending(MakeWrite(2, "b"));
  auto all = rep.TakeAllPending();
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].write_id, 1u);
  EXPECT_EQ(all[2].write_id, 3u);
  EXPECT_EQ(rep.pending_writes(), 0u);
  EXPECT_FALSE(rep.IsDirty("a"));
}

TEST(ReplicaStateTest, AppliedDedupe) {
  ReplicaState rep;
  EXPECT_FALSE(rep.SeenApplied(5));
  rep.MarkApplied(5);
  EXPECT_TRUE(rep.SeenApplied(5));
}

TEST(ReplicaStateTest, AppliedWindowEvictsOldest) {
  // The dedupe window is bounded: old ids age out FIFO, so a replica that
  // commits millions of writes does not grow without bound.
  ReplicaState rep;
  const uint64_t n = ReplicaState::kAppliedWindow + 100;
  for (uint64_t i = 0; i < n; ++i) rep.MarkApplied(i);
  EXPECT_FALSE(rep.SeenApplied(0));      // evicted
  EXPECT_FALSE(rep.SeenApplied(99));     // evicted
  EXPECT_TRUE(rep.SeenApplied(100));     // still inside the window
  EXPECT_TRUE(rep.SeenApplied(n - 1));
  // Duplicate marks do not double-insert into the eviction order.
  rep.MarkApplied(n - 1);
  EXPECT_TRUE(rep.SeenApplied(100));
}

TEST(ReplicaStateTest, AppliedWindowBoundaryEvictsExactlyTheOldest) {
  constexpr uint64_t kW = ReplicaState::kAppliedWindow;
  ReplicaState rep;
  const uint64_t base = 7ull << 40;  // write ids carry the node in the top bits
  for (uint64_t i = 0; i < kW; ++i) rep.MarkApplied(base + i);
  EXPECT_TRUE(rep.SeenApplied(base));  // exactly full: nothing evicted yet
  // Id N + window evicts id N, and only it.
  for (uint64_t n = 0; n < 3; ++n) {
    rep.MarkApplied(base + kW + n);
    EXPECT_FALSE(rep.SeenApplied(base + n)) << n;
    EXPECT_TRUE(rep.SeenApplied(base + n + 1)) << n;
    EXPECT_TRUE(rep.SeenApplied(base + kW + n)) << n;
  }
}

TEST(ReplicaStateTest, FillTrackingRecordsOnlyWhileActive) {
  ReplicaState rep;
  rep.RecordChainWrite("before");  // not tracking yet
  rep.StartFillTracking();
  rep.RecordChainWrite("during");
  EXPECT_FALSE(rep.WasChainWritten("before"));
  EXPECT_TRUE(rep.WasChainWritten("during"));
  rep.StopFillTracking();
  EXPECT_FALSE(rep.WasChainWritten("during"));  // cleared
}

TEST(ReplicaStateTest, PeekDoesNotConsume) {
  ReplicaState rep;
  rep.AddPending(MakeWrite(4, "k"));
  ASSERT_NE(rep.PeekPending(4), nullptr);
  EXPECT_EQ(rep.PeekPending(4)->key, "k");
  EXPECT_EQ(rep.pending_writes(), 1u);
  EXPECT_EQ(rep.PeekPending(8), nullptr);
}

}  // namespace
}  // namespace leed::replication
