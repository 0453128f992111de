// Tests for the durable superblock (checkpoint persistence): encoding,
// CRC validation, A/B slot arbitration, torn-write survival, and the full
// checkpoint -> superblock -> crash -> recover loop. Also covers the
// control plane's copy-reassignment path when a COPY source dies.

#include <gtest/gtest.h>

#include "cluster/control_plane.h"
#include "log/circular_log.h"
#include "sim/block_device.h"
#include "sim/cpu_model.h"
#include "sim/simulator.h"
#include "store/data_store.h"
#include "store/recovery.h"
#include "store/superblock.h"
#include "test_util.h"

namespace leed::store {
namespace {

RecoveryCheckpoint SampleCheckpoint() {
  RecoveryCheckpoint cp;
  RecoveryCheckpoint::LogPointers a;
  a.ssd = 0;
  a.key_head = 1024;
  a.key_tail = 99999;
  a.value_head = 0;
  a.value_tail = 123456789;
  cp.logs.push_back(a);
  RecoveryCheckpoint::LogPointers b;
  b.ssd = 3;
  b.key_head = 7;
  b.key_tail = 8;
  b.value_head = 9;
  b.value_tail = 10;
  cp.logs.push_back(b);
  return cp;
}

TEST(SuperblockCodecTest, RoundTrip) {
  auto bytes = EncodeSuperblock(SampleCheckpoint(), 42);
  EXPECT_EQ(bytes.size(), kSuperblockSlotBytes);
  auto decoded = DecodeSuperblock(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  auto [cp, seq] = std::move(decoded).value();
  EXPECT_EQ(seq, 42u);
  ASSERT_EQ(cp.logs.size(), 2u);
  EXPECT_EQ(cp.logs[0].key_tail, 99999u);
  EXPECT_EQ(cp.logs[1].ssd, 3);
  EXPECT_EQ(cp.logs[1].value_tail, 10u);
}

TEST(SuperblockCodecTest, CrcCatchesCorruption) {
  auto bytes = EncodeSuperblock(SampleCheckpoint(), 1);
  bytes[20] ^= 0x1;  // flip one payload bit
  EXPECT_FALSE(DecodeSuperblock(bytes).ok());
}

TEST(SuperblockCodecTest, BadMagicRejected) {
  std::vector<uint8_t> zeros(kSuperblockSlotBytes, 0);
  EXPECT_FALSE(DecodeSuperblock(zeros).ok());
}

TEST(SuperblockCodecTest, Crc32KnownVector) {
  // CRC-32("123456789") = 0xCBF43926 (IEEE).
  const char* s = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(s), 9), 0xCBF43926u);
}

class SuperblockIoTest : public ::testing::Test {
 protected:
  SuperblockIoTest() : device_(sim_, 1 << 20, 512) {}

  Status Write(const RecoveryCheckpoint& cp, uint64_t seq) {
    Status out = Status::Internal("pending");
    bool done = false;
    WriteSuperblock(device_, 0, cp, seq, [&](Status st) {
      out = std::move(st);
      done = true;
    });
    testutil::RunUntilFlag(sim_, done);
    return out;
  }

  Status Read(RecoveryCheckpoint* cp, uint64_t* seq) {
    Status out = Status::Internal("pending");
    bool done = false;
    ReadSuperblock(device_, 0, [&](Status st, RecoveryCheckpoint c, uint64_t s) {
      out = std::move(st);
      *cp = std::move(c);
      *seq = s;
      done = true;
    });
    testutil::RunUntilFlag(sim_, done);
    return out;
  }

  sim::Simulator sim_;
  sim::MemBlockDevice device_;
};

TEST_F(SuperblockIoTest, NewestValidSlotWins) {
  RecoveryCheckpoint cp1 = SampleCheckpoint();
  cp1.logs[0].key_tail = 111;
  RecoveryCheckpoint cp2 = SampleCheckpoint();
  cp2.logs[0].key_tail = 222;
  ASSERT_TRUE(Write(cp1, 10).ok());  // slot 0
  ASSERT_TRUE(Write(cp2, 11).ok());  // slot 1
  RecoveryCheckpoint got;
  uint64_t seq = 0;
  ASSERT_TRUE(Read(&got, &seq).ok());
  EXPECT_EQ(seq, 11u);
  EXPECT_EQ(got.logs[0].key_tail, 222u);
}

TEST_F(SuperblockIoTest, TornNewSlotFallsBackToOld) {
  ASSERT_TRUE(Write(SampleCheckpoint(), 10).ok());  // good slot 0
  // Corrupt slot 1 as if a superblock write tore mid-flight.
  sim::IoRequest garbage;
  garbage.type = sim::IoType::kWrite;
  garbage.offset = kSuperblockSlotBytes;
  garbage.data = std::vector<uint8_t>(kSuperblockSlotBytes, 0xab);
  bool wrote = false;
  device_.Submit(std::move(garbage), [&](sim::IoResult) { wrote = true; });
  testutil::RunUntilFlag(sim_, wrote);

  RecoveryCheckpoint got;
  uint64_t seq = 0;
  ASSERT_TRUE(Read(&got, &seq).ok());
  EXPECT_EQ(seq, 10u);
}

TEST_F(SuperblockIoTest, NoValidSlotIsCorruption) {
  RecoveryCheckpoint got;
  uint64_t seq = 0;
  EXPECT_EQ(Read(&got, &seq).code(), StatusCode::kCorruption);
}

TEST_F(SuperblockIoTest, FullCheckpointRecoverLoop) {
  // Reserve [0, region) for the superblock; the store's logs start after.
  const uint64_t base = kSuperblockRegionBytes;
  sim::CpuCore core(sim_, 3.0);
  auto key_log = std::make_unique<log::CircularLog>(device_, base, 256 << 10);
  auto value_log =
      std::make_unique<log::CircularLog>(device_, base + (256 << 10), 256 << 10);
  StoreConfig cfg;
  cfg.num_segments = 32;
  cfg.bucket_size = 512;
  auto ds = std::make_unique<DataStore>(sim_, core,
                                        LogSet{0, key_log.get(), value_log.get()},
                                        cfg);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(
        testutil::SyncPut(sim_, *ds, "k" + std::to_string(i), testutil::TestValue(i, 50))
            .ok());
  }
  ASSERT_TRUE(Write(Checkpoint(*ds), 1).ok());
  ds.reset();  // crash

  RecoveryCheckpoint cp;
  uint64_t seq = 0;
  ASSERT_TRUE(Read(&cp, &seq).ok());
  key_log = std::make_unique<log::CircularLog>(device_, base, 256 << 10);
  value_log =
      std::make_unique<log::CircularLog>(device_, base + (256 << 10), 256 << 10);
  ASSERT_TRUE(key_log->Restore(cp.logs[0].key_head, cp.logs[0].key_tail).ok());
  ASSERT_TRUE(
      value_log->Restore(cp.logs[0].value_head, cp.logs[0].value_tail).ok());
  auto recovered = std::make_unique<DataStore>(
      sim_, core, LogSet{0, key_log.get(), value_log.get()}, cfg);
  bool done = false;
  RecoverSegTbl(*recovered, cp, [&](Status st, RecoveryStats) {
    EXPECT_TRUE(st.ok());
    done = true;
  });
  testutil::RunUntilFlag(sim_, done);
  for (int i = 0; i < 30; ++i) {
    std::vector<uint8_t> out;
    ASSERT_TRUE(
        testutil::SyncGet(sim_, *recovered, "k" + std::to_string(i), &out).ok());
    EXPECT_EQ(out, testutil::TestValue(i, 50));
  }
}

}  // namespace
}  // namespace leed::store

// ---------------------------------------------------------------------------
// Control-plane copy reassignment on source death
// ---------------------------------------------------------------------------

namespace leed::cluster {
namespace {

TEST(CopyReassignTest, SourceDeathRedirectsToSurvivor) {
  sim::Simulator sim;
  Network net(sim);
  ControlPlaneConfig ccfg;
  ccfg.replication_factor = 3;
  ccfg.monitor_heartbeats = false;
  ControlPlane cp(sim, net, ccfg);

  struct FakeNode {
    sim::EndpointId ep;
    std::vector<CopyCommandMsg> copies;
    bool respond = true;
  };
  std::vector<std::unique_ptr<FakeNode>> nodes;
  for (int i = 0; i < 4; ++i) {
    auto n = std::make_unique<FakeNode>();
    n->ep = net.AddEndpoint(sim::NicSpec{});
    FakeNode* raw = n.get();
    net.SetReceiver(n->ep, [&net, &cp, raw](Message m) {
      if (auto* c = std::get_if<CopyCommandMsg>(m.payload.get())) {
        raw->copies.push_back(*c);
        if (!raw->respond) return;  // dead-ish source: never finishes
        CopyDoneMsg done;
        done.copy_id = c->copy_id;
        done.dst = c->dst;
        net.Send(raw->ep, cp.endpoint(), done);
      }
    });
    cp.RegisterNode(i, n->ep);
    nodes.push_back(std::move(n));
  }
  for (uint64_t k = 0; k < 8; ++k) {
    cp.Bootstrap(static_cast<uint32_t>(k % 4), static_cast<uint32_t>(k / 4),
                 k * (UINT64_MAX / 8));
  }
  cp.Start();
  sim.Run();

  // Stop every node from completing copies, then start a join: copies hang.
  for (auto& n : nodes) n->respond = false;
  cp.StartJoin(/*owner=*/0, /*store=*/9);
  sim.Run();
  ASSERT_TRUE(cp.TransitionInProgress());

  // Find a node that was asked to stream a copy; kill it. The control plane
  // must re-route its copies to surviving chain members — or, when the
  // copy's *destination* also lived on the killed node, cancel the now-moot
  // fill outright rather than stream it at a dead endpoint.
  int src_node = -1;
  for (int i = 0; i < 4; ++i) {
    if (!nodes[i]->copies.empty()) {
      src_node = i;
      break;
    }
  }
  ASSERT_GE(src_node, 0);
  // Survivors resume completing copies — including replaying completions
  // for commands they received while "slow" (everything except the node we
  // are about to kill).
  for (int i = 0; i < 4; ++i) {
    nodes[i]->respond = (i != src_node);
    if (i == src_node) continue;
    for (const auto& c : nodes[i]->copies) {
      CopyDoneMsg done;
      done.copy_id = c.copy_id;
      done.dst = c.dst;
      net.Send(nodes[i]->ep, cp.endpoint(), done);
    }
  }
  sim.Run();
  size_t commands_before = 0;
  for (auto& n : nodes) commands_before += n->copies.size();

  cp.FailNode(src_node);
  sim.Run();

  size_t commands_after = 0;
  for (auto& n : nodes) commands_after += n->copies.size();
  EXPECT_GT(commands_after, commands_before);  // re-issued somewhere
  EXPECT_GT(cp.stats().copies_reassigned + cp.stats().copies_abandoned +
                cp.stats().copies_cancelled,
            0u);
  EXPECT_FALSE(cp.TransitionInProgress());  // nothing wedged
}

}  // namespace
}  // namespace leed::cluster
