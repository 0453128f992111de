// Unit tests for the discrete-event substrate: event loop, SSD model,
// network model, CPU model, power model, platform presets.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "sim/cpu_model.h"
#include "sim/fault.h"
#include "sim/network.h"
#include "sim/platform.h"
#include "sim/power.h"
#include "sim/simulator.h"
#include "sim/ssd_model.h"

namespace leed::sim {
namespace {

// ---------------------------------------------------------------------------
// Simulator
// ---------------------------------------------------------------------------

TEST(SimulatorTest, ExecutesInTimeOrder) {
  Simulator s;
  std::vector<int> order;
  s.Schedule(30, [&] { order.push_back(3); });
  s.Schedule(10, [&] { order.push_back(1); });
  s.Schedule(20, [&] { order.push_back(2); });
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.Now(), 30);
}

TEST(SimulatorTest, SameInstantIsFifo) {
  Simulator s;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    s.Schedule(100, [&order, i] { order.push_back(i); });
  }
  s.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, NestedScheduling) {
  Simulator s;
  int fired = 0;
  s.Schedule(10, [&] {
    s.Schedule(5, [&] { fired++; });
  });
  s.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.Now(), 15);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator s;
  int fired = 0;
  EventId id = s.Schedule(10, [&] { fired++; });
  EXPECT_TRUE(s.Cancel(id));
  EXPECT_FALSE(s.Cancel(id));  // double cancel
  s.Run();
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorTest, RunUntilAdvancesClockToDeadline) {
  Simulator s;
  int fired = 0;
  s.Schedule(100, [&] { fired++; });
  s.Schedule(300, [&] { fired++; });
  s.RunUntil(200);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.Now(), 200);
  s.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, PastEventsClampToNow) {
  Simulator s;
  s.Schedule(50, [] {});
  s.Run();
  int fired = 0;
  s.At(10, [&] { fired++; });  // in the past
  s.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.Now(), 50);
}

TEST(SimulatorTest, PeriodicTimerTicksAndStops) {
  Simulator s;
  int ticks = 0;
  PeriodicTimer timer(s, 10, [&] { ticks++; });
  timer.Start();
  s.RunUntil(55);
  EXPECT_EQ(ticks, 5);
  timer.Stop();
  s.RunUntil(200);
  EXPECT_EQ(ticks, 5);
}

TEST(SimulatorTest, PendingCountTracksLiveEvents) {
  Simulator s;
  EventId a = s.Schedule(10, [] {});
  s.Schedule(20, [] {});
  EXPECT_EQ(s.events_pending(), 2u);
  s.Cancel(a);  // leaves the live count immediately: it will never run
  EXPECT_EQ(s.events_pending(), 1u);
  s.Run();
  EXPECT_EQ(s.events_pending(), 0u);
  EXPECT_EQ(s.events_executed(), 1u);
}

// Regression: Cancel used to accept the id of an event that had already
// fired (it only checked id < next_seq_), report success, and leak a
// tombstone into an unordered_set that nothing ever erased. The generation
// scheme makes the stale id unmatchable and recycles the slot.
TEST(SimulatorTest, CancelAfterFireReturnsFalseWithoutStateGrowth) {
  Simulator s;
  int fired = 0;
  EventId id = s.Schedule(5, [&] { fired++; });
  s.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_FALSE(s.Cancel(id));  // already ran: must not report success
  // Repeated fire-then-cancel churn must not grow any internal state: the
  // single slot is recycled every round.
  for (int i = 0; i < 1000; ++i) {
    EventId e = s.Schedule(1, [] {});
    s.Run();
    EXPECT_FALSE(s.Cancel(e));
  }
  EXPECT_EQ(s.slab_size(), 1u);
}

// Regression companion: a stale id must never cancel the event that reused
// its slot.
TEST(SimulatorTest, StaleIdCannotCancelSlotReuser) {
  Simulator s;
  EventId a = s.Schedule(5, [] {});
  s.Run();  // slot released, generation bumped
  int fired = 0;
  EventId b = s.Schedule(5, [&] { fired++; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(s.Cancel(a));  // stale id aims at b's slot but wrong gen
  s.Run();
  EXPECT_EQ(fired, 1);  // b survived
}

// A client-like load: a window of ops, each arming a timeout that the op's
// completion almost always cancels. Returns the dispatch order of the
// events that did something (op i completing: i; its timeout firing: -i-1).
// With `cancel` false the timeouts are never cancelled, only disarmed, so
// every one of them runs as a no-op: the reference order. Every completion
// also checks that dead entries stay bounded.
std::vector<int> TimeoutChurn(bool cancel, size_t* max_heap_excess) {
  Simulator s;
  std::vector<int> order;
  uint64_t rng = 12345;
  auto next = [&rng](uint64_t mod) {
    rng = rng * 6364136223846793005ull + 1442695040888963407ull;
    return (rng >> 33) % mod;
  };
  constexpr int kOps = 20000;
  constexpr int kWindow = 64;
  int started = 0;
  std::vector<char> disarmed(kOps, 0);
  std::function<void()> start = [&] {
    const int i = started++;
    // Mostly quick completions (with same-instant ties), sometimes one
    // slow enough for its timeout to fire first.
    const SimTime work = next(100) == 0 ? 3000 + next(500) : next(8);
    const EventId timeout = s.Schedule(1000 + next(4), [&order, &disarmed, i] {
      if (!disarmed[i]) order.push_back(-i - 1);
    });
    s.Schedule(work, [&, i, timeout] {
      order.push_back(i);
      if (cancel) {
        s.Cancel(timeout);
      } else {
        disarmed[i] = 1;
      }
      if (s.heap_size() > 2 * s.events_pending() + Simulator::kPurgeFloor) {
        *max_heap_excess = std::max(
            *max_heap_excess,
            s.heap_size() - 2 * s.events_pending() - Simulator::kPurgeFloor);
      }
      if (started < kOps) start();
    });
  };
  for (int w = 0; w < kWindow; ++w) start();
  s.Run();
  EXPECT_EQ(started, kOps);
  return order;
}

TEST(SimulatorTest, CancelHeavyHeapStaysBoundedAndOrderIsExact) {
  size_t excess = 0;
  const std::vector<int> cancelled = TimeoutChurn(true, &excess);
  EXPECT_EQ(excess, 0u) << "dead heap entries outgrew 2 x live + floor";
  size_t ignored = 0;
  const std::vector<int> reference = TimeoutChurn(false, &ignored);
  ASSERT_EQ(cancelled.size(), reference.size());
  EXPECT_EQ(cancelled, reference);
  // The load really did keep timeouts armed past completion.
  EXPECT_GT(std::count_if(cancelled.begin(), cancelled.end(),
                          [](int v) { return v < 0; }),
            0);
}

TEST(SimulatorTest, DaemonEventsDoNotKeepRunAlive) {
  Simulator s;
  int real = 0, daemon_ticks = 0;
  // A self-rearming daemon (like a heartbeat timer).
  std::function<void()> tick = [&] {
    ++daemon_ticks;
    s.ScheduleDaemon(10, tick);
  };
  s.ScheduleDaemon(10, tick);
  s.Schedule(35, [&] { ++real; });
  s.Run();  // must terminate despite the immortal daemon
  EXPECT_EQ(real, 1);
  EXPECT_EQ(daemon_ticks, 3);  // t=10,20,30 executed before the last real event
  EXPECT_EQ(s.Now(), 35);
}

TEST(SimulatorTest, PeriodicTimerIsDaemon) {
  Simulator s;
  int ticks = 0;
  PeriodicTimer timer(s, 10, [&] { ticks++; });
  timer.Start();
  s.Schedule(25, [] {});
  s.Run();  // returns at t=25 even though the timer is still armed
  EXPECT_EQ(s.Now(), 25);
  EXPECT_EQ(ticks, 2);
}

// ---------------------------------------------------------------------------
// SSD model
// ---------------------------------------------------------------------------

class SsdTest : public ::testing::Test {
 protected:
  SsdSpec NoJitterSpec() {
    SsdSpec spec = Dct983Spec();
    spec.latency_jitter = 0.0;
    spec.slow_io_prob = 0.0;
    return spec;
  }
  Simulator sim_;
};

TEST_F(SsdTest, ReadReturnsWrittenBytes) {
  SimSsd ssd(sim_, NoJitterSpec(), 1);
  std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  bool wrote = false, read = false;
  IoRequest w;
  w.type = IoType::kWrite;
  w.offset = 8192;
  w.data = payload;
  ASSERT_TRUE(ssd.Submit(std::move(w), [&](IoResult r) {
                    EXPECT_TRUE(r.status.ok());
                    wrote = true;
                  })
                  .ok());
  sim_.Run();
  ASSERT_TRUE(wrote);

  IoRequest r;
  r.type = IoType::kRead;
  r.offset = 8192;
  r.length = 5;
  ASSERT_TRUE(ssd.Submit(std::move(r), [&](IoResult res) {
                    EXPECT_TRUE(res.status.ok());
                    EXPECT_EQ(res.data, payload);
                    read = true;
                  })
                  .ok());
  sim_.Run();
  EXPECT_TRUE(read);
}

TEST_F(SsdTest, OutOfRangeRejected) {
  SimSsd ssd(sim_, NoJitterSpec(), 1);
  IoRequest r;
  r.type = IoType::kRead;
  r.offset = ssd.capacity_bytes() - 10;
  r.length = 100;
  EXPECT_FALSE(ssd.Submit(std::move(r), [](IoResult) { FAIL(); }).ok());
  IoRequest z;
  z.type = IoType::kRead;
  z.offset = 0;
  z.length = 0;
  EXPECT_FALSE(ssd.Submit(std::move(z), [](IoResult) { FAIL(); }).ok());
}

TEST_F(SsdTest, ReadLatencyNearBaseAtLowQd) {
  SimSsd ssd(sim_, NoJitterSpec(), 1);
  SimTime latency = 0;
  IoRequest r;
  r.type = IoType::kRead;
  r.offset = 0;
  r.length = 4096;
  ssd.Submit(std::move(r), [&](IoResult res) { latency = res.Latency(); });
  sim_.Run();
  EXPECT_EQ(latency, NoJitterSpec().read_base_ns);
}

TEST_F(SsdTest, RandomReadThroughputMatchesChannels) {
  // 20 channels at 50us => 400K IOPS. Submit 4000 4KB reads at t=0; the
  // last completion should land near 4000/400K = 10ms.
  SimSsd ssd(sim_, NoJitterSpec(), 1);
  int done = 0;
  for (int i = 0; i < 4000; ++i) {
    IoRequest r;
    r.type = IoType::kRead;
    r.offset = static_cast<uint64_t>(i) * 4096;
    r.length = 4096;
    ssd.Submit(std::move(r), [&](IoResult) { ++done; });
  }
  SimTime end = sim_.Run();
  EXPECT_EQ(done, 4000);
  EXPECT_NEAR(ToMillis(end), 10.0, 0.5);
}

TEST_F(SsdTest, SequentialWriteIsBandwidthBound) {
  // 1 MB sequential writes at 1.05 GB/s: 100 of them ~ 95 ms.
  SimSsd ssd(sim_, NoJitterSpec(), 1);
  int done = 0;
  for (int i = 0; i < 100; ++i) {
    IoRequest w;
    w.type = IoType::kWrite;
    w.pattern = IoPattern::kSequential;
    w.offset = static_cast<uint64_t>(i) * (1 << 20);
    w.data = std::vector<uint8_t>(1 << 20, 0xab);
    ssd.Submit(std::move(w), [&](IoResult) { ++done; });
  }
  SimTime end = sim_.Run();
  EXPECT_EQ(done, 100);
  EXPECT_NEAR(ToMillis(end), 100.0 / 1.05, 5.0);
}

TEST_F(SsdTest, RandomWritesPayProgramPenalty) {
  // Random 4KB writes: occupancy 4096*6.5/1.05 ~ 25.3us each => ~39.5K IOPS.
  SimSsd ssd(sim_, NoJitterSpec(), 1);
  int done = 0;
  for (int i = 0; i < 1000; ++i) {
    IoRequest w;
    w.type = IoType::kWrite;
    w.pattern = IoPattern::kRandom;
    w.offset = static_cast<uint64_t>(i) * 4096;
    w.data = std::vector<uint8_t>(4096, 1);
    ssd.Submit(std::move(w), [&](IoResult) { ++done; });
  }
  SimTime end = sim_.Run();
  EXPECT_EQ(done, 1000);
  double iops = 1000.0 / ToSeconds(end);
  EXPECT_NEAR(iops, ssd.spec().NominalRandomWriteIops(), 4000);
}

TEST_F(SsdTest, QueueingRaisesLatencyUnderOverload) {
  SimSsd ssd(sim_, NoJitterSpec(), 1);
  std::vector<SimTime> latencies;
  for (int i = 0; i < 64; ++i) {
    IoRequest r;
    r.type = IoType::kRead;
    r.offset = static_cast<uint64_t>(i) * 4096;
    r.length = 4096;
    ssd.Submit(std::move(r), [&](IoResult res) { latencies.push_back(res.Latency()); });
  }
  sim_.Run();
  ASSERT_EQ(latencies.size(), 64u);
  // First 20 are served directly; the rest queue behind them.
  EXPECT_LE(latencies.front(), 50 * kMicrosecond);
  EXPECT_GT(latencies.back(), 100 * kMicrosecond);
}

TEST_F(SsdTest, StatsAccumulate) {
  SimSsd ssd(sim_, NoJitterSpec(), 1);
  IoRequest w;
  w.type = IoType::kWrite;
  w.pattern = IoPattern::kSequential;
  w.offset = 0;
  w.data = std::vector<uint8_t>(512, 1);
  ssd.Submit(std::move(w), [](IoResult) {});
  IoRequest r;
  r.type = IoType::kRead;
  r.offset = 0;
  r.length = 512;
  ssd.Submit(std::move(r), [](IoResult) {});
  sim_.Run();
  EXPECT_EQ(ssd.stats().reads, 1u);
  EXPECT_EQ(ssd.stats().writes, 1u);
  EXPECT_EQ(ssd.stats().read_bytes, 512u);
  EXPECT_EQ(ssd.stats().write_bytes, 512u);
  EXPECT_EQ(ssd.inflight(), 0u);
}

TEST_F(SsdTest, JitterProducesLatencySpread) {
  SsdSpec spec = Dct983Spec();  // jitter enabled
  SimSsd ssd(sim_, spec, 99);
  std::set<SimTime> latencies;
  for (int i = 0; i < 64; ++i) {
    IoRequest r;
    r.type = IoType::kRead;
    r.offset = static_cast<uint64_t>(i) * 4096;
    r.length = 512;
    ssd.Submit(std::move(r), [&](IoResult res) { latencies.insert(res.Latency()); });
    sim_.Run();
  }
  EXPECT_GT(latencies.size(), 32u);  // almost all distinct
}

// ---------------------------------------------------------------------------
// Network
// ---------------------------------------------------------------------------

// The network is generic over its message schema; these tests use a
// packet that declares its own wire size.
struct Packet {
  uint64_t bytes = 0;
  int tag = 0;
  bool operator==(const Packet&) const = default;
};
uint64_t WireSize(const Packet& p) { return p.bytes; }

using Net = Network<Packet>;
using Msg = Message<Packet>;

TEST(NetworkTest, DeliversPayloadWithLatency) {
  Simulator s;
  Net net(s);
  NicSpec nic;  // 100GbE, 2us base
  EndpointId a = net.AddEndpoint(nic);
  EndpointId b = net.AddEndpoint(nic);
  SimTime delivered_at = -1;
  Packet payload_out;
  uint64_t wire_bytes = 0;
  net.SetReceiver(b, [&](Msg m) {
    delivered_at = s.Now();
    payload_out = *m.payload;
    wire_bytes = m.wire_bytes;
  });
  ASSERT_TRUE(net.Send(a, b, Packet{1500, 7}).ok());
  s.Run();
  EXPECT_EQ(payload_out, (Packet{1500, 7}));
  EXPECT_EQ(wire_bytes, 1500u);
  // 1500B / 12.5 B/ns = 120ns tx + 2us base + 120ns rx.
  EXPECT_NEAR(static_cast<double>(delivered_at), 2240, 50);
}

TEST(NetworkTest, UnknownEndpointRejected) {
  Simulator s;
  Net net(s);
  EndpointId a = net.AddEndpoint(NicSpec{});
  EXPECT_FALSE(net.Send(a, 99, Packet{100, 0}).ok());
}

TEST(NetworkTest, MissingReceiverCountsDrop) {
  Simulator s;
  Net net(s);
  EndpointId a = net.AddEndpoint(NicSpec{});
  EndpointId b = net.AddEndpoint(NicSpec{});
  net.Send(a, b, Packet{100, 1});
  s.Run();
  EXPECT_EQ(net.dropped_messages(), 1u);
}

TEST(NetworkTest, IngressSerializationCreatesIncast) {
  Simulator s;
  Net net(s);
  NicSpec slow;
  slow.bandwidth_bpns = GbpsToBytesPerNs(1.0);  // 1 Gb/s receiver
  slow.base_latency_ns = 1000;
  EndpointId dst = net.AddEndpoint(slow);
  std::vector<EndpointId> sources;
  for (int i = 0; i < 8; ++i) sources.push_back(net.AddEndpoint(NicSpec{}));
  std::vector<SimTime> arrivals;
  net.SetReceiver(dst, [&](Msg) { arrivals.push_back(s.Now()); });
  // 8 concurrent 125KB sends: each takes 1ms on the 1Gb/s ingress pipe, so
  // they arrive spaced ~1ms apart.
  for (auto src : sources) net.Send(src, dst, Packet{125000, 0});
  s.Run();
  ASSERT_EQ(arrivals.size(), 8u);
  EXPECT_GT(arrivals.back() - arrivals.front(), 6 * kMillisecond);
  EXPECT_GT(net.stats(dst).bytes_received, 8u * 125000 - 1);
}

TEST(NetworkTest, StatsCountMessages) {
  Simulator s;
  Net net(s);
  EndpointId a = net.AddEndpoint(NicSpec{});
  EndpointId b = net.AddEndpoint(NicSpec{});
  net.SetReceiver(b, [](Msg) {});
  net.Send(a, b, Packet{64, 0});
  net.Send(a, b, Packet{64, 0});
  s.Run();
  EXPECT_EQ(net.stats(a).messages_sent, 2u);
  EXPECT_EQ(net.stats(b).messages_received, 2u);
}

TEST(NetworkTest, InjectedDuplicateDeliversTwoEqualCopies) {
  Simulator s;
  Net net(s);
  obs::Registry registry;
  FaultInjector faults(s, 1, &registry);
  NetFaultSpec spec;
  spec.dup_prob = 1.0;
  faults.net().set_spec(spec);
  net.set_faults(&faults.net());
  EndpointId a = net.AddEndpoint(NicSpec{});
  EndpointId b = net.AddEndpoint(NicSpec{});
  std::vector<Packet> got;
  net.SetReceiver(b, [&](Msg m) { got.push_back(*m.payload); });
  ASSERT_TRUE(net.Send(a, b, Packet{256, 42}).ok());
  s.Run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (Packet{256, 42}));
  EXPECT_EQ(got[1], got[0]);
  EXPECT_EQ(net.stats(a).messages_sent, 2u);
  EXPECT_EQ(net.stats(b).messages_received, 2u);
  EXPECT_EQ(net.stats(b).bytes_received, 512u);
}

// ---------------------------------------------------------------------------
// CPU model
// ---------------------------------------------------------------------------

TEST(CpuTest, ChargesSerially) {
  Simulator s;
  CpuCore core(s, 2.0);  // 2 GHz: 1000 cycles = 500ns
  std::vector<SimTime> completions;
  core.Run(1000, [&] { completions.push_back(s.Now()); });
  core.Run(1000, [&] { completions.push_back(s.Now()); });
  s.Run();
  ASSERT_EQ(completions.size(), 2u);
  EXPECT_EQ(completions[0], 500);
  EXPECT_EQ(completions[1], 1000);  // queued behind the first
}

TEST(CpuTest, UtilizationTracksBusyTime) {
  Simulator s;
  CpuCore core(s, 1.0);
  core.Run(500, [] {});
  s.Run();
  s.RunUntil(1000);
  EXPECT_NEAR(core.Utilization(1000), 0.5, 1e-9);
}

TEST(CpuTest, ModelAveragesAcrossCores) {
  Simulator s;
  CpuModel cpu(s, 4, 1.0);
  cpu.core(0).Charge(1000);
  s.RunUntil(1000);
  EXPECT_NEAR(cpu.MeanUtilization(1000), 0.25, 1e-9);
}

// ---------------------------------------------------------------------------
// Power model and platforms
// ---------------------------------------------------------------------------

TEST(PowerTest, PollingDrawsActiveAlways) {
  PowerSpec polling{45.0, 52.5, true};
  EXPECT_DOUBLE_EQ(NodePowerWatts(polling, 0.0), 52.5);
  EXPECT_DOUBLE_EQ(NodePowerWatts(polling, 1.0), 52.5);
}

TEST(PowerTest, InterruptScalesWithUtilization) {
  PowerSpec pi{3.6, 4.2, false};
  EXPECT_DOUBLE_EQ(NodePowerWatts(pi, 0.0), 3.6);
  EXPECT_NEAR(NodePowerWatts(pi, 0.5), 3.9, 1e-9);
  EXPECT_DOUBLE_EQ(NodePowerWatts(pi, 1.0), 4.2);
}

TEST(PowerTest, EnergyIntegratesOverWindow) {
  PowerSpec polling{45.0, 52.5, true};
  EXPECT_NEAR(NodeEnergyJoules(polling, 0.7, 2 * kSecond), 105.0, 1e-6);
  EXPECT_NEAR(RequestsPerJoule(1050, 105.0), 10.0, 1e-9);
  EXPECT_EQ(RequestsPerJoule(100, 0.0), 0.0);
}

TEST(PlatformTest, PresetsMatchPaperFigures) {
  PlatformSpec stingray = StingrayJbof();
  EXPECT_EQ(stingray.cores, 8u);
  EXPECT_DOUBLE_EQ(stingray.power.active_w, 52.5);
  EXPECT_EQ(stingray.ssd_count, 4u);
  // Storage skew ~ 4*960GB / 8GiB ~ 447 (Table 1 magnitude: hundreds+).
  EXPECT_GT(stingray.StorageSkew(), 300.0);
  // Network density: 100Gb / 8 cores = 12.5 Gb per core (Table 1).
  EXPECT_NEAR(stingray.NetworkDensityGbps(), 12.5, 0.1);
  // Storage density: 1.6M IOPS / 8 cores = 200K per core.
  EXPECT_NEAR(stingray.StorageDensityIops(), 200000, 1000);

  PlatformSpec pi = RaspberryPiNode();
  EXPECT_LT(pi.StorageSkew(), 64.0);
  EXPECT_LT(pi.NetworkDensityGbps(), 1.0);
  EXPECT_LT(pi.power.active_w, 5.0);

  PlatformSpec server = ServerJbof();
  EXPECT_GT(server.power.active_w, 200.0);
  EXPECT_GT(server.cores, stingray.cores);
}

TEST(PlatformTest, SkewOrderingAcrossPlatforms) {
  // Table 1 row 1: embedded < server < SmartNIC for flash:DRAM skew.
  EXPECT_LT(RaspberryPiNode().StorageSkew(), ServerJbof().StorageSkew());
  EXPECT_LT(ServerJbof().StorageSkew(), StingrayJbof().StorageSkew());
}

TEST(PlatformTest, ComputeDensityOrdering) {
  // Table 1 rows 2-3: the SmartNIC JBOF has the highest per-core IO burden.
  EXPECT_LT(RaspberryPiNode().NetworkDensityGbps(),
            StingrayJbof().NetworkDensityGbps());
  EXPECT_LT(ServerJbof().StorageDensityIops(),
            StingrayJbof().StorageDensityIops());
}

}  // namespace
}  // namespace leed::sim
