// Stress tests for the event-loop core's generation-slot scheme:
// interleaved Schedule/Cancel/daemon churn asserting events_pending()
// invariants, FIFO tie-breaking, slab-growth bounds, and id-reuse safety.
//
// The simulator is single-threaded by contract, so the hazards here are
// not data races but lifetime races — slots recycled while stale heap
// entries are still queued, the slab relocating mid-dispatch, cancels
// aimed at ids whose slot was reused.
// Runs under the ASan/UBSan and TSan CI jobs like every other test, where
// a use-after-free in the slab or callable storage is a hard failure.

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "common/rand.h"
#include "sim/simulator.h"
#include "test_util.h"

namespace leed::sim {
namespace {

// Random interleaving of Schedule / Cancel / Step against a shadow model.
// Each scheduled callback erases its own record when it fires, so the model
// tracks exactly which events are live: events_pending() and every Cancel()
// return value is checkable after every action.
TEST(SimStressTest, ScheduleCancelChurnAgainstShadowModel) {
  Simulator s;
  Rng rng(testutil::TestSeed(0xbeef));

  struct Rec {
    EventId id = 0;
    bool daemon = false;
  };
  std::map<EventId, bool> live;    // id -> daemon
  std::vector<EventId> fired_ids;  // ids whose events already ran
  size_t peak_live = 0;

  auto model_pending = [&live] {
    uint64_t n = 0;
    for (const auto& [id, daemon] : live) n += daemon ? 0 : 1;
    return n;
  };

  for (int round = 0; round < 20000; ++round) {
    const uint64_t action = rng.NextBounded(10);
    if (action < 4) {
      // Schedule a live event (sometimes a daemon) that retires itself.
      auto rec = std::make_shared<Rec>();
      rec->daemon = rng.NextBounded(4) == 0;
      const SimTime delay = static_cast<SimTime>(rng.NextBounded(50));
      auto fire = [&live, &fired_ids, rec] {
        fired_ids.push_back(rec->id);
        ASSERT_EQ(live.erase(rec->id), 1u);
      };
      const EventId id = rec->daemon ? s.ScheduleDaemon(delay, std::move(fire))
                                     : s.Schedule(delay, std::move(fire));
      ASSERT_NE(id, 0u);
      ASSERT_FALSE(live.contains(id)) << "EventId reused while still live";
      rec->id = id;
      live[id] = rec->daemon;
    } else if (action < 6 && !live.empty()) {
      // Cancel a random live event: must succeed exactly once.
      auto it = live.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(live.size())));
      const EventId id = it->first;
      live.erase(it);
      EXPECT_TRUE(s.Cancel(id));
      EXPECT_FALSE(s.Cancel(id)) << "double cancel must fail";
    } else if (action < 7 && !fired_ids.empty()) {
      // Cancel an id that already ran: must always fail. (The old loop
      // reported success here and leaked a tombstone per call; under
      // generations the fired event's slot bumped its generation, so the
      // stale id can never match — even if the slot was reused.)
      const EventId stale = fired_ids[rng.NextBounded(fired_ids.size())];
      EXPECT_FALSE(s.Cancel(stale));
    } else {
      // Fire at most one event; its callback removes it from the model.
      s.Step();
    }
    peak_live = std::max(peak_live, live.size());
    ASSERT_EQ(s.events_pending(), model_pending()) << "round " << round;
    // The slab recycles slots through the free list: it can never exceed
    // the peak number of simultaneously live events (no tombstone growth).
    ASSERT_LE(s.slab_size(), peak_live) << "round " << round;
  }

  // Drain: the model must empty exactly when the simulator does.
  s.Run();
  while (s.Step()) {  // flush remaining daemon events
  }
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(s.events_pending(), 0u);
}

// Same-instant events fire in schedule order, even across cancels that
// punch holes into the batch and force slot reuse between rounds.
TEST(SimStressTest, FifoTieBreakSurvivesCancelHoles) {
  Simulator s;
  Rng rng(testutil::TestSeed(0x7a57e));
  for (int round = 0; round < 200; ++round) {
    std::vector<int> order;
    std::vector<EventId> batch;
    const SimTime when = s.Now() + 10;
    for (int i = 0; i < 32; ++i) {
      batch.push_back(s.At(when, [&order, i] { order.push_back(i); }));
    }
    std::set<int> cancelled;
    for (int i = 0; i < 8; ++i) {
      const int victim = static_cast<int>(rng.NextBounded(32));
      if (cancelled.insert(victim).second) {
        EXPECT_TRUE(s.Cancel(batch[static_cast<size_t>(victim)]));
      }
    }
    s.Run();
    // Survivors fired in schedule order with the cancelled ones absent.
    std::vector<int> expected;
    for (int i = 0; i < 32; ++i) {
      if (!cancelled.contains(i)) expected.push_back(i);
    }
    ASSERT_EQ(order, expected) << "round " << round;
  }
}

// Deterministic replay: the same seed drives the same interleaving to the
// same execution trace — the §8 guarantee at the event-loop level, under
// cancellation churn (cancellation only removes work; it never reorders).
TEST(SimStressTest, ChurnReplaysIdentically) {
  auto run_once = [](uint64_t seed) {
    Simulator s;
    Rng rng(seed);
    std::vector<std::pair<SimTime, int>> trace;
    std::vector<EventId> pending;
    for (int i = 0; i < 5000; ++i) {
      const uint64_t action = rng.NextBounded(4);
      if (action < 2) {
        const int tag = i;
        pending.push_back(
            s.Schedule(static_cast<SimTime>(rng.NextBounded(30)),
                       [&trace, &s, tag] { trace.emplace_back(s.Now(), tag); }));
      } else if (action == 2 && !pending.empty()) {
        const size_t idx =
            static_cast<size_t>(rng.NextBounded(pending.size()));
        s.Cancel(pending[idx]);
        pending.erase(pending.begin() + static_cast<long>(idx));
      } else {
        s.Step();
      }
    }
    s.Run();
    return trace;
  };
  const auto a = run_once(0x5eed);
  const auto b = run_once(0x5eed);
  EXPECT_EQ(a, b);
  const auto c = run_once(0x0dd);
  EXPECT_NE(a, c);  // the seed must actually steer the interleaving
}

// Daemon timer churn: start/stop cycles must not leak pending counts or
// let a stopped timer tick, and the timer's internal Cancel/re-Arm cycle
// must stay correct across slot reuse.
TEST(SimStressTest, DaemonTimerChurn) {
  Simulator s;
  Rng rng(testutil::TestSeed(0xdae));
  int ticks = 0;
  PeriodicTimer timer(s, 7, [&ticks] { ++ticks; });
  for (int round = 0; round < 500; ++round) {
    if (rng.NextBounded(2) == 0) {
      timer.Start();
    } else {
      timer.Stop();
    }
    const bool running = timer.running();
    const int before = ticks;
    s.Schedule(20, [] {});  // keeps Run() alive for ~3 timer periods
    s.Run();
    if (running) {
      EXPECT_GT(ticks, before) << "armed timer failed to tick";
    } else {
      EXPECT_EQ(ticks, before) << "stopped timer ticked";
    }
  }
  timer.Stop();
  EXPECT_EQ(s.events_pending(), 0u);
}

// Slab reuse under sustained load: schedule a batch, cancel half, run the
// rest, repeat. The slab must stay at the high-water mark instead of
// growing per round (the tombstone-leak regression, at scale), and the
// cancelled half must never execute.
TEST(SimStressTest, SlabStaysAtHighWaterMark) {
  Simulator s;
  constexpr size_t kBatch = 512;
  uint64_t fired = 0;
  for (int round = 0; round < 50; ++round) {
    std::vector<EventId> ids;
    ids.reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      ids.push_back(
          s.Schedule(static_cast<SimTime>(i % 17), [&fired] { ++fired; }));
    }
    for (size_t i = 0; i < kBatch; i += 2) EXPECT_TRUE(s.Cancel(ids[i]));
    s.Run();
    EXPECT_LE(s.slab_size(), kBatch);
    EXPECT_EQ(s.events_pending(), 0u);
  }
  EXPECT_EQ(fired, 50u * kBatch / 2);
}

}  // namespace
}  // namespace leed::sim
