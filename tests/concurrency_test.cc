// Multi-threaded stress tests for the pieces of the tree that carry a
// cross-thread contract: SpscRing (single producer / single consumer),
// TokenPool (internally synchronized), the obs Registry's cold paths
// (registration / lookup / snapshot under a lock, instruments
// single-writer).
//
// These tests are the workload behind the TSan CI job (LEED_SANITIZE=thread,
// Debug build): TSan proves the atomics/locks are sufficient, and the Debug
// build additionally arms SpscRing's role-pinning asserts. They also run in
// the plain build where they act as ordinary correctness stress tests.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "engine/spsc_ring.h"
#include "engine/token_bucket.h"
#include "obs/metrics.h"

namespace leed {
namespace {

// ---------------------------------------------------------------------------
// SpscRing: one producer thread, one consumer thread, every element arrives
// exactly once and in order.
// ---------------------------------------------------------------------------

TEST(SpscRingConcurrencyTest, SingleProducerSingleConsumerOrdered) {
  constexpr uint64_t kItems = 200000;
  engine::SpscRing<uint64_t> ring(1024);

  std::thread producer([&] {
    for (uint64_t i = 0; i < kItems;) {
      if (ring.TryPush(uint64_t{i})) {
        ++i;
      } else {
        std::this_thread::yield();
      }
    }
  });

  uint64_t expected = 0;
  uint64_t sum = 0;
  while (expected < kItems) {
    if (auto v = ring.TryPop()) {
      ASSERT_EQ(*v, expected) << "ring reordered or duplicated an element";
      sum += *v;
      ++expected;
    } else {
      std::this_thread::yield();
    }
  }
  producer.join();

  EXPECT_EQ(sum, kItems * (kItems - 1) / 2);
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRingConcurrencyTest, FrontAndPopShareTheConsumerRole) {
  engine::SpscRing<int> ring(4);
  ASSERT_TRUE(ring.TryPush(7));
  // Front and TryPop from the same thread is the supported consumer
  // pattern; the debug role-pinning must accept one thread playing both
  // endpoint roles.
  ASSERT_NE(ring.Front(), nullptr);
  EXPECT_EQ(*ring.Front(), 7);
  auto v = ring.TryPop();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

// ---------------------------------------------------------------------------
// TokenPool: hammer TryTake/Refund/OnIoCompleted from several threads; the
// pool must never report more in-use tokens than its capacity bound allows
// and must end balanced once every taker refunds.
// ---------------------------------------------------------------------------

TEST(TokenPoolConcurrencyTest, TakeRefundRescaleFromManyThreads) {
  engine::TokenConfig cfg;
  cfg.base_tokens = 64;
  cfg.min_tokens = 8;
  cfg.max_tokens = 128;
  engine::TokenPool pool(cfg);

  constexpr int kThreads = 4;
  constexpr int kIterations = 20000;
  std::atomic<uint64_t> takes{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        const uint32_t cost = 2 + static_cast<uint32_t>((t + i) % 3);
        if (pool.TryTake(cost)) {
          takes.fetch_add(1, std::memory_order_relaxed);
          // Feed latencies that oscillate around the reference so Rescale
          // runs both the shrink and grow paths while tokens are in flight.
          const SimTime latency =
              (i % 2 == 0 ? 40 : 90) * kMicrosecond;
          pool.OnIoCompleted(latency);
          pool.Refund(cost);
        }
        const uint32_t cap = pool.capacity();
        EXPECT_GE(cap, cfg.min_tokens);
        EXPECT_LE(cap, cfg.max_tokens);
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_GT(takes.load(), 0u);
  // Every take was refunded, so the pool must be back to full.
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.available(), pool.capacity());
}

// ---------------------------------------------------------------------------
// Registry: concurrent registration of distinct and identical names, each
// thread incrementing only the counters it owns (instruments are
// single-writer by contract; the *registry* paths are what is shared).
// ---------------------------------------------------------------------------

TEST(RegistryConcurrencyTest, ConcurrentRegistrationAndSnapshot) {
  obs::Registry registry;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 64;
  constexpr uint64_t kIncrements = 1000;

  // Phase 1 — the registry's synchronized cold paths: threads race to
  // register distinct and identical names while also snapshotting (map
  // mutation vs. map iteration). No instrument is written in this phase:
  // instruments are single-writer by contract, and a snapshot may not
  // run concurrently with a writer.
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      // A shared name: all threads race to register it, exactly one
      // instrument must result.
      (void)registry.GetGauge("stress.shared");
      for (int i = 0; i < kPerThread; ++i) {
        (void)registry.GetCounter(
            "stress.t" + std::to_string(t) + ".c" + std::to_string(i));
        if (i % 16 == 0) {
          const std::string snap = registry.SnapshotJson();
          EXPECT_FALSE(snap.empty());
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  workers.clear();

  // Phase 2 — hot path: each thread increments only the counters it
  // owns; lookups of other threads' registrations run concurrently.
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::Counter* c = registry.GetCounter(
            "stress.t" + std::to_string(t) + ".c" + std::to_string(i));
        for (uint64_t n = 0; n < kIncrements; ++n) c->Inc();
      }
    });
  }
  for (auto& w : workers) w.join();

  EXPECT_EQ(registry.size(),
            static_cast<size_t>(kThreads * kPerThread) + 1);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      obs::Counter* c = registry.GetCounter(
          "stress.t" + std::to_string(t) + ".c" + std::to_string(i));
      EXPECT_EQ(c->value(), kIncrements);
    }
  }
}

}  // namespace
}  // namespace leed
