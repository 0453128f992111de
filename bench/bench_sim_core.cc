// bench_sim_core — host-wall-clock microbenchmark for the discrete-event
// core (events/sec for schedule/dispatch/cancel churn at several queue
// depths).
//
// Every experiment in this repo is bottlenecked on sim::Simulator's single
// thread, so loop overhead is directly experiment wall time. This bench
// pits the current loop against a faithful copy of the pre-overhaul loop
// (std::function events, unordered_set cancel tombstones, fat in-heap
// Event) compiled into the same binary, so the speedup is measured on the
// same machine under the same load and is stable enough for CI to gate on.
//
// With $LEED_BENCH_JSON_DIR set, writes BENCH_simcore.json:
//   { "cases": [ {"name", "events_per_sec", "legacy_events_per_sec",
//                 "speedup"}, ... ] }
// docs/BENCHMARKS.md describes the methodology and how to read it.
//
// Wall-clock use is fine here: bench/ is outside leed-lint's determinism
// scope (nothing in this harness feeds a replayed simulation).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <queue>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench/bench_util.h"
#include "common/rand.h"
#include "sim/simulator.h"
#include "sim/sweep.h"

namespace leed::bench {
namespace {

// ---------------------------------------------------------------------------
// The pre-overhaul event loop, verbatim (modulo naming): per-event
// std::function, cancellation via an unordered_set of ids consulted on
// every pop, callable carried inside the heap node. This is the baseline
// the tentpole was measured against — do not "fix" it.
// ---------------------------------------------------------------------------

class LegacySimulator {
 public:
  using EventFn = std::function<void()>;
  using EventId = uint64_t;

  SimTime Now() const { return now_; }

  EventId Schedule(SimTime delay, EventFn fn) {
    return At(now_ + delay, std::move(fn));
  }
  EventId At(SimTime when, EventFn fn) {
    return AtImpl(when, std::move(fn), false);
  }
  EventId ScheduleDaemon(SimTime delay, EventFn fn) {
    return AtImpl(now_ + delay, std::move(fn), true);
  }

  bool Cancel(EventId id) {
    if (id == 0 || id >= next_seq_) return false;
    return cancelled_.insert(id).second;
  }

  SimTime Run() {
    while (!queue_.empty() && live_pending_ > 0) {
      Event ev = std::move(const_cast<Event&>(queue_.top()));
      queue_.pop();
      Dispatch(ev);
    }
    return now_;
  }

  uint64_t events_executed() const { return executed_; }

 private:
  struct Event {
    SimTime when;
    uint64_t seq;
    EventId id;
    bool daemon;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  EventId AtImpl(SimTime when, EventFn fn, bool daemon) {
    if (when < now_) when = now_;
    EventId id = next_seq_;
    queue_.push(Event{when, next_seq_, id, daemon, std::move(fn)});
    ++next_seq_;
    if (!daemon) ++live_pending_;
    return id;
  }

  bool Dispatch(Event& ev) {
    auto it = cancelled_.find(ev.id);
    if (it != cancelled_.end()) {
      cancelled_.erase(it);
      if (!ev.daemon && live_pending_ > 0) --live_pending_;
      return false;
    }
    now_ = ev.when;
    if (!ev.daemon && live_pending_ > 0) --live_pending_;
    ++executed_;
    ev.fn();
    return true;
  }

  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::unordered_set<EventId> cancelled_;
  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  uint64_t live_pending_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads, templated over the simulator under test.
// ---------------------------------------------------------------------------

// Queue-depth-1 ping: one self-rescheduling chain. Pure schedule+dispatch.
template <class Sim>
struct PingChain {
  Sim& sim;
  uint64_t remaining;
  void Fire() {
    if (remaining == 0) return;
    --remaining;
    sim.Schedule(10, [this] { Fire(); });
  }
};

template <class Sim>
uint64_t RunPing(uint64_t events) {
  Sim sim;
  PingChain<Sim> chain{sim, events};
  chain.Fire();
  sim.Run();
  return sim.events_executed();
}

// Steady-state churn at a given queue depth: `depth` independent chains,
// each event rescheduling itself at a pseudo-random offset so heap sifts
// do real work. Each event carries 40 bytes of capture freight — the
// tree's production events capture ~48-64 bytes (an IoCallback plus
// scalars, a moved Message), which is exactly what defeats std::function's
// two-word inline buffer and made every Schedule() allocate.
template <class Sim>
struct ChurnChain {
  Sim& sim;
  uint64_t* remaining;
  Rng* rng;
  uint64_t* sink;
  void Fire() {
    if (*remaining == 0) return;
    --*remaining;
    const uint64_t a = rng->Next();
    const uint64_t b = a ^ 0x9e3779b97f4a7c15ull;
    const uint64_t c = b + 0x1eed;
    const uint64_t d = c ^ (a >> 7);
    sim.Schedule(1 + static_cast<SimTime>(a & 127), [this, a, b, c, d] {
      *sink += a + b + c + d;  // keep the freight live
      Fire();
    });
  }
};

template <class Sim>
uint64_t RunDepthChurn(uint64_t events, uint32_t depth) {
  Sim sim;
  uint64_t remaining = events;
  uint64_t sink = 0;
  Rng rng(0x51c0);
  std::vector<ChurnChain<Sim>> chains(
      depth, ChurnChain<Sim>{sim, &remaining, &rng, &sink});
  for (auto& c : chains) c.Fire();
  sim.Run();
  if (sink == 0x1eedbad) std::printf("(unreachable)\n");
  return sim.events_executed();
}

// The timeout pattern from the real system, and the acceptance-criteria
// case: every op schedules work + a timeout, the work fires and cancels
// the timeout (so half of all scheduled events are cancelled, exactly like
// request timeouts on completed requests). Exercises Schedule, Cancel and
// the dispatch-time skip of stale entries.
template <class Sim>
struct TimeoutChain {
  Sim& sim;
  uint64_t* remaining;
  void Op() {
    if (*remaining == 0) return;
    --*remaining;
    auto timeout = sim.Schedule(1'000'000, [] {});
    sim.Schedule(10, [this, timeout] {
      sim.Cancel(timeout);
      Op();
    });
  }
};

template <class Sim>
uint64_t RunScheduleCancelChurn(uint64_t ops, uint32_t concurrency) {
  Sim sim;
  uint64_t remaining = ops;
  std::vector<TimeoutChain<Sim>> chains(
      concurrency, TimeoutChain<Sim>{sim, &remaining});
  for (auto& c : chains) c.Op();
  sim.Run();
  return sim.events_executed();
}

// Seed-sweep scaling (docs/PARALLEL_SIM.md): a fleet of independent churn
// simulations fanned across the seed-parallel sweep pool — the shape of
// every multi-seed harness in the tree. The jobs=1 pass is the serial
// baseline, so for this case the "legacy" column is that baseline and
// "speedup" reads as the sweep-level parallel scaling factor CI gates.
uint64_t RunSeedSweep(uint32_t jobs, uint64_t events_per_sim, uint32_t sims) {
  std::atomic<uint64_t> total{0};
  sim::ParallelFor(sims, jobs, [&](uint32_t) {
    total.fetch_add(RunDepthChurn<sim::Simulator>(events_per_sim, 256),
                    std::memory_order_relaxed);
  });
  return total.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

struct CaseResult {
  std::string name;
  double events_per_sec = 0;
  double legacy_events_per_sec = 0;
  double Speedup() const {
    return legacy_events_per_sec > 0 ? events_per_sec / legacy_events_per_sec
                                     : 0.0;
  }
};

template <class Fn>
double MeasureEps(Fn&& run) {
  // One warmup pass (allocator + branch predictors), then the timed pass.
  run();
  const auto t0 = std::chrono::steady_clock::now();
  const uint64_t executed = run();
  const auto t1 = std::chrono::steady_clock::now();
  const double secs = std::chrono::duration<double>(t1 - t0).count();
  return secs > 0 ? static_cast<double>(executed) / secs : 0.0;
}

void WriteSimcoreJson(const std::vector<CaseResult>& results) {
  const char* dir = std::getenv("LEED_BENCH_JSON_DIR");
  if (!dir || *dir == '\0') return;
  std::string body = "{\n  \"label\": \"simcore\",\n  \"cases\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"name\": \"%s\", \"events_per_sec\": %.0f, "
                  "\"legacy_events_per_sec\": %.0f, \"speedup\": %.3f}%s\n",
                  r.name.c_str(), r.events_per_sec, r.legacy_events_per_sec,
                  r.Speedup(), i + 1 < results.size() ? "," : "");
    body += buf;
  }
  body += "  ]\n}\n";
  std::string path = std::string(dir) + "/BENCH_simcore.json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(body.data(), 1, body.size(), f);
    std::fclose(f);
    std::printf("[bench json: %s]\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write bench json '%s'\n", path.c_str());
  }
}

}  // namespace
}  // namespace leed::bench

int main() {
  using namespace leed::bench;
  using leed::sim::Simulator;

  constexpr uint64_t kEvents = 2'000'000;
  constexpr uint64_t kOps = 600'000;  // x3+ events each (work+timeout+stale)

  PrintHeader("sim core: events/sec, current loop vs pre-overhaul loop");

  std::vector<CaseResult> results;
  auto add_case = [&](std::string name, double eps, double legacy_eps) {
    results.push_back(CaseResult{std::move(name), eps, legacy_eps});
    const CaseResult& r = results.back();
    PrintRow({r.name, Fmt("%.2fM/s", r.events_per_sec / 1e6),
              Fmt("%.2fM/s", r.legacy_events_per_sec / 1e6),
              Fmt("%.2fx", r.Speedup())},
             24);
  };

  PrintRow({"case", "current", "legacy", "speedup"}, 24);

  add_case("dispatch_ping",
           MeasureEps([] { return RunPing<Simulator>(kEvents); }),
           MeasureEps([] { return RunPing<LegacySimulator>(kEvents); }));
  add_case(
      "churn_depth256",
      MeasureEps([] { return RunDepthChurn<Simulator>(kEvents, 256); }),
      MeasureEps([] { return RunDepthChurn<LegacySimulator>(kEvents, 256); }));
  add_case(
      "churn_depth4096",
      MeasureEps([] { return RunDepthChurn<Simulator>(kEvents, 4096); }),
      MeasureEps(
          [] { return RunDepthChurn<LegacySimulator>(kEvents, 4096); }));
  add_case("schedule_cancel_churn",
           MeasureEps([] { return RunScheduleCancelChurn<Simulator>(kOps, 64); }),
           MeasureEps([] {
             return RunScheduleCancelChurn<LegacySimulator>(kOps, 64);
           }));

  // Parallel leg: "legacy" is the jobs=1 serial baseline of the same
  // workload, so "speedup" is the parallel scaling factor. CI's perf gate
  // requires parallel_scaling_jobs4 >= 1.5 on its 4-core runners
  // (docs/PARALLEL_SIM.md); on fewer cores expect ~1.0.
  constexpr uint64_t kSweepEvents = kEvents / 4;
  constexpr uint32_t kSweepSims = 8;
  add_case("parallel_scaling_jobs4",
           MeasureEps([] { return RunSeedSweep(4, kSweepEvents, kSweepSims); }),
           MeasureEps([] { return RunSeedSweep(1, kSweepEvents, kSweepSims); }));

  WriteSimcoreJson(results);
  return 0;
}
