// Seed-parallel sweep driver (docs/PARALLEL_SIM.md).
//
// Every multi-seed harness in this repo — the nemesis consistency sweeps,
// replay comparisons, multi-seed benches — runs N *independent* simulations
// that only ever meet again at the report. That is embarrassingly parallel,
// as long as each job is self-contained: its own sim::Simulator, its own
// obs::Registry and obs::TraceRing (never the process-wide trace ring), its
// own output files. The driver here supplies the thread pool and the
// determinism discipline:
//
//   * work items are addressed by index; callers write results into
//     index-addressed slots, so aggregation order is a function of the
//     sweep definition, never of thread scheduling;
//   * the task body runs with no driver-side locks held — tasks that need
//     shared state must bring their own synchronization (and should not:
//     per-index isolation is the point);
//   * jobs=1 degenerates to a plain loop on the calling thread with no
//     threads created, which is the replay/debug oracle for the sweep
//     layer itself. A sweep's outputs must be byte-identical for every
//     jobs value — CI's replay gate enforces this end to end.
//
// This is the only parallelism in the simulator: a single simulation runs
// on one thread (docs/PARALLEL_SIM.md says why there is no tier below it).

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace leed::sim {

// Resolve a requested --jobs value: 0 means "use every host core"
// (hardware_concurrency, itself never 0), anything else passes through.
uint32_t ResolveJobs(uint32_t requested);

// A reusable fixed-size worker pool. Run(count, task) executes
// task(0..count-1) across the workers plus the calling thread and returns
// when all indices completed. Run may be called repeatedly; workers park
// between rounds. With size() == 1 no threads exist and Run is a plain
// loop — the serial oracle path.
//
// Synchronization here is intentionally boring (one mutex + two condvars):
// a sweep round is milliseconds-to-seconds of simulation per index, so
// wakeup latency is noise.
class TaskPool {
 public:
  explicit TaskPool(uint32_t jobs);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  uint32_t size() const { return jobs_; }

  // Blocks until every index in [0, count) ran. Tasks are handed out by an
  // atomic cursor, so assignment of index -> thread is nondeterministic;
  // anything a task writes must therefore be index-addressed.
  void Run(uint32_t count, const std::function<void(uint32_t)>& task);

 private:
  void WorkerLoop();
  // Claims indices from the current round until the cursor runs dry.
  void DrainCursor();

  const uint32_t jobs_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable round_start_;
  std::condition_variable round_done_;
  // Guarded by mu_.
  uint64_t round_ = 0;  // bumped per Run(); workers wake on change
  bool shutdown_ = false;
  // Round-stable: written under mu_ by Run() before the round_ bump
  // publishes the round, then only *read* by workers until the round
  // completes — the mutex handoff on round_ is the happens-before edge.
  uint32_t count_ = 0;
  const std::function<void(uint32_t)>* task_ = nullptr;
  std::atomic<uint32_t> cursor_{0};
  // Workers that have left the current round. Every worker wakes for every
  // round, and Run() returns only once all of them have left it (by then
  // the cursor is dry, so every index ran): no straggler can still be
  // reading count_/task_ when the next Run() rewrites them.
  uint32_t workers_done_ = 0;  // guarded by mu_
};

// One-shot convenience: run task(0..count-1) on up to `jobs` threads
// (including the caller) and return when all completed. jobs is resolved
// through ResolveJobs; jobs=1 is a plain serial loop.
void ParallelFor(uint32_t count, uint32_t jobs,
                 const std::function<void(uint32_t)>& task);

}  // namespace leed::sim
