#include "sim/sweep.h"

namespace leed::sim {

uint32_t ResolveJobs(uint32_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1u : static_cast<uint32_t>(hw);
}

TaskPool::TaskPool(uint32_t jobs) : jobs_(jobs == 0 ? 1 : jobs) {
  // The calling thread participates in every round, so a pool of size J
  // needs J-1 workers (and size 1 needs none: Run is then a plain loop,
  // the serial oracle the replay gate compares parallel runs against).
  workers_.reserve(jobs_ - 1);
  for (uint32_t i = 0; i + 1 < jobs_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

TaskPool::~TaskPool() {
  {
    std::lock_guard lock(mu_);
    shutdown_ = true;
  }
  round_start_.notify_all();
  for (auto& w : workers_) w.join();
}

void TaskPool::DrainCursor() {
  for (;;) {
    const uint32_t index = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (index >= count_) return;
    (*task_)(index);
  }
}

void TaskPool::WorkerLoop() {
  uint64_t seen_round = 0;
  for (;;) {
    {
      std::unique_lock lock(mu_);
      round_start_.wait(lock,
                        [&] { return shutdown_ || round_ != seen_round; });
      if (shutdown_) return;
      seen_round = round_;
    }
    DrainCursor();
    std::lock_guard lock(mu_);
    if (++workers_done_ + 1 == jobs_) round_done_.notify_all();
  }
}

void TaskPool::Run(uint32_t count, const std::function<void(uint32_t)>& task) {
  if (count == 0) return;
  if (jobs_ == 1 || count == 1) {
    for (uint32_t i = 0; i < count; ++i) task(i);
    return;
  }
  {
    std::lock_guard lock(mu_);
    count_ = count;
    task_ = &task;
    workers_done_ = 0;
    cursor_.store(0, std::memory_order_relaxed);
    ++round_;
  }
  round_start_.notify_all();
  // The caller is worker zero: it drains the same cursor, so a pool of J
  // never leaves the calling core idle while J-1 workers grind.
  DrainCursor();
  std::unique_lock lock(mu_);
  round_done_.wait(lock, [&] { return workers_done_ + 1 == jobs_; });
  task_ = nullptr;
}

void ParallelFor(uint32_t count, uint32_t jobs,
                 const std::function<void(uint32_t)>& task) {
  const uint32_t resolved = ResolveJobs(jobs);
  if (resolved <= 1 || count <= 1) {
    for (uint32_t i = 0; i < count; ++i) task(i);
    return;
  }
  TaskPool pool(resolved < count ? resolved : count);
  pool.Run(count, task);
}

}  // namespace leed::sim
