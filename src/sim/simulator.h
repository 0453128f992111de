// Discrete-event simulation core.
//
// Every hardware entity we substitute for the paper's testbed (NVMe SSDs,
// the RDMA fabric, SmartNIC cores, power meters) is driven by one
// single-threaded, deterministic event loop. Time is integer nanoseconds.
// Determinism matters: every bench prints its seed, and a run can be
// replayed bit-for-bit, which is how we debug scheduling pathologies that
// on the real testbed would be one-in-a-million races.
//
// The execution style deliberately mirrors the paper (§3.3): LEED's own
// prototype is an event-based asynchronous framework with per-command state
// machines, so the simulation host and the system-under-test share the same
// idiom — continuation callbacks scheduled at future instants.
//
// Hot-path layout (see DESIGN.md §8 for the determinism argument):
//
//   * Callables live in a slot slab, one EventCallback per pending event
//     (small-buffer optimized, so the common captures never allocate).
//     Slots are recycled through a free list; each reuse bumps the slot's
//     generation counter.
//   * The binary heap orders 24-byte POD entries {when, seq, slot, gen} —
//     sift operations move trivially-copyable structs, never callables.
//   * An EventId encodes (slot, generation). Cancel is an O(1) generation
//     check + slot release: no tombstone set, no hashing on dispatch, and
//     the id of an event that already fired can never cancel anything
//     because firing bumped the generation. A cancelled event leaves a
//     dead heap entry behind that dispatch skips with one integer compare.
//   * Dead entries are counted. Once they outnumber the live ones past a
//     fixed floor, the heap is rebuilt without them, so the heap holds at
//     most 2 x live + floor entries. Every client op arms a timeout that is
//     almost always cancelled; without the purge those dead timeouts
//     dominate the heap and every sift walks past them.
//
// None of this changes what executes when: event order is (when, seq), seq
// is assigned in Schedule order and unique, so any heap over the same live
// entries pops them in the same order, and cancellation only ever removes
// work. Replay therefore stays byte-identical for a given seed.
//
// One simulation runs on one thread. Parallelism lives a level up, across
// independent simulations: the seed-parallel sweep driver (sim/sweep.h,
// docs/PARALLEL_SIM.md) gives each worker its own Simulator.

#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "common/units.h"
#include "sim/event_callback.h"

namespace leed::sim {

using EventFn = EventCallback;

// Opaque handle for cancellation: high 32 bits slot index, low 32 bits the
// slot's generation at schedule time. Generations start at 1, so 0 is never
// a valid id.
using EventId = uint64_t;

class Simulator {
 public:
  Simulator() = default;

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  SimTime Now() const { return now_; }

  // Schedule fn to run `delay` ns from now (delay >= 0).
  EventId Schedule(SimTime delay, EventFn fn) { return At(now_ + delay, std::move(fn)); }

  // Schedule fn at an absolute instant (clamped to now if in the past).
  EventId At(SimTime when, EventFn fn) { return AtImpl(when, std::move(fn), false); }

  // Daemon events (periodic timers: heartbeats, swap watchdogs) execute
  // normally but do not keep Run() alive: Run() returns once only daemon
  // events remain, the way a real process exits when its worker threads
  // finish even though timers are still armed.
  EventId ScheduleDaemon(SimTime delay, EventFn fn) {
    return AtImpl(now_ + delay, std::move(fn), true);
  }

  // Cancel a pending event. Returns false if it already ran, was already
  // cancelled, or the id was never issued. Amortized O(1): flips the slot's
  // generation; the heap entry is skipped when it surfaces or dropped by
  // the next purge.
  bool Cancel(EventId id);

  // Run until the event queue drains. Returns the final time.
  SimTime Run();

  // Run events with time <= deadline; afterwards Now() == deadline (if any
  // events remained they stay queued). Returns number of events executed.
  uint64_t RunUntil(SimTime deadline);

  // Run at most one event. Returns false if the queue is empty.
  bool Step();

  uint64_t events_executed() const { return executed_; }
  // Live non-daemon events: the count that keeps Run() going. A cancelled
  // event leaves this count immediately (it will never run).
  uint64_t events_pending() const { return live_pending_; }

  // Introspection for tests: the slab never grows past the peak number of
  // simultaneously-pending events — cancelled/fired slots are recycled, so
  // unbounded growth here is the regression the generation scheme fixed.
  size_t slab_size() const { return slots_.size(); }
  // Heap entries, live and dead: at most 2 x pending events + kPurgeFloor.
  size_t heap_size() const { return heap_.size(); }

  // Dead heap entries tolerated before a purge is considered at all, so
  // small queues never pay for a rebuild.
  static constexpr size_t kPurgeFloor = 512;

 private:
  static constexpr uint32_t kNilSlot = 0xffffffffu;

  struct Slot {
    EventCallback fn;
    uint32_t gen = 1;
    uint32_t next_free = kNilSlot;
    bool live = false;
    bool daemon = false;
  };

  // What the binary heap actually sorts. POD on purpose: a sift swap is a
  // 24-byte move instead of relocating a callable.
  struct HeapEntry {
    SimTime when;
    uint64_t seq;  // tie-breaker: FIFO among same-instant events
    uint32_t slot;
    uint32_t gen;
  };
  static_assert(std::is_trivially_copyable_v<HeapEntry>);

  struct Later {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static constexpr EventId MakeId(uint32_t slot, uint32_t gen) {
    return (static_cast<EventId>(slot) << 32) | gen;
  }
  static constexpr uint32_t SlotOf(EventId id) {
    return static_cast<uint32_t>(id >> 32);
  }
  static constexpr uint32_t GenOf(EventId id) {
    return static_cast<uint32_t>(id);
  }

  EventId AtImpl(SimTime when, EventFn fn, bool daemon);
  uint32_t AllocSlot();
  void ReleaseSlot(uint32_t index);
  bool IsLive(const HeapEntry& entry) const {
    const Slot& s = slots_[entry.slot];
    return s.live && s.gen == entry.gen;
  }
  HeapEntry PopTop();
  bool Dispatch(const HeapEntry& entry);
  void PurgeDead();

  std::vector<HeapEntry> heap_;  // binary min-heap under Later
  size_t dead_ = 0;              // entries of cancelled events still in heap_
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNilSlot;
  SimTime now_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t executed_ = 0;
  uint64_t live_pending_ = 0;
};

// A periodic timer built on Simulator; used for heartbeats and token
// replenishment. Stops when the owner destroys it or calls Stop().
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& simulator, SimTime period, EventFn tick)
      : sim_(simulator), period_(period), tick_(std::move(tick)) {}
  ~PeriodicTimer() { Stop(); }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void Start();
  void Stop();
  bool running() const { return running_; }

 private:
  void Arm();

  Simulator& sim_;
  SimTime period_;
  EventFn tick_;
  EventId pending_ = 0;
  bool running_ = false;
};

}  // namespace leed::sim
