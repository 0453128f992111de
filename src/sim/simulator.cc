#include "sim/simulator.h"

#include <algorithm>

namespace leed::sim {

uint32_t Simulator::AllocSlot() {
  if (free_head_ != kNilSlot) {
    uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNilSlot;
    return index;
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::ReleaseSlot(uint32_t index) {
  Slot& s = slots_[index];
  // Bumping the generation is what invalidates every outstanding EventId
  // for this slot: a later Cancel with a stale id mismatches and returns
  // false instead of corrupting whatever event reuses the slot.
  ++s.gen;
  if (s.gen == 0) s.gen = 1;  // 0 is reserved so EventId 0 stays invalid
  s.live = false;
  s.daemon = false;
  s.next_free = free_head_;
  free_head_ = index;
}

EventId Simulator::AtImpl(SimTime when, EventFn fn, bool daemon) {
  if (when < now_) when = now_;
  const uint32_t index = AllocSlot();
  Slot& s = slots_[index];
  s.fn = std::move(fn);
  s.live = true;
  s.daemon = daemon;
  heap_.push_back(HeapEntry{when, next_seq_, index, s.gen});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++next_seq_;
  if (!daemon) ++live_pending_;
  return MakeId(index, s.gen);
}

bool Simulator::Cancel(EventId id) {
  const uint32_t index = SlotOf(id);
  if (index >= slots_.size()) return false;
  Slot& s = slots_[index];
  // Generation mismatch covers every "too late" case with one compare: the
  // event fired (firing released the slot), was already cancelled, or the
  // slot now belongs to a different event entirely.
  if (!s.live || s.gen != GenOf(id)) return false;
  if (!s.daemon && live_pending_ > 0) --live_pending_;
  // Move the callable out before releasing so its destructor (which may
  // drop shared state) runs after the slot bookkeeping is consistent.
  EventCallback dead = std::move(s.fn);
  ReleaseSlot(index);
  ++dead_;
  if (dead_ > kPurgeFloor && dead_ > heap_.size() - dead_) PurgeDead();
  return true;
}

void Simulator::PurgeDead() {
  std::erase_if(heap_, [this](const HeapEntry& e) { return !IsLive(e); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  dead_ = 0;
}

Simulator::HeapEntry Simulator::PopTop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const HeapEntry entry = heap_.back();
  heap_.pop_back();
  return entry;
}

bool Simulator::Dispatch(const HeapEntry& entry) {
  if (!IsLive(entry)) {  // dead: was cancelled
    --dead_;
    return false;
  }
  Slot& s = slots_[entry.slot];
  // Move the callable out and release the slot *before* invoking: the
  // callback may schedule new events, which can recycle this slot or grow
  // the slab (relocating every Slot) while we are still running.
  EventCallback fn = std::move(s.fn);
  const bool daemon = s.daemon;
  ReleaseSlot(entry.slot);
  now_ = entry.when;
  if (!daemon && live_pending_ > 0) --live_pending_;
  ++executed_;
  fn();
  return true;
}

SimTime Simulator::Run() {
  while (!heap_.empty() && live_pending_ > 0) Dispatch(PopTop());
  return now_;
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  uint64_t n = 0;
  while (!heap_.empty() && heap_.front().when <= deadline) {
    if (Dispatch(PopTop())) ++n;
  }
  if (now_ < deadline) now_ = deadline;
  return n;
}

bool Simulator::Step() {
  while (!heap_.empty()) {
    if (Dispatch(PopTop())) return true;
  }
  return false;
}

void PeriodicTimer::Start() {
  if (running_) return;
  running_ = true;
  Arm();
}

void PeriodicTimer::Stop() {
  if (!running_) return;
  running_ = false;
  if (pending_ != 0) {
    sim_.Cancel(pending_);
    pending_ = 0;
  }
}

void PeriodicTimer::Arm() {
  pending_ = sim_.ScheduleDaemon(period_, [this] {
    pending_ = 0;
    if (!running_) return;
    tick_();
    if (running_) Arm();
  });
}

}  // namespace leed::sim
