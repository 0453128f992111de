#include "baselines/fawn_store.h"

#include <algorithm>

#include "store/format.h"

namespace leed::baselines {

// Log entries reuse the LEED value-entry codec (segment_id field unused):
// a length-prefixed key+value record, with value_len==0 as the tombstone.
using store::EncodeValueEntry;
using store::ParseValueEntry;
using store::ValueEntry;

FawnStore::FawnStore(sim::Simulator& simulator, sim::CpuCore& core,
                     sim::BlockDevice& device, uint64_t log_base,
                     uint64_t log_size, FawnConfig config)
    : sim_(simulator),
      core_(core),
      config_(config),
      log_(device, log_base, log_size) {}

void FawnStore::Get(std::string key, GetCallback callback) {
  stats_.gets++;
  Pending p;
  p.kind = Pending::Kind::kGet;
  p.key = std::move(key);
  p.get_cb = std::move(callback);
  Enqueue(std::move(p));
}

void FawnStore::Put(std::string key, std::vector<uint8_t> value, OpCallback callback) {
  stats_.puts++;
  Pending p;
  p.kind = Pending::Kind::kPut;
  p.key = std::move(key);
  p.value = std::move(value);
  p.op_cb = std::move(callback);
  Enqueue(std::move(p));
}

void FawnStore::Del(std::string key, OpCallback callback) {
  stats_.dels++;
  Pending p;
  p.kind = Pending::Kind::kDel;
  p.key = std::move(key);
  p.op_cb = std::move(callback);
  Enqueue(std::move(p));
}

void FawnStore::Enqueue(Pending p) {
  if (queue_.size() >= kFawnQueueCapacity) {
    stats_.rejected_full++;
    Status st = Status::Overloaded("fawn store queue full");
    if (p.kind == Pending::Kind::kGet) {
      p.get_cb(st, {});
    } else {
      p.op_cb(st);
    }
    return;
  }
  queue_.push_back(std::move(p));
  PumpQueue();
}

void FawnStore::PumpQueue() {
  while (inflight_ < config_.max_inflight && !queue_.empty()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    ++inflight_;
    Execute(std::move(p));
  }
}

void FawnStore::Finish() {
  if (inflight_ > 0) --inflight_;
  PumpQueue();
  MaybeClean();
}

void FawnStore::Execute(Pending p) {
  auto shared = std::make_shared<Pending>(std::move(p));
  core_.Run(Cycles(config_.costs.lookup), [this, shared] {
    switch (shared->kind) {
      case Pending::Kind::kGet: {
        auto it = index_.find(shared->key);
        if (it == index_.end()) {
          stats_.not_found++;
          core_.Run(Cycles(config_.costs.complete), [this, shared] {
            shared->get_cb(Status::NotFound(), {});
            Finish();
          });
          return;
        }
        stats_.ssd_reads++;
        log_.Read(it->second.offset, it->second.entry_bytes,
                  [this, shared](log::ReadResult r) {
          if (!r.status.ok()) {
            shared->get_cb(std::move(r.status), {});
            Finish();
            return;
          }
          core_.Run(Cycles(config_.costs.complete),
                    [this, shared, data = std::move(r.data)] {
            auto e = ParseValueEntry(data, 0);
            if (!e.ok()) {
              shared->get_cb(e.status(), {});
            } else {
              const auto value = e.value().value;
              shared->get_cb(Status::Ok(), std::vector<uint8_t>(value.begin(), value.end()));
            }
            Finish();
          });
        });
        return;
      }
      case Pending::Kind::kPut:
      case Pending::Kind::kDel: {
        // A DEL carries no value, so it encodes as an empty-value tombstone.
        auto encoded = EncodeValueEntry(0, shared->key, shared->value);
        const uint32_t entry_bytes = static_cast<uint32_t>(encoded.size());
        if (encoded.size() > log_.free_space()) {
          core_.Run(Cycles(config_.costs.complete), [this, shared] {
            shared->op_cb(Status::OutOfSpace("fawn log full"));
            Finish();
          });
          return;
        }
        core_.Charge(Cycles(config_.costs.append));
        const uint64_t offset = log_.tail();
        stats_.ssd_writes++;
        log_.Append(std::move(encoded),
                    [this, shared, offset, entry_bytes](log::AppendResult r) {
          core_.Run(Cycles(config_.costs.complete), [this, shared, offset,
                                                     entry_bytes,
                                                     st = r.status]() mutable {
            if (st.ok()) {
              if (shared->kind == Pending::Kind::kPut) {
                index_[shared->key] = IndexEntry{offset, entry_bytes};
              } else {
                index_.erase(shared->key);
              }
            }
            shared->op_cb(std::move(st));
            Finish();
          });
        });
        return;
      }
    }
  });
}

void FawnStore::MaybeClean() {
  if (cleaning_ || !log_.CompactionNeeded(config_.compaction_threshold)) return;
  cleaning_ = true;
  stats_.cleanings++;
  uint64_t chunk = std::min<uint64_t>(config_.compaction_chunk, log_.used());
  CleanStep(log_.head() + chunk);
}

void FawnStore::CleanStep(uint64_t region_end) {
  // FAWN's cleaner is sequential and single-threaded: read the head region,
  // re-append live entries (index hit at the same offset), advance.
  const uint64_t start = log_.head();
  if (start >= region_end || log_.used() == 0) {
    cleaning_ = false;
    return;
  }
  const uint64_t want = std::min<uint64_t>(region_end - start + 64 * 1024,
                                           log_.used());
  stats_.ssd_reads++;
  log_.Read(start, want, [this, start, region_end](log::ReadResult r) {
    if (!r.status.ok()) {
      cleaning_ = false;
      return;
    }
    struct Live {
      std::string key;
      uint64_t orig_offset = 0;
      std::vector<uint8_t> bytes;
    };
    auto live = std::make_shared<std::deque<Live>>();
    uint64_t pos = 0;
    uint64_t logical = start;
    uint64_t entries = 0;
    while (pos + ValueEntry::kHeaderBytes <= r.data.size() && logical < region_end) {
      auto e = ParseValueEntry(r.data, pos);
      if (!e.ok()) break;
      const store::ValueEntryView& v = e.value();
      uint64_t sz = v.bytes.size();
      ++entries;
      std::string key(v.key);
      auto it = index_.find(key);
      if (it != index_.end() && it->second.offset == logical) {
        live->push_back(Live{std::move(key), logical,
                             std::vector<uint8_t>(v.bytes.begin(), v.bytes.end())});
      } else {
        stats_.entries_dropped++;
      }
      pos += sz;
      logical += sz;
    }
    const uint64_t parsed_end = logical;
    core_.Run(Cycles(config_.costs.clean_per_entry * std::max<uint64_t>(1, entries)),
              [this, live, parsed_end] {
      // Re-append live entries one by one, then advance the head.
      auto step = std::make_shared<std::function<void()>>();
      // Weak self-capture: the pending Append callback carries the strong
      // reference, so the final round frees the closure (a strong capture
      // would be a reference cycle and leak).
      *step = [this, live, parsed_end,
               wstep = std::weak_ptr<std::function<void()>>(step)] {
        auto self = wstep.lock();
        if (!self) return;
        if (live->empty()) {
          (void)log_.AdvanceHead(parsed_end);
          cleaning_ = false;
          MaybeClean();
          return;
        }
        Live item = std::move(live->front());
        live->pop_front();
        if (item.bytes.size() > log_.free_space()) {
          // No room: abort this cleaning round without advancing.
          cleaning_ = false;
          return;
        }
        const uint64_t new_offset = log_.tail();
        const uint32_t bytes = static_cast<uint32_t>(item.bytes.size());
        stats_.ssd_writes++;
        stats_.entries_moved++;
        const uint64_t orig = item.orig_offset;
        log_.Append(std::move(item.bytes),
                    [this, key = std::move(item.key), orig, new_offset, bytes,
                     step = self](log::AppendResult ar) {
          if (ar.status.ok()) {
            auto it = index_.find(key);
            // Retarget only if the index still points at the copy we moved —
            // a concurrent PUT that already re-homed the key must win.
            if (it != index_.end() && it->second.offset == orig) {
              it->second = IndexEntry{new_offset, bytes};
            }
          }
          (*step)();
        });
      };
      (*step)();
    });
  });
}

}  // namespace leed::baselines
