#include "baselines/kvell_store.h"

#include <algorithm>
#include <cstring>

#include "store/format.h"

namespace leed::baselines {

using store::EncodeValueEntry;
using store::ParseValueEntry;

KvellStore::KvellStore(sim::Simulator& simulator, sim::CpuCore& core,
                       sim::BlockDevice& device, uint64_t region_base,
                       uint64_t region_size, KvellConfig config)
    : sim_(simulator),
      core_(core),
      device_(device),
      region_base_(region_base),
      region_size_(region_size),
      config_(config),
      slot_bytes_(config.slot_bytes) {}

void KvellStore::Get(std::string key, GetCallback callback) {
  stats_.gets++;
  Pending p;
  p.kind = Pending::Kind::kGet;
  p.key = std::move(key);
  p.get_cb = std::move(callback);
  Enqueue(std::move(p));
}

void KvellStore::Put(std::string key, std::vector<uint8_t> value, OpCallback callback) {
  stats_.puts++;
  Pending p;
  p.kind = Pending::Kind::kPut;
  p.key = std::move(key);
  p.value = std::move(value);
  p.op_cb = std::move(callback);
  Enqueue(std::move(p));
}

void KvellStore::Del(std::string key, OpCallback callback) {
  stats_.dels++;
  Pending p;
  p.kind = Pending::Kind::kDel;
  p.key = std::move(key);
  p.op_cb = std::move(callback);
  Enqueue(std::move(p));
}

void KvellStore::Enqueue(Pending p) {
  if (queue_.size() >= config_.queue_capacity) {
    stats_.rejected_full++;
    Status st = Status::Overloaded("kvell partition queue full");
    if (p.kind == Pending::Kind::kGet) {
      p.get_cb(st, {});
    } else {
      p.op_cb(st);
    }
    return;
  }
  core_.Charge(Cycles(config_.costs.enqueue));
  queue_.push_back(std::move(p));
  Pump();
}

void KvellStore::Pump() {
  while (inflight_ < config_.max_ioqd && !queue_.empty()) {
    Pending p = std::move(queue_.front());
    queue_.pop_front();
    ++inflight_;
    Execute(std::move(p));
  }
}

void KvellStore::Finish() {
  if (inflight_ > 0) --inflight_;
  Pump();
}

void KvellStore::Execute(Pending p) {
  auto shared = std::make_shared<Pending>(std::move(p));
  // Batch-accumulation window: the op waits for its device-access batch to
  // fill/flush. Pipelined (no CPU held), so throughput is unaffected.
  const SimTime wait = shared->kind == Pending::Kind::kGet
                           ? config_.read_batch_wait_ns
                           : config_.write_batch_wait_ns;
  sim_.Schedule(wait, [this, shared] { ExecuteNow(shared); });
}

void KvellStore::ExecuteNow(std::shared_ptr<Pending> shared) {
  // The B-tree walk dominates CPU cost — this is the charge that saturates
  // SmartNIC cores (Table 3's KVell-JBOF row).
  core_.Run(Cycles(config_.costs.index_op), [this, shared] {
    switch (shared->kind) {
      case Pending::Kind::kGet: {
        auto loc = index_.Find(shared->key);
        if (!loc) {
          stats_.not_found++;
          core_.Run(Cycles(config_.costs.complete), [this, shared] {
            shared->get_cb(Status::NotFound(), {});
            Finish();
          });
          return;
        }
        stats_.ssd_reads++;
        sim::IoRequest req;
        req.type = sim::IoType::kRead;
        req.pattern = sim::IoPattern::kRandom;
        req.offset = SlotOffset(loc->offset);
        req.length = slot_bytes_;
        device_.Submit(std::move(req), [this, shared](sim::IoResult r) {
          core_.Run(Cycles(config_.costs.complete),
                    [this, shared, res = std::move(r)]() mutable {
            if (!res.status.ok()) {
              shared->get_cb(std::move(res.status), {});
            } else {
              auto entry = ParseValueEntry(res.data, 0);
              if (!entry.ok() || entry.value().key != shared->key) {
                shared->get_cb(Status::Corruption("slot content mismatch"), {});
              } else {
                const auto value = entry.value().value;
                shared->get_cb(Status::Ok(),
                               std::vector<uint8_t>(value.begin(), value.end()));
              }
            }
            Finish();
          });
        });
        return;
      }
      case Pending::Kind::kPut: {
        auto encoded = EncodeValueEntry(0, shared->key, shared->value);
        if (slot_bytes_ == 0) {
          // First write fixes the slab size class: entry rounded up to the
          // device block.
          uint32_t block = device_.block_size();
          slot_bytes_ = static_cast<uint32_t>((encoded.size() + block - 1) / block * block);
        }
        if (encoded.size() > slot_bytes_) {
          core_.Run(Cycles(config_.costs.complete), [this, shared] {
            shared->op_cb(Status::InvalidArgument("object exceeds slab class"));
            Finish();
          });
          return;
        }
        encoded.resize(slot_bytes_, 0);

        uint64_t slot;
        auto loc = index_.Find(shared->key);
        if (loc) {
          slot = loc->offset;  // in-place update
        } else if (!free_slots_.empty()) {
          slot = free_slots_.back();
          free_slots_.pop_back();
          stats_.slots_recycled++;
        } else {
          if ((next_slot_ + 1) * slot_bytes_ > region_size_) {
            core_.Run(Cycles(config_.costs.complete), [this, shared] {
              shared->op_cb(Status::OutOfSpace("kvell partition full"));
              Finish();
            });
            return;
          }
          slot = next_slot_++;
          stats_.slots_allocated++;
        }

        stats_.ssd_writes++;
        sim::IoRequest req;
        req.type = sim::IoType::kWrite;
        req.pattern = sim::IoPattern::kRandom;  // in-place: random write
        req.offset = SlotOffset(slot);
        req.data = std::move(encoded);
        device_.Submit(std::move(req), [this, shared, slot](sim::IoResult r) {
          core_.Run(Cycles(config_.costs.complete),
                    [this, shared, slot, st = std::move(r.status)]() mutable {
            if (st.ok()) {
              index_.Upsert(shared->key, {0, slot, slot_bytes_});
            }
            shared->op_cb(std::move(st));
            Finish();
          });
        });
        return;
      }
      case Pending::Kind::kDel: {
        auto loc = index_.Find(shared->key);
        if (!loc) {
          stats_.not_found++;
          core_.Run(Cycles(config_.costs.complete), [this, shared] {
            shared->op_cb(Status::Ok());  // idempotent delete
            Finish();
          });
          return;
        }
        uint64_t slot = loc->offset;
        index_.Erase(shared->key);
        free_slots_.push_back(slot);
        // KVell persists the freelist lazily; the in-place tombstone write
        // models the metadata update.
        stats_.ssd_writes++;
        sim::IoRequest req;
        req.type = sim::IoType::kWrite;
        req.pattern = sim::IoPattern::kRandom;
        req.offset = SlotOffset(slot);
        req.data = std::vector<uint8_t>(std::min<uint32_t>(slot_bytes_, 512), 0);
        device_.Submit(std::move(req), [this, shared](sim::IoResult r) {
          core_.Run(Cycles(config_.costs.complete),
                    [this, shared, st = std::move(r.status)]() mutable {
            shared->op_cb(std::move(st));
            Finish();
          });
        });
        return;
      }
    }
  });
}

}  // namespace leed::baselines
