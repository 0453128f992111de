#include "baselines/executor.h"

#include <algorithm>

namespace leed::baselines {

BaselineExecutor::BaselineExecutor(sim::Simulator& simulator, sim::CpuModel& cpu,
                                   BaselineConfig config, uint64_t seed)
    : sim_(simulator), config_(std::move(config)) {
  const uint32_t n_ssd = config_.ssd_count;
  const uint32_t per = config_.stores_per_ssd;
  for (uint32_t i = 0; i < n_ssd; ++i) {
    ssds_.push_back(std::make_unique<sim::SimSsd>(sim_, config_.ssd, seed + 131 * i));
  }
  uint64_t part = config_.partition_bytes;
  if (part == 0) part = config_.ssd.capacity_bytes / per;
  part = std::min<uint64_t>(part, config_.ssd.capacity_bytes / per);

  for (uint32_t i = 0; i < n_ssd; ++i) {
    for (uint32_t s = 0; s < per; ++s) {
      const uint32_t store_id = i * per + s;
      // Shared-nothing: each store pinned to one core round-robin (KVell's
      // one-partition-per-core; FAWN's one event loop per store).
      sim::CpuCore& core = cpu.core(store_id % cpu.num_cores());
      const uint64_t base = static_cast<uint64_t>(s) * part;
      if (config_.kind == BaselineKind::kFawn) {
        fawn_stores_.push_back(std::make_unique<FawnStore>(
            sim_, core, *ssds_[i], base, part, config_.fawn));
      } else {
        kvell_stores_.push_back(std::make_unique<KvellStore>(
            sim_, core, *ssds_[i], base, part, config_.kvell));
      }
    }
  }
}

BaselineExecutor::~BaselineExecutor() = default;

uint32_t BaselineExecutor::num_stores() const {
  return static_cast<uint32_t>(config_.kind == BaselineKind::kFawn
                                   ? fawn_stores_.size()
                                   : kvell_stores_.size());
}

uint32_t BaselineExecutor::AvailableTokens(uint32_t ssd) const {
  // Remaining queue slack across this SSD's stores, clamped so the client's
  // window never explodes.
  size_t slack = 0;
  for (uint32_t s = 0; s < config_.stores_per_ssd; ++s) {
    uint32_t id = ssd * config_.stores_per_ssd + s;
    if (config_.kind == BaselineKind::kFawn) {
      const auto& st = *fawn_stores_[id];
      size_t cap = 64;  // advertised window per store
      slack += cap > st.queue_depth() ? cap - st.queue_depth() : 0;
    } else {
      const auto& st = *kvell_stores_[id];
      size_t cap = 128;
      slack += cap > st.queue_depth() ? cap - st.queue_depth() : 0;
    }
  }
  return static_cast<uint32_t>(std::min<size_t>(slack, 512));
}

void BaselineExecutor::Submit(engine::Request request) {
  stats_.submitted++;
  request.enqueued_at = sim_.Now();
  const uint32_t store_id = request.store_id;
  const uint32_t ssd = ssd_of_store(store_id);
  auto shared = std::make_shared<engine::Request>(std::move(request));

  auto complete = [this, shared, ssd](Status st, std::vector<uint8_t> value) {
    stats_.completed++;
    stats_.total_us.Record(ToMicros(sim_.Now() - shared->enqueued_at));
    engine::ResponseMeta meta;
    meta.available_tokens = AvailableTokens(ssd);
    meta.ssd = ssd;
    meta.server_time_ns = sim_.Now() - shared->enqueued_at;
    shared->callback(std::move(st), std::move(value), meta);
  };

  if (shared->type == engine::OpType::kScan) {
    // Baselines expose no ordered view through this executor; the node layer
    // gates on SupportsScan(), so this is a defensive reject.
    engine::ResponseMeta meta;
    meta.ssd = ssd;
    shared->scan_callback(Status::InvalidArgument("scan unsupported"), {}, meta);
    return;
  }

  if (config_.kind == BaselineKind::kFawn) {
    FawnStore& st = *fawn_stores_[store_id];
    switch (shared->type) {
      case engine::OpType::kGet:
        st.Get(shared->key, [complete](Status s, std::vector<uint8_t> v) {
          complete(std::move(s), std::move(v));
        });
        break;
      case engine::OpType::kPut:
        st.Put(shared->key, shared->value.bytes(),
               [complete](Status s) { complete(std::move(s), {}); });
        break;
      case engine::OpType::kDel:
        st.Del(shared->key, [complete](Status s) { complete(std::move(s), {}); });
        break;
      case engine::OpType::kScan:
        break;  // handled (rejected) above
    }
  } else {
    KvellStore& st = *kvell_stores_[store_id];
    switch (shared->type) {
      case engine::OpType::kGet:
        st.Get(shared->key, [complete](Status s, std::vector<uint8_t> v) {
          complete(std::move(s), std::move(v));
        });
        break;
      case engine::OpType::kPut:
        st.Put(shared->key, shared->value.bytes(),
               [complete](Status s) { complete(std::move(s), {}); });
        break;
      case engine::OpType::kDel:
        st.Del(shared->key, [complete](Status s) { complete(std::move(s), {}); });
        break;
      case engine::OpType::kScan:
        break;  // handled (rejected) above
    }
  }
}

}  // namespace leed::baselines
