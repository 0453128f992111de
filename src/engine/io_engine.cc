#include "engine/io_engine.h"

#include <algorithm>
#include <utility>

#include "store/superblock.h"

namespace leed::engine {

namespace {

// Admission cost of a request: point ops by type, scans proportional to the
// snapshot they will actually fetch.
uint32_t RequestTokenCost(const TokenConfig& cfg, const Request& req) {
  if (req.type == OpType::kScan) {
    return ScanTokenCost(cfg, static_cast<uint32_t>(req.scan_snapshot.size()));
  }
  return TokenCost(cfg, req.type);
}

// Runs the request's completion: scan_callback for SCANs, callback for
// every other op.
void Deliver(Request& req, Status status, std::vector<uint8_t> value,
             std::vector<store::ScanItem> items, const ResponseMeta& meta) {
  if (req.type == OpType::kScan) {
    req.scan_callback(std::move(status), std::move(items), meta);
  } else {
    req.callback(std::move(status), std::move(value), meta);
  }
}

constexpr obs::Field<EngineStats> kEngineFields[] = {
    {"submitted", &EngineStats::submitted},
    {"executed", &EngineStats::executed},
    {"completed", &EngineStats::completed},
    {"rejected_overloaded", &EngineStats::rejected_overloaded},
    {"waited", &EngineStats::waited},
    {"swap_activations", &EngineStats::swap_activations},
    {"swap_reclaims", &EngineStats::swap_reclaims},
    {"offload.fast_hits", &EngineStats::offload_fast_hits},
    {"offload.slow_fallbacks", &EngineStats::offload_slow_fallbacks},
    {"queue_us", &EngineStats::queue_us},
    {"service_us", &EngineStats::service_us},
    {"total_us", &EngineStats::total_us},
};

}  // namespace

IoEngine::IoEngine(sim::Simulator& simulator, sim::CpuModel& cpu,
                   EngineConfig config, uint64_t seed)
    : sim_(simulator),
      cpu_(cpu),
      config_(std::move(config)),
      scope_(config_.metrics_registry, config_.metrics_prefix),
      trace_(config_.trace ? config_.trace : &obs::TraceRing::Default()),
      stats_(scope_.Resolve(kEngineFields)) {
  scope_.ResetInstruments();
  ssd_failures_ = scope_.GetCounter("ssd_failures");

  const uint32_t n_ssd = config_.ssd_count;
  const uint32_t per = config_.stores_per_ssd;

  ssd_ptrs_.reserve(n_ssd);
  per_ssd_.reserve(n_ssd);
  if (!config_.external_ssds.empty()) {
    // Caller-owned devices (ClusterSim): their contents outlive this
    // engine, which is what makes crash-restart recovery meaningful.
    for (uint32_t i = 0; i < n_ssd; ++i) {
      ssd_ptrs_.push_back(config_.external_ssds[i]);
      ssd_ptrs_.back()->AttachMetrics(scope_.Sub("ssd" + std::to_string(i)));
      // Replaces any observer left by a pre-crash engine on these shared
      // devices; a restarted node must feed its own (fresh) latch.
      ssd_ptrs_.back()->set_io_observer(
          [this, i](bool ok, SimTime lat) { OnRawIo(i, ok, lat); });
      per_ssd_.push_back(std::make_unique<PerSsd>(config_));
    }
  } else {
    ssds_.reserve(n_ssd);
    for (uint32_t i = 0; i < n_ssd; ++i) {
      ssds_.push_back(
          std::make_unique<sim::SimSsd>(sim_, config_.ssd, seed + i * 7919));
      ssds_.back()->AttachMetrics(scope_.Sub("ssd" + std::to_string(i)));
      ssds_.back()->set_io_observer(
          [this, i](bool ok, SimTime lat) { OnRawIo(i, ok, lat); });
      ssd_ptrs_.push_back(ssds_.back().get());
      per_ssd_.push_back(std::make_unique<PerSsd>(config_));
    }
  }

  // Geometry: [partition 0 | partition 1 | ... | swap region] per SSD;
  // each partition leads with its store's superblock region, then the
  // key/value logs.
  const uint64_t cap = config_.ssd.capacity_bytes;
  const uint64_t swap_bytes = static_cast<uint64_t>(cap * config_.swap_fraction);
  uint64_t part = config_.partition_bytes;
  if (part == 0) part = (cap - swap_bytes) / per;
  part = std::min<uint64_t>(part, (cap - swap_bytes) / per);
  const uint64_t log_bytes = part - store::kSuperblockRegionBytes;
  const uint64_t key_bytes =
      static_cast<uint64_t>(log_bytes * config_.key_log_fraction);
  const uint64_t val_bytes = log_bytes - key_bytes;

  for (uint32_t i = 0; i < n_ssd; ++i) {
    uint64_t swap_base = cap - swap_bytes;
    uint64_t swap_key = static_cast<uint64_t>(swap_bytes * config_.key_log_fraction);
    swap_key_logs_.push_back(
        std::make_unique<log::CircularLog>(*ssd_ptrs_[i], swap_base, swap_key));
    swap_value_logs_.push_back(std::make_unique<log::CircularLog>(
        *ssd_ptrs_[i], swap_base + swap_key, swap_bytes - swap_key));
  }

  std::shared_ptr<store::CompactionGate> gate;
  if (config_.max_concurrent_compactions > 0) {
    gate = std::make_shared<store::CompactionGate>();
    gate->max = config_.max_concurrent_compactions;
  }
  for (uint32_t i = 0; i < n_ssd; ++i) {
    for (uint32_t s = 0; s < per; ++s) {
      uint64_t base = static_cast<uint64_t>(s) * part;
      sb_offsets_.push_back(base);
      uint64_t log_base = base + store::kSuperblockRegionBytes;
      auto key_log =
          std::make_unique<log::CircularLog>(*ssd_ptrs_[i], log_base, key_bytes);
      auto value_log = std::make_unique<log::CircularLog>(
          *ssd_ptrs_[i], log_base + key_bytes, val_bytes);

      store::StoreConfig sc = config_.store_template;
      sc.compaction_gate = gate;
      sc.store_id = i * per + s;
      sc.home_ssd = static_cast<uint8_t>(i);
      sc.metrics_registry = &scope_.registry();
      sc.metrics_prefix =
          scope_.Sub("store" + std::to_string(sc.store_id)).prefix();
      store::LogSet home{static_cast<uint8_t>(i), key_log.get(), value_log.get()};
      auto ds = std::make_unique<store::DataStore>(sim_, cpu_.core(i), home, sc);
      // Register every other SSD's swap region as a potential donor (and the
      // read path for data parked there).
      for (uint32_t j = 0; j < n_ssd; ++j) {
        if (j == i) continue;
        ds->AddLogSet(store::LogSet{static_cast<uint8_t>(j), swap_key_logs_[j].get(),
                                    swap_value_logs_[j].get()});
      }
      home_logs_.push_back(std::move(key_log));
      home_logs_.push_back(std::move(value_log));
      stores_.push_back(std::move(ds));
    }
  }

  if (config_.enable_data_swap && n_ssd > 1) {
    swap_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, config_.swap_check_period, [this] { SwapCheck(); });
    swap_timer_->Start();
  }
  if (config_.checkpoint_period > 0) {
    checkpoint_timer_ = std::make_unique<sim::PeriodicTimer>(
        sim_, config_.checkpoint_period, [this] { WriteCheckpoints(); });
    checkpoint_timer_->Start();
  }
}

IoEngine::~IoEngine() = default;

void IoEngine::Quiesce() {
  if (swap_timer_) swap_timer_->Stop();
  if (checkpoint_timer_) checkpoint_timer_->Stop();
}

void IoEngine::WriteCheckpoints() {
  // One shared sequence for the whole round: recovery picks the newest
  // checkpoint anywhere to restore the shared swap logs, so per-store
  // sequences must be comparable.
  ++checkpoint_seq_;
  for (uint32_t s = 0; s < stores_.size(); ++s) {
    store::WriteSuperblock(*ssd_ptrs_[ssd_of_store(s)], sb_offsets_[s],
                           store::Checkpoint(*stores_[s]), checkpoint_seq_,
                           [](Status) {
                             // A failed or torn superblock write is
                             // tolerated by design: readers fall back to
                             // the other A/B slot.
                           });
  }
}

struct IoEngine::RecoverRun {
  std::vector<store::RecoveryCheckpoint> cps;  // per store
  std::vector<uint64_t> seqs;
  std::vector<bool> valid;
  uint32_t next = 0;
  store::RecoveryStats total;
  std::function<void(Status, store::RecoveryStats)> done;
};

void IoEngine::RecoverFromDevices(
    std::function<void(Status, store::RecoveryStats)> done) {
  auto run = std::make_shared<RecoverRun>();
  const size_t n = stores_.size();
  run->cps.resize(n);
  run->seqs.assign(n, 0);
  run->valid.assign(n, false);
  run->done = std::move(done);
  ReadNextSuperblock(std::move(run));
}

void IoEngine::ReadNextSuperblock(std::shared_ptr<RecoverRun> run) {
  if (run->next == stores_.size()) {
    run->next = 0;
    RestoreLogs(std::move(run));
    return;
  }
  const uint32_t s = run->next++;
  store::ReadSuperblock(
      *ssd_ptrs_[ssd_of_store(s)], sb_offsets_[s],
      [this, s, run](Status st, store::RecoveryCheckpoint cp,
                     uint64_t seq) mutable {
        if (st.ok()) {
          run->cps[s] = std::move(cp);
          run->seqs[s] = seq;
          run->valid[s] = true;
        }
        // No valid slot = crash before the first checkpoint completed:
        // this store scans forward from zeroed log pointers instead.
        ReadNextSuperblock(std::move(run));
      });
}

void IoEngine::RestoreLogs(std::shared_ptr<RecoverRun> run) {
  // Home logs: each store's own checkpoint names them (entry 0).
  for (uint32_t s = 0; s < stores_.size(); ++s) {
    if (!run->valid[s] || run->cps[s].logs.empty()) continue;
    const auto& lp = run->cps[s].logs[0];
    (void)home_logs_[2 * s]->Restore(lp.key_head, lp.key_tail);
    (void)home_logs_[2 * s + 1]->Restore(lp.value_head, lp.value_tail);
  }
  // Shared swap logs: restored once each, from the newest checkpoint that
  // names them — the store that checkpointed last saw the furthest tails.
  for (uint32_t j = 0; j < swap_key_logs_.size(); ++j) {
    const store::RecoveryCheckpoint::LogPointers* best = nullptr;
    uint64_t best_seq = 0;
    for (uint32_t s = 0; s < stores_.size(); ++s) {
      if (!run->valid[s]) continue;
      for (size_t e = 1; e < run->cps[s].logs.size(); ++e) {
        const auto& lp = run->cps[s].logs[e];
        if (lp.ssd != j) continue;
        if (best == nullptr || run->seqs[s] > best_seq) {
          best = &lp;
          best_seq = run->seqs[s];
        }
      }
    }
    if (best != nullptr) {
      (void)swap_key_logs_[j]->Restore(best->key_head, best->key_tail);
      (void)swap_value_logs_[j]->Restore(best->value_head, best->value_tail);
    }
  }
  // Resume the checkpoint sequence past the newest persisted round so A/B
  // slot parity and max-sequence arbitration stay monotonic.
  for (uint32_t s = 0; s < stores_.size(); ++s) {
    if (run->valid[s]) checkpoint_seq_ = std::max(checkpoint_seq_, run->seqs[s]);
  }
  RecoverNextStore(std::move(run));
}

void IoEngine::RecoverNextStore(std::shared_ptr<RecoverRun> run) {
  if (run->next == stores_.size()) {
    auto done = std::move(run->done);
    done(Status::Ok(), run->total);
    return;
  }
  const uint32_t s = run->next++;
  // Re-capture the scan checkpoint from the restored logs rather than the
  // store's own superblock: shared swap logs may have been restored from a
  // newer sibling checkpoint, and earlier stores' extended scans may have
  // already pushed their tails further.
  store::RecoverSegTbl(
      *stores_[s], store::Checkpoint(*stores_[s]),
      [this, s, run](Status st, store::RecoveryStats stats) mutable {
        run->total.buckets_scanned += stats.buckets_scanned;
        run->total.segments_recovered += stats.segments_recovered;
        run->total.stale_copies_skipped += stats.stale_copies_skipped;
        run->total.torn_buckets_ignored += stats.torn_buckets_ignored;
        run->total.crc_rejected += stats.crc_rejected;
        run->total.extended_buckets += stats.extended_buckets;
        run->total.foreign_buckets_skipped += stats.foreign_buckets_skipped;
        if (!st.ok()) {
          auto done = std::move(run->done);
          done(std::move(st), run->total);
          return;
        }
        // The ordered view rides the same bucket scan: rebuild this store's
        // range index from the freshly recovered SegTbl before moving on.
        stores_[s]->RebuildRangeIndex(
            nullptr, [this, run](Status rst, uint64_t) mutable {
              if (!rst.ok()) {
                auto done = std::move(run->done);
                done(std::move(rst), run->total);
                return;
              }
              RecoverNextStore(std::move(run));
            });
      });
}

void IoEngine::set_data_swap_enabled(bool on) {
  config_.enable_data_swap = on;
  if (!on) {
    for (auto& s : stores_) s->SetSwapTarget(std::nullopt);
    if (swap_timer_) swap_timer_->Stop();
  } else if (swap_timer_ && !swap_timer_->running()) {
    swap_timer_->Start();
  }
}

void IoEngine::Submit(Request req) {
  ++stats_->submitted;
  req.enqueued_at = sim_.Now();
  req.trace_id = next_op_seq_++;
  // §3.6: a swapped write is routed "from one SSD's waiting queue to
  // another one's active queue" — it is admitted against the DONOR's
  // tokens and queue, which is what actually relieves the overloaded SSD.
  uint32_t ssd = ssd_of_store(req.store_id);
  if (IsWriteOp(req.type)) {
    if (auto donor = stores_[req.store_id]->swap_target()) ssd = *donor;
  }
  PerSsd& p = *per_ssd_[ssd];
  const uint32_t cost = RequestTokenCost(p.tokens.config(), req);
  trace_->Record(sim_.Now(), obs::TraceKind::kOpBegin, config_.node_id, ssd,
                 req.trace_id, static_cast<int64_t>(req.type));

  if (!admission_control_ || p.tokens.TryTake(cost)) {
    if (!admission_control_) p.tokens.TryTake(cost);  // best-effort accounting
    Execute(ssd, std::move(req));
    return;
  }
  const uint64_t trace_id = req.trace_id;
  const bool queued_write = IsWriteOp(req.type);
  if (p.waiting.size() < config_.wait_queue_capacity) {
    p.waiting.push_back(std::move(req));
    if (queued_write) ++p.waiting_writes;
    ++stats_->waited;
    trace_->Record(sim_.Now(), obs::TraceKind::kQueueEnter, config_.node_id,
                   ssd, trace_id, static_cast<int64_t>(p.waiting.size()));
    return;
  }
  // Waiting queue full: the SSD is overloaded; reject so flow control can
  // back-pressure the client (§3.4/§3.5).
  ++stats_->rejected_overloaded;
  ResponseMeta meta;
  meta.available_tokens = p.tokens.available();
  meta.ssd = ssd;
  trace_->Record(sim_.Now(), obs::TraceKind::kOpEnd, config_.node_id, ssd,
                 req.trace_id, static_cast<int64_t>(StatusCode::kOverloaded));
  Deliver(req, Status::Overloaded("waiting queue full"), {}, {}, meta);
}

bool IoEngine::TrySubmitOffload(Request& req) {
  if (!config_.offload_enabled || req.type != OpType::kGet) return false;
  const uint32_t ssd = ssd_of_store(req.store_id);
  if (per_ssd_[ssd]->failed) return false;
  store::DataStore& ds = *stores_[req.store_id];
  if (!ds.FastGetEligible(req.key)) {
    // Index needs a second consultation (empty entry or multi-bucket
    // chain): the offload engine punts to the CPU path after burning the
    // consultation on the owning store core.
    ++stats_->offload_slow_fallbacks;
    cpu_.core(ssd).Charge(kOffloadIndexConsultCycles);
    return false;
  }
  // Token admission still applies: the per-SSD token pool is a plain
  // counter the offload engine keeps in NIC hardware. Bypassing it would
  // blind the client's token-aware replica scheduling (Algorithm 1) and
  // hot-spot one replica per hot key. What the fast path skips is the DPU
  // CPU work and the software waiting queue — out of tokens means the
  // engine punts to the CPU path, which queues behind the same admission.
  PerSsd& p = *per_ssd_[ssd];
  // The fast path races ahead of the software waiting queue by design —
  // a NIC filter serves frames the DPU never polls, so it cannot line up
  // behind CPU-path waiters. Waiters are not starved: PumpWaiting runs
  // synchronously on every refund, so the queue head claims returning
  // tokens before any later fast-path arrival sees them; the fast path
  // only consumes what is left after the queue has drained.
  const uint32_t cost = TokenCost(p.tokens.config(), req.type);
  if (admission_control_ && !p.tokens.TryTake(cost)) {
    ++stats_->offload_slow_fallbacks;
    return false;
  }
  if (!admission_control_) p.tokens.TryTake(cost);  // best-effort accounting
  // Fast-path ops occupy device channels exactly like CPU-path ops: they
  // must be visible in the per-SSD in-flight count or the swap watchdog
  // sees a busy SSD as an idle donor (its queue is empty precisely
  // *because* the fast path bypasses it) and thrashes hot stores onto
  // fast-path-saturated devices.
  p.active++;
  ++stats_->submitted;
  ++stats_->offload_fast_hits;
  req.enqueued_at = sim_.Now();
  req.trace_id = next_op_seq_++;
  trace_->Record(sim_.Now(), obs::TraceKind::kOffloadGet, config_.node_id, ssd,
                 req.trace_id, 0);
  auto shared = std::make_shared<Request>(std::move(req));
  // No queue and no store core: service time runs from the enqueue.
  ds.FastGet(shared->key, [this, ssd, cost, shared](
                              Status st, std::vector<uint8_t> value) {
    Retire(ssd, cost, shared->enqueued_at, *shared, std::move(st),
           std::move(value), {});
  });
  return true;
}

void IoEngine::Execute(uint32_t ssd, Request req) {
  ++stats_->executed;
  PerSsd& p = *per_ssd_[ssd];
  p.active++;
  const SimTime started = sim_.Now();
  const SimTime queued = started - req.enqueued_at;
  stats_->queue_us.Record(ToMicros(queued));

  store::DataStore& ds = *stores_[req.store_id];
  const uint32_t cost = RequestTokenCost(p.tokens.config(), req);

  auto shared = std::make_shared<Request>(std::move(req));
  switch (shared->type) {
    case OpType::kGet:
      ds.Get(shared->key, [this, ssd, cost, started, shared](
                              Status st, std::vector<uint8_t> value) {
        Retire(ssd, cost, started, *shared, std::move(st), std::move(value), {});
      });
      break;
    case OpType::kPut:
      // Retire reads neither the key nor the value: hand both over.
      ds.Put(std::move(shared->key), std::move(shared->value),
             [this, ssd, cost, started, shared](Status st) {
        Retire(ssd, cost, started, *shared, std::move(st), {}, {});
      });
      break;
    case OpType::kDel:
      ds.Del(shared->key, [this, ssd, cost, started, shared](Status st) {
        Retire(ssd, cost, started, *shared, std::move(st), {}, {});
      });
      break;
    case OpType::kScan:
      ds.ScanFetch(std::move(shared->scan_snapshot),
                   [this, ssd, cost, started, shared](
                       Status st, std::vector<store::ScanItem> items) {
                     Retire(ssd, cost, started, *shared, std::move(st), {},
                            std::move(items));
                   });
      break;
  }
}

void IoEngine::OnRawIo(uint32_t ssd, bool ok, SimTime device_ns) {
  PerSsd& p = *per_ssd_[ssd];
  // Token rescaling feeds on raw device latency (§3.4, ReFlex/Gimbal
  // style): the pool models the *device's* serving capability, so the
  // feed must exclude host-side queueing. Feeding service time (which
  // includes store-core FIFO waits) here instead creates a positive
  // feedback loop — CPU-side congestion shrinks the pool, which deepens
  // the queue, which shrinks the pool further — that oscillates hardest
  // when offloaded reads make CPU-path arrivals bursty.
  if (!p.failed) p.tokens.OnIoCompleted(device_ns);
  // Per-SSD health latch: hard IO errors in an unbroken run mean the
  // device itself is gone (a dead device fails every IO), not that one
  // command hit a transient bit flip. Any success resets the run.
  if (p.failed) return;
  if (ok) {
    p.consecutive_io_errors = 0;
    return;
  }
  if (++p.consecutive_io_errors >= kSsdFailThreshold) {
    p.failed = true;
    ssd_failures_->Inc();
    for (uint32_t s = 0; s < config_.stores_per_ssd; ++s) {
      trace_->Record(sim_.Now(), obs::TraceKind::kStoreFailed, config_.node_id,
                     ssd * config_.stores_per_ssd + s, config_.node_id);
    }
    if (config_.on_ssd_failed) config_.on_ssd_failed(ssd);
  }
}

void IoEngine::Retire(uint32_t ssd, uint32_t cost, SimTime started,
                      Request& req, Status status, std::vector<uint8_t> value,
                      std::vector<store::ScanItem> items) {
  ++stats_->completed;
  PerSsd& p = *per_ssd_[ssd];
  p.active = p.active > 0 ? p.active - 1 : 0;

  const SimTime now = sim_.Now();
  stats_->service_us.Record(ToMicros(now - started));
  stats_->total_us.Record(ToMicros(now - req.enqueued_at));
  trace_->Record(now, obs::TraceKind::kOpEnd, config_.node_id, ssd,
                 req.trace_id, static_cast<int64_t>(status.code()));

  // Tokens refund on retirement; the pool's latency feed happens per raw
  // device IO in OnRawIo, not here — service time includes store-core
  // queueing, which must not throttle device admission.
  p.tokens.Refund(cost);

  ResponseMeta meta;
  meta.available_tokens = AvailableTokensFor(ssd, req.tenant);
  meta.ssd = ssd;
  meta.server_time_ns = now - req.enqueued_at;
  Deliver(req, std::move(status), std::move(value), std::move(items), meta);

  PumpWaiting(ssd);
}

uint32_t IoEngine::FailedSsdCount() const {
  uint32_t n = 0;
  for (const auto& p : per_ssd_) {
    if (p->failed) ++n;
  }
  return n;
}

uint32_t IoEngine::AvailableTokensFor(uint32_t ssd, uint32_t tenant) const {
  const uint32_t available = per_ssd_[ssd]->tokens.available();
  const auto& weights = config_.tenant_weights;
  if (weights.empty()) return available;
  double total = 0;
  for (double w : weights) total += w;
  // Tenants beyond the configured vector carry weight 1 conceptually, but
  // the advertised split only covers configured tenants; others get the
  // smallest configured share so they stay live.
  double mine = tenant < weights.size()
                    ? weights[tenant]
                    : *std::min_element(weights.begin(), weights.end());
  if (total <= 0) return available;
  return static_cast<uint32_t>(static_cast<double>(available) * mine / total);
}

void IoEngine::PumpWaiting(uint32_t ssd) {
  PerSsd& p = *per_ssd_[ssd];
  while (!p.waiting.empty()) {
    const uint32_t cost = RequestTokenCost(p.tokens.config(), p.waiting.front());
    if (!p.tokens.TryTake(cost)) break;  // FCFS: no reordering past the head
    Request req = std::move(p.waiting.front());
    p.waiting.pop_front();
    if (IsWriteOp(req.type) && p.waiting_writes > 0) --p.waiting_writes;
    trace_->Record(sim_.Now(), obs::TraceKind::kQueueLeave, config_.node_id,
                   ssd, req.trace_id, static_cast<int64_t>(p.waiting.size()));
    Execute(ssd, std::move(req));
  }
}

void IoEngine::SwapCheck() {
  if (!config_.enable_data_swap) return;
  const uint32_t n = config_.ssd_count;

  // Reclaim: if nothing anywhere references swap regions, reset them all.
  bool any_swapped = false;
  for (const auto& s : stores_) {
    if (s->swapped_segments() > 0 || s->swap_target()) {
      any_swapped = true;
      break;
    }
  }
  if (!any_swapped) {
    for (uint32_t j = 0; j < n; ++j) {
      if (swap_key_logs_[j]->used() > 0 || swap_value_logs_[j]->used() > 0) {
        swap_key_logs_[j]->Reset();
        swap_value_logs_[j]->Reset();
        ++stats_->swap_reclaims;
        trace_->Record(sim_.Now(), obs::TraceKind::kSwapReclaim,
                       config_.node_id, j, 0);
      }
    }
  }

  // Occupancy-gap detection: overloaded SSD -> most-available donor. An SSD
  // only counts as overloaded once its waiting queue is substantially
  // occupied (hysteresis) — transient depth noise between equally-loaded
  // SSDs must not trigger swapping, which costs cross-SSD writes and a
  // merge-back later.
  const size_t occupancy_floor = config_.wait_queue_capacity / 4;
  for (uint32_t i = 0; i < n; ++i) {
    if (per_ssd_[i]->failed) continue;  // failed stores are NACKed, not swapped
    // Load = queued + in-flight. Queue depth alone is blind to offloaded
    // traffic (fast-path GETs never enter the waiting queue), so a device
    // saturated by fast-path reads would otherwise look like the perfect
    // donor.
    const size_t my_depth = per_ssd_[i]->waiting.size();
    const size_t my_load = my_depth + per_ssd_[i]->active;
    uint32_t best = i;
    size_t best_load = my_load;
    for (uint32_t j = 0; j < n; ++j) {
      if (j == i || per_ssd_[j]->failed) continue;  // dead donors absorb nothing
      size_t d = per_ssd_[j]->waiting.size() + per_ssd_[j]->active;
      if (d < best_load) {
        best_load = d;
        best = j;
      }
    }
    // Swapping only relieves write pressure: it redirects PUTs to the
    // donor's logs (§3.6). A queue dominated by reads — e.g. shipped
    // hot-key GETs concentrating on the CRRS tail — gains nothing from a
    // swap target, but the donor still pays the cross-SSD writes and the
    // merge-back compaction, so require a redirectable share of the
    // backlog before activating.
    const bool write_pressure = per_ssd_[i]->waiting_writes * 4 >= my_depth;
    const bool overloaded =
        best != i && my_depth >= occupancy_floor && write_pressure &&
        my_load >= best_load + config_.swap_gap_threshold &&
        my_load >= best_load * 2;  // relative gap: uniform overload is not
                                   // imbalance, however deep the queues
    // Release hysteresis: once swapping, keep absorbing until the home
    // queue has genuinely drained — flapping on every check period costs a
    // merge-back per flap.
    const bool drained = my_depth < occupancy_floor / 2;
    for (uint32_t s = 0; s < config_.stores_per_ssd; ++s) {
      auto& ds = stores_[i * config_.stores_per_ssd + s];
      if (overloaded) {
        if (!ds->swap_target()) {
          ds->SetSwapTarget(static_cast<uint8_t>(best));
          ++stats_->swap_activations;
          trace_->Record(sim_.Now(), obs::TraceKind::kSwapActivate,
                         config_.node_id, i, 0, static_cast<int64_t>(best));
        }
      } else if (ds->swap_target() && drained) {
        ds->SetSwapTarget(std::nullopt);
        // Nudge merge-back now that the burst has passed.
        ds->MaybeCompact();
      }
    }
  }
}

}  // namespace leed::engine
