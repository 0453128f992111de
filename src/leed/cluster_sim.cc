#include "leed/cluster_sim.h"

#include <algorithm>

#include "obs/metrics.h"
#include "sim/power.h"

namespace leed {

ClusterSim::ClusterSim(ClusterConfig config)
    : owned_registry_(config.node.metrics_registry
                          ? nullptr
                          : std::make_unique<obs::Registry>()),
      config_(std::move(config)) {
  if (owned_registry_) config_.node.metrics_registry = owned_registry_.get();
  sim_ = std::make_unique<sim::Simulator>();
  net_ = std::make_unique<Network>(*sim_);
  // Fabric counters live beside the per-node trees: "net.*" in the same
  // registry the nodes will register under.
  net_->AttachMetrics(obs::Scope(config_.node.metrics_registry, "net"));
  obs::Scope(config_.node.metrics_registry, "cluster").ResetInstruments();
  faults_ = std::make_unique<sim::FaultInjector>(
      *sim_, config_.seed, config_.node.metrics_registry, config_.node.trace);
  net_->set_faults(&faults_->net());
  if (config_.node.trace) net_->set_trace(config_.node.trace);
  cluster::ControlPlaneConfig cpc = config_.control_plane;
  cpc.metrics_registry = config_.node.metrics_registry;
  cpc.trace = config_.node.trace;
  cp_ = std::make_unique<cluster::ControlPlane>(*sim_, *net_, cpc);

  for (uint32_t i = 0; i < config_.num_nodes; ++i) nodes_.push_back(MakeNode(i));
  if (config_.record_history) history_ = std::make_unique<check::HistoryLog>();
  const sim::EndpointId cp_ep = cp_->endpoint();
  for (uint32_t c = 0; c < config_.num_clients; ++c) {
    ClientConfig cc = config_.client;
    cc.metrics_registry = config_.node.metrics_registry;
    cc.metrics_prefix = "client" + std::to_string(c);
    // Distinct per-client jitter streams: clients NACKed by the same failed
    // store must desynchronize their retries, not back off in lockstep.
    cc.backoff_seed = config_.seed ^ (0xc0ffeeULL + c);
    cc.history = history_.get();
    cc.history_client_id = c;
    auto cl = std::make_unique<Client>(*sim_, *net_, cp_ep,
                                       &node_endpoints_, std::move(cc));
    cp_->RegisterClient(cl->endpoint());
    clients_.push_back(std::move(cl));
  }
}

ClusterSim::~ClusterSim() = default;

void ClusterSim::Bootstrap() {
  const uint32_t stores = nodes_.empty() ? 0 : nodes_[0]->storage().num_stores();
  const uint64_t total = static_cast<uint64_t>(stores) * config_.num_nodes;
  // Equally spaced positions; vnode k lives on node k % num_nodes, so any R
  // consecutive arcs land on R distinct JBOFs (chains are fault-disjoint).
  for (uint64_t k = 0; k < total; ++k) {
    const uint32_t node_id = static_cast<uint32_t>(k % config_.num_nodes);
    const uint32_t store = static_cast<uint32_t>(k / config_.num_nodes);
    const uint64_t pos = total ? k * (UINT64_MAX / total) : 0;
    cp_->Bootstrap(node_id, store, pos);
  }
  for (auto& n : nodes_) n->Start();
  cp_->Start();
  // Deliver the initial view everywhere.
  sim_->RunUntil(sim_->Now() + 5 * kMillisecond);
  for (auto& c : clients_) c->AdoptView(cp_->view());
}

void ClusterSim::Preload(uint64_t num_keys, uint32_t value_size) {
  workload::YcsbConfig wc;
  wc.num_keys = num_keys;
  wc.value_size = value_size;
  workload::YcsbGenerator gen(wc);

  const uint64_t batch = 512;
  uint64_t issued = 0;
  uint64_t completed = 0;
  // One serving ring for the whole preload, rebuilt only if the view moves.
  const cluster::ClusterView& view = cp_->view();
  cluster::HashRing ring = view.ServingRing();
  uint64_t ring_epoch = view.epoch;
  while (issued < num_keys) {
    uint64_t upto = std::min(num_keys, issued + batch);
    if (view.epoch != ring_epoch) {
      ring = view.ServingRing();
      ring_epoch = view.epoch;
    }
    for (; issued < upto; ++issued) {
      std::string key = workload::YcsbGenerator::KeyName(issued);
      const SharedBytes value = gen.MakeValue(issued);  // one buffer, R replicas
      const cluster::Chain chain = ring.ChainOf(cluster::HashRing::KeyPosition(key),
                                                view.replication_factor);
      for (cluster::VNodeId v : chain) {
        const cluster::VNodeInfo* info = view.Find(v);
        if (!info) continue;
        ++completed;  // decremented on completion below via counter trick
        nodes_[info->owner_node]->DirectPut(
            info->local_store, key, value,
            [&completed](Status) { --completed; });
      }
    }
    // Drain this batch before issuing the next (bounds memory and queues).
    while (completed > 0 && sim_->Step()) {
    }
  }
  sim_->Run();
}

std::vector<std::vector<SimTime>> ClusterSim::SnapshotBusy() const {
  std::vector<std::vector<SimTime>> out(nodes_.size());
  for (size_t i = 0; i < nodes_.size(); ++i) {
    auto& cpu = const_cast<Node&>(*nodes_[i]).cpu();
    for (uint32_t c = 0; c < cpu.num_cores(); ++c) {
      out[i].push_back(cpu.core(c).total_busy_ns());
    }
  }
  return out;
}

double ClusterSim::ClusterPowerWatts(
    const std::vector<std::vector<SimTime>>& busy_at_start, SimTime window) const {
  if (window <= 0) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i]->failed()) continue;
    auto& cpu = const_cast<Node&>(*nodes_[i]).cpu();
    double util_sum = 0.0;
    for (uint32_t c = 0; c < cpu.num_cores(); ++c) {
      SimTime delta = cpu.core(c).total_busy_ns() - busy_at_start[i][c];
      util_sum += std::clamp(static_cast<double>(delta) / window, 0.0, 1.0);
    }
    double util = util_sum / cpu.num_cores();
    total += sim::NodePowerWatts(nodes_[i]->config().platform.power, util);
  }
  return total;
}

RunResult ClusterSim::Run(workload::YcsbGenerator& generator,
                          const DriveOptions& options) {
  RunResult result;
  const SimTime start = sim_->Now();
  const SimTime measure_start = start + options.warmup;
  const SimTime end = measure_start + options.duration;

  struct DriveState {
    uint64_t completed_measured = 0;
    uint64_t errors = 0;
    Histogram latency;
    bool measuring = false;
    bool stopped = false;
    uint64_t bucket_count = 0;
    uint64_t scan_items = 0;
  };
  auto st = std::make_shared<DriveState>();

  // One issue path for both arrival processes: draw an op, send it on
  // `client_idx`, account for it on completion, then call `*then` (if set)
  // while the run is live. The closed loop passes "reissue"; Poisson
  // arrivals pass nothing.
  using Then = std::function<void(uint32_t)>;
  auto issue_one = [&, st](uint32_t client_idx, const Then* then) {
    if (sim_->Now() >= end) return;
    Client& cl = *clients_[client_idx];
    workload::Op op = generator.Next();
    std::string key = workload::YcsbGenerator::KeyName(op.key_id);

    auto on_done = [st, client_idx, then](Status s) {
      if (st->measuring) {
        if (s.ok() || s.IsNotFound()) {
          st->completed_measured++;
          st->bucket_count++;
        } else {
          st->errors++;
        }
      }
      if (then && !st->stopped) (*then)(client_idx);
    };

    switch (op.kind) {
      case workload::OpKind::kRead:
        cl.Get(std::move(key), [st, on_done](Status s, std::vector<uint8_t>,
                                             SimTime lat) {
          if (st->measuring) st->latency.Record(ToMicros(lat));
          on_done(std::move(s));
        });
        break;
      case workload::OpKind::kUpdate:
      case workload::OpKind::kInsert:
        cl.Put(std::move(key), generator.MakeValue(op.key_id, 1),
               [st, on_done](Status s, SimTime lat) {
                 if (st->measuring) st->latency.Record(ToMicros(lat));
                 on_done(std::move(s));
               });
        break;
      case workload::OpKind::kScan:
        cl.Scan(std::move(key), op.scan_len,
                [st, on_done](Status s, std::vector<store::ScanItem> items,
                              SimTime lat) {
                  if (st->measuring) {
                    st->latency.Record(ToMicros(lat));
                    st->scan_items += items.size();
                  }
                  on_done(std::move(s));
                });
        break;
      case workload::OpKind::kReadModifyWrite: {
        // GET then PUT of the same key; one logical query (paper's YCSB-F).
        const SimTime began = sim_->Now();
        auto key2 = key;
        cl.Get(std::move(key), [this, st, on_done, key2, &generator, op,
                                client_idx, began](Status s, std::vector<uint8_t>,
                                                   SimTime) mutable {
          if (!s.ok() && !s.IsNotFound()) {
            if (st->measuring) st->latency.Record(ToMicros(sim_->Now() - began));
            on_done(std::move(s));
            return;
          }
          clients_[client_idx]->Put(
              std::move(key2), generator.MakeValue(op.key_id, 2),
              [this, st, on_done, began](Status s2, SimTime) {
                if (st->measuring)
                  st->latency.Record(ToMicros(sim_->Now() - began));
                on_done(std::move(s2));
              });
        });
        break;
      }
    }
  };
  const Then reissue = [&](uint32_t c) { issue_one(c, &reissue); };

  // Kick the load. The open-loop arrival closure is owned here, for the
  // whole run: scheduled copies only hold it weakly.
  std::shared_ptr<std::function<void()>> arrival;
  if (options.open_loop_qps > 0) {
    // Poisson arrivals split round-robin across clients. Open loop: the
    // issue slot does not self-replenish; arrivals drive it.
    auto rng = std::make_shared<Rng>(config_.seed ^ 0x9d1);
    arrival = std::make_shared<std::function<void()>>();
    auto counter = std::make_shared<uint32_t>(0);
    const double mean_gap_ns = 1e9 / options.open_loop_qps;
    // Weak self-capture: scheduled copies resolve the closure through the
    // weak_ptr, so `arrival` frees when Run returns instead of leaking as a
    // reference cycle.
    *arrival = [&, st, rng, counter, mean_gap_ns,
                warrival = std::weak_ptr<std::function<void()>>(arrival)] {
      auto self = warrival.lock();
      if (!self) return;
      if (sim_->Now() >= end || st->stopped) return;
      uint32_t client_idx = (*counter)++ % clients_.size();
      // Deep saturation guard: past ~5K in-flight ops per client the
      // system is hopelessly overdriven; further arrivals only burn memory.
      // Dropped arrivals show up as the offered/achieved gap.
      if (clients_[client_idx]->outstanding() <= 5'000) {
        issue_one(client_idx, nullptr);
      }
      sim_->Schedule(static_cast<SimTime>(rng->NextExponential(mean_gap_ns)),
                     *self);
    };
    sim_->Schedule(0, *arrival);
  } else {
    for (uint32_t c = 0; c < clients_.size(); ++c) {
      for (uint32_t s = 0; s < options.concurrency_per_client; ++s) {
        sim_->Schedule(0, [&reissue, c] { reissue(c); });
      }
    }
  }

  // Warmup boundary: reset deltas, arm measurement.
  std::vector<std::vector<SimTime>> busy_start;
  sim_->At(measure_start, [&, st] {
    st->measuring = true;
    busy_start = SnapshotBusy();
    if (options.at_measure_start) options.at_measure_start();
  });

  // Optional timeline buckets (Fig. 9).
  if (options.timeline_bucket > 0) {
    auto tick = std::make_shared<std::function<void(SimTime)>>();
    *tick = [&, st, wtick = std::weak_ptr<std::function<void(SimTime)>>(tick)](
                SimTime at) {
      if (at > end) return;
      auto self = wtick.lock();
      if (!self) return;
      sim_->At(at, [&, st, tick = self, at] {
        if (st->measuring) {
          result.timeline.emplace_back(
              ToSeconds(at - measure_start),
              static_cast<double>(st->bucket_count) /
                  ToSeconds(options.timeline_bucket));
          st->bucket_count = 0;
        }
        (*tick)(at + options.timeline_bucket);
      });
    };
    (*tick)(measure_start + options.timeline_bucket);
  }

  sim_->RunUntil(end);
  st->stopped = true;
  st->measuring = false;
  // Let in-flight requests drain (not counted).
  sim_->RunUntil(end + 100 * kMillisecond);

  result.completed = st->completed_measured;
  result.errors = st->errors;
  result.scan_items = st->scan_items;
  result.duration_s = ToSeconds(options.duration);
  result.throughput_qps = result.completed / result.duration_s;
  result.latency_us = st->latency;
  result.cluster_power_w = busy_start.empty()
                               ? 0.0
                               : ClusterPowerWatts(busy_start, options.duration);
  result.energy_j = result.cluster_power_w * result.duration_s;
  result.queries_per_joule =
      sim::RequestsPerJoule(result.completed, result.energy_j);

  // Mirror the run-level results into the registry so a single snapshot
  // (leedsim --metrics-out, bench JSON) carries them alongside the
  // per-component counters.
  obs::Scope cluster(config_.node.metrics_registry, "cluster");
  cluster.GetCounter("completed")->Add(result.completed);
  cluster.GetCounter("errors")->Add(result.errors);
  cluster.GetGauge("throughput_qps")->Set(result.throughput_qps);
  cluster.GetGauge("power_w")->Set(result.cluster_power_w);
  cluster.GetGauge("energy_j")->Set(result.energy_j);
  cluster.GetGauge("queries_per_joule")->Set(result.queries_per_joule);
  for (const auto& n : nodes_) n->PowerWatts(options.duration);
  return result;
}

std::unique_ptr<Node> ClusterSim::MakeNode(uint32_t node_id) {
  NodeConfig nc = config_.node;
  nc.engine.external_ssds = NodeDevices(node_id);
  auto n = std::make_unique<Node>(*sim_, *net_, cp_->endpoint(),
                                  std::move(nc), node_id,
                                  config_.seed + 1000 + node_id);
  node_endpoints_[node_id] = n->endpoint();
  cp_->RegisterNode(node_id, n->endpoint());
  n->set_node_endpoints(&node_endpoints_);
  return n;
}

uint32_t ClusterSim::JoinNode() {
  const uint32_t node_id = static_cast<uint32_t>(nodes_.size());
  auto n = MakeNode(node_id);
  n->Start();
  const uint32_t stores = n->storage().num_stores();
  nodes_.push_back(std::move(n));
  for (uint32_t s = 0; s < stores; ++s) cp_->StartJoin(node_id, s);
  return node_id;
}

void ClusterSim::LeaveNode(uint32_t node_id) {
  std::vector<cluster::VNodeId> mine;
  for (const auto& [id, info] : cp_->view().vnodes) {
    if (info.owner_node == node_id && info.state == cluster::VNodeState::kRunning) {
      mine.push_back(id);
    }
  }
  for (auto id : mine) cp_->StartLeave(id);
}

void ClusterSim::KillNode(uint32_t node_id) { nodes_[node_id]->Fail(); }

std::vector<sim::SimSsd*> ClusterSim::NodeDevices(uint32_t node_id) {
  std::vector<sim::SimSsd*> out;
  if (config_.node.stack != StackKind::kLeed) return out;
  if (node_ssds_.size() <= node_id) node_ssds_.resize(node_id + 1);
  auto& owned = node_ssds_[node_id];
  if (owned.empty()) {
    for (uint32_t i = 0; i < config_.node.engine.ssd_count; ++i) {
      owned.push_back(MakeSsd(node_id, i, 0));
    }
  }
  out.reserve(owned.size());
  for (auto& s : owned) out.push_back(s.get());
  return out;
}

std::unique_ptr<sim::SimSsd> ClusterSim::MakeSsd(uint32_t node_id, uint32_t ssd,
                                                 uint64_t salt) {
  // Seeds match what IoEngine used when it owned its devices, so
  // fault-free runs replay identically across that refactor.
  const uint64_t engine_seed = (config_.seed + 1000 + node_id) ^ 0xeed;
  auto dev = std::make_unique<sim::SimSsd>(*sim_, config_.node.engine.ssd,
                                           (engine_seed + ssd * 7919) ^ salt);
  dev->set_faults(faults_->AddDevice(sim::DeviceFaultSpec{},
                                     (engine_seed ^ (0xd00d + ssd * 131)) + salt,
                                     node_id, ssd));
  return dev;
}

void ClusterSim::CrashNode(uint32_t node_id) {
  faults_->CrashNode(node_id);
  nodes_[node_id]->Crash();
}

void ClusterSim::RestartNode(uint32_t node_id) {
  if (config_.node.stack != StackKind::kLeed) return;
  if (!nodes_[node_id]->crashed()) return;
  faults_->ReviveNode(node_id);

  auto fresh = MakeNode(node_id);
  graveyard_.push_back(std::move(nodes_[node_id]));
  nodes_[node_id] = std::move(fresh);

  Node* n = nodes_[node_id].get();
  n->Recover([this, node_id, n](Status, store::RecoveryStats) {
    // Recovered (possibly partially — stats say how much): come back up,
    // tell the control plane, and rejoin the ring through the normal join
    // path so chain repair re-replicates anything this node missed.
    n->Start();
    cp_->ReviveNode(node_id, n->endpoint());
    const uint32_t stores = n->storage().num_stores();
    for (uint32_t s = 0; s < stores; ++s) cp_->StartJoin(node_id, s);
  });
}

void ClusterSim::KillSsd(uint32_t node_id, uint32_t ssd) {
  faults_->KillDevice(static_cast<int32_t>(node_id), static_cast<int32_t>(ssd));
}

void ClusterSim::ReplaceSsd(uint32_t node_id, uint32_t ssd) {
  if (config_.node.stack != StackKind::kLeed) return;
  if (node_ssds_.size() <= node_id || ssd >= node_ssds_[node_id].size()) return;
  // Only a down node's device can be swapped: a live engine holds raw
  // pointers to the mounted SimSsd.
  if (node_id < nodes_.size() && !nodes_[node_id]->crashed() &&
      !nodes_[node_id]->failed()) {
    return;
  }
  auto& owned = node_ssds_[node_id];
  // The dead device and its latched fault state move to graveyards:
  // in-flight completion callbacks may still reference both.
  faults_->RetireDevice(node_id, ssd);
  ssd_graveyard_.push_back(std::move(owned[ssd]));
  owned[ssd] = MakeSsd(node_id, ssd, 0x2e91aceULL);
}

void ClusterSim::ArmFaultPlan(const sim::FaultPlan& plan) {
  const SimTime now = sim_->Now();
  for (const auto& d : plan.devices) {
    faults_->SetDeviceSpec(d.spec, d.node, d.ssd);
    if (d.dead_after > 0) {
      sim_->At(now + d.dead_after,
               [this, node = d.node, ssd = d.ssd] { faults_->KillDevice(node, ssd); });
    }
  }
  if (plan.has_net) faults_->net().set_spec(plan.net);
  for (const auto& p : plan.partitions) {
    auto a = node_endpoints_.find(p.node_a);
    auto b = node_endpoints_.find(p.node_b);
    if (a == node_endpoints_.end() || b == node_endpoints_.end()) continue;
    sim::PartitionRule rule;
    rule.a = a->second;
    rule.b = b->second;
    rule.bidirectional = p.bidirectional;
    rule.start = now + p.start;
    rule.heal = p.heal > 0 ? now + p.heal : 0;
    faults_->net().AddPartition(rule);
  }
  for (const auto& c : plan.crashes) {
    if (c.node >= nodes_.size()) continue;
    sim_->At(now + c.at, [this, node = c.node] { CrashNode(node); });
    if (c.restart > 0) {
      sim_->At(now + c.restart, [this, node = c.node] { RestartNode(node); });
    }
  }
}

}  // namespace leed
