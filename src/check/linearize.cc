#include "check/linearize.h"

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_set>

namespace leed::check {

namespace {

constexpr SimTime kInfTime = INT64_MAX;
// Greedy minimization re-checks the sub-history once per op (quadratic);
// longer violating sub-histories are reported unminimized.
constexpr size_t kMinimizeMaxOps = 400;

// The client saw the op's outcome (not_found included); error and open ops
// are indeterminate.
bool Determinate(const HistoryOp& op) {
  return op.outcome == Outcome::kOk || op.outcome == Outcome::kNotFound;
}

// Latest instant by which an op has definitely taken effect; indeterminate
// ops may take effect arbitrarily late.
SimTime EffectiveResponse(const HistoryOp& op) {
  return Determinate(op) ? op.response : kInfTime;
}

// One checkable operation of the register-map model. Point ops act on
// register `key`; a scan reads every register in `obs` at one instant.
struct Call {
  const HistoryOp* src = nullptr;
  int key = 0;             // register index
  bool is_write = false;   // PUT or DEL
  bool is_del = false;     // write of "absent"
  bool reads_absent = false;  // GET -> not_found
  uint64_t digest = 0;     // written (PUT) or observed (GET ok) value
  // Scans: observed (register, digest) pairs that must hold jointly.
  // Empty for point ops.
  std::vector<std::pair<int, uint64_t>> obs;
  SimTime invoke = 0;
  SimTime response = kInfTime;  // kInfTime: indeterminate (may apply later)
};

struct RegState {
  bool present = false;
  uint64_t value = 0;

  bool operator==(const RegState&) const = default;
};

// Applies `c` to `s`. Returns false if the model forbids it (reads only;
// writes always apply).
bool StepModel(const std::vector<RegState>& s, const Call& c,
               std::vector<RegState>* out) {
  auto holds = [&s](int k, uint64_t d) {
    return s[k].present && s[k].value == d;
  };
  if (c.is_write) {
    *out = s;
    (*out)[c.key] = RegState{!c.is_del, c.is_del ? 0 : c.digest};
    return true;
  }
  if (!c.obs.empty()) {
    for (const auto& [k, d] : c.obs) {
      if (!holds(k, d)) return false;
    }
  } else if (c.reads_absent ? s[c.key].present : !holds(c.key, c.digest)) {
    return false;
  }
  *out = s;
  return true;
}

// Lowers the ops on the registers of `key_index` to model calls, in `ops`
// order. Ops on other keys, failed or empty scans and indeterminate reads
// constrain nothing and are dropped; indeterminate writes keep an open
// response interval. A scan whose first observed key is in `key_index`
// must have every observed key there.
std::vector<Call> LowerCalls(const std::vector<const HistoryOp*>& ops,
                             const std::map<std::string, int>& key_index) {
  std::vector<Call> calls;
  calls.reserve(ops.size());
  for (const HistoryOp* op : ops) {
    const bool scan = op->kind == OpKind::kScan;
    if (scan && (op->outcome != Outcome::kOk || op->scan_obs.empty())) continue;
    auto idx = key_index.find(scan ? op->scan_obs.front().key : op->key);
    if (idx == key_index.end()) continue;
    Call c;
    c.src = op;
    c.key = idx->second;
    c.invoke = op->invoke;
    c.response = EffectiveResponse(*op);
    switch (op->kind) {
      case OpKind::kGet:
        if (!Determinate(*op)) continue;  // unconstrained, drop
        c.reads_absent = (op->outcome == Outcome::kNotFound);
        c.digest = op->value_digest;
        break;
      case OpKind::kPut:
        c.is_write = true;
        c.digest = op->value_digest;
        break;
      case OpKind::kDel:
        // DEL -> not_found is still a successful delete of an absent key.
        c.is_write = true;
        c.is_del = true;
        break;
      case OpKind::kScan:
        for (const ScanObservation& o : op->scan_obs) {
          c.obs.emplace_back(key_index.at(o.key), o.digest);
        }
        break;
    }
    calls.push_back(std::move(c));
  }
  return calls;
}

// ---------------------------------------------------------------------------
// Wing–Gong search (Lowe's algorithm with a memoized configuration cache,
// as popularized by Knossos/Porcupine).
// ---------------------------------------------------------------------------

struct EventNode {
  EventNode* prev = nullptr;
  EventNode* next = nullptr;
  int call = -1;             // index into calls
  EventNode* match = nullptr;  // call event -> its return event; else null
};

struct CacheKey {
  std::vector<uint64_t> bits;
  std::vector<RegState> state;

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  size_t operator()(const CacheKey& k) const {
    uint64_t h = 0x5ca9;
    for (const RegState& r : k.state) {
      h = Mix64(h ^ r.value ^ (r.present ? 0x9e37u : 0));
    }
    for (uint64_t w : k.bits) h = Mix64(h ^ w);
    return static_cast<size_t>(h);
  }
};

struct WgResult {
  Verdict verdict = Verdict::kLinearizable;
  uint64_t steps = 0;
  int blocked_call = -1;  // violation: the op that could not linearize
};

// Checks `calls` against a model of `num_keys` registers, all initially
// absent. `budget` bounds the number of explored configurations.
WgResult WingGongCheck(const std::vector<Call>& calls, size_t num_keys,
                       uint64_t budget) {
  WgResult result;
  const size_t n = calls.size();
  if (n == 0) return result;

  // Event list: one call event and one return event per op, ordered by
  // time. Call events sort before return events at equal times, making
  // same-instant ops overlap — the permissive (sound) tie-break.
  struct Ev {
    SimTime time;
    int type;  // 0 = call, 1 = return
    int call;
  };
  std::vector<Ev> evs;
  evs.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    evs.push_back({calls[i].invoke, 0, static_cast<int>(i)});
    evs.push_back({calls[i].response, 1, static_cast<int>(i)});
  }
  std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.type != b.type) return a.type < b.type;
    return a.call < b.call;
  });

  std::vector<std::unique_ptr<EventNode>> storage;
  storage.reserve(2 * n + 1);
  auto make = [&storage]() {
    storage.push_back(std::make_unique<EventNode>());
    return storage.back().get();
  };
  EventNode* root = make();  // sentinel head
  EventNode* tail = root;
  std::vector<EventNode*> call_node(n), return_node(n);
  for (const Ev& e : evs) {
    EventNode* node = make();
    node->call = e.call;
    node->prev = tail;
    tail->next = node;
    tail = node;
    if (e.type == 0) {
      call_node[e.call] = node;
    } else {
      return_node[e.call] = node;
    }
  }
  for (size_t i = 0; i < n; ++i) call_node[i]->match = return_node[i];

  auto lift = [](EventNode* call) {
    call->prev->next = call->next;
    if (call->next) call->next->prev = call->prev;
    EventNode* ret = call->match;
    ret->prev->next = ret->next;
    if (ret->next) ret->next->prev = ret->prev;
  };
  auto unlift = [](EventNode* call) {
    EventNode* ret = call->match;
    ret->prev->next = ret;
    if (ret->next) ret->next->prev = ret;
    call->prev->next = call;
    if (call->next) call->next->prev = call;
  };

  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> linearized(words, 0);
  std::vector<RegState> state(num_keys);
  // Explored configurations; membership-only, never iterated.
  // leed-lint: allow(unordered-iter): membership probes only
  std::unordered_set<CacheKey, CacheKeyHash> cache;
  struct Frame {
    EventNode* call;
    std::vector<RegState> prev_state;
  };
  std::vector<Frame> stack;

  EventNode* entry = root->next;
  while (root->next != nullptr) {
    if (result.steps >= budget) {
      result.verdict = Verdict::kInconclusive;
      return result;
    }
    if (entry == nullptr || entry->match == nullptr) {
      // Fell off the end without consuming everything, or reached a return
      // event at the search frontier (the ops before it are pinned):
      // backtrack. If nothing is left to undo the history is not
      // linearizable.
      if (stack.empty()) {
        result.verdict = Verdict::kViolation;
        result.blocked_call = entry ? entry->call : root->next->call;
        return result;
      }
      Frame f = std::move(stack.back());
      stack.pop_back();
      state = std::move(f.prev_state);
      const int c = f.call->call;
      linearized[c / 64] &= ~(1ull << (c % 64));
      unlift(f.call);
      entry = f.call->next;
      continue;
    }
    // Call event: try to linearize this op here.
    ++result.steps;
    std::vector<RegState> next_state;
    bool ok = StepModel(state, calls[entry->call], &next_state);
    if (ok) {
      CacheKey key{linearized, next_state};
      key.bits[entry->call / 64] |= 1ull << (entry->call % 64);
      if (!cache.insert(std::move(key)).second) ok = false;
    }
    if (ok) {
      stack.push_back({entry, std::move(state)});
      state = std::move(next_state);
      linearized[entry->call / 64] |= 1ull << (entry->call % 64);
      lift(entry);
      entry = root->next;
    } else {
      entry = entry->next;
    }
  }
  return result;
}

// Runs the search over `calls` on what is left of the step budget and
// charges its steps to `report`. A spent or exhausted budget counts one
// inconclusive unit. Returns the id of the op the search blocked at when
// no linearization exists.
std::optional<uint64_t> SearchForViolation(const std::vector<Call>& calls,
                                           size_t num_keys,
                                           uint64_t* budget_left,
                                           CheckReport* report) {
  if (*budget_left == 0) {
    ++report->inconclusive_keys;
    return std::nullopt;
  }
  WgResult wg = WingGongCheck(calls, num_keys, *budget_left);
  report->steps_used += wg.steps;
  *budget_left -= std::min(*budget_left, wg.steps);
  switch (wg.verdict) {
    case Verdict::kLinearizable:
      return std::nullopt;
    case Verdict::kInconclusive:
      ++report->inconclusive_keys;
      return std::nullopt;
    case Verdict::kViolation:
      break;
  }
  return wg.blocked_call >= 0 ? calls[wg.blocked_call].src->id : 0;
}

// ---------------------------------------------------------------------------
// Cheap targeted passes: stale / phantom / non-monotonic reads and scans.
// ---------------------------------------------------------------------------

// Copies `ops` sorted by id, each id once.
std::vector<HistoryOp> CollectOps(const std::vector<const HistoryOp*>& ops) {
  std::vector<HistoryOp> out;
  out.reserve(ops.size());
  for (const HistoryOp* op : ops) out.push_back(*op);
  std::sort(out.begin(), out.end(),
            [](const HistoryOp& a, const HistoryOp& b) { return a.id < b.id; });
  out.erase(std::unique(out.begin(), out.end(),
                        [](const HistoryOp& a, const HistoryOp& b) {
                          return a.id == b.id;
                        }),
            out.end());
  return out;
}

// Per-key write summary over the original history (the cheap passes reason
// about writers directly, independent of the per-key projection).
struct KeyWrites {
  std::map<uint64_t, const HistoryOp*> writer;     // PUT digest -> op
  std::vector<const HistoryOp*> determinate_writes;  // PUT and DEL
  bool digests_unique = true;
};

std::map<std::string, KeyWrites> SummarizeWrites(
    const std::vector<HistoryOp>& history) {
  std::map<std::string, KeyWrites> out;
  for (const HistoryOp& op : history) {
    if (op.kind != OpKind::kPut && op.kind != OpKind::kDel) continue;
    KeyWrites& kw = out[op.key];
    if (op.kind == OpKind::kPut) {
      if (kw.writer.contains(op.value_digest)) kw.digests_unique = false;
      kw.writer[op.value_digest] = &op;
    }
    if (Determinate(op)) kw.determinate_writes.push_back(&op);
  }
  return out;
}

// Appends read-semantics violations for one key. `ops` is the key's
// sub-history (projected scan reads included) in (invoke, id) order and
// `kw` its write summary. Only called when PUT digests are unique on the
// key (soundness precondition).
void ReadSemanticsCheck(const std::string& key,
                        const std::vector<const HistoryOp*>& ops,
                        const KeyWrites& kw, std::vector<Violation>* out) {
  std::vector<const HistoryOp*> determinate_writes;  // PUT and DEL
  std::vector<const HistoryOp*> reads;               // determinate GET -> value
  for (const HistoryOp* op : ops) {
    if (op->kind == OpKind::kGet) {
      if (op->outcome == Outcome::kOk) reads.push_back(op);
    } else if (Determinate(*op)) {
      determinate_writes.push_back(op);
    }
  }
  auto writer_of = [&kw](uint64_t digest) -> const HistoryOp* {
    auto it = kw.writer.find(digest);
    return it == kw.writer.end() ? nullptr : it->second;
  };

  for (const HistoryOp* r : reads) {
    const HistoryOp* w = writer_of(r->value_digest);
    if (w == nullptr) {
      Violation v;
      v.key = key;
      v.kind = "phantom-read";
      v.detail = "op " + std::to_string(r->id) +
                 " observed a value no PUT in the history ever wrote";
      v.sub_history = CollectOps({r});
      out->push_back(std::move(v));
      continue;
    }
    if (!Determinate(*w)) continue;  // indeterminate writer: no bound
    for (const HistoryOp* w2 : determinate_writes) {
      if (w2 == w) continue;
      // w completed before w2 began, and w2 completed before the read
      // began: the read observed a value that was definitely overwritten.
      if (w->response < w2->invoke && w2->response < r->invoke) {
        Violation v;
        v.key = key;
        v.kind = "stale-read";
        v.detail = "op " + std::to_string(r->id) + " read the value of op " +
                   std::to_string(w->id) + " although op " +
                   std::to_string(w2->id) + " overwrote it strictly earlier";
        v.sub_history = CollectOps({w, w2, r});
        out->push_back(std::move(v));
        break;  // one witness per read is enough
      }
    }
  }

  // Monotonic reads per client: a later read (same client, real-time
  // ordered) must not observe a strictly older write.
  std::map<uint32_t, std::vector<const HistoryOp*>> by_client;
  for (const HistoryOp* r : reads) by_client[r->client].push_back(r);
  for (auto& [client, rs] : by_client) {
    (void)client;
    std::sort(rs.begin(), rs.end(),
              [](const HistoryOp* a, const HistoryOp* b) {
                if (a->invoke != b->invoke) return a->invoke < b->invoke;
                return a->id < b->id;
              });
    for (size_t i = 0; i + 1 < rs.size(); ++i) {
      const HistoryOp* r1 = rs[i];
      const HistoryOp* r2 = rs[i + 1];
      if (r1->response == kInfTime || r1->response >= r2->invoke) continue;
      const HistoryOp* w1 = writer_of(r1->value_digest);
      const HistoryOp* w2 = writer_of(r2->value_digest);
      if (!w1 || !w2 || !Determinate(*w2)) continue;
      if (w2->response < w1->invoke) {
        Violation v;
        v.key = key;
        v.kind = "non-monotonic-read";
        v.detail = "client " + std::to_string(r1->client) + " read op " +
                   std::to_string(w1->id) + "'s value (op " +
                   std::to_string(r1->id) + ") then went back to op " +
                   std::to_string(w2->id) + "'s strictly older value (op " +
                   std::to_string(r2->id) + ")";
        v.sub_history = CollectOps({w1, w2, r1, r2});
        out->push_back(std::move(v));
      }
    }
  }
}

// The cheap scan pass. Sound under the same precondition as the per-key
// read-semantics pass (unique PUT digests per involved key; checked per
// key here). Records keys it convicts into `convicted` so the exact
// cluster search skips re-deriving them.
void ScanSemanticsCheck(const std::vector<HistoryOp>& history,
                        const std::map<std::string, KeyWrites>& writes,
                        std::vector<Violation>* out,
                        std::set<std::string>* convicted) {
  std::map<uint32_t, std::vector<const HistoryOp*>> scans_by_client;
  for (const HistoryOp& op : history) {
    if (op.kind != OpKind::kScan || op.outcome != Outcome::kOk) continue;
    scans_by_client[op.client].push_back(&op);

    // Phantom-scan: an observed digest no PUT in the history ever wrote.
    // Needs no uniqueness precondition (it is an existence check).
    bool phantom = false;
    for (const ScanObservation& obs : op.scan_obs) {
      auto kw = writes.find(obs.key);
      if (kw == writes.end() || !kw->second.writer.contains(obs.digest)) {
        Violation v;
        v.key = obs.key;
        v.kind = "phantom-scan";
        v.detail = "scan op " + std::to_string(op.id) + " observed key '" +
                   obs.key + "' with a value no PUT in the history ever wrote";
        v.sub_history = CollectOps({&op});
        out->push_back(std::move(v));
        convicted->insert(obs.key);
        phantom = true;
      }
    }
    if (phantom) continue;

    // Torn-scan: intersect, over all observations, the instants at which
    // the observed value could have been current. Each key's feasible
    // window is [writer.invoke, U) where U is the earliest completion of a
    // write that definitely supersedes the writer; the scan itself must
    // linearize inside [invoke, response]. All-singly-feasible with an
    // empty joint intersection is the torn signature (a single infeasible
    // item is a stale read, convicted by the projection pass instead).
    bool uniq = true;
    for (const ScanObservation& obs : op.scan_obs) {
      if (!writes.at(obs.key).digests_unique) uniq = false;
    }
    if (!uniq || op.scan_obs.size() < 2) continue;
    SimTime lo = op.invoke;
    SimTime hi_excl = op.response + 1;
    bool singly_feasible = true;
    std::vector<const HistoryOp*> witnesses{&op};
    for (const ScanObservation& obs : op.scan_obs) {
      const KeyWrites& kw = writes.at(obs.key);
      const HistoryOp* w = kw.writer.at(obs.digest);
      SimTime u = kInfTime;
      const HistoryOp* u_witness = nullptr;
      for (const HistoryOp* w2 : kw.determinate_writes) {
        if (w2 == w) continue;
        if (EffectiveResponse(*w) < w2->invoke && w2->response < u) {
          u = w2->response;
          u_witness = w2;
        }
      }
      if (std::max(lo, w->invoke) >= std::min(hi_excl, u)) {
        // This interval alone is empty only if the item is stale outright.
        if (std::max(op.invoke, w->invoke) >=
            std::min(static_cast<SimTime>(op.response + 1), u)) {
          singly_feasible = false;
          break;
        }
      }
      lo = std::max(lo, w->invoke);
      hi_excl = std::min(hi_excl, u);
      witnesses.push_back(w);
      if (u_witness) witnesses.push_back(u_witness);
    }
    if (singly_feasible && lo >= hi_excl) {
      Violation v;
      v.key = op.scan_obs.front().key;
      v.kind = "torn-scan";
      v.detail = "scan op " + std::to_string(op.id) +
                 " straddled a commit: every observation is individually "
                 "feasible but no single instant satisfies all " +
                 std::to_string(op.scan_obs.size()) + " of them";
      v.sub_history = CollectOps(witnesses);
      out->push_back(std::move(v));
      for (const ScanObservation& obs : op.scan_obs) convicted->insert(obs.key);
    }
  }

  // Non-monotonic-scan: a client's later scan observed a strictly older
  // value for a key than its earlier scan did. One witness per client.
  for (auto& [client, scans] : scans_by_client) {
    std::sort(scans.begin(), scans.end(),
              [](const HistoryOp* a, const HistoryOp* b) {
                if (a->invoke != b->invoke) return a->invoke < b->invoke;
                return a->id < b->id;
              });
    bool found = false;
    for (size_t i = 0; i < scans.size() && !found; ++i) {
      for (size_t j = i + 1; j < scans.size() && !found; ++j) {
        const HistoryOp* s1 = scans[i];
        const HistoryOp* s2 = scans[j];
        if (s1->response >= s2->invoke) continue;  // must be real-time ordered
        for (const ScanObservation& o1 : s1->scan_obs) {
          const ScanObservation* o2 = nullptr;
          for (const ScanObservation& cand : s2->scan_obs) {
            if (cand.key == o1.key) {
              o2 = &cand;
              break;
            }
          }
          if (!o2 || o2->digest == o1.digest) continue;
          auto kw_it = writes.find(o1.key);
          if (kw_it == writes.end() || !kw_it->second.digests_unique) continue;
          const KeyWrites& kw = kw_it->second;
          if (!kw.writer.contains(o1.digest) || !kw.writer.contains(o2->digest))
            continue;
          const HistoryOp* w1 = kw.writer.at(o1.digest);
          const HistoryOp* w2 = kw.writer.at(o2->digest);
          if (EffectiveResponse(*w2) < w1->invoke) {
            Violation v;
            v.key = o1.key;
            v.kind = "non-monotonic-scan";
            v.detail = "client " + std::to_string(client) + " scan op " +
                       std::to_string(s1->id) + " observed op " +
                       std::to_string(w1->id) + "'s value, then scan op " +
                       std::to_string(s2->id) +
                       " went back to op " + std::to_string(w2->id) +
                       "'s strictly older value";
            v.sub_history = CollectOps({w1, w2, s1, s2});
            out->push_back(std::move(v));
            convicted->insert(o1.key);
            found = true;
            break;
          }
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Exact atomic-scan semantics over scan-connected key clusters.
// ---------------------------------------------------------------------------

// Finds scan-connected key clusters and runs the search on each one,
// with every scan as one atomic multi-key read. Keys already convicted by
// the cheap scan pass are skipped (their cluster's violation is recorded
// already).
void ScanClusterCheck(const std::vector<HistoryOp>& history,
                      const std::set<std::string>& convicted,
                      uint64_t* budget_left, CheckReport* report) {
  // Union-find over the keys each kOk scan observed.
  std::map<std::string, std::string> parent;
  std::function<std::string(const std::string&)> find =
      [&](const std::string& k) -> std::string {
    auto it = parent.find(k);
    if (it == parent.end() || it->second == k) return k;
    std::string root = find(it->second);
    parent[k] = root;
    return root;
  };
  auto unite = [&](const std::string& a, const std::string& b) {
    std::string ra = find(a), rb = find(b);
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  };
  bool any_scan = false;
  for (const HistoryOp& op : history) {
    if (op.kind != OpKind::kScan || op.outcome != Outcome::kOk ||
        op.scan_obs.empty()) {
      continue;
    }
    any_scan = true;
    parent.try_emplace(op.scan_obs.front().key, op.scan_obs.front().key);
    for (size_t i = 1; i < op.scan_obs.size(); ++i) {
      parent.try_emplace(op.scan_obs[i].key, op.scan_obs[i].key);
      unite(op.scan_obs.front().key, op.scan_obs[i].key);
    }
  }
  if (!any_scan) return;

  std::map<std::string, std::vector<std::string>> clusters;  // root -> keys
  for (const auto& [k, p] : parent) {
    (void)p;
    clusters[find(k)].push_back(k);
  }

  std::vector<const HistoryOp*> all_ops;
  all_ops.reserve(history.size());
  for (const HistoryOp& op : history) all_ops.push_back(&op);

  for (auto& [root, keys] : clusters) {
    (void)root;
    // Single-key clusters are exactly covered by the per-key search over
    // projected reads (a one-key atomic read IS a read).
    if (keys.size() < 2) continue;
    bool skip = false;
    for (const std::string& k : keys) {
      if (convicted.contains(k)) skip = true;
    }
    if (skip) continue;
    std::map<std::string, int> key_idx;
    for (const std::string& k : keys) {
      key_idx.emplace(k, static_cast<int>(key_idx.size()));
    }
    // Scans observing any cluster key observe only cluster keys (by
    // union-find construction).
    std::vector<Call> calls = LowerCalls(all_ops, key_idx);
    std::optional<uint64_t> blocked =
        SearchForViolation(calls, key_idx.size(), budget_left, report);
    if (!blocked) continue;
    Violation v;
    v.key = keys.front();
    v.kind = "scan-linearizability";
    v.detail = "no linearization order exists for the " +
               std::to_string(keys.size()) +
               "-key scan cluster (search blocked at op " +
               std::to_string(*blocked) + ")";
    std::vector<const HistoryOp*> ops;
    ops.reserve(calls.size());
    for (const Call& c : calls) ops.push_back(c.src);
    v.sub_history = CollectOps(ops);
    report->violations.push_back(std::move(v));
  }
}

// ---------------------------------------------------------------------------
// Violation minimization
// ---------------------------------------------------------------------------

// Greedy delta-debugging over one key's sub-history: drop ops whose removal
// keeps it failing. PUTs still observed by a retained read are pinned so
// the minimized history never contains a read of a value nobody wrote.
std::vector<HistoryOp> MinimizeViolation(
    std::vector<const HistoryOp*> ops,
    const std::map<std::string, int>& key_index, uint64_t budget,
    uint64_t* steps_used) {
  if (budget > 0 && ops.size() <= kMinimizeMaxOps) {
    for (size_t i = ops.size(); i-- > 0;) {
      const HistoryOp* candidate = ops[i];
      if (candidate->kind == OpKind::kPut) {
        bool observed = false;
        for (const HistoryOp* o : ops) {
          if (o != candidate && o->kind == OpKind::kGet &&
              o->outcome == Outcome::kOk &&
              o->value_digest == candidate->value_digest) {
            observed = true;
            break;
          }
        }
        if (observed) continue;
      }
      std::vector<const HistoryOp*> without = ops;
      without.erase(without.begin() + static_cast<ptrdiff_t>(i));
      WgResult r = WingGongCheck(LowerCalls(without, key_index), 1, budget);
      *steps_used += r.steps;
      if (r.verdict == Verdict::kViolation) ops = std::move(without);
    }
  }
  std::vector<HistoryOp> out;
  out.reserve(ops.size());
  for (const HistoryOp* op : ops) out.push_back(*op);
  std::sort(out.begin(), out.end(),
            [](const HistoryOp& a, const HistoryOp& b) { return a.id < b.id; });
  return out;
}

}  // namespace

std::string_view VerdictName(Verdict v) {
  switch (v) {
    case Verdict::kLinearizable:
      return "linearizable";
    case Verdict::kViolation:
      return "violation";
    case Verdict::kInconclusive:
      return "inconclusive";
  }
  return "?";
}

std::string CheckReport::Summary() const {
  std::string s = std::string(VerdictName(verdict)) + ": " +
                  std::to_string(keys_checked) + " keys, " +
                  std::to_string(steps_used) + " steps";
  if (inconclusive_keys > 0) {
    s += ", " + std::to_string(inconclusive_keys) + " inconclusive";
  }
  if (!violations.empty()) {
    s += ", " + std::to_string(violations.size()) + " violations (first: " +
         violations[0].kind + " on key '" + violations[0].key + "' — " +
         violations[0].detail + ")";
  }
  return s;
}

CheckReport CheckHistory(const std::vector<HistoryOp>& history,
                         const CheckOptions& options) {
  CheckReport report;

  // Project every successful scan observation into a virtual per-key read
  // spanning the scan's interval (sound: only the joint same-instant
  // constraint is dropped; the scan passes and the cluster search restore
  // it). Reserved up front: by_key holds pointers into this vector.
  size_t projected = 0;
  for (const HistoryOp& op : history) {
    if (op.kind == OpKind::kScan && op.outcome == Outcome::kOk) {
      projected += op.scan_obs.size();
    }
  }
  std::vector<HistoryOp> synthetic;
  synthetic.reserve(projected);

  // P-compositionality: partition per key (sorted for determinism).
  std::map<std::string, std::vector<const HistoryOp*>> by_key;
  for (const HistoryOp& op : history) {
    if (op.kind == OpKind::kScan) {
      if (op.outcome != Outcome::kOk) continue;  // unconstrained, drop
      for (const ScanObservation& obs : op.scan_obs) {
        HistoryOp read;
        read.id = op.id;  // violations traced back to the scan op
        read.client = op.client;
        read.kind = OpKind::kGet;
        read.key = obs.key;
        read.value_digest = obs.digest;
        read.invoke = op.invoke;
        read.response = op.response;
        read.outcome = Outcome::kOk;
        synthetic.push_back(std::move(read));
        by_key[obs.key].push_back(&synthetic.back());
      }
      continue;
    }
    by_key[op.key].push_back(&op);
  }

  std::map<std::string, KeyWrites> writes;
  std::set<std::string> scan_convicted;
  if (options.read_semantics) {
    writes = SummarizeWrites(history);
    ScanSemanticsCheck(history, writes, &report.violations, &scan_convicted);
  }

  const KeyWrites no_writes;
  uint64_t budget_left = options.step_budget;
  for (auto& [key, ops] : by_key) {
    ++report.keys_checked;
    std::sort(ops.begin(), ops.end(),
              [](const HistoryOp* a, const HistoryOp* b) {
                if (a->invoke != b->invoke) return a->invoke < b->invoke;
                return a->id < b->id;
              });

    if (options.read_semantics) {
      auto kw = writes.find(key);
      const KeyWrites& key_writes = kw == writes.end() ? no_writes : kw->second;
      const size_t violations_before = report.violations.size();
      if (key_writes.digests_unique) {
        ReadSemanticsCheck(key, ops, key_writes, &report.violations);
      }
      // The cheap pass already convicted this key; skip the search and
      // spend the budget on the remaining keys.
      if (report.violations.size() > violations_before) continue;
    }

    if (options.step_budget == 0) continue;
    const std::map<std::string, int> key_index{{key, 0}};
    std::optional<uint64_t> blocked = SearchForViolation(
        LowerCalls(ops, key_index), 1, &budget_left, &report);
    if (!blocked) continue;
    Violation v;
    v.key = key;
    v.kind = "linearizability";
    v.detail = "no linearization order exists (search blocked at op " +
               std::to_string(*blocked) + ")";
    v.sub_history = MinimizeViolation(ops, key_index, options.minimize_budget,
                                      &report.steps_used);
    report.violations.push_back(std::move(v));
  }

  // Exact atomic-scan semantics on scan-connected key clusters.
  if (options.step_budget > 0) {
    ScanClusterCheck(history, scan_convicted, &budget_left, &report);
  }

  if (!report.violations.empty()) {
    report.verdict = Verdict::kViolation;
  } else if (report.inconclusive_keys > 0) {
    report.verdict = Verdict::kInconclusive;
  }
  return report;
}

}  // namespace leed::check
