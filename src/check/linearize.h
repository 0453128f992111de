// P-compositional linearizability checking over captured client histories
// (docs/CHECKING.md).
//
// The checked model is a map of independent registers: each key is a
// register holding one value digest (or "absent"); PUT writes it, DEL
// clears it, GET observes it. Linearizability is compositional over
// independent objects (Herlihy & Wing), so the history is partitioned per
// key and each per-key sub-history is checked on its own — this is what
// makes Wing–Gong search tractable on cluster-scale histories.
//
// Two passes run per key:
//  1. A cheap targeted read-semantics pass (stale reads, phantom reads,
//     non-monotonic reads per client) that is sound whenever value digests
//     are unique per key — the nemesis workload guarantees this. This is
//     the pass aimed squarely at CRRS shipped reads (§3.7): a dirty-read
//     bug shows up as a stale read long before full search is needed.
//  2. A Wing–Gong / Knossos-style search with memoized state sets and a
//     configurable step budget (CheckOptions::step_budget). Budget
//     exhaustion reports kInconclusive for that key instead of hanging.
//
// There is one search: it checks calls against a vector of registers. A
// per-key sub-history is a one-register instance of it; a scan cluster
// (below) is a multi-register one.
//
// Indeterminate operations (client saw an error or no response): writes
// may still have taken effect, so they enter the search with an unbounded
// response interval (they can linearize at any later point — including
// "effectively never", i.e. after every read). Indeterminate reads impose
// no constraint and are dropped.
//
// SCAN operations are multi-key atomic reads: every observed (key, digest)
// pair must hold simultaneously at the scan's linearization point. The
// checker never infers absence from a scan (scans are partition-local and
// limit-truncated, so an unobserved key proves nothing). Three mechanisms
// cover them:
//  1. Projection: each observation becomes a virtual per-key read over the
//     scan's interval, feeding both per-key passes. Sound (it drops only
//     the same-instant constraint) and catches stale scan items.
//  2. Cheap scan passes: phantom-scan (an observed digest no PUT ever
//     wrote), torn-scan (each observation individually feasible inside the
//     scan window but their feasible instants have empty intersection —
//     the scan straddled a commit), and non-monotonic-scan (a client's
//     later scan observed a strictly older value than its earlier scan).
//  3. Exact search: keys connected by scans form clusters; each cluster
//     runs the search with one register per cluster key, treating each
//     scan as one atomic multi-key read. The shared step budget is the only
//     bound: a cluster search that exhausts it is inconclusive.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/history.h"
#include "common/status.h"

namespace leed::check {

enum class Verdict : uint8_t { kLinearizable, kViolation, kInconclusive };

std::string_view VerdictName(Verdict v);

struct CheckOptions {
  // Total Wing–Gong state expansions across all keys; exhausted keys
  // report kInconclusive. 0 disables the search pass entirely.
  uint64_t step_budget = 4'000'000;
  // Run the cheap stale/phantom/monotonic pass (auto-skipped per key when
  // write digests are not unique on that key).
  bool read_semantics = true;
  // Budget for each checker call made while auto-minimizing a violating
  // sub-history (greedy op removal); 0 skips minimization.
  uint64_t minimize_budget = 100'000;
};

struct Violation {
  std::string key;     // scan violations: the scan's start key or first
                       // convicting observed key
  std::string kind;    // "linearizability", "stale-read", "phantom-read",
                       // "non-monotonic-read", "phantom-scan", "torn-scan",
                       // "non-monotonic-scan", "scan-linearizability"
  std::string detail;  // human-readable one-liner
  // Minimized per-key sub-history that still fails (dumpable via
  // FormatDump and re-checkable via HistoryLog::Parse + CheckHistory).
  std::vector<HistoryOp> sub_history;
};

struct CheckReport {
  Verdict verdict = Verdict::kLinearizable;
  uint64_t keys_checked = 0;
  uint64_t steps_used = 0;
  uint32_t inconclusive_keys = 0;
  std::vector<Violation> violations;

  std::string Summary() const;
};

// Checks a complete history (any key mix). Deterministic: keys are
// processed in sorted order and all reported detail derives from op ids.
// A truncated capture (HistoryLog::dropped() > 0) must not be passed here
// blindly — the caller should treat it as inconclusive (missing invokes
// can hide violations); see NemesisRunner.
CheckReport CheckHistory(const std::vector<HistoryOp>& history,
                         const CheckOptions& options = {});

}  // namespace leed::check
