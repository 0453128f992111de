// Self-tests for the consistency-checking subsystem (docs/CHECKING.md):
//
//  * the corpus under tests/check_corpus/ — known-linearizable histories
//    must pass, known-violating ones (stale read, lost update,
//    non-monotonic read) must be convicted;
//  * HistoryLog mechanics: bounded capture, dump/parse round-trip;
//  * checker mechanics: step-budget inconclusiveness (never hangs),
//    violation minimization, per-key compositionality;
//  * the nemesis sweep end-to-end, including the mutation smoke test: a
//    build that serves dirty reads MUST be reported non-linearizable,
//    and the unmodified pipeline must come back clean and byte-identical
//    across runs.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "check/availability.h"
#include "check/history.h"
#include "check/linearize.h"
#include "check/nemesis.h"

#ifndef LEED_CHECK_CORPUS_DIR
#error "build must define LEED_CHECK_CORPUS_DIR"
#endif

namespace leed::check {
namespace {

std::vector<HistoryOp> LoadCorpus(const std::string& name) {
  const std::string path = std::string(LEED_CHECK_CORPUS_DIR) + "/" + name;
  auto parsed = HistoryLog::ParseFile(path);
  EXPECT_TRUE(parsed.ok()) << path << ": " << parsed.status().ToString();
  return std::move(parsed).value();
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

TEST(CheckCorpus, LinearizableHistoriesPass) {
  for (const char* name :
       {"linearizable.history", "indeterminate_ok.history"}) {
    auto ops = LoadCorpus(name);
    ASSERT_FALSE(ops.empty()) << name;
    CheckReport report = CheckHistory(ops);
    EXPECT_EQ(report.verdict, Verdict::kLinearizable)
        << name << ": " << report.Summary();
    EXPECT_TRUE(report.violations.empty()) << name;
  }
}

TEST(CheckCorpus, ViolatingHistoriesAreConvicted) {
  struct Case {
    const char* file;
    const char* key;
  };
  for (const auto& c : {Case{"stale_read.history", "k0"},
                        Case{"lost_update.history", "k0"},
                        Case{"nonmonotonic_read.history", "k0"}}) {
    auto ops = LoadCorpus(c.file);
    ASSERT_FALSE(ops.empty()) << c.file;
    CheckReport report = CheckHistory(ops);
    EXPECT_EQ(report.verdict, Verdict::kViolation)
        << c.file << ": " << report.Summary();
    ASSERT_FALSE(report.violations.empty()) << c.file;
    EXPECT_EQ(report.violations[0].key, c.key) << c.file;
  }
}

TEST(CheckCorpus, ScanViolationsAreConvicted) {
  // Golden scan histories, one per cheap-pass conviction kind. The scan
  // passes run before the per-key projection, so the first violation
  // carries the scan-specific kind. The torn scan over keys whose values
  // repeat escapes the cheap passes (they need unique digests) and the
  // per-key projection; only the exact cluster search convicts it.
  struct Case {
    const char* file;
    const char* kind;
    const char* key;
  };
  for (const auto& c :
       {Case{"phantom_scan.history", "phantom-scan", "k1"},
        Case{"torn_scan.history", "torn-scan", "ka"},
        Case{"nonmonotonic_scan.history", "non-monotonic-scan", "k0"},
        Case{"repeated_digest_torn_scan.history", "scan-linearizability", "ka"}}) {
    auto ops = LoadCorpus(c.file);
    ASSERT_FALSE(ops.empty()) << c.file;
    CheckReport report = CheckHistory(ops);
    EXPECT_EQ(report.verdict, Verdict::kViolation)
        << c.file << ": " << report.Summary();
    ASSERT_FALSE(report.violations.empty()) << c.file;
    EXPECT_EQ(report.violations[0].kind, c.kind) << c.file;
    EXPECT_EQ(report.violations[0].key, c.key) << c.file;
  }
}

TEST(CheckCorpus, ScanViolationsConvictedInSearchOnlyModeToo) {
  // With the cheap passes disabled the scan-cluster Wing–Gong search must
  // reach the same verdicts: the targeted scan passes are an optimization,
  // not the oracle.
  CheckOptions opt;
  opt.read_semantics = false;
  for (const char* name : {"phantom_scan.history", "torn_scan.history",
                           "nonmonotonic_scan.history"}) {
    auto ops = LoadCorpus(name);
    CheckReport report = CheckHistory(ops, opt);
    EXPECT_EQ(report.verdict, Verdict::kViolation)
        << name << ": " << report.Summary();
  }
}

TEST(CheckCorpus, ViolationsConvictedWithoutCheapPassesToo) {
  // The Wing–Gong search alone (read-semantics pass disabled) must reach
  // the same verdicts: the cheap passes are an optimization, not the oracle.
  CheckOptions opt;
  opt.read_semantics = false;
  for (const char* name : {"stale_read.history", "lost_update.history",
                           "nonmonotonic_read.history"}) {
    auto ops = LoadCorpus(name);
    CheckReport report = CheckHistory(ops, opt);
    EXPECT_EQ(report.verdict, Verdict::kViolation)
        << name << ": " << report.Summary();
  }
  auto ok_ops = LoadCorpus("linearizable.history");
  EXPECT_EQ(CheckHistory(ok_ops, opt).verdict, Verdict::kLinearizable);
}

TEST(CheckCorpus, ReportSummariesArePinned) {
  // Every verdict, step count, blocked op and violation string of the
  // corpus, with the cheap passes on and off. Refactors of the checker
  // must leave these byte-identical; a deliberate change to the search or
  // a pass updates them here.
  struct Case {
    const char* file;
    const char* summary;
    const char* search_only;
  };
  const Case cases[] = {
      {"indeterminate_ok.history", "linearizable: 1 keys, 6 steps",
       "linearizable: 1 keys, 6 steps"},
      {"linearizable.history", "linearizable: 2 keys, 10 steps",
       "linearizable: 2 keys, 10 steps"},
      {"lost_update.history",
       "violation: 1 keys, 4 steps, 1 violations (first: linearizability on "
       "key 'k0' — no linearization order exists (search blocked at op 1))",
       "violation: 1 keys, 4 steps, 1 violations (first: linearizability on "
       "key 'k0' — no linearization order exists (search blocked at op 1))"},
      {"nonmonotonic_read.history",
       "violation: 1 keys, 0 steps, 1 violations (first: non-monotonic-read "
       "on key 'k0' — client 2 read op 2's value (op 3) then went back to op "
       "1's strictly older value (op 4))",
       "violation: 1 keys, 13 steps, 1 violations (first: linearizability on "
       "key 'k0' — no linearization order exists (search blocked at op 1))"},
      {"nonmonotonic_scan.history",
       "violation: 1 keys, 0 steps, 2 violations (first: non-monotonic-scan "
       "on key 'k0' — client 2 scan op 3 observed op 2's value, then scan op "
       "4 went back to op 1's strictly older value)",
       "violation: 1 keys, 13 steps, 1 violations (first: linearizability on "
       "key 'k0' — no linearization order exists (search blocked at op 1))"},
      {"phantom_scan.history",
       "violation: 2 keys, 2 steps, 2 violations (first: phantom-scan on key "
       "'k1' — scan op 2 observed key 'k1' with a value no PUT in the "
       "history ever wrote)",
       "violation: 2 keys, 5 steps, 2 violations (first: linearizability on "
       "key 'k1' — no linearization order exists (search blocked at op 2))"},
      {"repeated_digest_torn_scan.history",
       "violation: 2 keys, 20 steps, 1 violations (first: "
       "scan-linearizability on key 'ka' — no linearization order exists "
       "for the 2-key scan cluster (search blocked at op 1))",
       "violation: 2 keys, 20 steps, 1 violations (first: "
       "scan-linearizability on key 'ka' — no linearization order exists "
       "for the 2-key scan cluster (search blocked at op 1))"},
      {"stale_read.history",
       "violation: 1 keys, 0 steps, 1 violations (first: stale-read on key "
       "'k0' — op 3 read the value of op 1 although op 2 overwrote it "
       "strictly earlier)",
       "violation: 1 keys, 7 steps, 1 violations (first: linearizability on "
       "key 'k0' — no linearization order exists (search blocked at op 1))"},
      {"torn_scan.history",
       "violation: 2 keys, 9 steps, 1 violations (first: torn-scan on key "
       "'ka' — scan op 5 straddled a commit: every observation is "
       "individually feasible but no single instant satisfies all 2 of "
       "them)",
       "violation: 2 keys, 18 steps, 1 violations (first: "
       "scan-linearizability on key 'ka' — no linearization order exists "
       "for the 2-key scan cluster (search blocked at op 1))"},
  };
  std::set<std::string> pinned;
  CheckOptions search_only;
  search_only.read_semantics = false;
  for (const Case& c : cases) {
    pinned.insert(c.file);
    auto ops = LoadCorpus(c.file);
    ASSERT_FALSE(ops.empty()) << c.file;
    EXPECT_EQ(CheckHistory(ops).Summary(), c.summary) << c.file;
    EXPECT_EQ(CheckHistory(ops, search_only).Summary(), c.search_only)
        << c.file;
  }
  // A corpus file added without a pinned summary fails here.
  std::set<std::string> on_disk;
  for (const auto& entry :
       std::filesystem::directory_iterator(LEED_CHECK_CORPUS_DIR)) {
    if (entry.path().extension() == ".history") {
      on_disk.insert(entry.path().filename().string());
    }
  }
  EXPECT_EQ(on_disk, pinned);
}

TEST(CheckCorpus, MinimizedSubHistoryStillFails) {
  auto ops = LoadCorpus("stale_read.history");
  CheckReport report = CheckHistory(ops);
  ASSERT_EQ(report.verdict, Verdict::kViolation);
  ASSERT_FALSE(report.violations.empty());
  const auto& sub = report.violations[0].sub_history;
  ASSERT_FALSE(sub.empty());
  EXPECT_LE(sub.size(), ops.size());
  // The minimized sub-history must round-trip through the dump format and
  // still be convicted on its own.
  auto reparsed = HistoryLog::Parse(FormatDump(sub, 0));
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(CheckHistory(reparsed.value()).verdict, Verdict::kViolation);
}

// ---------------------------------------------------------------------------
// HistoryLog mechanics
// ---------------------------------------------------------------------------

TEST(HistoryLog, RecordsAndRoundTrips) {
  HistoryLog log(/*max_ops=*/16);
  uint64_t a =
      log.RecordInvoke(0, OpKind::kPut, "key with space", 0xabcd, 8, 100);
  uint64_t b = log.RecordInvoke(1, OpKind::kGet, "key with space", 0, 0, 150);
  ASSERT_NE(a, 0u);
  ASSERT_NE(b, 0u);
  log.RecordResponse(a, 200, Outcome::kOk, 0xabcd, 8);
  // b stays open (no response) on purpose.
  std::string dump = log.Dump();
  auto parsed = HistoryLog::Parse(dump);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed.value().size(), 2u);
  EXPECT_EQ(parsed.value()[0].key, "key with space");
  EXPECT_EQ(parsed.value()[0].value_digest, 0xabcdu);
  EXPECT_EQ(parsed.value()[0].outcome, Outcome::kOk);
  EXPECT_EQ(parsed.value()[1].outcome, Outcome::kOpen);
  EXPECT_EQ(parsed.value()[1].response, kNoResponse);
  // Byte-stable: re-dumping the parsed ops reproduces the text.
  EXPECT_EQ(FormatDump(parsed.value(), 0), dump);
}

TEST(HistoryLog, BoundedCaptureCountsDrops) {
  HistoryLog log(/*max_ops=*/2);
  EXPECT_NE(log.RecordInvoke(0, OpKind::kPut, "a", 1, 1, 1), 0u);
  EXPECT_NE(log.RecordInvoke(0, OpKind::kPut, "b", 2, 1, 2), 0u);
  EXPECT_EQ(log.RecordInvoke(0, OpKind::kPut, "c", 3, 1, 3), 0u);
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_TRUE(log.truncated());
  // Responses for dropped ops (id 0) are ignored without crashing.
  log.RecordResponse(0, 4, Outcome::kOk, 0, 0);
}

// ---------------------------------------------------------------------------
// Availability extraction
// ---------------------------------------------------------------------------

namespace {
HistoryOp Probe(uint64_t id, SimTime invoke, SimTime response, Outcome out) {
  HistoryOp op;
  op.id = id;
  op.client = 0;
  op.kind = OpKind::kGet;
  op.key = "p";
  op.invoke = invoke;
  op.response = response;
  op.outcome = out;
  return op;
}
}  // namespace

TEST(Availability, CountsProbesInsideWindowOnly) {
  std::vector<HistoryOp> ops = {
      Probe(1, 5, 8, Outcome::kOk),        // before window: excluded
      Probe(2, 10, 15, Outcome::kOk),      // window_start is inclusive
      Probe(3, 20, 25, Outcome::kNotFound),  // determinate success
      Probe(4, 30, 35, Outcome::kError),
      Probe(5, 40, kNoResponse, Outcome::kOpen),
      Probe(6, 100, 105, Outcome::kOk),    // at window_end: excluded
  };
  auto r = ExtractAvailability(ops, /*window_start=*/10, /*window_end=*/100);
  EXPECT_EQ(r.probes, 4u);
  EXPECT_EQ(r.ok, 2u);
  EXPECT_EQ(r.errors, 1u);
  EXPECT_EQ(r.open, 1u);
  EXPECT_DOUBLE_EQ(r.availability, 2.0 / 3.0);
}

TEST(Availability, NoErrorsMeansZeroRecoveryAndFullAvailability) {
  std::vector<HistoryOp> ops = {
      Probe(1, 10, 20, Outcome::kOk),
      Probe(2, 30, 40, Outcome::kOk),
  };
  auto r = ExtractAvailability(ops, 0, 100);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  EXPECT_EQ(r.recovery, 0);  // nothing to recover from
  EXPECT_TRUE(r.Recovered());
  EXPECT_EQ(r.first_error, -1);
  // Outage spans the gaps at the window edges: [0,20) has no OK response.
  EXPECT_EQ(r.max_outage, 60);  // 40 -> 100 (tail gap is the longest)
}

TEST(Availability, RecoveryIsFirstErrorToFirstOkAfterLastError) {
  std::vector<HistoryOp> ops = {
      Probe(1, 0, 10, Outcome::kOk),
      Probe(2, 15, 20, Outcome::kError),   // outage opens
      Probe(3, 25, 30, Outcome::kError),   // still down
      Probe(4, 35, 50, Outcome::kOk),      // first success after last error
      Probe(5, 55, 60, Outcome::kOk),
  };
  auto r = ExtractAvailability(ops, 0, 100);
  EXPECT_EQ(r.first_error, 20);
  EXPECT_EQ(r.last_error, 30);
  EXPECT_EQ(r.recovery, 30);  // 20 -> 50
  EXPECT_TRUE(r.Recovered());
  EXPECT_EQ(r.max_outage, 40);  // OK at 10 -> OK at 50
}

TEST(Availability, NeverRecoveredIsNegativeAndOutageRunsToWindowEnd) {
  std::vector<HistoryOp> ops = {
      Probe(1, 0, 10, Outcome::kOk),
      Probe(2, 15, 20, Outcome::kError),
      Probe(3, 25, kNoResponse, Outcome::kOpen),
  };
  auto r = ExtractAvailability(ops, 0, 100);
  EXPECT_EQ(r.recovery, -1);
  EXPECT_FALSE(r.Recovered());
  EXPECT_EQ(r.max_outage, 90);  // last OK at 10 -> window end
  EXPECT_DOUBLE_EQ(r.availability, 0.5);
}

TEST(Availability, EmptyWindowIsVacuouslyAvailable) {
  std::vector<HistoryOp> ops;
  auto r = ExtractAvailability(ops, 0, 100);
  EXPECT_EQ(r.probes, 0u);
  EXPECT_DOUBLE_EQ(r.availability, 1.0);
  EXPECT_EQ(r.max_outage, 100);  // zero OK responses: the whole window
}

// ---------------------------------------------------------------------------
// Checker mechanics
// ---------------------------------------------------------------------------

// A same-key history where every op overlaps every other: worst case for
// the search, used to prove the step budget bites instead of hanging.
std::vector<HistoryOp> DenseConcurrentHistory(int writers) {
  std::vector<HistoryOp> ops;
  for (int i = 0; i < writers; ++i) {
    HistoryOp op;
    op.id = ops.size() + 1;
    op.client = static_cast<uint32_t>(i);
    op.kind = OpKind::kPut;
    op.key = "hot";
    op.value_digest = 0x100 + static_cast<uint64_t>(i);
    op.value_size = 8;
    op.invoke = 10;
    op.response = 1000;
    op.outcome = Outcome::kOk;
    ops.push_back(op);
  }
  HistoryOp read;
  read.id = ops.size() + 1;
  read.client = 99;
  read.kind = OpKind::kGet;
  read.key = "hot";
  read.value_digest = 0x100;
  read.value_size = 8;
  read.invoke = 20;
  read.response = 990;
  read.outcome = Outcome::kOk;
  ops.push_back(read);
  return ops;
}

TEST(Checker, StepBudgetReportsInconclusive) {
  auto ops = DenseConcurrentHistory(12);
  CheckOptions opt;
  opt.step_budget = 1;  // starved on purpose
  opt.read_semantics = false;
  opt.minimize_budget = 0;
  CheckReport report = CheckHistory(ops, opt);
  EXPECT_EQ(report.verdict, Verdict::kInconclusive) << report.Summary();
  EXPECT_GE(report.inconclusive_keys, 1u);
  // With a real budget the same history resolves.
  opt.step_budget = 4'000'000;
  EXPECT_EQ(CheckHistory(ops, opt).verdict, Verdict::kLinearizable);
}

// Seven PUTs on distinct keys, then one OK scan observing all of them:
// a 7-key scan cluster.
std::vector<HistoryOp> WideScanHistory() {
  std::vector<HistoryOp> ops;
  HistoryOp scan;
  scan.client = 9;
  scan.kind = OpKind::kScan;
  scan.key = "c0";
  scan.value_size = 7;
  scan.invoke = 100;
  scan.response = 110;
  scan.outcome = Outcome::kOk;
  for (int i = 0; i < 7; ++i) {
    HistoryOp put;
    put.id = ops.size() + 1;
    put.client = static_cast<uint32_t>(i);
    put.kind = OpKind::kPut;
    put.key = "c" + std::to_string(i);
    put.value_digest = 0x700 + static_cast<uint64_t>(i);
    put.value_size = 8;
    put.invoke = 10 + i;
    put.response = 20 + i;
    put.outcome = Outcome::kOk;
    ops.push_back(put);
    scan.scan_obs.push_back({put.key, put.value_digest});
  }
  scan.id = ops.size() + 1;
  ops.push_back(scan);
  return ops;
}

TEST(Checker, WideScanClusterIsSearchedExactly) {
  CheckOptions search_only;
  search_only.read_semantics = false;

  // 7 per-key searches plus one over the whole cluster.
  auto ops = WideScanHistory();
  for (const CheckOptions& opt : {CheckOptions{}, search_only}) {
    CheckReport report = CheckHistory(ops, opt);
    EXPECT_EQ(report.Summary(), "linearizable: 7 keys, 22 steps");
  }

  // Overwrite c3 before the scan: its observation is stale. The cheap
  // passes convict it at once; with them off, the per-key search and the
  // 7-key cluster search each convict it.
  HistoryOp put;
  put.id = ops.size() + 1;
  put.client = 3;
  put.kind = OpKind::kPut;
  put.key = "c3";
  put.value_digest = 0x7ff;
  put.value_size = 8;
  put.invoke = 50;
  put.response = 60;
  put.outcome = Outcome::kOk;
  ops.push_back(put);
  CheckReport report = CheckHistory(ops);
  EXPECT_EQ(report.verdict, Verdict::kViolation) << report.Summary();
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations[0].key, "c3");

  report = CheckHistory(ops, search_only);
  EXPECT_EQ(report.verdict, Verdict::kViolation) << report.Summary();
  ASSERT_EQ(report.violations.size(), 2u) << report.Summary();
  EXPECT_EQ(report.violations[0].kind, "linearizability");
  EXPECT_EQ(report.violations[0].key, "c3");
  EXPECT_EQ(report.violations[1].kind, "scan-linearizability");
  EXPECT_NE(report.violations[1].detail.find("7-key scan cluster"),
            std::string::npos)
      << report.violations[1].detail;
}

TEST(Checker, PerKeyCompositionality) {
  // A violation on one key must not implicate the other keys.
  auto bad = LoadCorpus("stale_read.history");
  auto good = LoadCorpus("linearizable.history");
  std::vector<HistoryOp> merged;
  for (auto& op : good) {
    op.key = "other-" + op.key;  // keep keyspaces disjoint
    op.id = merged.size() + 1;
    merged.push_back(op);
  }
  for (auto& op : bad) {
    op.id = merged.size() + 1;
    merged.push_back(op);
  }
  CheckReport report = CheckHistory(merged);
  EXPECT_EQ(report.verdict, Verdict::kViolation);
  ASSERT_FALSE(report.violations.empty());
  for (const auto& v : report.violations) EXPECT_EQ(v.key, "k0");
  EXPECT_GE(report.keys_checked, 3u);
}

// ---------------------------------------------------------------------------
// Nemesis sweep end-to-end
// ---------------------------------------------------------------------------

NemesisOptions SmokeOptions() {
  NemesisOptions opt;
  opt.base_seed = 0x1eed;
  opt.seeds = 2;
  opt.plan = "none";
  opt.ops_per_client = 120;
  return opt;
}

TEST(NemesisSweep, CleanPipelineIsLinearizable) {
  NemesisResult result = RunNemesisSweep(SmokeOptions());
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_TRUE(result.AllLinearizable())
      << result.violating_seeds << " violating, " << result.inconclusive_seeds
      << " inconclusive";
  for (const auto& s : result.seeds) EXPECT_GT(s.completed, 0u);
}

TEST(NemesisSweep, MutationSmokeDirtyReadsAreFlagged) {
  // The end-to-end self-test of the whole pipeline: disabling CRRS
  // dirty-bit handling (mid-chain replicas answer reads from their last
  // applied version while a write is in flight) must surface as a
  // linearizability violation. If this test fails, the checker could not
  // see a real consistency bug and the CI gate is vacuous.
  NemesisOptions opt = SmokeOptions();
  opt.seeds = 4;
  opt.unsafe_dirty_reads = true;
  NemesisResult result = RunNemesisSweep(opt);
  EXPECT_GT(result.violating_seeds, 0u);
  bool saw_violation_detail = false;
  for (const auto& s : result.seeds) {
    for (const auto& v : s.violations) {
      EXPECT_FALSE(v.key.empty());
      EXPECT_FALSE(v.sub_history.empty());
      saw_violation_detail = true;
    }
  }
  EXPECT_TRUE(saw_violation_detail);
}

TEST(NemesisSweep, ScanMixCleanPipelineIsLinearizable) {
  NemesisOptions opt = SmokeOptions();
  opt.scan_permille = 400;
  opt.scan_limit = 6;
  NemesisResult result = RunNemesisSweep(opt);
  EXPECT_TRUE(result.AllLinearizable())
      << result.violating_seeds << " violating, " << result.inconclusive_seeds
      << " inconclusive";
}

TEST(NemesisSweep, MutationSmokeTornScansAreFlagged) {
  // Same self-test pattern as dirty reads, for the scan path: serving
  // scans without dirty-window parking (test_only_serve_torn_scans) must
  // surface as a linearizability violation under a scan-heavy mix.
  NemesisOptions opt = SmokeOptions();
  opt.seeds = 4;
  opt.scan_permille = 400;
  opt.scan_limit = 6;
  opt.unsafe_torn_scans = true;
  NemesisResult result = RunNemesisSweep(opt);
  EXPECT_GT(result.violating_seeds, 0u);
}

TEST(NemesisSweep, HistoryDumpIsDeterministic) {
  NemesisOptions opt = SmokeOptions();
  opt.seeds = 1;
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  const std::string p1 = ::testing::TempDir() + "/nemesis_run1.history";
  const std::string p2 = ::testing::TempDir() + "/nemesis_run2.history";
  opt.history_out = p1;
  RunNemesisSweep(opt);
  opt.history_out = p2;
  RunNemesisSweep(opt);
  const std::string d1 = read_file(p1);
  const std::string d2 = read_file(p2);
  ASSERT_FALSE(d1.empty());
  EXPECT_EQ(d1, d2) << "same (seed, plan) must produce a byte-identical dump";
}

TEST(NemesisSweep, SameKindViolationsOnOneKeyDumpToDistinctFiles) {
  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  };
  auto put = [](uint64_t id, uint64_t digest) {
    HistoryOp op;
    op.id = id;
    op.kind = OpKind::kPut;
    op.key = "nk5";
    op.value_digest = digest;
    op.value_size = 8;
    op.invoke = 10;
    op.response = 20;
    op.outcome = Outcome::kOk;
    return op;
  };
  Violation first;
  first.key = "nk5";
  first.kind = "stale-read";
  first.sub_history = {put(1, 0xa)};
  Violation second = first;
  second.sub_history = {put(2, 0xb)};
  Violation other = first;
  other.kind = "linearizability";
  const std::string stem = ::testing::TempDir() + "/dumps-seed1-partition";
  const std::vector<std::string> paths =
      WriteViolationDumps(stem, {first, second, other, second});
  ASSERT_EQ(paths.size(), 4u);
  EXPECT_EQ(paths[0], stem + "-nk5-stale_read.history");
  EXPECT_EQ(paths[1], stem + "-nk5-stale_read-2.history");
  EXPECT_EQ(paths[2], stem + "-nk5-linearizability.history");
  EXPECT_EQ(paths[3], stem + "-nk5-stale_read-3.history");
  EXPECT_EQ(read_file(paths[0]), FormatDump(first.sub_history, 0));
  EXPECT_EQ(read_file(paths[1]), FormatDump(second.sub_history, 0));
}

TEST(NemesisSweep, PlanSpecsResolve) {
  for (const auto& name : NamedNemesisPlans()) {
    auto plan = ResolveNemesisPlan(name);
    ASSERT_TRUE(plan.ok()) << name;
    EXPECT_EQ(plan.value().name, name);
  }
  EXPECT_TRUE(ResolveNemesisPlan("net:delay_p=0.5,delay_us=100").ok());
  EXPECT_FALSE(ResolveNemesisPlan("bogus:nonsense").ok());
}

}  // namespace
}  // namespace leed::check
