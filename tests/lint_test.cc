// Golden-corpus tests for leed-lint (tools/lint/).
//
// The corpus under tests/lint_corpus/ is a miniature repo (its own src/ and
// tests/ subtrees) so path-scoped rules apply exactly as they do on the real
// tree. Every rule must both FIRE on a violation and be SUPPRESSED by a
// justified `leed-lint: allow(...)` annotation — a linter whose suppressions
// silently stop matching is worse than no linter. Finally, the real tree
// itself must lint clean; that is the same invariant the blocking CI job
// enforces, pinned here so `ctest` alone catches a regression.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "leed/cluster_sim.h"
#include "lint/lint.h"
#include "sim/platform.h"
#include "workload/ycsb.h"

#ifndef LEED_LINT_CORPUS_DIR
#error "build must define LEED_LINT_CORPUS_DIR"
#endif
#ifndef LEED_SOURCE_ROOT
#error "build must define LEED_SOURCE_ROOT"
#endif

namespace leed::lint {
namespace {

std::vector<Finding> CorpusFindings() {
  static const std::vector<Finding> kFindings =
      LintTree(LEED_LINT_CORPUS_DIR);
  return kFindings;
}

bool HasFindingAt(const std::vector<Finding>& findings,
                  const std::string& file, int line) {
  return std::ranges::any_of(findings, [&](const Finding& f) {
    return f.file == file && f.line == line;
  });
}

// ---------------------------------------------------------------------------
// Golden table — every expected (file, line, rule) triple, nothing more.
// ---------------------------------------------------------------------------

TEST(LintCorpusTest, MatchesGoldenTable) {
  struct Expected {
    const char* file;
    int line;
    const char* rule;
  };
  // LintTree sorts by (file, line, rule, message); keep this table in that
  // order so a mismatch points at the first divergence.
  const std::vector<Expected> kGolden = {
      {"src/common/count_bool.cc", 11, "count-in-bool-context"},
      {"src/common/count_bool.cc", 12, "count-in-bool-context"},
      {"src/common/count_bool.cc", 13, "count-in-bool-context"},
      {"src/common/count_bool.cc", 14, "count-in-bool-context"},
      {"src/common/no_pragma.h", 1, "pragma-once"},
      {"src/engine/allow_misuse.cc", 6, "unused-allow"},
      {"src/engine/allow_misuse.cc", 9, "allow-syntax"},
      {"src/engine/allow_misuse.cc", 12, "allow-syntax"},
      {"src/engine/allow_misuse.cc", 15, "allow-syntax"},
      {"src/log/banned_calls.cc", 9, "banned-func"},
      {"src/log/banned_calls.cc", 10, "banned-func"},
      {"src/log/banned_calls.cc", 11, "memcpy"},
      {"src/log/banned_calls.cc", 12, "memcpy"},
      {"src/obs/metric_names.cc", 15, "metric-name"},
      {"src/obs/metric_names.cc", 16, "metric-name"},
      {"src/obs/metric_names.cc", 17, "metric-name"},
      {"src/obs/metric_names.cc", 18, "metric-name"},
      {"src/sim/bad_clock.cc", 11, "determinism"},
      {"src/sim/bad_clock.cc", 13, "determinism"},
      {"src/sim/bad_clock.cc", 15, "determinism"},
      {"src/sim/bad_clock.cc", 16, "determinism"},
      {"src/sim/bad_clock.cc", 17, "determinism"},
      {"src/sim/static_shared.cc", 9, "unannotated-sim-shared"},
      {"src/sim/static_shared.cc", 14, "unannotated-sim-shared"},
      {"src/store/pointer_order.cc", 16, "pointer-order"},
      {"src/store/pointer_order.cc", 17, "pointer-order"},
      {"src/store/pointer_order.cc", 25, "pointer-order"},
      {"src/store/unordered_fixture.h", 18, "unordered-iter"},
      {"src/store/unordered_fixture.h", 28, "unordered-iter"},
  };

  const std::vector<Finding> findings = CorpusFindings();
  ASSERT_EQ(findings.size(), kGolden.size())
      << "corpus drifted:\n" << FormatFindings(findings);
  for (size_t i = 0; i < kGolden.size(); ++i) {
    EXPECT_EQ(findings[i].file, kGolden[i].file) << "at index " << i;
    EXPECT_EQ(findings[i].line, kGolden[i].line) << "at index " << i;
    EXPECT_EQ(findings[i].rule, kGolden[i].rule) << "at index " << i;
    EXPECT_FALSE(findings[i].message.empty()) << "at index " << i;
  }
}

// ---------------------------------------------------------------------------
// Every content rule both fires and is suppressed somewhere in the corpus.
// ---------------------------------------------------------------------------

TEST(LintCorpusTest, EveryContentRuleFires) {
  std::set<std::string> fired;
  for (const Finding& f : CorpusFindings()) fired.insert(f.rule);
  for (const char* rule :
       {"determinism", "unordered-iter", "pragma-once", "banned-func",
        "memcpy", "metric-name", "count-in-bool-context", "allow-syntax",
        "unused-allow", "unannotated-sim-shared", "pointer-order"}) {
    EXPECT_TRUE(fired.count(rule) != 0) << "rule never fired: " << rule;
  }
}

TEST(LintCorpusTest, JustifiedAllowsSuppress) {
  const std::vector<Finding> findings = CorpusFindings();
  // Each pair is a corpus line that violates a rule but carries (or follows)
  // a justified allow(...) annotation for it.
  EXPECT_FALSE(HasFindingAt(findings, "src/sim/bad_clock.cc", 22))
      << "determinism allow ignored";
  EXPECT_FALSE(HasFindingAt(findings, "src/store/unordered_fixture.h", 22))
      << "unordered-iter iteration allow ignored";
  EXPECT_FALSE(HasFindingAt(findings, "src/store/unordered_fixture.h", 30))
      << "unordered-iter declaration allow ignored";
  EXPECT_FALSE(HasFindingAt(findings, "src/log/banned_calls.cc", 20))
      << "memcpy allow ignored";
  EXPECT_FALSE(HasFindingAt(findings, "src/log/banned_calls.cc", 23))
      << "banned-func allow ignored";
  EXPECT_FALSE(HasFindingAt(findings, "src/obs/metric_names.cc", 20))
      << "metric-name allow ignored";
  EXPECT_FALSE(HasFindingAt(findings, "src/common/legacy_guard.h", 1))
      << "pragma-once allow ignored";
  EXPECT_FALSE(HasFindingAt(findings, "src/sim/static_shared.cc", 19))
      << "unannotated-sim-shared allow ignored";
  EXPECT_FALSE(HasFindingAt(findings, "src/store/pointer_order.cc", 22))
      << "pointer-order allow ignored";
  EXPECT_FALSE(HasFindingAt(findings, "src/common/count_bool.cc", 23))
      << "count-in-bool-context allow ignored";
}

TEST(LintCorpusTest, ScopedRulesStayInScope) {
  // tests/scope_check.cc uses rand() and an unordered_map: both are outside
  // the determinism scope (src/sim, src/leed, src/engine, src/replication)
  // and the unordered-iter scope (src/), so the file must be silent.
  for (const Finding& f : CorpusFindings()) {
    EXPECT_NE(f.file, "tests/scope_check.cc") << FormatFindings({f});
  }
}

TEST(LintCorpusTest, MemberCallsAndDeclarationsAreNotFlagged) {
  const std::vector<Finding> findings = CorpusFindings();
  // `long time() const` (declaration) and `c.time()` / `Clock().time()`
  // (member calls) must not trip the libc-call rules.
  EXPECT_FALSE(HasFindingAt(findings, "src/sim/bad_clock.cc", 25));
  EXPECT_FALSE(HasFindingAt(findings, "src/sim/bad_clock.cc", 29));
  EXPECT_FALSE(HasFindingAt(findings, "src/sim/bad_clock.cc", 30));
  // A member function named like a banned function, and a call to it.
  EXPECT_FALSE(HasFindingAt(findings, "src/log/banned_calls.cc", 26));
  EXPECT_FALSE(HasFindingAt(findings, "src/log/banned_calls.cc", 29));
}

// ---------------------------------------------------------------------------
// LintFile unit behavior (lexer + per-rule edge cases).
// ---------------------------------------------------------------------------

TEST(LintFileTest, CommentsAndStringsAreNotCode) {
  const std::string src =
      "// rand() in a comment\n"
      "/* std::time(nullptr) in a block */\n"
      "const char* s = \"rand() srand() time()\";\n";
  EXPECT_TRUE(LintFile("src/sim/x.cc", src).empty());
}

TEST(LintFileTest, RawStringsAreNotCode) {
  const std::string src =
      "const char* s = R\"(rand(); std::time(nullptr);)\";\n";
  EXPECT_TRUE(LintFile("src/sim/x.cc", src).empty());
}

TEST(LintFileTest, EncodingPrefixedRawStringsAreNotCode) {
  const std::string src =
      "const char* a = u8R\"(rand(); std::time(nullptr);)\";\n"
      "const wchar_t* b = LR\"(srand(1);)\";\n"
      "const char16_t* c = uR\"(std::random_device d;)\";\n";
  EXPECT_TRUE(LintFile("src/sim/x.cc", src).empty());
}

TEST(LintFileTest, IdentifierEndingInRIsNotARawStringPrefix) {
  // LOG_HDR"x(" must lex as identifier + ordinary string literal: keying
  // raw-string detection off the preceding 'R' alone enters raw-string
  // state, swallows the rest of the file hunting for a )x" terminator,
  // and hides the rand() on the next line.
  const std::string src =
      "puts(LOG_HDR\"x(\");\n"
      "long v = rand();\n";
  const std::vector<Finding> findings = LintFile("src/sim/x.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_EQ(findings[0].rule, "determinism");
}

TEST(LintFileTest, DigitSeparatorIsNotACharLiteral) {
  // A naive lexer treats 1'000'000 as opening a char literal and swallows
  // the rest of the line, hiding the rand() call.
  const std::string src = "long v = 1'000'000 + rand();\n";
  const std::vector<Finding> findings = LintFile("src/sim/x.cc", src);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "determinism");
}

TEST(LintFileTest, AllowOnTheSameLineSuppresses) {
  const std::string src =
      "long v = rand();  // leed-lint: allow(determinism): unit test\n";
  EXPECT_TRUE(LintFile("src/sim/x.cc", src).empty());
}

TEST(LintFileTest, AllowSkipsCommentOnlyContinuationLines) {
  const std::string src =
      "// leed-lint: allow(determinism): multi-line justification that\n"
      "// wraps onto a second comment line before the code\n"
      "long v = rand();\n";
  EXPECT_TRUE(LintFile("src/sim/x.cc", src).empty());
}

TEST(LintFileTest, DeterminismScopeIsPathBased) {
  const std::string src = "long v = rand();\n";
  EXPECT_FALSE(LintFile("src/engine/x.cc", src).empty());
  EXPECT_FALSE(LintFile("src/replication/x.cc", src).empty());
  EXPECT_FALSE(LintFile("src/leed/x.cc", src).empty());
  EXPECT_TRUE(LintFile("src/store/x.cc", src).empty());
  EXPECT_TRUE(LintFile("tools/x.cc", src).empty());
}

TEST(LintFileTest, MetricNamePrefixLiteralMayEndWithDot) {
  // "ssd." + std::to_string(i): the literal is a prefix, so the trailing
  // dot is fine; only a whole-argument literal must not end with '.'.
  const std::string ok =
      "r.GetCounter(\"ssd.\" + std::to_string(i) + \".read_us\");\n";
  EXPECT_TRUE(LintFile("src/obs/x.cc", ok).empty());
  const std::string bad = "r.GetCounter(\"ssd.\");\n";
  ASSERT_EQ(LintFile("src/obs/x.cc", bad).size(), 1u);
}

TEST(LintFileTest, FreeFunctionSubIsNotAMetricGetter) {
  // Only member calls (r.Sub / r->Sub) are metric-registry scopes; a free
  // function that happens to be named Sub takes arbitrary strings.
  const std::string src = "int x = Sub(\"Not A Metric\");\n";
  EXPECT_TRUE(LintFile("src/obs/x.cc", src).empty());
}

TEST(LintFileTest, CompanionHeaderFeedsTuModel) {
  // Pointer fields are declared in x.h; linting x.cc with the companion
  // header must know them — and without it, the same comparison is
  // invisible to pointer-order (declaration-driven, not name-guessing).
  const std::string header =
      "#pragma once\n"
      "struct C { Obj* a_; Obj* b_; bool Less() const; };\n";
  const std::string cc =
      "bool C::Less() const {\n"
      "  return a_ < b_;\n"
      "}\n";
  EXPECT_TRUE(LintFile("src/store/c.cc", cc).empty());
  const std::vector<Finding> findings =
      LintFile("src/store/c.cc", cc, &header);
  ASSERT_EQ(findings.size(), 1u) << FormatFindings(findings);
  EXPECT_EQ(findings[0].rule, "pointer-order");
  EXPECT_EQ(findings[0].line, 2);
}

TEST(LintFileTest, SharedAnnotationRequiresReason) {
  // Shared static state is reviewed with an allow that says why sharing
  // is safe; an allow with no reason suppresses nothing.
  const std::string bad =
      "// leed-lint: allow(unannotated-sim-shared):\n"
      "static long g_x = 0;\n";
  const std::vector<Finding> findings = LintFile("src/sim/x.cc", bad);
  ASSERT_EQ(findings.size(), 2u) << FormatFindings(findings);
  EXPECT_EQ(findings[0].rule, "allow-syntax");
  EXPECT_EQ(findings[1].rule, "unannotated-sim-shared");
  const std::string ok =
      "// leed-lint: allow(unannotated-sim-shared): set once before any "
      "seed starts\n"
      "static long g_x = 0;\n";
  EXPECT_TRUE(LintFile("src/sim/x.cc", ok).empty());
}

TEST(LintRulesTest, CatalogIsConsistent) {
  EXPECT_FALSE(Rules().empty());
  for (const RuleInfo& r : Rules()) {
    EXPECT_TRUE(IsKnownRule(r.name));
    EXPECT_NE(std::string(r.summary), "");
  }
  EXPECT_FALSE(IsKnownRule("bogus-rule"));
}

TEST(LintFormatTest, FormatFindingsShape) {
  const std::string text =
      FormatFindings({{"src/a.cc", 7, "memcpy", "raw memcpy"}});
  EXPECT_EQ(text, "src/a.cc:7: [memcpy] raw memcpy\n");
}

TEST(LintFormatTest, GitHubAnnotationShape) {
  const std::string text = FormatFindingsGitHub(
      {{"src/a.cc", 7, "memcpy", "use leed::CopyBytes, 100% of the time"}});
  EXPECT_EQ(text,
            "::error file=src/a.cc,line=7,title=leed-lint memcpy::"
            "[memcpy] use leed::CopyBytes, 100%25 of the time\n");
}

TEST(LintFormatTest, GitHubEscapesPropertyValues) {
  // ':' and ',' in property values would split the workflow command; they
  // must be %-escaped there but left readable in the message body.
  const std::string text =
      FormatFindingsGitHub({{"src/a,b:c.cc", 1, "r", "msg: with, marks"}});
  EXPECT_EQ(text,
            "::error file=src/a%2Cb%3Ac.cc,line=1,title=leed-lint r::"
            "[r] msg: with, marks\n");
}

TEST(LintTreeTest, FindingOrderIsDeterministic) {
  // The documented report contract: sorted by (path, line, rule, message).
  const std::vector<Finding> findings = CorpusFindings();
  for (size_t i = 1; i < findings.size(); ++i) {
    const Finding& a = findings[i - 1];
    const Finding& b = findings[i];
    EXPECT_LE(std::tie(a.file, a.line, a.rule, a.message),
              std::tie(b.file, b.line, b.rule, b.message))
        << "unsorted at index " << i;
  }
}

// ---------------------------------------------------------------------------
// The real tree lints clean — same invariant as the blocking CI job.
// ---------------------------------------------------------------------------

TEST(LintTreeTest, RepositoryIsClean) {
  size_t files_scanned = 0;
  const std::vector<Finding> findings =
      LintTree(LEED_SOURCE_ROOT, TreeOptions{}, &files_scanned);
  EXPECT_GT(files_scanned, 100u) << "tree walk found suspiciously few files";
  EXPECT_TRUE(findings.empty()) << FormatFindings(findings);
}

// ---------------------------------------------------------------------------
// The names a simulated cluster registers follow the metric-name rule. The
// rule sees only literals handed straight to the getters; stats-struct
// field tables and composed prefixes reach the registry past it.
// ---------------------------------------------------------------------------

// Every instrument name in a SnapshotJson(): one per line, at the
// four-space indent of the counters/gauges/histograms sections.
std::vector<std::string> SnapshotNames(const std::string& json) {
  std::vector<std::string> names;
  size_t line = 0;
  while (line < json.size()) {
    size_t end = json.find('\n', line);
    if (end == std::string::npos) end = json.size();
    if (json.compare(line, 5, "    \"") == 0) {
      const size_t close = json.find('"', line + 5);
      names.push_back(json.substr(line + 5, close - line - 5));
    }
    line = end + 1;
  }
  return names;
}

std::vector<std::string> RunAndSnapshot(ClusterConfig cfg) {
  cfg.num_nodes = 3;
  cfg.num_clients = 2;
  cfg.seed = 5;
  cfg.control_plane.replication_factor = 3;
  ClusterSim cluster(std::move(cfg));
  cluster.Bootstrap();
  cluster.Preload(200, 64);
  workload::YcsbConfig wc;
  wc.mix = workload::Mix::kA;
  wc.num_keys = 200;
  wc.value_size = 64;
  workload::YcsbGenerator generator(wc);
  ClusterSim::DriveOptions options;
  options.concurrency_per_client = 4;
  options.warmup = kMillisecond;
  options.duration = 5 * kMillisecond;
  const RunResult result = cluster.Run(generator, options);
  EXPECT_GT(result.completed, 0u);
  return SnapshotNames(cluster.registry().SnapshotJson());
}

void ExpectRuleNames(const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    EXPECT_TRUE(ValidMetricName(name)) << name;
  }
  // Every layer's table reached the registry.
  for (const char* name : {"cluster.store_failures", "client0.backoff_us",
                           "client1.sched.sent_with_tokens", "net.msgs_sent",
                           "node2.client_requests"}) {
    EXPECT_TRUE(std::ranges::find(names, name) != names.end()) << name;
  }
}

TEST(MetricNameTest, LeedClusterSnapshotFollowsTheRule) {
  ClusterConfig cfg;
  cfg.node.platform = sim::StingrayJbof();
  cfg.node.stack = StackKind::kLeed;
  cfg.node.engine.ssd_count = 2;
  cfg.node.engine.stores_per_ssd = 2;
  cfg.node.engine.ssd = sim::Dct983Spec();
  cfg.node.engine.ssd.capacity_bytes = 1ull << 30;
  cfg.node.engine.store_template.num_segments = 512;
  cfg.node.engine.store_template.bucket_size = 512;
  cfg.client.stores_per_ssd = 2;
  const std::vector<std::string> names = RunAndSnapshot(std::move(cfg));
  ExpectRuleNames(names);
  for (const char* name : {"node0.engine.offload.fast_hits", "node0.engine.queue_us",
                           "node1.engine.ssd1.read_ops", "node1.engine.store3.ssd_writes",
                           "node2.repl.obligation_retries"}) {
    EXPECT_TRUE(std::ranges::find(names, name) != names.end()) << name;
  }
}

TEST(MetricNameTest, KvellClusterSnapshotFollowsTheRule) {
  ClusterConfig cfg;
  cfg.node.platform = sim::ServerJbof();
  cfg.node.stack = StackKind::kKvell;
  cfg.node.crrs = false;
  cfg.node.baseline.kind = baselines::BaselineKind::kKvell;
  cfg.node.baseline.ssd_count = 2;
  cfg.node.baseline.stores_per_ssd = 2;
  cfg.node.baseline.ssd = sim::Dct983Spec();
  cfg.node.baseline.ssd.capacity_bytes = 1ull << 30;
  cfg.client.crrs_reads = false;
  cfg.client.stores_per_ssd = 2;
  ExpectRuleNames(RunAndSnapshot(std::move(cfg)));
}

}  // namespace
}  // namespace leed::lint
