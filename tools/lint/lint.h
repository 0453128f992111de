// leed-lint — repo-native static analysis for the LEED tree.
//
// A deliberately small token/regex-level linter (no libclang dependency —
// the container toolchain is plain gcc) that enforces invariants clang-tidy
// cannot know about because they are *this repo's* rules:
//
//   determinism    no wall-clock / libc randomness inside the simulation
//                  core (src/sim, src/leed, src/engine, src/replication);
//                  everything must flow from sim time and leed::Rng so a
//                  seed replays bit-exactly.
//   unordered-iter std::unordered_map/set declarations (and range-for
//                  iteration over them) in src/ must either use sorted
//                  containers or carry a justified allow annotation —
//                  unordered iteration order leaks into snapshots, traces
//                  and wire messages and breaks the replay gate.
//   pragma-once    every header starts with #pragma once.
//   banned-func    strcpy/strcat/sprintf/vsprintf/gets are banned.
//   memcpy         raw memcpy/memset calls are banned in favor of
//                  leed::CopyBytes / leed::FillBytes (common/bytes.h),
//                  which guard the n == 0 null-pointer UB.
//   metric-name    string literals passed to GetCounter/GetGauge/
//                  GetHistogram/Sub must be lowercase dot-scoped
//                  ([a-z0-9_] segments, no spaces).
//   unannotated-sim-shared
//                  mutable static state in sim-scope paths (determinism
//                  scope + src/cluster + src/check) is shared by every
//                  parallel seed; it must be const or carry a justified
//                  allow annotation.
//   pointer-order  ordered containers keyed by raw pointers and explicit
//                  pointer `<` comparisons order by allocation address,
//                  which differs run to run and breaks replay.
//   allow-syntax   a leed-lint annotation must name a known rule and give
//                  a non-empty justification.
//   unused-allow   an annotation that suppresses nothing is rot and is
//                  itself a finding.
//   unreadable-file a discovered source file the tree walk cannot open is
//                  reported as a finding — never silently skipped as clean.
//
// Suppression: `// leed-lint: allow(<rule>): <justification>` on the same
// line as the violation or the line directly above it.
//
// The library half is consumed by tests/lint_test.cc (golden corpus under
// tests/lint_corpus/ proves every rule can both fire and be suppressed,
// plus a tree-is-clean test); the binary half (leed-lint) is the blocking
// CI job and the `lint` convenience target.

#pragma once

#include <string>
#include <vector>

namespace leed::lint {

struct Finding {
  std::string file;  // path as passed in / relative to the walked root
  int line = 0;      // 1-based
  std::string rule;
  std::string message;
};

struct RuleInfo {
  const char* name;
  const char* summary;
};

// The rule catalog, in reporting order.
const std::vector<RuleInfo>& Rules();
bool IsKnownRule(const std::string& name);

// Lint a single file. `path` decides rule applicability (determinism scope
// is path-prefix based), so callers must pass repo-relative paths like
// "src/sim/simulator.h". The pointer-order rule reasons over a per-TU
// declaration table (which names are raw pointers); `companion_header`,
// when non-null, is the contents of the sibling .h whose declarations join
// that table — LintTree wires it automatically so node.cc sees the pointer
// fields declared in node.h.
std::vector<Finding> LintFile(const std::string& path,
                              const std::string& contents,
                              const std::string* companion_header = nullptr);

struct TreeOptions {
  // Directories walked under the root.
  std::vector<std::string> subdirs = {"src", "tests", "bench", "tools"};
};

// Walk root/{src,tests,bench,tools} and lint every *.h / *.cc / *.cpp,
// in sorted path order (the linter's own output must be deterministic).
// Paths containing "lint_corpus" are skipped so the violation fixtures
// never fail a tree run. Returns findings with root-relative paths;
// `files_scanned`, when non-null, receives the file count.
std::vector<Finding> LintTree(const std::string& root,
                              const TreeOptions& options = {},
                              size_t* files_scanned = nullptr);

// The metric-name rule's check of one whole instrument name: [a-z0-9_]
// segments joined by single dots. The rule sees only literals passed to
// the getters; tests apply this to the names a registry actually holds.
bool ValidMetricName(const std::string& name);

// "path:line: [rule] message\n" per finding.
std::string FormatFindings(const std::vector<Finding>& findings);

// GitHub Actions workflow-command form, one annotation per finding:
// "::error file=<path>,line=<n>,title=leed-lint <rule>::[rule] message".
// CI uses this (`leed-lint --format=github`) so findings surface inline on
// the PR diff; messages are %-escaped per the workflow-command rules.
std::string FormatFindingsGitHub(const std::vector<Finding>& findings);

}  // namespace leed::lint
