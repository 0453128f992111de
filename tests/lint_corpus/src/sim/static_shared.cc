// lint_test fixture — unannotated-sim-shared: mutable static state in sim
// scope is shared by every concurrently-running seed of a parallel sweep;
// it must be const, or carry a justified allow(unannotated-sim-shared).
// Expected findings are asserted line-exactly by tests/lint_test.cc; KEEP
// LINE NUMBERS STABLE or update the golden table.

namespace fixture {

static long g_event_count = 0;        // line 9: fire — namespace static
static const int kTableSize = 128;    // ok: const
static constexpr double kRatio = 0.5; // ok: constexpr

long NextId() {
  static long counter = 0;  // line 14: fire — static local, process-wide
  return ++counter;
}

// leed-lint: allow(unannotated-sim-shared): fixture proves suppression
static long g_allowed = 0;

static long Helper() { return 1; }  // ok: function, not state

}  // namespace fixture
