// Host CPU sampler, loaded with LD_PRELOAD into the process to profile.
//
// A setitimer(ITIMER_PROF) timer asks for SIGPROF once per millisecond of
// process CPU time (the kernel may deliver it at its coarser tick; the
// output records the CPU time covered); the handler records the
// interrupted program counter and the call stack from backtrace().
// backtrace() unwinds through the .eh_frame tables, so frames inside libc
// (malloc, free, memcpy) are seen together with their callers, which
// gprof's instrumentation cannot do.
// Samples go to a preallocated buffer; at exit the buffer and the
// process's /proc/self/maps are written to hostprof.<pid>.txt in the
// working directory, for tools/hostprof/fold.py to symbolize and fold.
//
//   g++ -O2 -shared -fPIC -o libhostprof.so tools/hostprof/sampler.cc
//   LD_PRELOAD=$PWD/libhostprof.so ./leedbench --workload=mixed-open ...
//
// tools/hostprof/profile.sh wraps build, run and fold.

#include <execinfo.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>

namespace {

constexpr int kMaxFrames = 48;
constexpr size_t kMaxSamples = 1 << 17;  // ~2 min of CPU at 1 kHz
constexpr long kPeriodUs = 1000;

struct Sample {
  uint32_t depth;
  void* frames[kMaxFrames];  // frames[0]: the interrupted program counter
};

Sample* g_samples = nullptr;  // mmap'd, untouched pages stay unbacked
// Lock-free atomics are async-signal-safe, and SIGPROF may land on any
// thread of a multi-threaded process.
std::atomic<size_t> g_claimed{0};
std::atomic<size_t> g_dropped{0};

void OnProf(int, siginfo_t*, void* context) {
  const size_t slot = g_claimed.fetch_add(1, std::memory_order_relaxed);
  if (slot >= kMaxSamples) {
    g_dropped.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Sample& s = g_samples[slot];
  void* pc = reinterpret_cast<void*>(
      static_cast<ucontext_t*>(context)->uc_mcontext.gregs[REG_RIP]);
  void* stack[kMaxFrames + 4];
  const int n = backtrace(stack, kMaxFrames + 4);
  // The stack starts inside this handler and the signal trampoline; keep
  // what follows the interrupted frame, whose return address backtrace()
  // reports as `pc` itself.
  int first = 0;
  while (first < n && stack[first] != pc) ++first;
  first = first < n ? first + 1 : n < 2 ? n : 2;
  uint32_t depth = 0;
  s.frames[depth++] = pc;
  for (int i = first; i < n && depth < kMaxFrames; ++i) {
    s.frames[depth++] = stack[i];
  }
  s.depth = depth;
}

__attribute__((constructor)) void Start() {
  void* mem =
      mmap(nullptr, kMaxSamples * sizeof(Sample), PROT_READ | PROT_WRITE,
           MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return;
  g_samples = static_cast<Sample*>(mem);
  // backtrace() loads libgcc's unwinder on first use; do that here, not
  // inside the signal handler.
  void* prime[4];
  backtrace(prime, 4);
  struct sigaction sa = {};
  sa.sa_sigaction = OnProf;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);
  itimerval timer = {};
  timer.it_interval.tv_usec = kPeriodUs;
  timer.it_value.tv_usec = kPeriodUs;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void Finish() {
  if (g_samples == nullptr) return;
  itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  char path[64];
  std::snprintf(path, sizeof path, "hostprof.%d.txt",
                static_cast<int>(getpid()));
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  // The kernel may deliver the timer at a coarser tick than asked for:
  // record the CPU time the samples cover, so shares convert to seconds.
  rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  const double cpu_s =
      static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
      static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
          1e6;
  const size_t count = std::min(g_claimed.load(), kMaxSamples);
  std::fprintf(out,
               "# hostprof period_us=%ld samples=%zu dropped=%zu "
               "cpu_s=%.3f\n",
               kPeriodUs, count, g_dropped.load(), cpu_s);
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps)) std::fprintf(out, "M %s", line);
    std::fclose(maps);
  }
  for (size_t i = 0; i < count; ++i) {
    std::fputs("S", out);
    for (uint32_t f = 0; f < g_samples[i].depth; ++f) {
      std::fprintf(out, " %p", g_samples[i].frames[f]);
    }
    std::fputs("\n", out);
  }
  std::fclose(out);
}

}  // namespace
