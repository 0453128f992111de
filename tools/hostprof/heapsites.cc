// Live-heap census by allocation site, loaded with LD_PRELOAD into the
// process to profile: the memory counterpart of sampler.cc.
//
// It wraps malloc, calloc, realloc and free, and operator new and delete
// too, so that a C++ allocation's frame chain runs through a frame of its
// own rather than through libstdc++'s, which keeps no frame pointer. One
// allocation in 8, drawn at random, is sampled: its call stack is taken by
// walking frame pointers (build the program with -fno-omit-frame-pointer,
// as profile.sh does), and its bytes count as live for that stack until the
// block is freed. Each time the sampled live bytes pass the last snapshot
// by 1%, the per-stack table is copied, so the copy left at exit is the
// table at the sampled live-bytes peak (to within 1%): the moment a peak
// RSS figure measures.
// At exit the copy, scaled by 8, and the process's /proc/self/maps are
// written to heapsites.<pid>.txt in the working directory, one
// `H <bytes> <return addresses...>` line per stack, for
// tools/hostprof/fold.py to symbolize and fold by site.
//
//   g++ -O2 -fno-omit-frame-pointer -shared -fPIC -o libheapsites.so tools/hostprof/heapsites.cc
//   LD_PRELOAD=$PWD/libheapsites.so ./leedbench --workload=mixed-open ...
//
// tools/hostprof/profile.sh --heap wraps build, run and fold.

#include <pthread.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <new>

extern "C" {
void* __libc_malloc(size_t size);
void* __libc_calloc(size_t count, size_t size);
void* __libc_realloc(void* ptr, size_t size);
void __libc_free(void* ptr);
}

namespace {

constexpr uint64_t kSampleEvery = 8;
constexpr uint32_t kMaxFrames = 32;
constexpr uint32_t kMaxStacks = 1 << 16;
constexpr uint32_t kNoStack = ~uint32_t{0};
constexpr size_t kBlockSlots = size_t{1} << 21;  // filled to 3/4 at most

struct Stack {
  uint32_t depth;
  uintptr_t frames[kMaxFrames];
};

struct Block {
  uintptr_t ptr;  // 0: empty slot
  uint32_t stack;
  uint32_t size;
};

// Tables live in mmap'd memory, so the census allocates nothing from the
// heap it measures; untouched pages stay unbacked.
Stack* g_stacks = nullptr;
uint32_t g_stack_count = 0;
uint32_t* g_stack_slots = nullptr;  // 2 * kMaxStacks; stack id + 1, 0: empty
int64_t* g_live = nullptr;          // sampled live bytes per stack
int64_t* g_at_peak = nullptr;       // g_live when last copied
Block* g_blocks = nullptr;
size_t g_block_count = 0;
int64_t g_live_total = 0;
int64_t g_peak_total = 0;  // g_live_total when last copied
uint64_t g_dropped = 0;    // sampled allocations the tables had no room for
std::atomic_flag g_lock = ATOMIC_FLAG_INIT;
std::atomic<bool> g_ready{false};

// Set while this thread is inside the census: allocations made meanwhile
// (pthread_getattr_np's, the output's) are neither sampled nor looked up.
// Initial-exec TLS: the general model may allocate on first access.
#define HEAPSITES_TLS thread_local __attribute__((tls_model("initial-exec")))
HEAPSITES_TLS bool t_busy = false;
HEAPSITES_TLS uint64_t t_rng = 0;
HEAPSITES_TLS uintptr_t t_stack_lo = 0;
HEAPSITES_TLS uintptr_t t_stack_hi = 0;

class Guard {
 public:
  Guard() {
    while (g_lock.test_and_set(std::memory_order_acquire)) {
    }
  }
  ~Guard() { g_lock.clear(std::memory_order_release); }
};

bool Sampled() {
  if (t_rng == 0) t_rng = reinterpret_cast<uintptr_t>(&t_rng) | 1;
  t_rng ^= t_rng << 13;
  t_rng ^= t_rng >> 7;
  t_rng ^= t_rng << 17;
  return t_rng % kSampleEvery == 0;
}

// Return addresses up the frame-pointer chain, bounded by this thread's
// stack so that a frame without a frame pointer ends the walk, not the
// process.
__attribute__((noinline)) uint32_t Walk(uintptr_t* out) {
  if (t_stack_hi == 0) {
    pthread_attr_t attr;
    void* lo = nullptr;
    size_t size = 0;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) return 0;
    pthread_attr_getstack(&attr, &lo, &size);
    pthread_attr_destroy(&attr);
    t_stack_lo = reinterpret_cast<uintptr_t>(lo);
    t_stack_hi = t_stack_lo + size;
  }
  auto* fp = static_cast<uintptr_t*>(__builtin_frame_address(0));
  uint32_t depth = 0;
  while (depth < kMaxFrames) {
    const auto at = reinterpret_cast<uintptr_t>(fp);
    if (at < t_stack_lo || at + 2 * sizeof(uintptr_t) > t_stack_hi || at % 8 != 0) break;
    if (fp[1] == 0) break;
    out[depth++] = fp[1];
    auto* next = reinterpret_cast<uintptr_t*>(fp[0]);
    if (next <= fp) break;
    fp = next;
  }
  return depth;
}

uint64_t Mix(uint64_t x) { return (x ^ (x >> 29)) * 0x9e3779b97f4a7c15ull; }

uint32_t Intern(const uintptr_t* frames, uint32_t depth) {
  uint64_t h = depth;
  for (uint32_t i = 0; i < depth; ++i) h = Mix(h + frames[i]);
  const uint32_t mask = 2 * kMaxStacks - 1;
  for (uint32_t i = static_cast<uint32_t>(h) & mask;; i = (i + 1) & mask) {
    if (g_stack_slots[i] == 0) {
      if (g_stack_count == kMaxStacks) return kNoStack;
      Stack& s = g_stacks[g_stack_count];
      s.depth = depth;
      std::copy_n(frames, depth, s.frames);
      g_stack_slots[i] = ++g_stack_count;
      return g_stack_count - 1;
    }
    const Stack& s = g_stacks[g_stack_slots[i] - 1];
    if (s.depth == depth && std::equal(frames, frames + depth, s.frames)) {
      return g_stack_slots[i] - 1;
    }
  }
}

size_t Home(uintptr_t ptr) {
  return static_cast<size_t>(Mix(ptr >> 4) >> 42) & (kBlockSlots - 1);
}

void Track(void* ptr, size_t size) {
  if (ptr == nullptr || t_busy || !g_ready.load(std::memory_order_relaxed) || !Sampled()) {
    return;
  }
  t_busy = true;
  uintptr_t frames[kMaxFrames];
  const uint32_t depth = Walk(frames);
  {
    Guard guard;
    const uint32_t stack = Intern(frames, depth);
    if (stack == kNoStack || 4 * (g_block_count + 1) > 3 * kBlockSlots) {
      ++g_dropped;
    } else {
      size_t i = Home(reinterpret_cast<uintptr_t>(ptr));
      while (g_blocks[i].ptr != 0) i = (i + 1) & (kBlockSlots - 1);
      const auto bytes = static_cast<uint32_t>(std::min<size_t>(size, UINT32_MAX));
      g_blocks[i] = Block{reinterpret_cast<uintptr_t>(ptr), stack, bytes};
      ++g_block_count;
      g_live[stack] += bytes;
      g_live_total += bytes;
      if (g_live_total > g_peak_total + g_peak_total / 100) {
        std::copy_n(g_live, g_stack_count, g_at_peak);
        g_peak_total = g_live_total;
      }
    }
  }
  t_busy = false;
}

void Untrack(void* ptr) {
  if (ptr == nullptr || t_busy || !g_ready.load(std::memory_order_relaxed)) return;
  const auto key = reinterpret_cast<uintptr_t>(ptr);
  const size_t mask = kBlockSlots - 1;
  Guard guard;
  size_t i = Home(key);
  while (g_blocks[i].ptr != key) {
    if (g_blocks[i].ptr == 0) return;  // not sampled
    i = (i + 1) & mask;
  }
  g_live[g_blocks[i].stack] -= g_blocks[i].size;
  g_live_total -= g_blocks[i].size;
  --g_block_count;
  // Backward-shift deletion: no tombstones, probes stay short.
  for (size_t j = (i + 1) & mask; g_blocks[j].ptr != 0; j = (j + 1) & mask) {
    const size_t home = Home(g_blocks[j].ptr);
    if (((j - home) & mask) >= ((j - i) & mask)) {
      g_blocks[i] = g_blocks[j];
      i = j;
    }
  }
  g_blocks[i] = Block{};
}

template <typename T>
T* Map(size_t count) {
  void* mem = mmap(nullptr, count * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  return mem == MAP_FAILED ? nullptr : static_cast<T*>(mem);
}

__attribute__((constructor)) void Start() {
  g_stacks = Map<Stack>(kMaxStacks);
  g_stack_slots = Map<uint32_t>(2 * kMaxStacks);
  g_live = Map<int64_t>(kMaxStacks);
  g_at_peak = Map<int64_t>(kMaxStacks);
  g_blocks = Map<Block>(kBlockSlots);
  g_ready = g_stacks && g_stack_slots && g_live && g_at_peak && g_blocks;
}

__attribute__((destructor)) void Finish() {
  if (!g_ready) return;
  t_busy = true;
  char path[64];
  std::snprintf(path, sizeof path, "heapsites.%d.txt", static_cast<int>(getpid()));
  FILE* out = std::fopen(path, "w");
  if (out == nullptr) return;
  Guard guard;
  std::fprintf(out,
               "# heapsites sample_every=%llu peak_bytes=%lld stacks=%u "
               "dropped=%llu\n",
               static_cast<unsigned long long>(kSampleEvery),
               static_cast<long long>(g_peak_total * kSampleEvery), g_stack_count,
               static_cast<unsigned long long>(g_dropped));
  if (FILE* maps = std::fopen("/proc/self/maps", "r")) {
    char line[4096];
    while (std::fgets(line, sizeof line, maps)) std::fprintf(out, "M %s", line);
    std::fclose(maps);
  }
  for (uint32_t s = 0; s < g_stack_count; ++s) {
    if (g_at_peak[s] <= 0) continue;
    std::fprintf(out, "H %lld", static_cast<long long>(g_at_peak[s] * kSampleEvery));
    for (uint32_t f = 0; f < g_stacks[s].depth; ++f) {
      std::fprintf(out, " %#lx", static_cast<unsigned long>(g_stacks[s].frames[f]));
    }
    std::fputs("\n", out);
  }
  std::fclose(out);
}

}  // namespace

extern "C" {

__attribute__((noinline)) void* malloc(size_t size) {
  void* ptr = __libc_malloc(size);
  Track(ptr, size);
  return ptr;
}

__attribute__((noinline)) void* calloc(size_t count, size_t size) {
  void* ptr = __libc_calloc(count, size);
  Track(ptr, count * size);
  return ptr;
}

__attribute__((noinline)) void* realloc(void* old, size_t size) {
  Untrack(old);
  void* ptr = __libc_realloc(old, size);
  Track(ptr, size);
  return ptr;
}

void free(void* ptr) {
  Untrack(ptr);
  __libc_free(ptr);
}

}  // extern "C"

__attribute__((noinline)) void* operator new(size_t size) {
  if (void* ptr = malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new[](size_t size) {
  if (void* ptr = malloc(size == 0 ? 1 : size)) return ptr;
  throw std::bad_alloc();
}
__attribute__((noinline)) void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return malloc(size == 0 ? 1 : size);
}
__attribute__((noinline)) void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return malloc(size == 0 ? 1 : size);
}
void operator delete(void* ptr) noexcept { free(ptr); }
void operator delete[](void* ptr) noexcept { free(ptr); }
void operator delete(void* ptr, size_t) noexcept { free(ptr); }
void operator delete[](void* ptr, size_t) noexcept { free(ptr); }
