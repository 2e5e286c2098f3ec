#include "shim/shim_core.h"

#include <errno.h>
#include <fcntl.h>
#include <pthread.h>
#include <signal.h>
#include <string.h>
#include <sys/mman.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "tcmalloc/config.h"
#include "tcmalloc/pages.h"
#include "tcmalloc/real_threads.h"
#include "telemetry/registry.h"

namespace wsc::shim {
namespace {

using tcmalloc::RealThreadCache;
using tcmalloc::RealThreadsAllocator;

// ---- Bootstrap arena -------------------------------------------------
//
// Serves three kinds of allocation the real allocator cannot: (a) calls
// made before/while the allocator constructs (ld.so and libc start
// allocating before any constructor runs), (b) reentrant calls from
// inside the allocator's own bookkeeping (vector growth in
// RegisterThread), (c) calls from threads racing the one-time init. It is
// a dumb mmap'd bump allocator with a size header per block; frees are
// no-ops, so it must stay small — once the allocator is up, only (b)
// lands here.

constexpr size_t kBootstrapBytes = size_t{256} << 20;  // 256 MiB of VA
constexpr size_t kBootstrapHeader = 16;                // keeps 16-alignment

std::atomic<uintptr_t> g_boot_base{0};
std::atomic<uintptr_t> g_boot_next{0};

uintptr_t BootstrapBase() {
  uintptr_t base = g_boot_base.load(std::memory_order_acquire);
  if (base != 0) return base;
  void* mem = mmap(nullptr, kBootstrapBytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (mem == MAP_FAILED) return 0;
  uintptr_t fresh = reinterpret_cast<uintptr_t>(mem);
  uintptr_t expected = 0;
  if (g_boot_base.compare_exchange_strong(expected, fresh,
                                          std::memory_order_acq_rel)) {
    g_boot_next.store(fresh, std::memory_order_release);
    return fresh;
  }
  munmap(mem, kBootstrapBytes);  // lost the race; use the winner's
  return expected;
}

void* BootstrapAlloc(size_t size, size_t align) {
  uintptr_t base = BootstrapBase();
  if (base == 0 || size > kBootstrapBytes) return nullptr;
  if (align < kBootstrapHeader) align = kBootstrapHeader;
  size_t need = (size + kBootstrapHeader - 1) & ~(kBootstrapHeader - 1);
  uintptr_t next = g_boot_next.load(std::memory_order_relaxed);
  uintptr_t block;
  do {
    block = (next + kBootstrapHeader + (align - 1)) & ~(align - 1);
    if (block + need > base + kBootstrapBytes) return nullptr;
  } while (!g_boot_next.compare_exchange_weak(next, block + need,
                                              std::memory_order_relaxed));
  reinterpret_cast<size_t*>(block)[-1] = size;
  return reinterpret_cast<void*>(block);
}

bool IsBootstrap(const void* ptr) {
  uintptr_t base = g_boot_base.load(std::memory_order_acquire);
  uintptr_t p = reinterpret_cast<uintptr_t>(ptr);
  return base != 0 && p >= base && p < base + kBootstrapBytes;
}

size_t BootstrapUsable(const void* ptr) {
  return reinterpret_cast<const size_t*>(ptr)[-1];
}

// ---- One-time initialization ----------------------------------------

enum : int { kUninit = 0, kConstructing = 1, kReady = 2 };

std::atomic<int> g_state{kUninit};
alignas(RealThreadsAllocator) unsigned char
    g_alloc_storage[sizeof(RealThreadsAllocator)];
RealThreadsAllocator* g_alloc = nullptr;

// Per-thread state. initial-exec TLS: resolved at load time, no
// __tls_get_addr (which would malloc) on access.
__attribute__((tls_model("initial-exec"))) thread_local RealThreadCache*
    t_cache = nullptr;
// Set once the thread-exit hook has returned this thread's cache. A call
// the thread makes after that (from a later key destructor, or from
// glibc's __libc_thread_freeres) borrows a cache for that one call.
__attribute__((tls_model("initial-exec"))) thread_local bool
    t_cache_returned = false;
// Set while this thread is inside the allocator (or its construction):
// nested malloc calls are allocator bookkeeping and must come from the
// bootstrap arena, not recurse.
__attribute__((tls_model("initial-exec"))) thread_local bool t_busy = false;

struct BusyScope {
  BusyScope() { t_busy = true; }
  ~BusyScope() { t_busy = false; }
};

// The thread-exit hook: a pthread key whose value is the thread's cache,
// so that glibc runs ReturnThreadCache when the thread exits. Created
// with the allocator; if creation fails, caches are never returned.
pthread_key_t g_cache_key;
bool g_cache_key_ok = false;

void ReturnThreadCache(void* tc) {
  BusyScope busy;
  t_cache = nullptr;
  t_cache_returned = true;
  g_alloc->UnregisterThread(static_cast<RealThreadCache*>(tc));
}

size_t EnvBytesMb(const char* name, size_t fallback) {
  const char* v = getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  unsigned long long mb = strtoull(v, &end, 10);
  if (end == v) return fallback;
  return static_cast<size_t>(mb) << 20;
}

long EnvLong(const char* name, long fallback) {
  const char* v = getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  long n = strtol(v, &end, 10);
  if (end == v) return fallback;
  return n;
}

// ---- Live statsz ------------------------------------------------------
//
// A background thread that makes any preloaded process observable while
// it runs, not just at exit: every WSC_SHIM_STATSZ_INTERVAL_MS (default
// 1000, floor 10) it takes a counter sample into a fixed ring and — when
// WSC_SHIM_STATSZ_PATH is set — appends the sample as one pid-tagged
// NDJSON line (O_APPEND open/write/close per dump, so many preloaded
// processes can share one file). SIGUSR2 forces an immediate
// out-of-schedule dump. The ring is exported via
// wscmalloc_stats_timeseries for in-process scrapers.
//
// Reentrancy: the thread is a normal malloc client (its snapshot vectors
// allocate and free through the shim itself — no bootstrap leak), but
// file output uses raw fd syscalls and a stack buffer so a dump never
// allocates. Fork: ForkPrepare takes g_statsz_mu *before* quiescing the
// allocator, so no sample is mid-flight at fork time and the child
// inherits an unlocked mutex + a consistent ring; the atfork child
// handler restarts the thread (fork drops all threads but ours must
// survive conceptually) with the child's own pid tag.

struct StatszSample {
  long pid;            // taker's pid (inherited ring entries keep the
                       // parent's pid after fork)
  uint64_t seq;        // monotonically increasing per process image
  uint64_t uptime_ms;  // since the stats thread started
  bool signal;         // true when SIGUSR2 forced this dump
  double allocations;
  double frees;
  double live_bytes;
  size_t footprint_bytes;
  double released_bytes;
  int threads;
};

constexpr int kStatszRing = 64;
constexpr int kStatszDefaultIntervalMs = 1000;
constexpr int kStatszPollMs = 10;  // SIGUSR2 latency / shutdown poll

pthread_mutex_t g_statsz_mu = PTHREAD_MUTEX_INITIALIZER;
StatszSample g_statsz_ring[kStatszRing];   // guarded by g_statsz_mu
uint64_t g_statsz_count = 0;               // guarded by g_statsz_mu
char g_statsz_path[512];                   // fixed at thread start
int g_statsz_interval_ms = kStatszDefaultIntervalMs;
std::atomic<bool> g_statsz_enabled{false};
volatile sig_atomic_t g_statsz_sigusr2 = 0;
uint64_t g_statsz_epoch_ms = 0;

uint64_t MonotonicMs() {
  struct timespec ts;
  if (clock_gettime(CLOCK_MONOTONIC, &ts) != 0) return 0;
  return static_cast<uint64_t>(ts.tv_sec) * 1000 +
         static_cast<uint64_t>(ts.tv_nsec) / 1000000;
}

void StatszSignalHandler(int) { g_statsz_sigusr2 = 1; }

int FormatStatszLine(const StatszSample& s, char* buf, size_t cap) {
  return snprintf(
      buf, cap,
      "{\"pid\":%ld,\"seq\":%llu,\"uptime_ms\":%llu,"
      "\"trigger\":\"%s\",\"allocations\":%.0f,\"frees\":%.0f,"
      "\"live_bytes\":%.0f,\"footprint_bytes\":%zu,"
      "\"released_bytes\":%.0f,\"threads\":%d}\n",
      s.pid, static_cast<unsigned long long>(s.seq),
      static_cast<unsigned long long>(s.uptime_ms),
      s.signal ? "signal" : "interval", s.allocations, s.frees,
      s.live_bytes, s.footprint_bytes, s.released_bytes, s.threads);
}

// Takes one sample into the ring and appends it to the statsz file.
// Called only from the stats thread, after the allocator is kReady.
void StatszTakeSample(bool signal_dump) {
  StatszSample s;
  s.pid = static_cast<long>(getpid());
  s.signal = signal_dump;
  s.uptime_ms = MonotonicMs() - g_statsz_epoch_ms;
  {
    // Snapshot outside the ring lock: it mallocs (through the shim) and
    // must never do so while ForkPrepare could be waiting on g_statsz_mu.
    wsc::telemetry::Snapshot snap = g_alloc->TelemetrySnapshot();
    auto metric = [&snap](const char* c, const char* n) -> double {
      const wsc::telemetry::MetricSample* m = snap.Find(c, n);
      return m != nullptr ? m->ScalarValue() : 0.0;
    };
    s.allocations = metric("allocator", "allocations");
    s.frees = metric("allocator", "frees");
    s.live_bytes = metric("allocator", "live_bytes");
    s.footprint_bytes = g_alloc->FootprintBytes();
    s.released_bytes = metric("system", "released_bytes");
    s.threads = g_alloc->registered_threads();
  }
  char line[512];
  int n;
  pthread_mutex_lock(&g_statsz_mu);
  s.seq = g_statsz_count;
  g_statsz_ring[g_statsz_count % kStatszRing] = s;
  ++g_statsz_count;
  n = FormatStatszLine(s, line, sizeof(line));
  pthread_mutex_unlock(&g_statsz_mu);
  if (n <= 0 || g_statsz_path[0] == '\0') return;
  int fd = open(g_statsz_path, O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (fd < 0) return;
  size_t len = static_cast<size_t>(n) < sizeof(line)
                   ? static_cast<size_t>(n)
                   : sizeof(line) - 1;
  ssize_t ignored = write(fd, line, len);
  (void)ignored;
  close(fd);
}

void* StatszThreadMain(void*) {
  // Block nothing: SIGUSR2 is delivered process-wide; any thread's
  // handler just sets the flag this loop polls.
  uint64_t next_due = MonotonicMs() + static_cast<uint64_t>(g_statsz_interval_ms);
  for (;;) {
    struct timespec ts = {0, kStatszPollMs * 1000000};
    nanosleep(&ts, nullptr);
    bool signal_dump = g_statsz_sigusr2 != 0;
    uint64_t now = MonotonicMs();
    if (!signal_dump && now < next_due) continue;
    if (signal_dump) {
      g_statsz_sigusr2 = 0;
    } else {
      // Schedule from "now", not "due": a late wakeup must not cause a
      // burst of catch-up dumps.
      next_due = now + static_cast<uint64_t>(g_statsz_interval_ms);
    }
    StatszTakeSample(signal_dump);
  }
  return nullptr;
}

// Spawns the detached stats thread (it dies with the process / exec).
// Called at allocator construction and again in the atfork child.
void StatszStartThread() {
  g_statsz_epoch_ms = MonotonicMs();
  pthread_t tid;
  pthread_attr_t attr;
  if (pthread_attr_init(&attr) != 0) return;
  pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
  if (pthread_create(&tid, &attr, &StatszThreadMain, nullptr) != 0) {
    g_statsz_enabled.store(false, std::memory_order_release);
  }
  pthread_attr_destroy(&attr);
}

// One-time statsz setup, run inside allocator construction (under
// BusyScope, so the handful of bytes pthread_create mallocs land in the
// bootstrap arena). Enabled by either env knob so ring-only operation
// (scrape via wscmalloc_stats_timeseries, no file) works too.
void StatszInit() {
  const char* path = getenv("WSC_SHIM_STATSZ_PATH");
  const char* interval = getenv("WSC_SHIM_STATSZ_INTERVAL_MS");
  if ((path == nullptr || *path == '\0') &&
      (interval == nullptr || *interval == '\0')) {
    return;
  }
  if (path != nullptr) {
    strncpy(g_statsz_path, path, sizeof(g_statsz_path) - 1);
    g_statsz_path[sizeof(g_statsz_path) - 1] = '\0';
  }
  long ms = EnvLong("WSC_SHIM_STATSZ_INTERVAL_MS", kStatszDefaultIntervalMs);
  g_statsz_interval_ms =
      ms < kStatszPollMs ? kStatszPollMs
                         : static_cast<int>(ms > 3600000 ? 3600000 : ms);
  struct sigaction sa;
  memset(&sa, 0, sizeof(sa));
  sa.sa_handler = &StatszSignalHandler;
  sa.sa_flags = SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGUSR2, &sa, nullptr);
  g_statsz_enabled.store(true, std::memory_order_release);
  StatszStartThread();
}

void ForkPrepare() {
  // Statsz first: once we hold g_statsz_mu no dump is mid-write, and the
  // sampler cannot be inside the allocator either (samples malloc only
  // outside the lock), so the allocator quiesce below cannot deadlock
  // against the stats thread.
  pthread_mutex_lock(&g_statsz_mu);
  if (g_state.load(std::memory_order_acquire) == kReady) {
    g_alloc->ForkPrepare();
  }
}

void ForkRelease() {
  if (g_state.load(std::memory_order_acquire) == kReady) {
    g_alloc->ForkRelease();
  }
  pthread_mutex_unlock(&g_statsz_mu);
}

void ForkChild() {
  ForkRelease();
  // fork() dropped every thread but the forker; give the child image its
  // own stats thread so longitudinal observation survives process trees.
  if (g_statsz_enabled.load(std::memory_order_acquire)) {
    StatszStartThread();
  }
}

RealThreadsAllocator* GetAllocator() {
  int state = g_state.load(std::memory_order_acquire);
  if (state == kReady) return g_alloc;
  int expected = kUninit;
  if (!g_state.compare_exchange_strong(expected, kConstructing,
                                       std::memory_order_acq_rel)) {
    // Someone else is constructing (or just finished).
    return g_state.load(std::memory_order_acquire) == kReady ? g_alloc
                                                             : nullptr;
  }
  // We construct. Everything the constructor allocates lands in the
  // bootstrap arena via t_busy.
  BusyScope busy;
  size_t reserve = EnvBytesMb("WSC_SHIM_RESERVE_MB", 0);
  auto builder = tcmalloc::AllocatorConfig::Builder()
                     .WithRealMemory()
                     .WithRealMemoryReserve(reserve);
  auto built = builder.TryBuild();
  if (!built.has_value()) {
    // Cannot happen with the knobs above, but never abort inside malloc.
    g_state.store(kUninit, std::memory_order_release);
    return nullptr;
  }
  g_alloc = new (g_alloc_storage)
      RealThreadsAllocator(*built, /*expected_threads=*/0);
  size_t release_mb = EnvBytesMb("WSC_SHIM_RELEASE_MB", size_t{256} << 20);
  g_alloc->SetLargeReleaseThreshold(release_mb);
  g_cache_key_ok = pthread_key_create(&g_cache_key, &ReturnThreadCache) == 0;
  pthread_atfork(&ForkPrepare, &ForkRelease, &ForkChild);
  g_state.store(kReady, std::memory_order_release);
  StatszInit();  // after kReady: the thread samples the live allocator
  return g_alloc;
}

void* FinishAlloc(uintptr_t addr) {
  if (addr == 0) {
    errno = ENOMEM;
    return nullptr;
  }
  return reinterpret_cast<void*>(addr);
}

// The cache for a call made while t_cache is null. The thread's first
// call registers its cache and arms the exit hook; a call after the hook
// returned the cache borrows one and gives it back when the call ends.
// Used only under BusyScope (RegisterThread grows vectors, and
// pthread_setspecific may allocate its second-level block).
class CacheLease {
 public:
  explicit CacheLease(RealThreadsAllocator* alloc)
      : alloc_(alloc), borrowed_(t_cache_returned) {
    tc_ = alloc->RegisterThread();
    if (borrowed_) return;
    if (g_cache_key_ok) pthread_setspecific(g_cache_key, tc_);
    t_cache = tc_;
  }
  ~CacheLease() {
    if (borrowed_) alloc_->UnregisterThread(tc_);
  }
  CacheLease(const CacheLease&) = delete;
  CacheLease& operator=(const CacheLease&) = delete;

  RealThreadCache* tc() const { return tc_; }

 private:
  RealThreadsAllocator* alloc_;
  bool borrowed_;
  RealThreadCache* tc_;
};

// Out of line, so the cache-hit path keeps its inline t_cache test.
__attribute__((noinline)) void* MallocWithoutCache(
    RealThreadsAllocator* alloc, size_t size) {
  BusyScope busy;
  CacheLease lease(alloc);
  return FinishAlloc(alloc->Allocate(lease.tc(), size));
}

__attribute__((noinline)) void FreeWithoutCache(RealThreadsAllocator* alloc,
                                                void* ptr) {
  BusyScope busy;
  CacheLease lease(alloc);
  alloc->FreeAddr(lease.tc(), reinterpret_cast<uintptr_t>(ptr));
}

__attribute__((noinline)) uintptr_t AlignedWithoutCache(
    RealThreadsAllocator* alloc, size_t size, size_t align) {
  BusyScope busy;
  CacheLease lease(alloc);
  return alloc->AllocateAligned(lease.tc(), size, align);
}

}  // namespace

void* ShimMalloc(size_t size) {
  if (size == 0) size = 1;
  if (t_busy) {
    void* p = BootstrapAlloc(size, kBootstrapHeader);
    if (p == nullptr) errno = ENOMEM;
    return p;
  }
  RealThreadsAllocator* alloc = GetAllocator();
  if (alloc == nullptr) {
    void* p = BootstrapAlloc(size, kBootstrapHeader);
    if (p == nullptr) errno = ENOMEM;
    return p;
  }
  RealThreadCache* tc = t_cache;
  if (tc == nullptr) return MallocWithoutCache(alloc, size);
  BusyScope busy;
  return FinishAlloc(alloc->Allocate(tc, size));
}

void ShimFree(void* ptr) {
  if (ptr == nullptr || IsBootstrap(ptr)) return;
  RealThreadsAllocator* alloc = GetAllocator();
  if (alloc == nullptr || !alloc->Owns(reinterpret_cast<uintptr_t>(ptr))) {
    // Foreign pointer (allocated past the shim, e.g. by libc internals
    // that bypass malloc): leaking it is safe, freeing it is not.
    return;
  }
  RealThreadCache* tc = t_cache;
  if (tc == nullptr) {
    FreeWithoutCache(alloc, ptr);
    return;
  }
  BusyScope busy;
  alloc->FreeAddr(tc, reinterpret_cast<uintptr_t>(ptr));
}

void* ShimCalloc(size_t n, size_t size) {
  size_t bytes;
  if (__builtin_mul_overflow(n, size, &bytes)) {
    errno = ENOMEM;
    return nullptr;
  }
  void* p = ShimMalloc(bytes == 0 ? 1 : bytes);
  if (p != nullptr) memset(p, 0, bytes);
  return p;
}

void* ShimRealloc(void* ptr, size_t size) {
  if (ptr == nullptr) return ShimMalloc(size);
  if (size == 0) {
    ShimFree(ptr);
    return nullptr;
  }
  size_t old_usable = ShimUsableSize(ptr);
  // In place when it still fits and is not a pathological shrink (keep at
  // most 2x slack, mirroring size-class granularity).
  if (size <= old_usable && size >= old_usable / 2) return ptr;
  void* fresh = ShimMalloc(size);
  if (fresh == nullptr) return nullptr;  // old block stays valid
  memcpy(fresh, ptr, old_usable < size ? old_usable : size);
  ShimFree(ptr);
  return fresh;
}

void* ShimReallocArray(void* ptr, size_t n, size_t size) {
  size_t bytes;
  if (__builtin_mul_overflow(n, size, &bytes)) {
    errno = ENOMEM;
    return nullptr;
  }
  return ShimRealloc(ptr, bytes);
}

int ShimPosixMemalign(void** out, size_t align, size_t size) {
  if (out == nullptr || align < sizeof(void*) ||
      (align & (align - 1)) != 0) {
    return EINVAL;
  }
  if (size == 0) size = 1;
  if (t_busy) {
    void* p = BootstrapAlloc(size, align);
    if (p == nullptr) return ENOMEM;
    *out = p;
    return 0;
  }
  RealThreadsAllocator* alloc = GetAllocator();
  if (alloc == nullptr) {
    void* p = BootstrapAlloc(size, align);
    if (p == nullptr) return ENOMEM;
    *out = p;
    return 0;
  }
  RealThreadCache* tc = t_cache;
  uintptr_t addr;
  if (tc == nullptr) {
    addr = AlignedWithoutCache(alloc, size, align);
  } else {
    BusyScope busy;
    addr = alloc->AllocateAligned(tc, size, align);
  }
  if (addr == 0) return ENOMEM;
  *out = reinterpret_cast<void*>(addr);
  return 0;
}

void* ShimAlignedAlloc(size_t align, size_t size) {
  if (align == 0 || (align & (align - 1)) != 0) {
    errno = EINVAL;
    return nullptr;
  }
  void* out = nullptr;
  int err = ShimPosixMemalign(&out, align < sizeof(void*) ? sizeof(void*)
                                                          : align,
                              size);
  if (err != 0) {
    errno = err;
    return nullptr;
  }
  return out;
}

void* ShimMemalign(size_t align, size_t size) {
  return ShimAlignedAlloc(align == 0 ? sizeof(void*) : align, size);
}

void* ShimValloc(size_t size) {
  long page = sysconf(_SC_PAGESIZE);
  return ShimAlignedAlloc(page > 0 ? static_cast<size_t>(page) : 4096,
                          size);
}

void* ShimPvalloc(size_t size) {
  long page_l = sysconf(_SC_PAGESIZE);
  size_t page = page_l > 0 ? static_cast<size_t>(page_l) : 4096;
  size_t rounded;
  if (__builtin_add_overflow(size, page - 1, &rounded)) {
    errno = ENOMEM;
    return nullptr;
  }
  rounded &= ~(page - 1);
  return ShimAlignedAlloc(page, rounded == 0 ? page : rounded);
}

size_t ShimUsableSize(void* ptr) {
  if (ptr == nullptr) return 0;
  if (IsBootstrap(ptr)) return BootstrapUsable(ptr);
  if (g_state.load(std::memory_order_acquire) != kReady) return 0;
  return g_alloc->UsableSize(reinterpret_cast<uintptr_t>(ptr));
}

bool ShimIsActive() {
  return g_state.load(std::memory_order_acquire) == kReady;
}

size_t ShimReleaseMemory(size_t bytes) {
  if (!ShimIsActive()) return 0;
  BusyScope busy;
  return g_alloc->ReleaseMemoryToSystem(bytes);
}

size_t ShimStatsJson(char* buf, size_t cap) {
  if (buf == nullptr || cap == 0) return 0;
  if (!ShimIsActive()) {
    int n = snprintf(buf, cap, "{\"active\":false,\"bootstrap_bytes\":%zu}",
                     static_cast<size_t>(
                         g_boot_next.load(std::memory_order_relaxed) -
                         g_boot_base.load(std::memory_order_relaxed)));
    return n < 0 ? 0 : (static_cast<size_t>(n) < cap
                            ? static_cast<size_t>(n)
                            : cap - 1);
  }
  // A normal malloc client, like the statsz thread: the snapshot's
  // vectors and strings come from (and go back to) the allocator itself.
  // Safe because TelemetrySnapshot() allocates only after it drops the
  // registry lock.
  wsc::telemetry::Snapshot snap = g_alloc->TelemetrySnapshot();
  auto metric = [&snap](const char* component, const char* name) -> double {
    const wsc::telemetry::MetricSample* s = snap.Find(component, name);
    return s != nullptr ? s->ScalarValue() : 0.0;
  };
  uintptr_t boot_base = g_boot_base.load(std::memory_order_relaxed);
  size_t boot_bytes =
      boot_base == 0
          ? 0
          : g_boot_next.load(std::memory_order_relaxed) - boot_base;
  int n = snprintf(
      buf, cap,
      "{\"active\":true,"
      "\"allocations\":%.0f,\"frees\":%.0f,"
      "\"live_bytes\":%.0f,\"footprint_bytes\":%zu,"
      "\"released_bytes\":%.0f,\"recommitted_bytes\":%.0f,"
      "\"reserved_bytes\":%.0f,\"large_pending_bytes\":%.0f,"
      "\"threads\":%d,\"bootstrap_bytes\":%zu}",
      metric("allocator", "allocations"),
      metric("allocator", "frees"), metric("allocator", "live_bytes"),
      g_alloc->FootprintBytes(), metric("system", "released_bytes"),
      metric("system", "recommitted_bytes"),
      metric("system", "reserved_bytes"),
      metric("allocator", "large_pending_bytes"),
      g_alloc->registered_threads(), boot_bytes);
  return n < 0 ? 0
               : (static_cast<size_t>(n) < cap ? static_cast<size_t>(n)
                                               : cap - 1);
}

size_t ShimStatsTimeseries(char* buf, size_t cap) {
  if (buf == nullptr || cap == 0) return 0;
  buf[0] = '\0';
  size_t written = 0;
  pthread_mutex_lock(&g_statsz_mu);
  uint64_t count = g_statsz_count;
  uint64_t first = count > kStatszRing ? count - kStatszRing : 0;
  for (uint64_t i = first; i < count; ++i) {
    char line[512];
    int n = FormatStatszLine(g_statsz_ring[i % kStatszRing], line,
                             sizeof(line));
    if (n <= 0) continue;
    size_t len = static_cast<size_t>(n) < sizeof(line)
                     ? static_cast<size_t>(n)
                     : sizeof(line) - 1;
    if (written + len >= cap) break;  // whole lines only
    memcpy(buf + written, line, len);
    written += len;
  }
  pthread_mutex_unlock(&g_statsz_mu);
  buf[written] = '\0';
  return written;
}

}  // namespace wsc::shim
