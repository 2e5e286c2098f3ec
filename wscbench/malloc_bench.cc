// Closed-loop malloc workload driver for the preload and glibc arms.
//
//   LD_PRELOAD=libwscmalloc.so wscbench_malloc --workload=rpc_server
//       --seed=1 --seconds=4 --require-shim
//
// Links no wsc library, so the same binary measures the shim (preloaded)
// and glibc (not preloaded). With --require-shim it refuses to run unless
// wscmalloc_is_active() is true, so a broken preload never silently
// benchmarks glibc. Prints one RESULT line (see stats.h JsonOut).

#include <dlfcn.h>
#include <malloc.h>
#include <pthread.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "executor.h"
#include "flags.h"
#include "stats.h"
#include "workload.h"

namespace wscbench {
namespace {

struct ShimApi {
  int (*is_active)() = nullptr;
  size_t (*release_memory)(size_t) = nullptr;
  size_t (*stats_json)(char*, size_t) = nullptr;
};

ShimApi DiscoverShim() {
  ShimApi api;
  api.is_active = reinterpret_cast<int (*)()>(
      dlsym(RTLD_DEFAULT, "wscmalloc_is_active"));
  api.release_memory = reinterpret_cast<size_t (*)(size_t)>(
      dlsym(RTLD_DEFAULT, "wscmalloc_release_memory"));
  api.stats_json = reinterpret_cast<size_t (*)(char*, size_t)>(
      dlsym(RTLD_DEFAULT, "wscmalloc_stats_json"));
  return api;
}

// The malloc family as the process sees it (shim or glibc).
struct LibcApi {
  ShimApi shim;
  void* Malloc(size_t n) { return malloc(n); }
  void Free(void* p, size_t) { free(p); }
  void* Realloc(void* p, size_t, size_t n) { return realloc(p, n); }
  int Memalign(void** out, size_t align, size_t n) {
    return posix_memalign(out, align, n);
  }
  size_t Usable(void* p) { return malloc_usable_size(p); }
  void Release() {
    if (shim.release_memory != nullptr) shim.release_memory(~size_t{0});
  }
  void ThreadStart(int) {}
  void BeginRequest() {}
  void EndRequest() {}
};

double JsonField(const char* json, const char* key) {
  char pat[64];
  std::snprintf(pat, sizeof(pat), "\"%s\":", key);
  const char* at = std::strstr(json, pat);
  return at == nullptr ? -1.0 : std::strtod(at + std::strlen(pat), nullptr);
}

// Creates and joins `n` threads that are all alive at once, so glibc's
// stack cache (and the TLS blocks it keeps with each stack) holds enough
// stacks for the workers: thread churn inside the measured window then
// reuses them instead of allocating, and the shim's alloc/free deltas
// stay an exact account of the workload's own calls.
void PrimeThreadStacks(int n, size_t stack_bytes) {
  static std::atomic<int> alive{0};
  static std::atomic<bool> release{false};
  pthread_t tids[8];
  pthread_attr_t attr;
  pthread_attr_init(&attr);
  pthread_attr_setstacksize(&attr, stack_bytes);
  auto body = [](void*) -> void* {
    alive.fetch_add(1);
    while (!release.load()) sched_yield();
    return nullptr;
  };
  for (int i = 0; i < n; ++i) pthread_create(&tids[i], &attr, body, nullptr);
  while (alive.load() < n) sched_yield();
  release.store(true);
  for (int i = 0; i < n; ++i) pthread_join(tids[i], nullptr);
  pthread_attr_destroy(&attr);
}

Streams g_streams;
LibcApi g_api;

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;
  g_api.shim = DiscoverShim();
  const bool shim_active =
      g_api.shim.is_active != nullptr && g_api.shim.is_active() != 0;
  if (flags.require_shim && !shim_active) {
    std::fprintf(stderr,
                 "wscbench_malloc: --require-shim but wscmalloc_is_active() "
                 "is not true; refusing to benchmark the system malloc\n");
    return 3;
  }

  const uint64_t g0 = NowNs();
  Generate(flags.workload, flags.seed, &g_streams);
  const uint64_t gen_ns = NowNs() - g0;

  static Executor<LibcApi> ex(&g_api, &g_streams);
  PrimeThreadStacks(kMaxWorkers + 1, kStackBytes);
  static char pre[4096], post[4096];
  if (shim_active) g_api.shim.stats_json(pre, sizeof(pre));

  ex.StartAndWarm();
  const uint64_t start = ex.RunTimed(flags.seconds, flags.max_requests);
  const double setup_s = SetupSeconds(flags, start, gen_ns);
  const size_t steady_kb = ProcStatusKb("VmRSS");
  const int64_t live = ex.LiveBytes();
  ex.Drain();
  const size_t drained_kb = ProcStatusKb("VmRSS");
  if (shim_active) g_api.shim.stats_json(post, sizeof(post));
  const size_t peak_kb = ProcStatusKb("VmHWM");

  // Everything allocated after `pre` was freed by Drain, so the shim's
  // allocation and free counters must have moved by the same amount.
  bool balanced = true;
  double allocs = 0, frees = 0;
  if (shim_active) {
    allocs = JsonField(post, "allocations") - JsonField(pre, "allocations");
    frees = JsonField(post, "frees") - JsonField(pre, "frees");
    balanced = allocs == frees && allocs > 0;
  }

  static MmapVec<uint32_t> lat;
  ex.SortedLatencies(&lat);
  double p50 = 0, p99 = -1;
  Percentile(lat.data(), lat.size(), 0.5, &p50, 0);
  Percentile(lat.data(), lat.size(), 0.99, &p99);

  const double secs = ex.timed_seconds();
  JsonOut out;
  out.Str("arm", shim_active ? "preload" : "system");
  out.Str("workload", WorkloadName(flags.workload));
  out.Int("seed", flags.seed);
  out.Int("stream_hash", StreamHash(g_streams));
  out.Num("gen_s", static_cast<double>(gen_ns) * 1e-9);
  out.Num("setup_s", setup_s);
  out.Num("premain_cpu_s", static_cast<double>(flags.premain_cpu_ns) * 1e-9);
  out.Num("timed_s", secs);
  out.Int("calls", ex.TotalCalls());
  out.Int("requests", ex.TotalRequests());
  out.Num("ops_per_s", static_cast<double>(ex.TotalCalls()) / secs);
  out.Num("requests_per_s", static_cast<double>(ex.TotalRequests()) / secs);
  out.Num("ns_per_call", static_cast<double>(ex.TotalBusyNs()) /
                             static_cast<double>(ex.TotalCalls()));
  out.Num("request_p50_us", p50 * 1e-3);
  out.Num("request_p99_us", p99 < 0 ? -1 : p99 * 1e-3);
  out.Int("latency_samples", lat.size());
  out.QuantileGrid("latency_grid_us", lat.data(), lat.size(), 1e-3);
  out.Num("peak_rss_mb", static_cast<double>(peak_kb) / 1024);
  out.Num("steady_rss_mb", static_cast<double>(steady_kb) / 1024);
  out.Num("drained_rss_mb", static_cast<double>(drained_kb) / 1024);
  out.Num("live_mb", static_cast<double>(live) / (1 << 20));
  out.Int("attempted", ex.TotalAllCalls());
  out.Int("failed", ex.TotalFailed());
  out.Int("check_failures", ex.TotalCheckFailures());
  out.Bool("balanced", balanced);
  out.Num("alloc_delta", allocs);
  out.Num("free_delta", frees);
  out.Int("threads_started", ex.TotalThreads());
  out.Num("bootstrap_kb",
          shim_active ? JsonField(post, "bootstrap_bytes") / 1024 : 0);
  out.Num("reserved_mb",
          shim_active ? JsonField(post, "reserved_bytes") / (1 << 20) : 0);
  out.Print();
  return 0;
}

}  // namespace
}  // namespace wscbench

int main(int argc, char** argv) { return wscbench::Main(argc, argv); }
