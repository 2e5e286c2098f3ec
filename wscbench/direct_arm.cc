// The direct-link arm: the malloc workloads' op streams driven straight
// into RealThreadsAllocator (real-memory mode, the shim's configuration),
// through its public API only.
//
//   wscbench_direct --workload=rpc_server --seed=1 --seconds=2
//   wscbench_direct --workload=rpc_server --seed=1 --traced --max-requests=6000
//
// Untraced, it gives the ns/call the shim adds (preload minus direct).
// With --traced every public call gets a span (name, start, duration,
// parent, request id) kept in memory and written to --spans-out at exit.
// Small calls are attributed to the thread cache or the middle end by
// the change in the calling thread's RealThreadCache counters, large and
// aligned ones by the large counters; the post-join TelemetrySnapshot()
// supplies lock, steal, carve and release counts. Prints one RESULT line.

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <optional>

#include "executor.h"
#include "flags.h"
#include "stats.h"
#include "tcmalloc/config.h"
#include "tcmalloc/real_threads.h"
#include "tcmalloc/size_classes.h"
#include "workload.h"

namespace wscbench {
namespace {

using wsc::tcmalloc::AllocatorConfig;
using wsc::tcmalloc::RealThreadCache;
using wsc::tcmalloc::RealThreadsAllocator;
using wsc::tcmalloc::SizeClasses;

enum SpanName : uint8_t {
  kSpanRequest,
  kSpanMalloc,
  kSpanFree,
  kSpanRealloc,
  kSpanMemalign,
  kSpanRelease,
  kSpanRegister,
  kSpanUsable,
};

// One span buffer per worker slot plus one for the main thread; a
// replacement thread appends to its slot's buffer after the join.
constexpr int kBuffers = kMaxWorkers + 1;
constexpr size_t kMaxSpans = size_t{8} << 20;

// Each worker's buffer on its own cache line: the buffers' size fields
// are written on every span.
struct alignas(64) SpanBuffer {
  MmapVec<Span> v;
};

struct Tracer {
  bool enabled = false;
  std::atomic<bool> recording{false};
  SpanBuffer spans[kBuffers];
};

thread_local RealThreadCache* t_tc = nullptr;
thread_local MmapVec<Span>* t_spans = nullptr;
thread_local uint32_t t_parent = 0;   // 1 + index of the open span
thread_local uint32_t t_request = 0;

PathCounters Counters(const RealThreadCache* tc) {
  PathCounters c;
  c.fast_alloc_hits = tc->fast_alloc_hits;
  c.fast_free_hits = tc->fast_free_hits;
  c.underflows = tc->underflows;
  c.overflows = tc->overflows;
  c.large_allocations = tc->large_allocations;
  c.large_frees = tc->large_frees;
  return c;
}

class DirectApi {
 public:
  DirectApi(RealThreadsAllocator* alloc, Tracer* tracer)
      : alloc_(alloc), tracer_(tracer) {
    registered_.Reserve(1 << 20);
  }

  void* Malloc(size_t n) {
    if (!tracer_->enabled) {
      return reinterpret_cast<void*>(alloc_->Allocate(t_tc, n));
    }
    const uint32_t s = Open(kSpanMalloc);
    const PathCounters before = Counters(t_tc);
    void* p = reinterpret_cast<void*>(alloc_->Allocate(t_tc, n));
    Close(s, AttributeByDelta(before, Counters(t_tc)));
    return p;
  }
  void Free(void* p, size_t) {
    if (!tracer_->enabled) {
      alloc_->FreeAddr(t_tc, reinterpret_cast<uintptr_t>(p));
      return;
    }
    const uint32_t s = Open(kSpanFree);
    const PathCounters before = Counters(t_tc);
    alloc_->FreeAddr(t_tc, reinterpret_cast<uintptr_t>(p));
    Close(s, AttributeByDelta(before, Counters(t_tc)));
  }
  // The shim's realloc policy over the public API: in place while the
  // block fits with at most 2x slack, else allocate, copy, free.
  void* Realloc(void* p, size_t, size_t n) {
    const uint32_t s = Open(kSpanRealloc);
    const uint32_t u = Open(kSpanUsable);
    const size_t old_usable = alloc_->UsableSize(reinterpret_cast<uintptr_t>(p));
    Close(u, kLayerShim);
    void* out = p;
    if (n > old_usable || n < old_usable / 2) {
      out = Malloc(n);
      if (out != nullptr) {
        std::memcpy(out, p, old_usable < n ? old_usable : n);
        Free(p, 0);
      }
    }
    Close(s, kLayerShim);
    return out;
  }
  int Memalign(void** out, size_t align, size_t n) {
    uintptr_t p;
    if (!tracer_->enabled) {
      p = alloc_->AllocateAligned(t_tc, n, align);
    } else {
      const uint32_t s = Open(kSpanMemalign);
      const PathCounters before = Counters(t_tc);
      p = alloc_->AllocateAligned(t_tc, n, align);
      Close(s, AttributeByDelta(before, Counters(t_tc)));
    }
    *out = reinterpret_cast<void*>(p);
    return p == 0 ? ENOMEM : 0;
  }
  size_t Usable(void* p) {
    return alloc_->UsableSize(reinterpret_cast<uintptr_t>(p));
  }
  void Release() {
    const uint32_t s = Open(kSpanRelease);
    alloc_->ReleaseMemoryToSystem(~size_t{0});
    Close(s, kLayerRelease);
  }
  void ThreadStart(int worker) {
    if (tracer_->enabled) {
      t_spans = &tracer_->spans[worker < 0 ? kMaxWorkers : worker].v;
    }
    t_parent = 0;
    const uint32_t s = Open(kSpanRegister);
    t_tc = alloc_->RegisterThread();
    Close(s, kLayerRegistry);
    std::lock_guard<std::mutex> lock(registered_mu_);
    registered_.Push(t_tc);
  }
  void BeginRequest() {
    ++t_request;
    t_parent = 0;
    req_span_ = Open(kSpanRequest);
  }
  void EndRequest() { Close(req_span_, kLayerNone); }

  // Caches of every thread registered so far (worker threads first).
  const MmapVec<RealThreadCache*>& registered() const { return registered_; }

 private:
  // Span index + 1 (0 when not recording). Thread registrations are
  // rare and mostly happen before the timed phase, so their spans are
  // always kept.
  uint32_t Open(uint8_t name) {
    if (t_spans == nullptr ||
        (name != kSpanRegister &&
         !tracer_->recording.load(std::memory_order_relaxed))) {
      return 0;
    }
    Span sp;
    sp.name = name;
    sp.parent = t_parent;
    sp.request = t_request;
    t_spans->Push(sp);
    const uint32_t id = static_cast<uint32_t>(t_spans->size());
    t_parent = id;
    (*t_spans)[id - 1].start_ns = NowNs();
    return id;
  }
  void Close(uint32_t id, uint8_t layer) {
    if (id == 0) return;
    Span& sp = (*t_spans)[id - 1];
    sp.dur_ns = static_cast<uint32_t>(NowNs() - sp.start_ns);
    sp.layer = layer;
    sp.closed = 1;
    t_parent = sp.parent;
  }

  RealThreadsAllocator* alloc_;
  Tracer* tracer_;
  std::mutex registered_mu_;
  MmapVec<RealThreadCache*> registered_;  // guarded by registered_mu_
  static thread_local uint32_t req_span_;
};
thread_local uint32_t DirectApi::req_span_ = 0;

double Metric(const wsc::telemetry::Snapshot& s, const char* c,
              const char* n) {
  const wsc::telemetry::MetricSample* m = s.Find(c, n);
  return m == nullptr ? 0.0 : m->ScalarValue();
}

// Per-layer accumulation of span self times.
struct LayerTimes {
  MmapVec<float> alloc_self[kNumLayers];
  MmapVec<float> free_self[kNumLayers];
  MmapVec<float> other_self[kNumLayers];
  double self_ns[kNumLayers] = {};
  double call_ns = 0;       // outermost call spans
  double request_ns = 0;    // request spans
  uint64_t call_spans = 0;  // every call span (any depth)
  uint64_t tree_errors = 0;
  LayerTimes() {
    for (int l = 0; l < kNumLayers; ++l) {
      alloc_self[l].Reserve(kMaxSpans * 2);
      free_self[l].Reserve(kMaxSpans * 2);
      other_self[l].Reserve(1 << 20);
    }
  }
};

void Accumulate(const MmapVec<Span>& spans, double eps, LayerTimes* lt) {
  static MmapVec<double> self(kMaxSpans);
  self.Resize(spans.size());
  SelfTimes(spans.data(), spans.size(), eps, self.data());
  lt->tree_errors += SpanTreeErrors(spans.data(), spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    if (sp.name == kSpanRequest) {
      lt->request_ns += sp.dur_ns;
      continue;
    }
    const bool outermost =
        sp.parent == 0 || spans[sp.parent - 1].name == kSpanRequest;
    if (outermost) lt->call_ns += sp.dur_ns;
    ++lt->call_spans;
    lt->self_ns[sp.layer] += self[i];
    const float v = static_cast<float>(self[i]);
    if (sp.name == kSpanMalloc || sp.name == kSpanMemalign) {
      lt->alloc_self[sp.layer].Push(v);
    } else if (sp.name == kSpanFree) {
      lt->free_self[sp.layer].Push(v);
    } else {
      lt->other_self[sp.layer].Push(v);
    }
  }
}

Streams g_streams;

int Main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return 2;

  const uint64_t g0 = NowNs();
  Generate(flags.workload, flags.seed, &g_streams);
  const uint64_t gen_ns = NowNs() - g0;

  // The shim's configuration (see src/shim/shim_core.cc GetAllocator).
  std::optional<AllocatorConfig> config = AllocatorConfig::Builder()
                                              .WithRealMemory()
                                              .WithRealMemoryReserve(0)
                                              .TryBuild();
  if (!config.has_value()) return 4;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  static RealThreadsAllocator alloc(*config, nproc > 0 ? static_cast<int>(nproc) : 4);
  alloc.SetLargeReleaseThreshold(size_t{256} << 20);

  static Tracer tracer;
  tracer.enabled = flags.traced;
  if (flags.traced) {
    for (auto& b : tracer.spans) b.v.Reserve(kMaxSpans);
  }
  const double eps = flags.traced ? CalibrateEmptySpan() : 0.0;
  static DirectApi api(&alloc, &tracer);
  static Executor<DirectApi> ex(&api, &g_streams);

  ex.StartAndWarm();
  const wsc::telemetry::Snapshot pre = alloc.TelemetrySnapshot();
  tracer.recording.store(flags.traced);
  const uint64_t start = ex.RunTimed(flags.seconds, flags.max_requests);
  tracer.recording.store(false);
  const double setup_s = SetupSeconds(flags, start, gen_ns);
  const wsc::telemetry::Snapshot post = alloc.TelemetrySnapshot();
  const size_t rss_kb = ProcStatusKb("VmRSS");
  size_t smaps_rss_kb = 0, huge_kb = 0;
  SmapsRollupKb(&smaps_rss_kb, &huge_kb);
  const int64_t live = ex.LiveBytes();
  const size_t footprint = alloc.FootprintBytes();
  const size_t arena_used = alloc.ArenaUsedBytes();

  // Bytes left cached in the caches of worker threads that exited (every
  // worker has exited once RunTimed returns).
  const SizeClasses& sc = SizeClasses::Default();
  double retained_bytes = 0;
  const auto& regs = api.registered();
  for (size_t i = 0; i < regs.size(); ++i) {
    for (int cls = 0; cls < sc.num_classes(); ++cls) {
      retained_bytes += static_cast<double>(regs[i]->lists[cls].count) *
                        static_cast<double>(sc.class_size(cls));
    }
  }
  const double exited_threads = static_cast<double>(regs.size());

  ex.Drain();
  const wsc::telemetry::Snapshot end = alloc.TelemetrySnapshot();
  const double all_allocs = Metric(end, "allocator", "allocations");
  const bool balanced =
      all_allocs == Metric(end, "allocator", "frees") && all_allocs > 0;

  auto d = [&](const char* c, const char* n) {
    return Metric(post, c, n) - Metric(pre, c, n);
  };

  const double secs = ex.timed_seconds();
  JsonOut out;
  out.Str("arm", flags.traced ? "direct_traced" : "direct");
  out.Str("workload", WorkloadName(flags.workload));
  out.Int("seed", flags.seed);
  out.Int("stream_hash", StreamHash(g_streams));
  out.Num("setup_s", setup_s);
  out.Num("timed_s", secs);
  out.Int("calls", ex.TotalCalls());
  out.Int("requests", ex.TotalRequests());
  out.Num("ops_per_s", static_cast<double>(ex.TotalCalls()) / secs);
  out.Num("ns_per_call", static_cast<double>(ex.TotalBusyNs()) /
                             static_cast<double>(ex.TotalCalls()));
  out.Int("attempted", ex.TotalAllCalls());
  out.Int("failed", ex.TotalFailed());
  out.Int("check_failures", ex.TotalCheckFailures());
  out.Bool("balanced", balanced);

  out.Num("transfer.remove_miss_rate",
          Ratio(d("sharded_transfer", "remove_misses"),
                d("sharded_transfer", "removes")));
  out.Num("transfer.insert_overflow_rate",
          Ratio(d("sharded_transfer", "insert_overflows"),
                d("sharded_transfer", "inserts")));
  out.Num("cfl.refill_stall_rate",
          Ratio(d("contention", "refill_stalls"), d("sharded_cfl", "refills")));
  out.Num("cfl.steal_yield",
          Ratio(d("contention", "work_steals"), d("contention", "steal_probes")));
  out.Num("cfl.carves", d("sharded_cfl", "carves"));
  out.Num("lock.transfer_contended_rate",
          Ratio(d("contention", "transfer_lock_contended"),
                d("contention", "transfer_lock_acquisitions")));
  out.Num("lock.cfl_contended_rate",
          Ratio(d("contention", "cfl_lock_contended"),
                d("contention", "cfl_lock_acquisitions")));
  out.Num("large.fresh_carve_rate",
          Ratio(d("contention", "arena_carves") - d("sharded_cfl", "carves"),
                d("allocator", "large_allocations")));
  out.Num("release.released_mb", d("system", "released_bytes") / (1 << 20));
  out.Num("release.recommitted_mb",
          d("system", "recommitted_bytes") / (1 << 20));
  out.Num("registry.threads_registered",
          Metric(post, "thread_cache", "registered_threads"));
  out.Num("registry.retained_kb_per_exited_thread",
          Ratio(retained_bytes / 1024, exited_threads));
  out.Num("backing.footprint_mb", static_cast<double>(footprint) / (1 << 20));
  out.Num("backing.arena_used_mb",
          static_cast<double>(arena_used) / (1 << 20));
  out.Num("backing.rss_over_live",
          Ratio(static_cast<double>(rss_kb) * 1024, static_cast<double>(live)));
  out.Num("backing.thp_fraction",
          Ratio(static_cast<double>(huge_kb), static_cast<double>(smaps_rss_kb)));

  if (flags.traced) {
    static LayerTimes lt;
    uint64_t nspans = 0;
    for (auto& b : tracer.spans) {
      Accumulate(b.v, eps, &lt);
      nspans += b.v.size();
    }
    double layer_sum = 0;
    for (int l = 0; l < kNumLayers; ++l) layer_sum += lt.self_ns[l];
    out.Num("trace.empty_span_ns", eps);
    out.Int("trace.spans", nspans);
    out.Int("trace.call_spans", lt.call_spans);
    out.Int("trace.tree_errors", lt.tree_errors);
    out.Num("trace.call_ns", lt.call_ns);
    out.Num("trace.layer_self_ns", layer_sum);
    // The request spans must fit in the request time the executor
    // measured with its own clock reads around them.
    out.Num("trace.request_ns", lt.request_ns);
    out.Num("trace.busy_ns", static_cast<double>(ex.TotalBusyNs()));
    auto share = [&](int l) { return Ratio(lt.self_ns[l], layer_sum); };
    const double tc_alloc = lt.alloc_self[kLayerThreadCache].size();
    const double mid_alloc = lt.alloc_self[kLayerMiddle].size();
    const double tc_free = lt.free_self[kLayerThreadCache].size();
    const double mid_free = lt.free_self[kLayerMiddle].size();
    out.Num("thread_cache.alloc_hit_rate", Ratio(tc_alloc, tc_alloc + mid_alloc));
    out.Num("thread_cache.free_hit_rate", Ratio(tc_free, tc_free + mid_free));
    out.Num("thread_cache.alloc_hit_ns_p50",
            Quantile(lt.alloc_self[kLayerThreadCache], 0.5));
    out.Num("thread_cache.free_hit_ns_p50",
            Quantile(lt.free_self[kLayerThreadCache], 0.5));
    out.Num("thread_cache.time_share", share(kLayerThreadCache));
    out.Num("middle.alloc_miss_ns_p50", Quantile(lt.alloc_self[kLayerMiddle], 0.5));
    out.Num("middle.alloc_miss_ns_p99", Quantile(lt.alloc_self[kLayerMiddle], 0.99));
    out.Num("middle.free_miss_ns_p50", Quantile(lt.free_self[kLayerMiddle], 0.5));
    out.Num("middle.free_miss_ns_p99", Quantile(lt.free_self[kLayerMiddle], 0.99));
    out.Num("middle.time_share", share(kLayerMiddle));
    out.Num("large.alloc_ns_p50", Quantile(lt.alloc_self[kLayerLarge], 0.5));
    out.Num("large.alloc_ns_p99", Quantile(lt.alloc_self[kLayerLarge], 0.99));
    out.Num("large.free_ns_p50", Quantile(lt.free_self[kLayerLarge], 0.5));
    out.Num("large.free_ns_p99", Quantile(lt.free_self[kLayerLarge], 0.99));
    out.Num("large.time_share", share(kLayerLarge));
    out.Num("release.call_ms_p50",
            Quantile(lt.other_self[kLayerRelease], 0.5, 1e-6));
    out.Num("release.time_share", share(kLayerRelease));
    out.Num("registry.register_us_p50",
            Quantile(lt.other_self[kLayerRegistry], 0.5, 1e-3));
    out.Num("registry.time_share", share(kLayerRegistry));
    out.Num("shim.time_share", share(kLayerShim));

    if (flags.spans_out != nullptr) {
      if (FILE* f = std::fopen(flags.spans_out, "wb")) {
        for (int b = 0; b < kBuffers; ++b) {
          const MmapVec<Span>& v = tracer.spans[b].v;
          const uint64_t hdr[2] = {static_cast<uint64_t>(b), v.size()};
          std::fwrite(hdr, sizeof(hdr), 1, f);
          std::fwrite(v.data(), sizeof(Span), v.size(), f);
        }
        std::fclose(f);
      }
    }
  }
  out.Print();
  return 0;
}

}  // namespace
}  // namespace wscbench

int main(int argc, char** argv) { return wscbench::Main(argc, argv); }
