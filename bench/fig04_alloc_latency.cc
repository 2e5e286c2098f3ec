// Fig. 4: disparity in allocation latency across the TCMalloc cache tiers.
//
// Paper (production x86): CPUCache 3.1 ns, TransferCache 12.9 ns,
// CentralFreeList 16.7 ns, PageHeap 137 ns, mmap orders of magnitude more.
//
// We report two things per tier:
//   (1) the *simulated* cost charged by the calibrated cost model (these
//       reproduce the paper's numbers by construction, and every other
//       experiment builds on them), and
//   (2) the *host-measured* wall-clock cost of this implementation's code
//       path, via google-benchmark, to show the implementation preserves
//       the ordering cpu-cache << transfer-cache < CFL << pageheap.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "tcmalloc/allocator.h"

namespace {

using wsc::tcmalloc::Allocator;
using wsc::tcmalloc::AllocatorConfig;
using wsc::tcmalloc::kCostModel;

AllocatorConfig BenchConfig() {
  return AllocatorConfig::Builder()
      .WithVcpus(2)
      .WithArena(uintptr_t{1} << 44, size_t{32} << 30)
      .Build();
}

// Fast path: allocation served by the per-CPU cache (pre-warmed: each
// iteration frees right back, so the object stays in the vCPU cache).
void BM_CpuCacheHit(benchmark::State& state) {
  Allocator alloc(BenchConfig());
  uintptr_t p = alloc.Allocate(64, 0, 0);
  alloc.Free(p, 0, 0);
  for (auto _ : state) {
    uintptr_t q = alloc.Allocate(64, 0, 0);
    benchmark::DoNotOptimize(q);
    alloc.Free(q, 0, 0);
  }
  state.SetLabel("paper: 3.1 ns (simulated cost: " +
                 std::to_string(kCostModel.cpu_cache_hit_ns) +
                 " ns)");
}

// Transfer-cache path: one insert + one remove of a batch through the
// mutex-protected flat-array cache (reported per round trip).
void BM_TransferCacheRoundTrip(benchmark::State& state) {
  Allocator alloc(BenchConfig());
  int cls = alloc.size_classes().ClassFor(64);
  uintptr_t obj = alloc.Allocate(64, 0, 0);
  auto& tc = alloc.transfer_cache();
  for (auto _ : state) {
    tc.Insert(0, cls, &obj, 1);
    uintptr_t out = 0;
    tc.Remove(0, cls, &out, 1);
    benchmark::DoNotOptimize(out);
  }
  state.SetLabel("paper: 12.9 ns (simulated cost: " +
                 std::to_string(kCostModel.transfer_cache_ns) +
                 " ns)");
}

// Central-free-list path: extract an object from a span's linked-list
// structure and return it (reported per round trip).
void BM_CentralFreeListRoundTrip(benchmark::State& state) {
  Allocator alloc(BenchConfig());
  int cls = alloc.size_classes().ClassFor(512);
  auto& cfl = alloc.central_free_list(cls);
  // Pin one object so the span stays resident in the CFL (otherwise every
  // round trip would return the span to the page heap and re-fetch it).
  uintptr_t pin = 0;
  cfl.RemoveRange(&pin, 1);
  for (auto _ : state) {
    uintptr_t obj = 0;
    cfl.RemoveRange(&obj, 1);
    benchmark::DoNotOptimize(obj);
    wsc::tcmalloc::Span* span = alloc.pagemap().LookupAddr(obj);
    cfl.InsertObject(span, obj);
  }
  state.SetLabel("paper: 16.7 ns (simulated cost: " +
                 std::to_string(kCostModel.central_free_list_ns) +
                 " ns)");
}

// Page-heap path: large allocations bypass all caches.
void BM_PageHeap(benchmark::State& state) {
  Allocator alloc(BenchConfig());
  for (auto _ : state) {
    uintptr_t q = alloc.Allocate(1 << 20, 0, 0);
    benchmark::DoNotOptimize(q);
    alloc.Free(q, 0, 0);
  }
  state.SetLabel("paper: 137 ns (simulated cost: " +
                 std::to_string(kCostModel.page_heap_ns) + " ns)");
}

// mmap path: every allocation grows the arena (nothing is ever freed, so
// the hugepage cache cannot satisfy the request).
void BM_MmapGrowth(benchmark::State& state) {
  Allocator alloc(BenchConfig());
  uint64_t allocated = 0;
  for (auto _ : state) {
    uintptr_t q = alloc.Allocate(8 << 20, 0, 0);
    benchmark::DoNotOptimize(q);
    allocated += 8 << 20;
    if (allocated > (size_t{24} << 30)) {
      state.SkipWithError("arena budget exhausted");
      break;
    }
  }
  state.SetLabel("paper: >>137 ns (simulated cost: " +
                 std::to_string(kCostModel.mmap_ns) + " ns)");
}

BENCHMARK(BM_CpuCacheHit);
BENCHMARK(BM_TransferCacheRoundTrip);
BENCHMARK(BM_CentralFreeListRoundTrip);
BENCHMARK(BM_PageHeap);
BENCHMARK(BM_MmapGrowth)->Iterations(2000);

}  // namespace

int main(int argc, char** argv) {
  // google-benchmark rejects unknown flags, so the shared wsc flags are
  // parsed first and stripped from argv before Initialize sees them.
  wsc::bench::ParseBenchFlags(argc, argv);
  wsc::bench::StripBenchFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  // Host-measured latencies aside, emit the standard machine-readable
  // lines from a small allocator exercise that touches every tier.
  wsc::bench::BenchTimer timer("fig04_alloc_latency");
  Allocator alloc(BenchConfig());
  const uint64_t iters = wsc::bench::BenchMaxRequests(20000);
  std::vector<uintptr_t> live;
  for (uint64_t i = 0; i < iters; ++i) {
    size_t size = 16 << (i % 8);
    if (i % 100 == 99) size = 2 << 20;  // page-heap path
    live.push_back(alloc.Allocate(size, static_cast<int>(i % 2),
                                  static_cast<wsc::SimTime>(i)));
    if (live.size() > 512) {
      alloc.Free(live.front(), static_cast<int>(i % 2),
                 static_cast<wsc::SimTime>(i));
      live.erase(live.begin());
    }
    if (i % 5000 == 0) alloc.Maintain(static_cast<wsc::SimTime>(i));
  }
  for (uintptr_t p : live) alloc.Free(p, 0, 0);
  timer.Report(iters);
  wsc::bench::ReportTelemetry(timer.bench(), alloc.TelemetrySnapshot());
  if (!wsc::bench::g_profile_path.empty()) {
    wsc::bench::ReportProfile(alloc.CollectHeapProfile());
  }
  return 0;
}
