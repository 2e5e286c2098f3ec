// End-to-end tests of the allocator facade: correctness of the malloc/free
// contract, tier routing, cycle accounting, and heap statistics.

#include "tcmalloc/allocator.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"

namespace wsc::tcmalloc {
namespace {

AllocatorConfig::Builder TestBuilder() {
  return AllocatorConfig::Builder().WithVcpus(4).WithArena(
      uintptr_t{1} << 44, size_t{32} << 30);
}

AllocatorConfig TestConfig() { return TestBuilder().Build(); }

TEST(Allocator, SmallAllocationRoundTrip) {
  Allocator alloc(TestConfig());
  uintptr_t p = alloc.Allocate(100, 0, 0);
  EXPECT_NE(p, 0u);
  HeapStats stats = alloc.CollectStats();
  // 100 B rounds to a size class >= 100.
  EXPECT_GE(stats.live_bytes, 100u);
  EXPECT_LE(stats.live_bytes, 128u);
  alloc.Free(p, 0, 0);
  EXPECT_EQ(alloc.CollectStats().live_bytes, 0u);
  EXPECT_EQ(alloc.num_allocations(), 1u);
  EXPECT_EQ(alloc.num_frees(), 1u);
}

TEST(Allocator, LargeAllocationBypassesCaches) {
  Allocator alloc(TestConfig());
  uintptr_t p = alloc.Allocate(1 << 20, 0, 0);
  EXPECT_NE(p, 0u);
  EXPECT_EQ(alloc.alloc_tier_hits().page_heap, 1u);
  EXPECT_EQ(alloc.alloc_tier_hits().cpu_cache, 0u);
  HeapStats stats = alloc.CollectStats();
  EXPECT_GE(stats.live_bytes, size_t{1} << 20);
  alloc.Free(p, 0, 0);
  EXPECT_EQ(alloc.CollectStats().live_bytes, 0u);
}

TEST(Allocator, SecondAllocationHitsCpuCache) {
  Allocator alloc(TestConfig());
  uintptr_t p = alloc.Allocate(64, 0, 0);
  alloc.Free(p, 0, 0);  // lands in the vCPU-0 cache
  uintptr_t q = alloc.Allocate(64, 0, 0);
  EXPECT_EQ(q, p);  // LIFO reuse
  EXPECT_GE(alloc.alloc_tier_hits().cpu_cache, 1u);
}

TEST(Allocator, BatchRefillPopulatesCache) {
  Allocator alloc(TestConfig());
  const SizeClasses& sc = alloc.size_classes();
  int cls = sc.ClassFor(64);
  // First allocation misses everywhere and refills from the CFL.
  alloc.Allocate(64, 0, 0);
  // batch - 1 objects cached: the next batch-1 allocations all hit.
  uint64_t misses_before = alloc.cpu_caches().GetVcpuStats(0).underflows;
  for (int i = 1; i < sc.batch_size(cls); ++i) alloc.Allocate(64, 0, 0);
  EXPECT_EQ(alloc.cpu_caches().GetVcpuStats(0).underflows, misses_before);
}

TEST(Allocator, NoTwoLiveObjectsOverlap) {
  Allocator alloc(TestConfig());
  Rng rng(99);
  struct Obj {
    uintptr_t addr;
    size_t size;
  };
  std::vector<Obj> live;
  std::map<uintptr_t, size_t> intervals;  // addr -> allocated extent
  const SizeClasses& sc = alloc.size_classes();
  for (int i = 0; i < 20000; ++i) {
    if (!live.empty() && rng.Bernoulli(0.45)) {
      size_t k = rng.UniformInt(live.size());
      alloc.Free(live[k].addr, static_cast<int>(rng.UniformInt(4)), i);
      intervals.erase(live[k].addr);
      live[k] = live.back();
      live.pop_back();
    } else {
      size_t size = 1 + rng.UniformInt(rng.Bernoulli(0.05) ? 500000 : 3000);
      uintptr_t addr =
          alloc.Allocate(size, static_cast<int>(rng.UniformInt(4)), i);
      int cls = sc.ClassFor(size);
      size_t extent = cls >= 0 ? sc.class_size(cls)
                               : LengthToBytes(BytesToLengthCeil(size));
      // Check against neighbors in the interval map.
      auto next = intervals.lower_bound(addr);
      if (next != intervals.end()) {
        ASSERT_LE(addr + extent, next->first) << "overlap above";
      }
      if (next != intervals.begin()) {
        auto prev = std::prev(next);
        ASSERT_LE(prev->first + prev->second, addr) << "overlap below";
      }
      intervals[addr] = extent;
      live.push_back({addr, size});
    }
  }
  // Random vCPUs hand small and large blocks across caches; a full drain
  // must still balance.
  for (const Obj& obj : live) {
    alloc.Free(obj.addr, static_cast<int>(rng.UniformInt(4)), 20000);
  }
  EXPECT_EQ(alloc.CollectStats().live_bytes, 0u);
  EXPECT_EQ(alloc.num_allocations(), alloc.num_frees());
}

TEST(AllocatorDeathTest, DoubleFreeOfCachedObjectIsEventuallyFatal) {
  // Freeing twice puts the same address in the cache twice; the second
  // round-trip through the span layer detects it. Directly freeing an
  // address that was never allocated dies on the pagemap lookup.
  Allocator alloc(TestConfig());
  EXPECT_DEATH(alloc.Free(uintptr_t{1} << 45, 0, 0), "CHECK failed");
}

TEST(AllocatorDeathTest, ZeroSizeAllocationIsFatal) {
  Allocator alloc(TestConfig());
  EXPECT_DEATH(alloc.Allocate(0, 0, 0), "CHECK failed");
}

// The simulator runs only on its virtual arena; a real-memory config is
// RealThreadsAllocator's.
TEST(AllocatorDeathTest, RealMemoryConfigIsFatal) {
  AllocatorConfig config =
      AllocatorConfig::Builder().WithVcpus(4).WithRealMemory().Build();
  EXPECT_DEATH(Allocator{config}, "real_memory is set");
}

TEST(Allocator, CycleAccountingAttributesAllPaths) {
  Allocator alloc(TestConfig());
  Rng rng(5);
  std::vector<uintptr_t> live;
  for (int i = 0; i < 5000; ++i) {
    if (!live.empty() && rng.Bernoulli(0.4)) {
      alloc.Free(live.back(), 0, i);
      live.pop_back();
    } else {
      live.push_back(alloc.Allocate(1 + rng.UniformInt(4096), 0, i));
    }
  }
  const MallocCycleBreakdown& cycles = alloc.cycle_breakdown();
  EXPECT_GT(cycles.cpu_cache_ns, 0.0);
  EXPECT_GT(cycles.central_free_list_ns, 0.0);
  EXPECT_GT(cycles.page_heap_ns, 0.0);
  EXPECT_GT(cycles.mmap_ns, 0.0);
  EXPECT_GT(cycles.prefetch_ns, 0.0);
  EXPECT_GT(cycles.other_ns, 0.0);
  EXPECT_GT(cycles.Total(), 0.0);
  // The fast path dominates operation counts, so per-op cost is small.
  double per_op = cycles.Total() /
                  static_cast<double>(alloc.num_allocations() +
                                      alloc.num_frees());
  EXPECT_LT(per_op, 100.0);
}

TEST(Allocator, LastOpNsTracksTierCosts) {
  AllocatorConfig config = TestConfig();
  Allocator alloc(config);
  // First alloc goes through CFL + page heap + mmap: expensive.
  alloc.Allocate(64, 0, 0);
  double slow = alloc.last_op_ns();
  EXPECT_GT(slow, kCostModel.page_heap_ns);
  // Second allocation of the same class: fast path only.
  alloc.Allocate(64, 0, 0);
  double fast = alloc.last_op_ns();
  EXPECT_LT(fast, 10.0);
  EXPECT_GT(slow, 10 * fast);
}

TEST(Allocator, HeapStatsBalance) {
  Allocator alloc(TestConfig());
  Rng rng(123);
  std::vector<uintptr_t> live;
  for (int i = 0; i < 30000; ++i) {
    if (!live.empty() && rng.Bernoulli(0.5)) {
      size_t k = rng.UniformInt(live.size());
      alloc.Free(live[k], 0, i);
      live[k] = live.back();
      live.pop_back();
    } else {
      live.push_back(alloc.Allocate(1 + rng.UniformInt(60000), 0, i));
    }
  }
  HeapStats stats = alloc.CollectStats();
  EXPECT_GT(stats.live_bytes, 0u);
  EXPECT_GE(stats.live_bytes, stats.requested_bytes);
  // The heap footprint covers live + cached-free memory and never exceeds
  // what was mapped from the system (minus released).
  EXPECT_LE(stats.HeapBytes(),
            alloc.system_stats().mapped_bytes);
  EXPECT_GT(stats.ExternalFragmentation(), 0u);
}

TEST(Allocator, FreeFromAnyVcpuIsAccepted) {
  Allocator alloc(TestConfig());
  uintptr_t p = alloc.Allocate(128, 0, 0);
  alloc.Free(p, 3, 0);  // freed by a different vCPU
  HeapStats stats = alloc.CollectStats();
  EXPECT_EQ(stats.live_bytes, 0u);
  // The object now sits in vCPU 3's cache.
  EXPECT_GT(alloc.cpu_caches().GetVcpuStats(3).used_bytes, 0u);
}

TEST(Allocator, MaintainRunsBackgroundTasks) {
  AllocatorConfig config = TestBuilder().WithDynamicCpuCaches().Build();
  Allocator alloc(config);
  std::vector<uintptr_t> live;
  for (int i = 0; i < 10000; ++i) {
    live.push_back(alloc.Allocate(64, 0, 0));
  }
  for (uintptr_t p : live) alloc.Free(p, 1, 0);
  // Maintain must not crash and should trigger resize + release paths.
  alloc.Maintain(Seconds(10));
  alloc.Maintain(Seconds(20));
  SUCCEED();
}

TEST(Allocator, AllocationHistogramsTrackSizes) {
  Allocator alloc(TestConfig());
  alloc.Allocate(100, 0, 0);
  alloc.Allocate(100, 0, 0);
  alloc.Allocate(1 << 20, 0, 0);
  EXPECT_EQ(alloc.alloc_count_hist().count(), 3u);
  // By count, small objects dominate; by bytes, the 1 MiB one does.
  EXPECT_GT(alloc.alloc_count_hist().FractionBelow(1024), 0.6);
  EXPECT_GT(alloc.alloc_bytes_hist().FractionAtLeast(1 << 19), 0.9);
}

TEST(Allocator, SampledAllocationsChargedSampledCycles) {
  AllocatorConfig config = TestBuilder().WithSampleIntervalBytes(4096).Build();
  Allocator alloc(config);
  for (int i = 0; i < 1000; ++i) alloc.Allocate(512, 0, 0);
  EXPECT_GT(alloc.sampler().samples_taken(), 50u);
  EXPECT_GT(alloc.cycle_breakdown().sampled_ns, 0.0);
}

TEST(Allocator, VcpuDomainMappingValidated) {
  AllocatorConfig config =
      TestBuilder().WithNucaTransferCache().WithLlcDomains(2).Build();
  Allocator alloc(config);
  alloc.SetVcpuDomain(0, 1);
  EXPECT_EQ(alloc.DomainOfVcpu(0), 1);
}

TEST(AllocatorDeathTest, InvalidDomainIsFatal) {
  AllocatorConfig config = TestBuilder().WithLlcDomains(2).Build();
  Allocator alloc(config);
  EXPECT_DEATH(alloc.SetVcpuDomain(0, 5), "CHECK failed");
}

// ---- Growth failure: an arena that cannot grow degrades, never crashes,
// and every recovery shows up in the "failure" telemetry component.

constexpr uintptr_t kBase = uintptr_t{1} << 44;

AllocatorConfig::Builder SmallArenaBuilder(size_t arena_bytes) {
  return AllocatorConfig::Builder().WithVcpus(2).WithArena(kBase, arena_bytes);
}

// One "failure" counter from a fresh snapshot (the component's metrics
// exist from construction).
double FailureCount(Allocator& alloc, std::string_view name) {
  telemetry::Snapshot snapshot = alloc.TelemetrySnapshot();
  const telemetry::MetricSample* sample = snapshot.Find("failure", name);
  EXPECT_NE(sample, nullptr) << name;
  return sample != nullptr ? sample->ScalarValue() : 0;
}

TEST(FaultHardening, ArenaExhaustionSurfacesAndRecoversAfterFrees) {
  // A tiny arena fills up; allocations start failing (simulated OOM) with
  // counted failures. After everything is freed the allocator serves again
  // from its own caches — no fresh mmap needed.
  AllocatorConfig config = SmallArenaBuilder(8 * kHugePageSize).Build();
  Allocator alloc(config);

  std::vector<uintptr_t> live;
  uintptr_t addr = 0;
  int failures = 0;
  for (int i = 0; i < 100000; ++i) {
    addr = alloc.Allocate(8192, 0, 0);
    if (addr == 0) {
      ++failures;
      if (failures >= 3) break;  // keep failing, keep not crashing
      continue;
    }
    live.push_back(addr);
  }
  ASSERT_GE(failures, 3);
  ASSERT_FALSE(live.empty());

  EXPECT_GE(FailureCount(alloc, "alloc_failures"), 3.0);

  for (uintptr_t p : live) alloc.Free(p, 0, 0);
  EXPECT_NE(alloc.Allocate(8192, 0, 0), 0u);
}

TEST(FaultHardening, LargeAllocationBeyondArenaFailsGracefully) {
  // A large request the arena can never hold comes back as 0 — a counted
  // failure — without crashing, and the arena keeps serving.
  AllocatorConfig config = SmallArenaBuilder(8 * kHugePageSize).Build();
  Allocator alloc(config);

  EXPECT_EQ(alloc.Allocate(16 * kHugePageSize, 0, 0), 0u);
  EXPECT_EQ(alloc.num_allocations(), 0u);  // failures don't count

  EXPECT_GE(FailureCount(alloc, "alloc_failures"), 1.0);
  EXPECT_GT(FailureCount(alloc, "mmap_denied"), 0.0);
  EXPECT_GT(FailureCount(alloc, "large_failures"), 0.0);
  EXPECT_NE(alloc.Allocate(64, 0, 0), 0u);
}

TEST(FaultHardening, EmergencyReclaimRecoversDeniedGrowth) {
  // Park most of a small arena in vCPU 0's oversized cache (every size
  // class filled to its per-CPU cap), then keep allocating from vCPU 1.
  // Once the page heap's leftovers run out, the arena refuses to grow and
  // the only way to serve vCPU 1 is the emergency cascade mobilizing vCPU
  // 0's cached bytes — allocations must keep succeeding, with the recovery
  // counted.
  AllocatorConfig config = SmallArenaBuilder(8 * kHugePageSize)
                               .WithCpuCacheBytes(32 * kHugePageSize)
                               .Build();
  Allocator alloc(config);

  const SizeClasses& classes = alloc.size_classes();
  for (int cls = 0; cls < classes.num_classes(); ++cls) {
    std::vector<uintptr_t> parked;
    for (int i = 0; i < classes.info(cls).max_per_cpu_objects; ++i) {
      uintptr_t addr = alloc.Allocate(classes.class_size(cls), /*vcpu=*/0, 0);
      ASSERT_NE(addr, 0u);
      parked.push_back(addr);
    }
    for (uintptr_t p : parked) alloc.Free(p, /*vcpu=*/0, 0);
  }
  ASSERT_GT(alloc.CollectStats().cpu_cache_free, 4 * kHugePageSize);

  for (int i = 0; i < 3000; ++i) {
    ASSERT_NE(alloc.Allocate(8192, /*vcpu=*/1, 0), 0u) << "iteration " << i;
    if (FailureCount(alloc, "recovered_allocations") > 0) break;
  }
  EXPECT_GT(FailureCount(alloc, "emergency_recoveries"), 0.0);
  EXPECT_GT(FailureCount(alloc, "recovered_allocations"), 0.0);
  EXPECT_GT(FailureCount(alloc, "mmap_denied"), 0.0);
}

TEST(FaultHardening, FailureComponentAlwaysPresentInSnapshots) {
  // The live "failure" handles exist from construction, so fleet merges
  // and statsz dumps always see the component even on healthy runs.
  AllocatorConfig config = SmallArenaBuilder(size_t{1} << 30).Build();
  Allocator alloc(config);
  uintptr_t p = alloc.Allocate(64, 0, 0);
  alloc.Free(p, 0, 0);

  telemetry::Snapshot snapshot = alloc.TelemetrySnapshot();
  const std::vector<std::string> names = {
      "alloc_failures",         "emergency_recoveries",
      "recovered_allocations",  "partial_batches",
      "mmap_denied",            "huge_cache_allocation_failures",
      "filler_growth_failures", "filler_cross_set_fallbacks",
      "region_growth_failures", "span_fetch_failures",
      "large_fallbacks",        "large_failures"};
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const telemetry::MetricSample* sample = snapshot.Find("failure", name);
    ASSERT_NE(sample, nullptr);
    EXPECT_EQ(sample->ScalarValue(), 0.0);  // healthy run: all zero
  }
  size_t failure_metrics = 0;
  for (const telemetry::MetricSample& sample : snapshot.samples) {
    if (sample.component == "failure") ++failure_metrics;
  }
  EXPECT_EQ(failure_metrics, names.size());
}

}  // namespace
}  // namespace wsc::tcmalloc
