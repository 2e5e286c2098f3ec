// Tests for the allocator's background actions: idle per-CPU cache
// reclaim and transfer-cache cold-object draining, the paths that let
// spans drain back to the central free list when demand for a class
// subsides (prerequisites for Figs. 13/14/16); and the memory-pressure
// control plane (background.h): limits, the soft-limit reclaim cascade,
// ReleaseMemoryToSystem and hard-limit failure accounting.

#include <gtest/gtest.h>

#include <string_view>
#include <vector>

#include "tcmalloc/allocator.h"
#include "tcmalloc/per_cpu_cache.h"
#include "tcmalloc/transfer_cache.h"

namespace wsc::tcmalloc {
namespace {

AllocatorConfig SmallConfig() {
  return AllocatorConfig::Builder()
      .WithVcpus(4)
      .WithCpuCacheBytes(256 * 1024)
      .WithCpuCacheMinBytes(16 * 1024)
      .Build();
}

// Allocates `count` objects of `size` and returns them.
std::vector<uintptr_t> AllocateMany(Allocator& alloc, size_t size,
                                    int count) {
  std::vector<uintptr_t> objs;
  objs.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    uintptr_t p = alloc.Allocate(size, i % 4, 0);
    if (p != 0) objs.push_back(p);
  }
  return objs;
}

// One "pressure" metric from a fresh telemetry snapshot.
double PressureMetric(Allocator& alloc, std::string_view name) {
  telemetry::Snapshot snapshot = alloc.TelemetrySnapshot();
  const telemetry::MetricSample* sample = snapshot.Find("pressure", name);
  EXPECT_NE(sample, nullptr) << name;
  return sample != nullptr ? sample->ScalarValue() : -1;
}

TEST(IdleReclaim, FlushesCachesWithNoRecentOps) {
  CpuCacheSet cache(&SizeClasses::Default(), SmallConfig());
  uintptr_t base = uintptr_t{1} << 44;
  for (int i = 0; i < 10; ++i) cache.Deallocate(1, 0, base + 8 * i);
  ASSERT_GT(cache.GetVcpuStats(1).used_bytes, 0u);

  // First step: vCPU 1 had ops this interval (the deallocations), so it
  // is not reclaimed yet.
  size_t flushed = 0;
  auto sink = [&flushed](int, const uintptr_t*, int n) { flushed += n; };
  cache.ResizeStep(sink);
  EXPECT_EQ(flushed, 0u);
  EXPECT_GT(cache.GetVcpuStats(1).used_bytes, 0u);

  // Second step with no intervening activity: idle -> reclaimed.
  cache.ResizeStep(sink);
  EXPECT_EQ(flushed, 10u);
  EXPECT_EQ(cache.GetVcpuStats(1).used_bytes, 0u);
}

TEST(IdleReclaim, ActiveCachesAreNotTouched) {
  CpuCacheSet cache(&SizeClasses::Default(), SmallConfig());
  uintptr_t base = uintptr_t{1} << 44;
  for (int i = 0; i < 10; ++i) cache.Deallocate(2, 0, base + 8 * i);
  cache.ResizeStep([](int, const uintptr_t*, int) {});
  // Keep vCPU 2 active.
  cache.Allocate(2, 0);
  size_t flushed = 0;
  cache.ResizeStep([&flushed](int, const uintptr_t*, int n) { flushed += n; });
  EXPECT_EQ(flushed, 0u);
  EXPECT_GT(cache.GetVcpuStats(2).used_bytes, 0u);
}

TEST(DrainCold, MovesOnlyUntouchedCentralObjects) {
  AllocatorConfig config;
  TransferCache tc(&SizeClasses::Default(), config);
  int cls = 3;
  uintptr_t base = uintptr_t{1} << 44;
  std::vector<uintptr_t> objs;
  for (int i = 0; i < 8; ++i) objs.push_back(base + 64 * i);
  ASSERT_EQ(tc.Insert(0, cls, objs.data(), 8), 8);

  // Arm the low-water mark.
  size_t drained = 0;
  auto sink = [&drained](int, const uintptr_t*, int n) { drained += n; };
  tc.DrainCold(sink);
  EXPECT_EQ(drained, 0u);  // everything arrived during this interval

  // Touch two objects (remove + reinsert): low water = 6.
  uintptr_t out[2];
  ASSERT_EQ(tc.Remove(0, cls, out, 2), 2);
  tc.Insert(0, cls, out, 2);
  tc.DrainCold(sink);
  EXPECT_EQ(drained, 6u);

  // The remaining two are still available.
  uintptr_t rest[4];
  EXPECT_EQ(tc.Remove(0, cls, rest, 4), 2);
}

TEST(DrainCold, DrainsFromTheColdBottomOfTheStack) {
  AllocatorConfig config;
  TransferCache tc(&SizeClasses::Default(), config);
  int cls = 0;
  uintptr_t cold = 0x100000000000;
  uintptr_t hot = 0x200000000000;
  tc.Insert(0, cls, &cold, 1);
  tc.DrainCold([](int, const uintptr_t*, int) {});  // arm
  tc.Insert(0, cls, &hot, 1);
  std::vector<uintptr_t> drained;
  tc.DrainCold([&drained](int, const uintptr_t* objs, int n) {
    for (int i = 0; i < n; ++i) drained.push_back(objs[i]);
  });
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0], cold);  // the old object left; the new one stayed
}

TEST(BackgroundActions, MaintainDrainsIdleMemoryEndToEnd) {
  // Allocate, free everything, and let two Maintain passes move all
  // cached objects back so every span returns to the page heap.
  AllocatorConfig config = SmallConfig();
  Allocator alloc(config);
  std::vector<uintptr_t> objs;
  for (int i = 0; i < 5000; ++i) {
    objs.push_back(alloc.Allocate(64, i % 4, 0));
  }
  for (uintptr_t p : objs) alloc.Free(p, 0, 0);

  alloc.Maintain(Seconds(10));
  alloc.Maintain(Seconds(20));
  alloc.Maintain(Seconds(30));

  HeapStats stats = alloc.CollectStats();
  EXPECT_EQ(stats.live_bytes, 0u);
  EXPECT_EQ(stats.cpu_cache_free, 0u);       // idle caches reclaimed
  EXPECT_EQ(stats.transfer_cache_free, 0u);  // cold objects drained
  EXPECT_EQ(stats.central_free_list_free, 0u);  // spans fully returned
  uint64_t returned = 0;
  int cls = alloc.size_classes().ClassFor(64);
  returned = alloc.central_free_list(cls).stats().returned_spans;
  EXPECT_GT(returned, 0u);
}

// ---- The control plane's limits ----

TEST(Reclaimer, PressureComponentExistsFromConstruction) {
  // Registered at construction: visible, at zero, before any limit is set.
  Allocator alloc(SmallConfig());
  EXPECT_EQ(PressureMetric(alloc, "reclaimed_bytes"), 0.0);
  EXPECT_EQ(PressureMetric(alloc, "reclaim_runs"), 0.0);
}

TEST(Reclaimer, LimitRoundTripsAndExportsGauges) {
  Allocator alloc(SmallConfig());
  BackgroundReclaimer& reclaimer = alloc.reclaimer();
  reclaimer.SetLimit(MemoryLimitKind::kSoft, 5 << 20);
  reclaimer.SetLimit(MemoryLimitKind::kHard, 9 << 20);
  EXPECT_EQ(reclaimer.GetLimit(MemoryLimitKind::kSoft), size_t{5} << 20);
  EXPECT_EQ(reclaimer.GetLimit(MemoryLimitKind::kHard), size_t{9} << 20);
  EXPECT_EQ(PressureMetric(alloc, "soft_limit_bytes"),
            static_cast<double>(5 << 20));
  EXPECT_EQ(PressureMetric(alloc, "hard_limit_bytes"),
            static_cast<double>(9 << 20));
}

TEST(Reclaimer, ConfiguredLimitsReachTheReclaimer) {
  AllocatorConfig config = AllocatorConfig::Builder()
                               .WithSoftMemoryLimit(64 << 20)
                               .WithHardMemoryLimit(128 << 20)
                               .Build();
  Allocator alloc(config);
  EXPECT_EQ(alloc.reclaimer().GetLimit(MemoryLimitKind::kSoft),
            size_t{64} << 20);
  EXPECT_EQ(alloc.reclaimer().GetLimit(MemoryLimitKind::kHard),
            size_t{128} << 20);
}

// ---- Soft limit: the reclaim cascade ----

TEST(SoftLimit, ReclaimsTowardLimitAtMaintainBoundaries) {
  Allocator alloc(SmallConfig());

  // Build a footprint with a reclaimable half: allocate then free every
  // other object, leaving cached objects and fragmented spans behind.
  auto objs = AllocateMany(alloc, 4096, 20000);
  for (size_t i = 0; i < objs.size(); i += 2) {
    alloc.Free(objs[i], static_cast<int>(i) % 4, 0);
  }

  // Let the regular background actions settle first so the drop we observe
  // below is attributable to the pressure cascade, not routine maintenance.
  alloc.Maintain(Seconds(1));
  size_t before = alloc.FootprintBytes();
  size_t limit = static_cast<size_t>(0.8 * static_cast<double>(before));
  alloc.reclaimer().SetLimit(MemoryLimitKind::kSoft, limit);
  alloc.Maintain(Seconds(10));

  size_t after = alloc.FootprintBytes();
  EXPECT_LT(after, before);
  EXPECT_GT(PressureMetric(alloc, "reclaimed_bytes"), 0.0);
  EXPECT_GE(PressureMetric(alloc, "soft_limit_hits"), 1.0);
  EXPECT_GE(PressureMetric(alloc, "reclaim_runs"), 1.0);

  for (size_t i = 1; i < objs.size(); i += 2) {
    alloc.Free(objs[i], 0, 0);
  }
}

TEST(SoftLimit, CascadeShrinksCpuCachesBelowFloor) {
  Allocator alloc(SmallConfig());
  auto objs = AllocateMany(alloc, 256, 20000);
  for (uintptr_t p : objs) alloc.Free(p, 0, 0);
  ASSERT_GT(alloc.cpu_caches().TotalCachedBytes(), 0u);

  // An unreachable target forces every tier to run dry, including tier 1.
  alloc.reclaimer().SetLimit(MemoryLimitKind::kSoft, 1);
  alloc.Maintain(Seconds(10));
  EXPECT_TRUE(alloc.cpu_caches().pressure_capped());
  EXPECT_EQ(alloc.cpu_caches().TotalCachedBytes(), 0u);
  EXPECT_EQ(alloc.transfer_cache().TotalCachedBytes(), 0u);

  // Lifting the limit (footprint back under) uncaps the caches.
  alloc.reclaimer().SetLimit(MemoryLimitKind::kSoft, size_t{1} << 40);
  alloc.Maintain(Seconds(20));
  EXPECT_FALSE(alloc.cpu_caches().pressure_capped());
}

TEST(SoftLimit, NoReclaimWhenUnderLimit) {
  Allocator alloc(SmallConfig());
  auto objs = AllocateMany(alloc, 128, 1000);
  alloc.reclaimer().SetLimit(MemoryLimitKind::kSoft, size_t{1} << 40);
  alloc.Maintain(Seconds(10));
  EXPECT_EQ(PressureMetric(alloc, "soft_limit_hits"), 0.0);
  EXPECT_EQ(PressureMetric(alloc, "reclaimed_bytes"), 0.0);
  for (uintptr_t p : objs) alloc.Free(p, 0, 0);
}

// ---- ReleaseMemoryToSystem ----

TEST(ReleaseMemoryToSystem, ReleasesFreeBackendMemory) {
  Allocator alloc(SmallConfig());

  // Large buffers go straight to the page heap; freeing them leaves whole
  // hugepages cached in the back end.
  std::vector<uintptr_t> bufs;
  for (int i = 0; i < 32; ++i) {
    bufs.push_back(alloc.Allocate(size_t{2} << 20, 0, 0));
  }
  for (uintptr_t p : bufs) alloc.Free(p, 0, 0);

  size_t released = alloc.reclaimer().ReleaseMemoryToSystem(size_t{16} << 20);
  EXPECT_GE(released, size_t{16} << 20);
  EXPECT_EQ(PressureMetric(alloc, "reclaimed_bytes"),
            static_cast<double>(released));
}

TEST(ReleaseMemoryToSystem, ZeroWhenNothingToRelease) {
  Allocator alloc(SmallConfig());
  EXPECT_EQ(alloc.reclaimer().ReleaseMemoryToSystem(size_t{1} << 20), 0u);
}

// ---- Hard limit: counted, surfaced failures ----

TEST(HardLimit, AllocationsFailPastTheLimit) {
  const size_t kLimit = size_t{8} << 20;
  AllocatorConfig config = AllocatorConfig::Builder()
                               .WithVcpus(4)
                               .WithHardMemoryLimit(kLimit)
                               .Build();
  Allocator alloc(config);

  uint64_t failures = 0;
  std::vector<uintptr_t> objs;
  for (int i = 0; i < 30000; ++i) {
    uintptr_t p = alloc.Allocate(1024, i % 4, 0);
    if (p == 0) {
      ++failures;
    } else {
      objs.push_back(p);
    }
  }
  EXPECT_GT(failures, 0u);
  EXPECT_LE(alloc.FootprintBytes(), kLimit);
  EXPECT_EQ(PressureMetric(alloc, "hard_limit_failures"),
            static_cast<double>(failures));
  // Failed allocations are not counted as allocations.
  EXPECT_EQ(alloc.num_allocations(), objs.size());

  // Freeing memory makes allocations admissible again.
  for (uintptr_t p : objs) alloc.Free(p, 0, 0);
  EXPECT_NE(alloc.Allocate(1024, 0, 0), 0u);
}

TEST(HardLimit, EmergencyReclaimAvoidsSpuriousFailures) {
  // Footprint dominated by reclaimable cached memory: the admission path's
  // emergency reclaim must free it rather than fail the allocation.
  const size_t kLimit = size_t{48} << 20;
  AllocatorConfig config = AllocatorConfig::Builder()
                               .WithVcpus(4)
                               .WithHardMemoryLimit(kLimit)
                               .Build();
  Allocator alloc(config);

  // Fill most of the budget with large buffers, free them (now cached in
  // the back end), then allocate again: without emergency reclaim the
  // cached hugepages would push the footprint over the limit.
  std::vector<uintptr_t> bufs;
  for (int i = 0; i < 20; ++i) {
    bufs.push_back(alloc.Allocate(size_t{2} << 20, 0, 0));
  }
  for (uintptr_t p : bufs) alloc.Free(p, 0, 0);

  bufs.clear();
  uint64_t failures = 0;
  for (int i = 0; i < 20; ++i) {
    uintptr_t p = alloc.Allocate(size_t{2} << 20, 0, 0);
    if (p == 0) {
      ++failures;
    } else {
      bufs.push_back(p);
    }
  }
  EXPECT_EQ(failures, 0u);
  for (uintptr_t p : bufs) alloc.Free(p, 0, 0);
}

}  // namespace
}  // namespace wsc::tcmalloc
