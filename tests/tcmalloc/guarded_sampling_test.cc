// Tests for GWP-ASan-style guarded sampling: sampled allocations become
// guards, freed guards leave bounded tombstones, and driver-visible heap
// bugs — double free, use after free, buffer overrun — are detected,
// swallowed, and counted under "failure".

#include <gtest/gtest.h>

#include "hw/topology.h"
#include "tcmalloc/allocator.h"
#include "tcmalloc/malloc_extension.h"
#include "tcmalloc/sampler.h"
#include "workload/driver.h"
#include "workload/workload.h"

namespace wsc::tcmalloc {
namespace {

constexpr uintptr_t kBase = uintptr_t{1} << 44;

// Every allocation sampled (interval 1 byte) and guarded.
AllocatorConfig GuardedConfig() {
  return AllocatorConfig::Builder()
      .WithVcpus(2)
      .WithArena(kBase, size_t{8} << 30)
      .WithSampleIntervalBytes(1)
      .WithGuardedSampling()
      .Build();
}

TEST(SamplerGuards, FreeLeavesTombstoneAndTakeConsumesIt) {
  Sampler sampler(/*sample_interval_bytes=*/1);
  sampler.set_guarded(true);
  ASSERT_TRUE(sampler.RecordAllocation(0x100, 96, 128, Seconds(1), 42));
  EXPECT_TRUE(sampler.IsGuarded(0x100));

  sampler.RecordFree(0x100, Seconds(2));
  EXPECT_FALSE(sampler.IsGuarded(0x100));
  ASSERT_NE(sampler.FindTombstone(0x100), nullptr);
  EXPECT_EQ(sampler.FindTombstone(0x100)->requested, 96u);
  EXPECT_EQ(sampler.FindTombstone(0x100)->callsite, 42u);

  Sampler::Tombstone tomb;
  ASSERT_TRUE(sampler.TakeTombstone(0x100, &tomb));
  EXPECT_EQ(tomb.allocated, 128u);
  // One bug, one report: the tombstone is gone.
  EXPECT_FALSE(sampler.TakeTombstone(0x100, &tomb));
  EXPECT_EQ(sampler.tombstone_count(), 0u);
}

TEST(SamplerGuards, AddressReuseRetiresTombstone) {
  Sampler sampler(1);
  sampler.set_guarded(true);
  ASSERT_TRUE(sampler.RecordAllocation(0x200, 64, 64, 0));
  sampler.RecordFree(0x200, 0);
  ASSERT_NE(sampler.FindTombstone(0x200), nullptr);
  // The allocator hands the address out again: it is a legitimate live
  // object now, not a dangling guard.
  ASSERT_TRUE(sampler.RecordAllocation(0x200, 64, 64, 0));
  EXPECT_EQ(sampler.FindTombstone(0x200), nullptr);
  EXPECT_TRUE(sampler.IsGuarded(0x200));
}

TEST(SamplerGuards, TombstonePoolIsBoundedFifo) {
  Sampler sampler(1);
  sampler.set_guarded(true);
  for (uintptr_t i = 0; i < 600; ++i) {
    uintptr_t addr = 0x1000 + i * 0x100;
    ASSERT_TRUE(sampler.RecordAllocation(addr, 64, 64, 0));
    sampler.RecordFree(addr, 0);
  }
  EXPECT_LE(sampler.tombstone_count(), 512u);
  // Oldest evicted, newest retained.
  EXPECT_EQ(sampler.FindTombstone(0x1000), nullptr);
  EXPECT_NE(sampler.FindTombstone(0x1000 + 599 * 0x100), nullptr);
}

TEST(SamplerGuards, UnguardedSamplerLeavesNoTombstones) {
  Sampler sampler(1);
  ASSERT_TRUE(sampler.RecordAllocation(0x300, 64, 64, 0));
  EXPECT_FALSE(sampler.IsGuarded(0x300));
  sampler.RecordFree(0x300, 0);
  EXPECT_EQ(sampler.tombstone_count(), 0u);
}

TEST(GuardedAllocator, DoubleFreeIsSwallowedAndCounted) {
  Allocator alloc(GuardedConfig());

  constexpr uint64_t kCallsite = 777;
  uintptr_t p = alloc.Allocate(100, 0, 0, kCallsite);
  ASSERT_NE(p, 0u);
  ASSERT_TRUE(alloc.sampler().IsGuarded(p));

  alloc.Free(p, 0, 0);
  uint64_t frees_after_first = alloc.num_frees();
  alloc.Free(p, 0, 0);  // the bug: swallowed, not crashed, not re-counted
  EXPECT_EQ(alloc.num_frees(), frees_after_first);

  MallocExtension extension(&alloc);
  EXPECT_EQ(extension.GetProperty("failure.double_frees_detected").value(),
            1.0);
}

TEST(GuardedAllocator, UseAfterFreeIsDetectedByProbe) {
  Allocator alloc(GuardedConfig());
  uintptr_t p = alloc.Allocate(64, 0, 0);
  ASSERT_NE(p, 0u);
  alloc.Free(p, 0, 0);
  EXPECT_TRUE(alloc.ProbeAccess(p, 0));   // touches the tombstone
  EXPECT_FALSE(alloc.ProbeAccess(p, 0));  // consumed: one report

  MallocExtension extension(&alloc);
  EXPECT_EQ(extension.GetProperty("failure.use_after_frees_detected").value(),
            1.0);
}

TEST(GuardedAllocator, OverrunPastRequestedBytesIsDetected) {
  Allocator alloc(GuardedConfig());
  uintptr_t p = alloc.Allocate(100, 0, 0);
  ASSERT_NE(p, 0u);
  EXPECT_FALSE(alloc.ProbeAccess(p, 99));  // in bounds: fine
  EXPECT_TRUE(alloc.ProbeAccess(p, 100));  // one past the request
  // The guard stays live: the object is still valid memory.
  EXPECT_TRUE(alloc.sampler().IsGuarded(p));
  alloc.Free(p, 0, 0);

  MallocExtension extension(&alloc);
  EXPECT_EQ(extension.GetProperty("failure.buffer_overruns_detected").value(),
            1.0);
}

TEST(GuardedAllocator, ProbesAreNoOpsWithoutGuardedSampling) {
  AllocatorConfig config = AllocatorConfig::Builder()
                               .WithVcpus(2)
                               .WithArena(kBase, size_t{8} << 30)
                               .WithSampleIntervalBytes(1)
                               .Build();
  Allocator alloc(config);
  uintptr_t p = alloc.Allocate(64, 0, 0);
  ASSERT_NE(p, 0u);
  EXPECT_FALSE(alloc.ProbeAccess(p, 1000));
  alloc.Free(p, 0, 0);
  EXPECT_FALSE(alloc.ProbeAccess(p, 0));
  MallocExtension extension(&alloc);
  EXPECT_EQ(extension.GetProperty("failure.use_after_frees_detected").value(),
            0.0);
  EXPECT_EQ(extension.GetProperty("failure.guarded_samples").value(), 0.0);
}

TEST(GuardedDriver, InjectedBugsAreAllDetected) {
  // The driver's opt-in bug mix only fires on guarded allocations, so with
  // guarded sampling on, every injected bug must be caught.
  Allocator alloc(GuardedConfig());
  workload::WorkloadSpec spec;
  spec.name = "buggy";
  spec.behaviors.push_back(workload::MakeBehavior(
      1.0, workload::SizeLognormal(256, 1.5),
      workload::LifetimeLognormal(1e6, 1.0)));
  spec.double_free_probability = 0.05;
  spec.use_after_free_probability = 0.05;
  spec.overrun_probability = 0.05;

  workload::Driver driver(spec, &alloc, /*topology=*/nullptr, {0},
                          /*llc=*/nullptr, /*tlb=*/nullptr, /*seed=*/1234);
  driver.RunRequests(2000);

  const workload::DriverMetrics& metrics = driver.metrics();
  EXPECT_GT(metrics.injected_bugs, 0u);
  EXPECT_EQ(metrics.detected_bugs, metrics.injected_bugs);

  MallocExtension extension(&alloc);
  double detected =
      extension.GetProperty("failure.double_frees_detected").value() +
      extension.GetProperty("failure.use_after_frees_detected").value() +
      extension.GetProperty("failure.buffer_overruns_detected").value();
  EXPECT_EQ(detected, static_cast<double>(metrics.detected_bugs));
  driver.Drain();
}

TEST(GuardedDriver, BugFreeSpecsDoNotPerturbRandomStreams) {
  // Enabling the guard machinery without bug probabilities must leave the
  // driver's request stream untouched (no extra RNG draws).
  workload::WorkloadSpec spec;
  spec.name = "clean";
  spec.behaviors.push_back(workload::MakeBehavior(
      1.0, workload::SizeLognormal(256, 1.5),
      workload::LifetimeLognormal(1e6, 1.0)));

  Allocator guarded(GuardedConfig());
  workload::Driver da(spec, &guarded, nullptr, {0}, nullptr, nullptr, 99);
  da.RunRequests(500);

  AllocatorConfig plain_config = AllocatorConfig::Builder()
                                     .WithVcpus(2)
                                     .WithArena(kBase, size_t{8} << 30)
                                     .WithSampleIntervalBytes(1)
                                     .Build();
  Allocator plain(plain_config);
  workload::Driver db(spec, &plain, nullptr, {0}, nullptr, nullptr, 99);
  db.RunRequests(500);

  EXPECT_EQ(da.metrics().allocations, db.metrics().allocations);
  EXPECT_EQ(da.metrics().cpu_ns, db.metrics().cpu_ns);
  EXPECT_EQ(da.metrics().injected_bugs, 0u);
}

}  // namespace
}  // namespace wsc::tcmalloc
