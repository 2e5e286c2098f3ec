// Tests for telemetry propagation through the fleet layer: every process
// result carries a snapshot, fleet merges are machine-index ordered, and
// both A/B arms carry their merged telemetry. That per-process results
// (snapshots included) are bit-identical for any worker-thread count is
// parallel_fleet_test's job.

#include <gtest/gtest.h>

#include "fleet/experiment.h"
#include "fleet/fleet.h"
#include "fleet/machine.h"
#include "telemetry/registry.h"
#include "workload/profiles.h"

namespace wsc::fleet {
namespace {

FleetConfig SmallFleet() {
  FleetConfig config;
  config.num_machines = 6;
  config.num_binaries = 10;
  config.min_colocated = 1;
  config.max_colocated = 2;
  config.duration = Milliseconds(300);
  config.max_requests_per_process = 2000;
  return config;
}

TEST(MachineTelemetry, EveryProcessResultCarriesASnapshot) {
  workload::WorkloadSpec spec = workload::TopFiveProfiles()[0];
  Machine machine(hw::PlatformSpecFor(hw::PlatformGeneration::kGenD),
                  {spec, spec}, tcmalloc::AllocatorConfig(), /*seed=*/7);
  machine.Run(Milliseconds(500), 3000);
  ASSERT_EQ(machine.results().size(), 2u);
  for (const ProcessResult& r : machine.results()) {
    EXPECT_FALSE(r.telemetry.samples.empty());
    const telemetry::MetricSample* allocs =
        r.telemetry.Find("allocator", "allocations");
    ASSERT_NE(allocs, nullptr);
    EXPECT_EQ(allocs->counter, r.driver.allocations);
    // Heap samples are recorded at sim-interval boundaries.
    const telemetry::MetricSample* hist =
        r.telemetry.Find("allocator", "heap_sample_bytes");
    ASSERT_NE(hist, nullptr);
    EXPECT_GT(hist->hist_count, 0u);
  }
}

TEST(FleetTelemetry, MergedTelemetryMatchesManualMerge) {
  Fleet fleet(SmallFleet(), tcmalloc::AllocatorConfig(), /*seed=*/11);
  fleet.Run(1);
  ASSERT_FALSE(fleet.observations().empty());

  telemetry::Snapshot manual;
  for (const FleetObservation& obs : fleet.observations()) {
    manual.MergeFrom(obs.result.telemetry);
  }
  telemetry::Snapshot merged = MergedTelemetry(fleet.observations());
  EXPECT_EQ(merged, manual);
  EXPECT_FALSE(merged.samples.empty());

  // The fleet-wide counter equals the sum over processes — no samples
  // dropped or double counted.
  uint64_t total_allocs = 0;
  for (const FleetObservation& obs : fleet.observations()) {
    total_allocs += obs.result.driver.allocations;
  }
  EXPECT_EQ(merged.Find("allocator", "allocations")->counter, total_allocs);
}

TEST(FleetTelemetry, HealthyFleetLeavesFailureCountersAtZero) {
  Fleet fleet(SmallFleet(), tcmalloc::AllocatorConfig(), /*seed=*/777);
  fleet.Run(2);

  telemetry::Snapshot merged = MergedTelemetry(fleet.observations());
  for (const char* name :
       {"alloc_failures", "emergency_recoveries", "recovered_allocations",
        "partial_batches", "mmap_denied", "huge_cache_allocation_failures",
        "filler_growth_failures", "filler_cross_set_fallbacks",
        "region_growth_failures", "span_fetch_failures", "large_fallbacks",
        "large_failures"}) {
    SCOPED_TRACE(name);
    const telemetry::MetricSample* sample = merged.Find("failure", name);
    ASSERT_NE(sample, nullptr);  // live handles: present even when healthy
    EXPECT_EQ(sample->ScalarValue(), 0.0);
  }
  for (const FleetObservation& obs : fleet.observations()) {
    EXPECT_EQ(obs.result.driver.failed_allocations, 0u);
  }
}

TEST(AbTelemetry, FleetAbFillsBothArms) {
  tcmalloc::AllocatorConfig control;
  tcmalloc::AllocatorConfig experiment =
      tcmalloc::AllocatorConfig::Builder().WithSpanPrioritization().Build();
  AbResult ab = RunFleetAb(SmallFleet(), control, experiment, /*seed=*/99);
  EXPECT_FALSE(ab.fleet.control_telemetry.samples.empty());
  EXPECT_FALSE(ab.fleet.experiment_telemetry.samples.empty());
  EXPECT_GT(
      ab.fleet.control_telemetry.Find("allocator", "allocations")->counter,
      0u);
  EXPECT_GT(ab.fleet.experiment_telemetry.Find("allocator", "allocations")
                ->counter,
            0u);
}

TEST(AbTelemetry, BenchmarkAbFillsBothArms) {
  tcmalloc::AllocatorConfig control;
  tcmalloc::AllocatorConfig experiment =
      tcmalloc::AllocatorConfig::Builder().WithDynamicCpuCaches().Build();
  AbDelta delta = RunBenchmarkAb(
      workload::TopFiveProfiles()[1],
      hw::PlatformSpecFor(hw::PlatformGeneration::kGenD), control,
      experiment, /*seed=*/5, Milliseconds(400), 2500);
  EXPECT_FALSE(delta.control_telemetry.samples.empty());
  EXPECT_FALSE(delta.experiment_telemetry.samples.empty());
  EXPECT_NE(delta.control_telemetry.Find("cpu_cache", "hits"), nullptr);
}

}  // namespace
}  // namespace wsc::fleet
