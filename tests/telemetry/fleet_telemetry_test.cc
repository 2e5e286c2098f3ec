// Tests for telemetry propagation through the fleet layer: every process
// result carries a snapshot, fleet merges are machine-index ordered, and
// the aggregate is bit-identical for any worker-thread count. Interval
// time series ride the same path: capturing them must not perturb the
// simulation, and each process's series telescopes to its final snapshot.

#include <gtest/gtest.h>

#include "fleet/experiment.h"
#include "fleet/fleet.h"
#include "fleet/machine.h"
#include "telemetry/registry.h"
#include "telemetry/timeseries.h"
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

FleetConfig TimeseriesFleet() {
  FleetConfig config;
  config.num_machines = 6;
  config.num_binaries = 12;
  config.min_colocated = 1;
  config.max_colocated = 2;
  config.duration = Milliseconds(1500);
  config.max_requests_per_process = 2000;
  config.timeseries_interval = Milliseconds(500);
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

TEST(FleetTelemetry, BitIdenticalAcrossThreadCounts) {
  tcmalloc::AllocatorConfig allocator;
  Fleet sequential(SmallFleet(), allocator, /*seed=*/31337);
  sequential.Run(1);
  telemetry::Snapshot base = MergedTelemetry(sequential.observations());
  ASSERT_FALSE(base.samples.empty());

  for (int threads : {2, 8}) {
    SCOPED_TRACE(threads);
    Fleet parallel(SmallFleet(), allocator, /*seed=*/31337);
    parallel.Run(threads);
    // operator== compares every sample field, doubles included: the
    // parallel merge must not change a single floating-point operation.
    EXPECT_EQ(MergedTelemetry(parallel.observations()), base);
  }
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

TEST(FleetTimeseries, TimeseriesCaptureIsObserverEffectFree) {
  // The same fleet with and without interval capture must do the same
  // simulation work: identical final telemetry, identical totals. The
  // sampler only reads snapshots at boundaries; it must never perturb
  // the allocator or the workload.
  tcmalloc::AllocatorConfig allocator;
  FleetConfig with_ts = TimeseriesFleet();
  FleetConfig without_ts = TimeseriesFleet();
  without_ts.timeseries_interval = 0;

  Fleet observed(with_ts, allocator, 4242);
  observed.Run(2);
  Fleet plain(without_ts, allocator, 4242);
  plain.Run(2);

  EXPECT_EQ(MergedTelemetry(observed.observations()),
            MergedTelemetry(plain.observations()));
  ASSERT_EQ(observed.observations().size(), plain.observations().size());
  for (size_t i = 0; i < observed.observations().size(); ++i) {
    const ProcessResult& a = observed.observations()[i].result;
    const ProcessResult& b = plain.observations()[i].result;
    EXPECT_EQ(a.driver.requests, b.driver.requests);
    EXPECT_EQ(a.driver.allocations, b.driver.allocations);
    EXPECT_EQ(a.avg_heap_bytes, b.avg_heap_bytes);
    // The observed run actually captured something; the plain run didn't.
    EXPECT_TRUE(b.timeseries.empty());
    EXPECT_FALSE(a.timeseries.empty());
  }
}

TEST(FleetTimeseries, ThreadCountDoesNotChangeResultsOrSeries) {
  // Bit-identical per-process results, telemetry, and interval series for
  // --threads=1 and --threads=8, and the fleet-wide merges with them.
  tcmalloc::AllocatorConfig allocator;
  Fleet sequential(TimeseriesFleet(), allocator, 31337);
  sequential.Run(1);
  Fleet parallel(TimeseriesFleet(), allocator, 31337);
  parallel.Run(8);

  const auto& a = sequential.observations();
  const auto& b = parallel.observations();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].binary_rank, b[i].binary_rank);
    EXPECT_EQ(a[i].result.driver.requests, b[i].result.driver.requests);
    EXPECT_EQ(a[i].result.driver.failed_allocations,
              b[i].result.driver.failed_allocations);
    EXPECT_EQ(a[i].result.driver.cpu_ns, b[i].result.driver.cpu_ns);
    EXPECT_EQ(a[i].result.avg_heap_bytes, b[i].result.avg_heap_bytes);
    EXPECT_EQ(a[i].result.telemetry, b[i].result.telemetry);
    EXPECT_FALSE(a[i].result.timeseries.empty());
    EXPECT_EQ(a[i].result.timeseries, b[i].result.timeseries);
  }
  EXPECT_EQ(MergedTelemetry(a), MergedTelemetry(b));
  EXPECT_EQ(MergedTimeSeries(a), MergedTimeSeries(b));
}

TEST(FleetTimeseries, DrainCaptureCoversFullRun) {
  // Every process's series must telescope to its final telemetry even
  // with the final partial interval (the drain capture at finalize).
  tcmalloc::AllocatorConfig allocator;
  Fleet f(TimeseriesFleet(), allocator, 1234);
  f.Run(1);
  for (const FleetObservation& obs : f.observations()) {
    const telemetry::MetricSample* final_allocs =
        obs.result.telemetry.Find("allocator", "allocations");
    ASSERT_NE(final_allocs, nullptr);
    EXPECT_EQ(obs.result.timeseries.TotalCounter("allocator/allocations"),
              final_allocs->counter)
        << "machine " << obs.machine << " rank " << obs.binary_rank;
  }
}

}  // namespace
}  // namespace wsc::fleet
