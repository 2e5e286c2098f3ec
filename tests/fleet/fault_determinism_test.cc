// Tests for fleet fault injection: fault plans must not perturb machine
// composition, faulted runs (mmap failures + hugepage scarcity + injected
// heap bugs + a machine OOM kill) must complete without crashing with
// nonzero "failure" telemetry, and everything must stay bit-identical for
// any worker-thread count.

#include <gtest/gtest.h>

#include "fleet/experiment.h"
#include "fleet/fleet.h"

namespace wsc::fleet {
namespace {

FleetConfig SmallFaultFleet() {
  FleetConfig config;
  config.num_machines = 5;
  config.num_binaries = 12;
  config.min_colocated = 1;
  config.max_colocated = 2;
  config.duration = Seconds(3);
  config.max_requests_per_process = 4000;
  config.faults.enabled = true;
  config.faults.mmap_windows = 2;
  config.faults.mmap_window_calls = 3;
  config.faults.mmap_call_horizon = 64;
  config.faults.huge_backing_windows = 2;
  config.faults.huge_backing_window_calls = 16;
  config.faults.huge_backing_call_horizon = 64;
  config.faults.double_free_probability = 0.02;
  config.faults.use_after_free_probability = 0.02;
  config.faults.overrun_probability = 0.02;
  config.faults.oom_kill_probability = 1.0;  // every machine kills once
  config.faults.oom_kill_min_frac = 0.2;
  config.faults.oom_kill_max_frac = 0.5;
  return config;
}

tcmalloc::AllocatorConfig GuardedAllocator() {
  return tcmalloc::AllocatorConfig::Builder()
      .WithSampleIntervalBytes(64 * 1024)
      .WithGuardedSampling()
      .Build();
}

TEST(FaultPlanning, PlansDoNotPerturbMachineComposition) {
  // Fault draws come after the machine seed fork, so enabling faults
  // leaves platforms, workloads, seeds, and pressure plans untouched.
  FleetConfig with = SmallFaultFleet();
  FleetConfig without = SmallFaultFleet();
  without.faults.enabled = false;

  tcmalloc::AllocatorConfig allocator;
  auto pw = Fleet(with, allocator, 4242).PlanMachines();
  auto po = Fleet(without, allocator, 4242).PlanMachines();
  ASSERT_EQ(pw.size(), po.size());
  for (size_t m = 0; m < pw.size(); ++m) {
    SCOPED_TRACE(m);
    EXPECT_EQ(pw[m].machine_seed, po[m].machine_seed);
    EXPECT_EQ(pw[m].ranks, po[m].ranks);
    EXPECT_EQ(pw[m].platform.name, po[m].platform.name);
    EXPECT_EQ(pw[m].fault_plans.size(), pw[m].workloads.size());
    EXPECT_GT(pw[m].oom_kill_time, 0);
    EXPECT_TRUE(po[m].fault_plans.empty());
    EXPECT_EQ(po[m].oom_kill_time, 0);
  }
}

TEST(FaultPlanning, PlansAreReproducibleAndPopulated) {
  FleetConfig config = SmallFaultFleet();
  tcmalloc::AllocatorConfig allocator;
  auto pa = Fleet(config, allocator, 99).PlanMachines();
  auto pb = Fleet(config, allocator, 99).PlanMachines();
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t m = 0; m < pa.size(); ++m) {
    SCOPED_TRACE(m);
    ASSERT_EQ(pa[m].fault_plans.size(), pb[m].fault_plans.size());
    for (size_t i = 0; i < pa[m].fault_plans.size(); ++i) {
      EXPECT_EQ(pa[m].fault_plans[i], pb[m].fault_plans[i]);
      EXPECT_EQ(pa[m].fault_plans[i].mmap_windows.size(), 2u);
      EXPECT_EQ(pa[m].fault_plans[i].huge_backing_windows.size(), 2u);
    }
    EXPECT_EQ(pa[m].oom_kill_time, pb[m].oom_kill_time);
    EXPECT_EQ(pa[m].restart_seed, pb[m].restart_seed);
    // Bug probabilities are stamped onto every planned workload.
    for (const workload::WorkloadSpec& spec : pa[m].workloads) {
      EXPECT_TRUE(spec.injects_bugs());
    }
  }
}

TEST(FaultRun, FaultedFleetSurvivesWithNonzeroFailureTelemetry) {
  // The acceptance bar: a fleet under mmap failures, hugepage scarcity,
  // injected heap bugs, and one OOM kill per machine completes with zero
  // crashes and visibly nonzero failure counters.
  FleetConfig config = SmallFaultFleet();
  Fleet fleet(config, GuardedAllocator(), 777);
  fleet.Run(2);

  telemetry::Snapshot merged = MergedTelemetry(fleet.observations());
  const telemetry::MetricSample* mmap = merged.Find("failure", "mmap_denied");
  const telemetry::MetricSample* backing =
      merged.Find("failure", "hugepage_backing_denied");
  ASSERT_NE(mmap, nullptr);
  ASSERT_NE(backing, nullptr);
  EXPECT_GT(mmap->ScalarValue(), 0.0);
  EXPECT_GT(backing->ScalarValue(), 0.0);

  // Injected bugs were detected and attributed fleet-wide.
  uint64_t injected = 0, detected = 0;
  int oom_kills = 0;
  for (const FleetObservation& obs : fleet.observations()) {
    injected += obs.result.driver.injected_bugs;
    detected += obs.result.driver.detected_bugs;
    if (obs.result.oom_killed) ++oom_kills;
  }
  EXPECT_GT(injected, 0u);
  EXPECT_EQ(detected, injected);
  // Every machine planned a kill; it fires on machines whose processes
  // were still running at the planned time.
  EXPECT_GT(oom_kills, 0);
  EXPECT_LE(oom_kills, config.num_machines);

  // OOM restarts make some machine emit one more result than workloads,
  // and every observation's rank attribution stays within bounds.
  EXPECT_GT(fleet.observations().size(), 0u);
  for (const FleetObservation& obs : fleet.observations()) {
    EXPECT_GE(obs.result.workload_index, 0);
  }
}

TEST(FaultDeterminism, ThreadCountDoesNotChangeFaultedRuns) {
  // Bit-identical results for --threads=1 and --threads=8, faults and all:
  // fault points are call-indexed, plans are drawn seed-ordered, and the
  // OOM kill rides the machine's own local timeline. Interval capture is
  // on, so the killed instances' series and their replacements' fresh
  // ones are merged into the fleet series and compared too.
  FleetConfig config = SmallFaultFleet();
  config.timeseries_interval = Milliseconds(500);
  tcmalloc::AllocatorConfig allocator = GuardedAllocator();

  Fleet sequential(config, allocator, 31337);
  sequential.Run(1);
  Fleet parallel(config, allocator, 31337);
  parallel.Run(8);

  const auto& a = sequential.observations();
  const auto& b = parallel.observations();
  ASSERT_EQ(a.size(), b.size());
  int oom_kills = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    if (a[i].result.oom_killed) ++oom_kills;
    EXPECT_EQ(a[i].result.workload_index, b[i].result.workload_index);
    EXPECT_EQ(a[i].result.oom_killed, b[i].result.oom_killed);
    EXPECT_EQ(a[i].result.driver.requests, b[i].result.driver.requests);
    EXPECT_EQ(a[i].result.driver.failed_allocations,
              b[i].result.driver.failed_allocations);
    EXPECT_EQ(a[i].result.driver.injected_bugs, b[i].result.driver.injected_bugs);
    EXPECT_EQ(a[i].result.driver.cpu_ns, b[i].result.driver.cpu_ns);
    EXPECT_EQ(a[i].result.avg_heap_bytes, b[i].result.avg_heap_bytes);
    EXPECT_EQ(a[i].result.telemetry, b[i].result.telemetry);
    EXPECT_FALSE(a[i].result.timeseries.empty());
    EXPECT_EQ(a[i].result.timeseries, b[i].result.timeseries);
  }
  EXPECT_GT(oom_kills, 0);
  EXPECT_EQ(MergedTelemetry(a), MergedTelemetry(b));
  EXPECT_EQ(MergedTimeSeries(a), MergedTimeSeries(b));
}

TEST(FaultRun, DisabledFaultsLeaveFailureCountersAtZero) {
  FleetConfig config = SmallFaultFleet();
  config.faults.enabled = false;
  tcmalloc::AllocatorConfig allocator;
  Fleet fleet(config, allocator, 777);
  fleet.Run(2);

  telemetry::Snapshot merged = MergedTelemetry(fleet.observations());
  for (const char* name : {"alloc_failures", "double_frees_detected",
                           "use_after_frees_detected"}) {
    SCOPED_TRACE(name);
    const telemetry::MetricSample* sample = merged.Find("failure", name);
    ASSERT_NE(sample, nullptr);  // live handles: present even when healthy
    EXPECT_EQ(sample->ScalarValue(), 0.0);
  }
  for (const FleetObservation& obs : fleet.observations()) {
    EXPECT_FALSE(obs.result.oom_killed);
    EXPECT_EQ(obs.result.driver.injected_bugs, 0u);
  }
}

TEST(FaultAb, PairedArmsSeeIdenticalFaultPlans) {
  // Paired A/B fleets share the seed, so both arms face the same faults;
  // the experiment harness keeps working under fault injection.
  FleetConfig config = SmallFaultFleet();
  tcmalloc::AllocatorConfig control = GuardedAllocator();
  tcmalloc::AllocatorConfig experiment =
      tcmalloc::AllocatorConfig::AllOptimizations(control);
  AbResult result = RunFleetAb(config, control, experiment, 555);
  EXPECT_GT(result.fleet.control.requests, 0.0);
  EXPECT_GT(result.fleet.experiment.requests, 0.0);
  const telemetry::MetricSample* c =
      result.fleet.control_telemetry.Find("failure", "mmap_denied");
  const telemetry::MetricSample* e =
      result.fleet.experiment_telemetry.Find("failure", "mmap_denied");
  ASSERT_NE(c, nullptr);
  ASSERT_NE(e, nullptr);
  EXPECT_GT(c->ScalarValue(), 0.0);
  EXPECT_GT(e->ScalarValue(), 0.0);
}

}  // namespace
}  // namespace wsc::fleet
