// Tests for the traffic-scenario layer: scenario planning must not perturb
// machine composition, regional phase shifts must actually shift, a zero-
// load antagonist must leave its victims bit-identical, deploy waves must
// keep the arena slot table bounded across mass restarts, and streaming
// aggregation must equal the buffered merge under every scenario.

#include "fleet/scenario.h"

#include <gtest/gtest.h>

#include "fleet/fleet.h"
#include "fleet/stream_collector.h"

namespace wsc::fleet {
namespace {

FleetConfig SmallScenarioFleet(const std::string& name) {
  FleetConfig config;
  config.num_machines = 6;
  config.num_binaries = 12;
  config.min_colocated = 1;
  config.max_colocated = 2;
  config.duration = Seconds(2);
  config.max_requests_per_process = 3000;
  config.scenario = ScenarioByName(name);
  return config;
}

TEST(ScenarioPlanning, DoesNotPerturbMachineComposition) {
  // Scenario draws come after the machine-seed fork, so enabling one
  // leaves platforms, victim workloads, and seeds untouched; the only
  // additions are load phases, deploy schedules, and appended antagonists.
  for (const std::string& name : ScenarioNames()) {
    SCOPED_TRACE(name);
    FleetConfig with = SmallScenarioFleet(name);
    FleetConfig without = SmallScenarioFleet(name);
    without.scenario.enabled = false;

    tcmalloc::AllocatorConfig allocator;
    auto pw = Fleet(with, allocator, 4242).PlanMachines();
    auto po = Fleet(without, allocator, 4242).PlanMachines();
    ASSERT_EQ(pw.size(), po.size());
    for (size_t m = 0; m < pw.size(); ++m) {
      SCOPED_TRACE(m);
      EXPECT_EQ(pw[m].machine_seed, po[m].machine_seed);
      EXPECT_EQ(pw[m].platform.name, po[m].platform.name);
      // Victims (the scenario-free composition) are a prefix of the
      // scenario plan's workloads; an antagonist may follow.
      ASSERT_GE(pw[m].workloads.size(), po[m].workloads.size());
      for (size_t i = 0; i < po[m].workloads.size(); ++i) {
        EXPECT_EQ(pw[m].workloads[i].name, po[m].workloads[i].name);
        EXPECT_EQ(pw[m].ranks[i], po[m].ranks[i]);
        EXPECT_FALSE(pw[m].workloads[i].antagonist);
      }
      for (size_t i = po[m].workloads.size(); i < pw[m].workloads.size();
           ++i) {
        EXPECT_TRUE(pw[m].workloads[i].antagonist);
        EXPECT_EQ(pw[m].ranks[i], kAntagonistRank);
      }
      EXPECT_TRUE(po[m].deploy_restarts.empty());
      for (const workload::WorkloadSpec& w : po[m].workloads) {
        EXPECT_TRUE(w.load_phases.empty());
      }
    }
  }
}

TEST(ScenarioPlanning, PlansAreReproducible) {
  for (const std::string& name : ScenarioNames()) {
    SCOPED_TRACE(name);
    FleetConfig config = SmallScenarioFleet(name);
    tcmalloc::AllocatorConfig allocator;
    auto pa = Fleet(config, allocator, 99).PlanMachines();
    auto pb = Fleet(config, allocator, 99).PlanMachines();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t m = 0; m < pa.size(); ++m) {
      SCOPED_TRACE(m);
      EXPECT_EQ(pa[m].deploy_restarts, pb[m].deploy_restarts);
      EXPECT_EQ(pa[m].deploy_restart_seed, pb[m].deploy_restart_seed);
      ASSERT_EQ(pa[m].workloads.size(), pb[m].workloads.size());
      for (size_t i = 0; i < pa[m].workloads.size(); ++i) {
        const auto& wa = pa[m].workloads[i].load_phases;
        const auto& wb = pb[m].workloads[i].load_phases;
        ASSERT_EQ(wa.size(), wb.size());
        for (size_t p = 0; p < wa.size(); ++p) {
          EXPECT_EQ(wa[p].start, wb[p].start);
          EXPECT_EQ(wa[p].end, wb[p].end);
          EXPECT_EQ(wa[p].multiplier, wb[p].multiplier);
        }
      }
    }
  }
}

TEST(ScenarioPlanning, DiurnalRegionsArePhaseShifted) {
  // Machines in the same region share the identical multiplier curve;
  // machines in different regions see shifted (different) curves.
  ScenarioConfig config = ScenarioByName("diurnal");
  SimTime duration = Seconds(4);
  Rng rng_a(1), rng_b(1), rng_c(1);
  MachineScenario m0 =
      PlanMachineScenario(config, /*machine_index=*/0, 12, duration, rng_a);
  MachineScenario m1 =
      PlanMachineScenario(config, /*machine_index=*/1, 12, duration, rng_b);
  MachineScenario m3 = PlanMachineScenario(
      config, /*machine_index=*/config.regions, 12, duration, rng_c);

  EXPECT_EQ(m0.region, 0);
  EXPECT_EQ(m1.region, 1);
  EXPECT_EQ(m3.region, 0);

  // Same region, same curve.
  ASSERT_EQ(m0.load_phases.size(), m3.load_phases.size());
  for (size_t p = 0; p < m0.load_phases.size(); ++p) {
    EXPECT_EQ(m0.load_phases[p].multiplier, m3.load_phases[p].multiplier);
  }
  // Different region: the sampled curve is phase-shifted (equal-neighbor
  // merging makes the phase lists themselves differ in shape, so compare
  // the multiplier function, not the list).
  ASSERT_FALSE(m1.load_phases.empty());
  bool any_differs = false;
  for (SimTime t = 0; t < duration && !any_differs; t += Milliseconds(250)) {
    size_t h0 = 0, h1 = 0;
    any_differs = workload::LoadMultiplierAt(m0.load_phases, t, h0) !=
                  workload::LoadMultiplierAt(m1.load_phases, t, h1);
  }
  EXPECT_TRUE(any_differs);
  // The curve actually swings between trough and peak.
  double lo = 1e9, hi = 0;
  for (const workload::LoadPhase& p : m0.load_phases) {
    lo = std::min(lo, p.multiplier);
    hi = std::max(hi, p.multiplier);
  }
  EXPECT_LT(lo, 0.8);
  EXPECT_GT(hi, 1.2);
}

TEST(ScenarioPlanning, FlashCrowdHitsOnlyTheTargetRegion) {
  ScenarioConfig config = ScenarioByName("flash-crowd");
  SimTime duration = Seconds(4);
  Rng rng_a(7), rng_b(7);
  MachineScenario hit = PlanMachineScenario(
      config, /*machine_index=*/config.flash.region, 12, duration, rng_a);
  MachineScenario miss = PlanMachineScenario(
      config, /*machine_index=*/config.flash.region + 1, 12, duration, rng_b);

  double hit_max = 0, miss_max = 0;
  for (const workload::LoadPhase& p : hit.load_phases) {
    hit_max = std::max(hit_max, p.multiplier);
  }
  for (const workload::LoadPhase& p : miss.load_phases) {
    miss_max = std::max(miss_max, p.multiplier);
  }
  EXPECT_GE(hit_max, config.flash.multiplier * 0.9);
  EXPECT_LT(miss_max, config.flash.multiplier * 0.9);
}

TEST(ScenarioPlanning, DisabledScenarioDrawsNoRandomness) {
  // A disabled scenario must consume nothing from the RNG stream: the
  // next draw after planning equals the next draw without planning.
  ScenarioConfig config;  // enabled = false
  Rng planned(123), fresh(123);
  MachineScenario scenario =
      PlanMachineScenario(config, 0, 8, Seconds(2), planned);
  EXPECT_TRUE(scenario.load_phases.empty());
  EXPECT_TRUE(scenario.deploy_restarts.empty());
  EXPECT_FALSE(scenario.antagonist);
  EXPECT_EQ(planned.Next(), fresh.Next());
}

TEST(ScenarioRun, ZeroLoadAntagonistLeavesVictimsBitIdentical) {
  // The isolation control: an antagonist pinned at load 0 exists on the
  // machine but never issues a request, so every victim's results must be
  // byte-equal to the scenario-free run (CPU partition, seeds, and arena
  // slots are assigned for victims before the antagonist is appended).
  FleetConfig with = SmallScenarioFleet("antagonist");
  with.scenario.antagonist.probability = 1.0;
  with.scenario.antagonist.load = 0.0;
  FleetConfig without = SmallScenarioFleet("antagonist");
  without.scenario.enabled = false;

  tcmalloc::AllocatorConfig allocator;
  Fleet fa(with, allocator, 2024);
  fa.Run(2);
  Fleet fb(without, allocator, 2024);
  fb.Run(2);

  std::vector<const FleetObservation*> victims;
  int antagonists = 0;
  for (const FleetObservation& obs : fa.observations()) {
    if (obs.binary_rank == kAntagonistRank) {
      ++antagonists;
      EXPECT_EQ(obs.result.driver.requests, 0u);
    } else {
      victims.push_back(&obs);
    }
  }
  EXPECT_EQ(antagonists, with.num_machines);  // probability 1.0
  ASSERT_EQ(victims.size(), fb.observations().size());
  for (size_t i = 0; i < victims.size(); ++i) {
    SCOPED_TRACE(i);
    const ProcessResult& a = victims[i]->result;
    const ProcessResult& b = fb.observations()[i].result;
    EXPECT_EQ(a.driver.requests, b.driver.requests);
    EXPECT_EQ(a.driver.cpu_ns, b.driver.cpu_ns);
    EXPECT_EQ(a.driver.malloc_ns, b.driver.malloc_ns);
    EXPECT_EQ(a.avg_heap_bytes, b.avg_heap_bytes);
    EXPECT_EQ(a.telemetry, b.telemetry);
  }
}

TEST(ScenarioRun, DeployWaveIsThreadCountInvariant) {
  // Deploy restarts retire and respawn processes mid-run; the result
  // stream (retired instances included) must stay bit-identical for any
  // worker-thread count.
  FleetConfig config = SmallScenarioFleet("deploy-wave");
  tcmalloc::AllocatorConfig allocator;
  Fleet sequential(config, allocator, 31337);
  sequential.Run(1);
  Fleet parallel(config, allocator, 31337);
  parallel.Run(8);

  const auto& a = sequential.observations();
  const auto& b = parallel.observations();
  ASSERT_EQ(a.size(), b.size());
  int restarted = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].result.deploy_restarted, b[i].result.deploy_restarted);
    EXPECT_EQ(a[i].result.driver.requests, b[i].result.driver.requests);
    EXPECT_EQ(a[i].result.driver.cpu_ns, b[i].result.driver.cpu_ns);
    EXPECT_EQ(a[i].result.telemetry, b[i].result.telemetry);
    if (a[i].result.deploy_restarted) ++restarted;
  }
  EXPECT_GT(restarted, 0);
  EXPECT_EQ(MergedTelemetry(a), MergedTelemetry(b));
}

TEST(ScenarioRun, StreamingEqualsBufferedUnderEveryScenario) {
  for (const std::string& name : ScenarioNames()) {
    SCOPED_TRACE(name);
    FleetConfig config = SmallScenarioFleet(name);
    config.timeseries_interval = Milliseconds(500);
    tcmalloc::AllocatorConfig allocator;

    Fleet buffered(config, allocator, 555);
    buffered.Run(4);
    Fleet streamed(config, allocator, 555);
    StreamCollector collector;
    streamed.RunStreaming(collector, 4);

    EXPECT_EQ(collector.telemetry(),
              MergedTelemetry(buffered.observations()));
    // The collector layers its fleet distribution sketches on top of the
    // merged series, so the interval stream is the equality contract.
    EXPECT_EQ(collector.timeseries().intervals(),
              MergedTimeSeries(buffered.observations()).intervals());
    uint64_t buffered_requests = 0;
    int buffered_restarts = 0, buffered_antagonists = 0;
    for (const FleetObservation& obs : buffered.observations()) {
      buffered_requests += obs.result.driver.requests;
      if (obs.result.deploy_restarted) ++buffered_restarts;
      if (obs.binary_rank == kAntagonistRank) ++buffered_antagonists;
    }
    EXPECT_EQ(collector.total_requests(), buffered_requests);
    EXPECT_EQ(collector.deploy_restarts(), buffered_restarts);
    EXPECT_EQ(collector.antagonists(), buffered_antagonists);
    if (name == "deploy-wave") {
      EXPECT_GT(collector.deploy_restarts(), 0);
    }
    if (name == "antagonist") {
      EXPECT_GT(collector.antagonists(), 0);
    }
  }
}

TEST(DeployWave, HundredRestartsKeepArenaSlotTableBounded) {
  // The tentpole's Machine fix: before slot recycling, every restart
  // consumed a fresh arena stride slot and the table grew monotonically.
  // A 100-restart wave must end with the high-water mark still at the
  // co-location count, every slot back in circulation, and every
  // process-instance generation accounted for.
  workload::WorkloadSpec spec;
  spec.name = "deployed";
  spec.behaviors = {
      workload::MakeBehavior(1.0, workload::SizeLognormal(256, 2.0),
                             workload::LifetimeLognormal(Microseconds(500),
                                                         3.0)),
  };
  spec.allocs_per_request = 4;
  spec.request_work_ns = 2000;
  spec.request_interval_ns = Microseconds(20);
  spec.min_threads = 1;
  spec.max_threads = 2;

  DeploySchedule deploys;
  deploys.restart_seed = 77;
  const int kRestarts = 100;
  for (int i = 1; i <= kRestarts; ++i) {
    deploys.restart_times.push_back(Milliseconds(2 * i));
  }
  tcmalloc::AllocatorConfig config;
  Machine machine(hw::PlatformSpecFor(hw::PlatformGeneration::kGenC),
                  {spec, spec}, config, 9, /*pressure_events=*/{},
                  /*trace_events_per_process=*/0, /*faults=*/{},
                  /*timeseries_interval=*/0, deploys);
  machine.Run(Milliseconds(2 * (kRestarts + 2)), /*max_requests=*/1 << 30);

  // Bounded: two workloads -> two slots ever created, period.
  EXPECT_EQ(machine.arena_slots_high_water(), 2);
  EXPECT_EQ(machine.deploy_restarts(), 2 * kRestarts);
  // 100 waves x 2 retired instances + 2 survivors.
  EXPECT_EQ(machine.results().size(),
            static_cast<size_t>(2 * kRestarts + 2));
  int survivors = 0;
  for (const ProcessResult& r : machine.results()) {
    if (!r.deploy_restarted) ++survivors;
  }
  EXPECT_EQ(survivors, 2);
}

TEST(Scenario, NamesRoundTrip) {
  ASSERT_EQ(ScenarioNames().size(), 4u);
  for (const std::string& name : ScenarioNames()) {
    ScenarioConfig config = ScenarioByName(name);
    EXPECT_TRUE(config.enabled) << name;
  }
  EXPECT_TRUE(ScenarioByName("diurnal").diurnal.enabled);
  EXPECT_TRUE(ScenarioByName("flash-crowd").flash.enabled);
  EXPECT_TRUE(ScenarioByName("deploy-wave").deploy.enabled);
  EXPECT_TRUE(ScenarioByName("antagonist").antagonist.enabled);
}

}  // namespace
}  // namespace wsc::fleet
