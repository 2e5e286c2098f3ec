// Tests for the parallel fleet execution engine: results must be
// bit-identical to the sequential run for any worker count, because
// machines share no state and the merge is machine-index ordered.

#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>
#include <vector>

#include "fleet/experiment.h"
#include "fleet/fleet.h"
#include "fleet/parallel.h"

namespace wsc::fleet {
namespace {

FleetConfig SmallFleet() {
  FleetConfig config;
  config.num_machines = 5;
  config.num_binaries = 12;
  config.min_colocated = 1;
  config.max_colocated = 2;
  config.duration = Milliseconds(300);
  config.max_requests_per_process = 2000;
  return config;
}

// Exact equality on every metric, including doubles and the full
// telemetry snapshot: the parallel engine must not change a single
// floating-point operation.
void ExpectIdentical(const std::vector<FleetObservation>& a,
                     const std::vector<FleetObservation>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(a[i].machine, b[i].machine);
    EXPECT_EQ(a[i].binary_rank, b[i].binary_rank);
    EXPECT_EQ(a[i].result.workload_name, b[i].result.workload_name);
    const auto& da = a[i].result.driver;
    const auto& db = b[i].result.driver;
    EXPECT_EQ(da.requests, db.requests);
    EXPECT_EQ(da.allocations, db.allocations);
    EXPECT_EQ(da.failed_allocations, db.failed_allocations);
    EXPECT_EQ(da.frees, db.frees);
    EXPECT_EQ(da.cpu_ns, db.cpu_ns);
    EXPECT_EQ(da.malloc_ns, db.malloc_ns);
    EXPECT_EQ(da.tlb_stall_ns, db.tlb_stall_ns);
    EXPECT_EQ(da.llc_stall_ns, db.llc_stall_ns);
    EXPECT_EQ(a[i].result.avg_heap_bytes, b[i].result.avg_heap_bytes);
    EXPECT_EQ(a[i].result.avg_live_bytes, b[i].result.avg_live_bytes);
    EXPECT_EQ(a[i].result.heap.live_bytes, b[i].result.heap.live_bytes);
    EXPECT_EQ(a[i].result.heap.ExternalFragmentation(),
              b[i].result.heap.ExternalFragmentation());
    EXPECT_EQ(a[i].result.hugepage_coverage, b[i].result.hugepage_coverage);
    EXPECT_EQ(a[i].result.telemetry, b[i].result.telemetry);
  }
}

TEST(ParallelFleet, ThreadCountDoesNotChangeResults) {
  tcmalloc::AllocatorConfig allocator;
  Fleet sequential(SmallFleet(), allocator, 31337);
  sequential.Run(1);
  Fleet parallel(SmallFleet(), allocator, 31337);
  parallel.Run(4);
  ExpectIdentical(sequential.observations(), parallel.observations());
}

TEST(ParallelFleet, MoreThreadsThanMachines) {
  tcmalloc::AllocatorConfig allocator;
  Fleet sequential(SmallFleet(), allocator, 99);
  sequential.Run(1);
  Fleet oversubscribed(SmallFleet(), allocator, 99);
  oversubscribed.Run(16);  // 16 workers, 5 machines
  ExpectIdentical(sequential.observations(), oversubscribed.observations());
}

TEST(ParallelFleet, AggregatedMetricsIdentical) {
  tcmalloc::AllocatorConfig allocator;
  Fleet a(SmallFleet(), allocator, 555);
  a.Run(1);
  Fleet b(SmallFleet(), allocator, 555);
  b.Run(3);
  MetricSet ma, mb;
  for (const auto& obs : a.observations()) Accumulate(ma, obs.result);
  for (const auto& obs : b.observations()) Accumulate(mb, obs.result);
  EXPECT_EQ(ma.requests, mb.requests);
  EXPECT_EQ(ma.cpu_ns, mb.cpu_ns);
  EXPECT_EQ(ma.malloc_ns, mb.malloc_ns);
  EXPECT_EQ(ma.memory_bytes, mb.memory_bytes);
  EXPECT_EQ(ma.frag_bytes, mb.frag_bytes);
  EXPECT_EQ(ma.llc_misses, mb.llc_misses);
  EXPECT_EQ(ma.processes, mb.processes);
}

TEST(ParallelFleet, AbExperimentDeltasIdentical) {
  tcmalloc::AllocatorConfig control;
  tcmalloc::AllocatorConfig experiment =
      tcmalloc::AllocatorConfig::Builder().WithSpanPrioritization().Build();

  FleetConfig seq_config = SmallFleet();
  seq_config.num_threads = 1;
  FleetConfig par_config = SmallFleet();
  par_config.num_threads = 4;

  AbResult seq = RunFleetAb(seq_config, control, experiment, 777);
  AbResult par = RunFleetAb(par_config, control, experiment, 777);

  EXPECT_EQ(seq.fleet.control.requests, par.fleet.control.requests);
  EXPECT_EQ(seq.fleet.experiment.requests, par.fleet.experiment.requests);
  EXPECT_EQ(seq.fleet.control.memory_bytes, par.fleet.control.memory_bytes);
  EXPECT_EQ(seq.fleet.experiment.memory_bytes,
            par.fleet.experiment.memory_bytes);
  EXPECT_EQ(seq.fleet.ThroughputChangePct(), par.fleet.ThroughputChangePct());
  EXPECT_EQ(seq.fleet.MemoryChangePct(), par.fleet.MemoryChangePct());
  ASSERT_EQ(seq.per_app.size(), par.per_app.size());
  for (size_t i = 0; i < seq.per_app.size(); ++i) {
    EXPECT_EQ(seq.per_app[i].control.requests, par.per_app[i].control.requests);
    EXPECT_EQ(seq.per_app[i].experiment.cpu_ns, par.per_app[i].experiment.cpu_ns);
  }
}

TEST(ParallelFleet, PlanMatchesExecution) {
  // PlanMachines is a pure function of (config, seed): two fleets with the
  // same inputs must plan identically, and every machine must get a plan.
  FleetConfig config = SmallFleet();
  tcmalloc::AllocatorConfig allocator;
  Fleet a(config, allocator, 4242);
  Fleet b(config, allocator, 4242);
  auto pa = a.PlanMachines();
  auto pb = b.PlanMachines();
  ASSERT_EQ(pa.size(), static_cast<size_t>(config.num_machines));
  ASSERT_EQ(pa.size(), pb.size());
  for (size_t m = 0; m < pa.size(); ++m) {
    EXPECT_EQ(pa[m].machine_seed, pb[m].machine_seed);
    EXPECT_EQ(pa[m].ranks, pb[m].ranks);
    EXPECT_EQ(pa[m].workloads.size(), pb[m].workloads.size());
    EXPECT_EQ(pa[m].platform.name, pb[m].platform.name);
  }
}

TEST(ResolveThreadCount, ExplicitWinsOverEnvAndAuto) {
  EXPECT_EQ(ResolveThreadCount(3), 3);
  setenv("WSC_THREADS", "2", /*overwrite=*/1);
  EXPECT_EQ(ResolveThreadCount(5), 5);
  EXPECT_EQ(ResolveThreadCount(0), 2);
  unsetenv("WSC_THREADS");
  EXPECT_GE(ResolveThreadCount(0), 1);  // hardware concurrency fallback
}

TEST(ParallelFor, CoversAllIndicesOnce) {
  std::vector<int> hits(100, 0);
  std::mutex mu;
  ParallelFor(100, 4, [&](int i) {
    std::lock_guard<std::mutex> lock(mu);
    hits[i]++;
  });
  for (int i = 0; i < 100; ++i) EXPECT_EQ(hits[i], 1) << i;
}

}  // namespace
}  // namespace wsc::fleet
