#include "fleet/experiment.h"

#include <algorithm>

#include "common/logging.h"
#include "common/stats.h"
#include "fleet/parallel.h"

namespace wsc::fleet {

void Accumulate(MetricSet& set, const ProcessResult& r) {
  set.requests += static_cast<double>(r.driver.requests);
  set.failed_allocations += static_cast<double>(r.driver.failed_allocations);
  set.cpu_ns += r.driver.cpu_ns;
  set.base_work_ns += r.driver.base_work_ns;
  set.malloc_ns += r.driver.malloc_ns;
  set.tlb_stall_ns += r.driver.tlb_stall_ns;
  set.llc_stall_ns += r.driver.llc_stall_ns;
  set.memory_bytes += r.avg_heap_bytes;
  set.live_bytes += r.avg_live_bytes;
  set.llc_misses +=
      static_cast<double>(r.llc.remote_hits + r.llc.memory_misses);
  set.instructions += static_cast<double>(r.driver.Instructions(r.ghz));
  set.frag_bytes += r.avg_heap_bytes - r.avg_live_bytes;
  set.coverage_weighted += r.hugepage_coverage * r.avg_heap_bytes;
  ++set.processes;
}

double AbDelta::ThroughputChangePct() const {
  return PercentChange(control.Throughput(), experiment.Throughput());
}

double AbDelta::MemoryChangePct() const {
  return PercentChange(control.memory_bytes, experiment.memory_bytes);
}

double AbDelta::CpiChangePct() const {
  return PercentChange(control.Cpi(), experiment.Cpi());
}

double AbDelta::MallocFractionChangePct() const {
  return PercentChange(control.MallocFraction(),
                       experiment.MallocFraction());
}

const AbDelta* AbResult::FindApp(const std::string& name) const {
  for (const AbDelta& delta : per_app) {
    if (delta.label == name) return &delta;
  }
  return nullptr;
}

AbResult RunFleetAb(const FleetConfig& config,
                    const tcmalloc::AllocatorConfig& control,
                    const tcmalloc::AllocatorConfig& experiment,
                    uint64_t seed) {
  Fleet control_fleet(config, control, seed);
  Fleet experiment_fleet(config, experiment, seed);

  // The two arms are independent paired fleets, so they run concurrently,
  // splitting the worker budget between them; each arm's machines are
  // merged in machine-index order, so the result matches the sequential
  // run bit for bit.
  int threads = ResolveThreadCount(config.num_threads);
  Fleet* arms[2] = {&control_fleet, &experiment_fleet};
  ParallelFor(2, std::min(threads, 2), [&](int arm) {
    arms[arm]->Run(std::max(1, (threads + 1 - arm) / 2));
  });

  const auto& c_obs = control_fleet.observations();
  const auto& e_obs = experiment_fleet.observations();
  WSC_CHECK_EQ(c_obs.size(), e_obs.size());  // paired by construction

  AbResult result;
  result.fleet.label = "fleet";
  result.fleet.control_telemetry = MergedTelemetry(c_obs);
  result.fleet.experiment_telemetry = MergedTelemetry(e_obs);
  std::vector<std::string> apps = {"spanner", "monarch", "bigtable",
                                   "f1-query", "disk"};
  for (const std::string& app : apps) {
    AbDelta delta;
    delta.label = app;
    result.per_app.push_back(delta);
  }

  for (size_t i = 0; i < c_obs.size(); ++i) {
    WSC_CHECK_EQ(c_obs[i].binary_rank, e_obs[i].binary_rank);
    Accumulate(result.fleet.control, c_obs[i].result);
    Accumulate(result.fleet.experiment, e_obs[i].result);
    for (AbDelta& delta : result.per_app) {
      if (c_obs[i].result.workload_name == delta.label) {
        Accumulate(delta.control, c_obs[i].result);
        Accumulate(delta.experiment, e_obs[i].result);
      }
    }
  }
  return result;
}

AbDelta RunBenchmarkAb(const workload::WorkloadSpec& spec,
                       const hw::PlatformSpec& platform,
                       const tcmalloc::AllocatorConfig& control,
                       const tcmalloc::AllocatorConfig& experiment,
                       uint64_t seed, SimTime duration,
                       uint64_t max_requests) {
  AbDelta delta;
  delta.label = spec.name;
  for (int side = 0; side < 2; ++side) {
    const tcmalloc::AllocatorConfig& cfg = side == 0 ? control : experiment;
    Machine machine(platform, {spec}, cfg, seed);
    machine.Run(duration, max_requests);
    WSC_CHECK_EQ(machine.results().size(), 1u);
    Accumulate(side == 0 ? delta.control : delta.experiment,
               machine.results()[0]);
    (side == 0 ? delta.control_telemetry : delta.experiment_telemetry) =
        machine.results()[0].telemetry;
  }
  return delta;
}

}  // namespace wsc::fleet
