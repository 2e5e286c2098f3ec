// Fleet A/B experiment framework (Section 2.2 "Fleet experiment").
//
// The paper evaluates each allocator redesign by applying it to an
// experiment group of machines and comparing productivity metrics against a
// control group. We strengthen the design into *paired* experiments: the
// control and experiment fleets share identical composition and workload
// randomness (same master seed) and differ only in the allocator
// configuration, so small deltas (the paper's effects are 0.3%-8%) are
// measurable with modest fleet sizes.

#ifndef WSC_FLEET_EXPERIMENT_H_
#define WSC_FLEET_EXPERIMENT_H_

#include <string>
#include <vector>

#include "fleet/fleet.h"

namespace wsc::fleet {

// Aggregated productivity metrics over a set of process observations.
// Stores raw sums; derived metrics are computed on demand.
struct MetricSet {
  double requests = 0;
  double failed_allocations = 0;  // hard-limit allocation failures
  double cpu_ns = 0;
  double base_work_ns = 0;
  double malloc_ns = 0;
  double tlb_stall_ns = 0;
  double llc_stall_ns = 0;
  double memory_bytes = 0;  // sum of time-averaged heap footprints
  double live_bytes = 0;
  double llc_misses = 0;  // remote hits + memory misses
  double instructions = 0;
  double frag_bytes = 0;
  double coverage_weighted = 0;  // hugepage coverage weighted by heap
  int processes = 0;

  double Throughput() const { return cpu_ns > 0 ? requests / (cpu_ns / 1e9) : 0; }
  double Cpi() const { return base_work_ns > 0 ? cpu_ns / base_work_ns : 0; }
  double MallocFraction() const { return cpu_ns > 0 ? malloc_ns / cpu_ns : 0; }
  double DtlbWalkFraction() const {
    return cpu_ns > 0 ? tlb_stall_ns / cpu_ns : 0;
  }
  double LlcMpki() const {
    return instructions > 0 ? llc_misses / (instructions / 1000.0) : 0;
  }
  double FragRatio() const {
    return live_bytes > 0 ? frag_bytes / live_bytes : 0;
  }
  double HugepageCoverage() const {
    return memory_bytes > 0 ? coverage_weighted / memory_bytes : 0;
  }
};

// Accumulates one process observation into a MetricSet.
void Accumulate(MetricSet& set, const ProcessResult& result);

// Control-vs-experiment comparison for one population slice.
struct AbDelta {
  std::string label;
  MetricSet control;
  MetricSet experiment;

  // Merged telemetry of each arm. Filled for fleet-wide deltas
  // (RunFleetAb's `fleet` slice) and dedicated-server runs
  // (RunBenchmarkAb); empty for per-app slices.
  telemetry::Snapshot control_telemetry;
  telemetry::Snapshot experiment_telemetry;

  // Merged interval series of each arm (empty unless the fleet config set
  // a timeseries_interval). Same fill rules as the telemetry snapshots.
  telemetry::IntervalSeries control_timeseries;
  telemetry::IntervalSeries experiment_timeseries;

  double ThroughputChangePct() const;
  double MemoryChangePct() const;
  double CpiChangePct() const;
  double MallocFractionChangePct() const;
};

// Full A/B outcome: fleet-wide plus per-application slices.
struct AbResult {
  AbDelta fleet;
  std::vector<AbDelta> per_app;  // one per top-5 production workload

  const AbDelta* FindApp(const std::string& name) const;
};

// Runs paired fleets under `control` and `experiment` allocator configs.
AbResult RunFleetAb(const FleetConfig& config,
                    const tcmalloc::AllocatorConfig& control,
                    const tcmalloc::AllocatorConfig& experiment,
                    uint64_t seed);

// Runs one workload on a dedicated server under both configs (the paper's
// dedicated-server benchmark experiments).
AbDelta RunBenchmarkAb(const workload::WorkloadSpec& spec,
                       const hw::PlatformSpec& platform,
                       const tcmalloc::AllocatorConfig& control,
                       const tcmalloc::AllocatorConfig& experiment,
                       uint64_t seed, SimTime duration,
                       uint64_t max_requests);

}  // namespace wsc::fleet

#endif  // WSC_FLEET_EXPERIMENT_H_
