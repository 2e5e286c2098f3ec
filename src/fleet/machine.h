// Machine model: one server running co-located workloads.
//
// WSC applications are co-located and constrained to CPU subsets by the
// control plane (Section 4.1). A Machine owns a platform topology and one
// simulated process per workload: each process has its own allocator
// instance (as in production, where every binary links its own TCMalloc),
// its own dTLB model, and its own LLC locality model (cross-process LLC
// interference is out of scope; the NUCA effects the paper studies are
// within-process object flows). Processes are interleaved on a shared
// timeline by next-event order.

#ifndef WSC_FLEET_MACHINE_H_
#define WSC_FLEET_MACHINE_H_

#include <memory>
#include <string>
#include <vector>

#include "hw/llc_model.h"
#include "hw/tlb.h"
#include "hw/topology.h"
#include "tcmalloc/allocator.h"
#include "telemetry/registry.h"
#include "trace/heap_profile.h"
#include "workload/driver.h"
#include "workload/profiles.h"

namespace wsc::fleet {

// One machine-level memory-pressure window: while the machine's local
// timeline is inside [start, end), every process's soft memory limit is
// retargeted to `limit_fraction` of its observed peak footprint (the
// control plane asking the binary to give memory back). Overlapping events
// compose by taking the tightest fraction. Outside all events, each
// process's configured soft limit (AllocatorConfig::soft_limit_bytes) is
// restored.
struct PressureEvent {
  SimTime start = 0;
  SimTime end = 0;
  double limit_fraction = 1.0;
};

// Resolves topology-derived knobs in `config` for a process placed on
// `topology`: the LLC domain count always comes from the machine. This is
// the resolution Machine applies at placement time, exposed so tests can
// build placement-resolved configs (e.g. NUCA on a monolithic platform)
// without assigning config fields directly.
tcmalloc::AllocatorConfig ResolveTopology(tcmalloc::AllocatorConfig config,
                                          const hw::CpuTopology& topology);

// Final metrics of one process after a machine run.
struct ProcessResult {
  std::string workload_name;
  workload::DriverMetrics driver;
  tcmalloc::HeapStats heap;            // final heap snapshot
  double avg_heap_bytes = 0;           // time-averaged footprint
  double avg_live_bytes = 0;
  double hugepage_coverage = 0;        // page-heap coverage at end
  hw::TlbStats tlb;
  hw::LlcStats llc;
  tcmalloc::MallocCycleBreakdown malloc_cycles;
  tcmalloc::TierHitCounts tier_hits;
  // Full metric snapshot of the process's allocator, taken when the
  // process drains (its last sim-interval boundary). Snapshots merge
  // across processes/machines in index order (see fleet::MergedTelemetry).
  telemetry::Snapshot telemetry;
  // The process's heap profile, taken at the same point as `telemetry`.
  // Merged machine-index ordered like telemetry.
  trace::HeapProfile heap_profile;
  double ghz = 2.4;

  double LlcMpki() const {
    return llc.Mpki(driver.Instructions(ghz));
  }
  // Fraction of cycles spent walking the page table on dTLB misses.
  double DtlbWalkFraction() const {
    return driver.cpu_ns > 0 ? driver.tlb_stall_ns / driver.cpu_ns : 0.0;
  }
};

// One simulated server.
class Machine {
 public:
  Machine(const hw::PlatformSpec& platform,
          std::vector<workload::WorkloadSpec> workloads,
          const tcmalloc::AllocatorConfig& base_config, uint64_t seed,
          std::vector<PressureEvent> pressure_events = {});

  // Runs every process until its local clock reaches `duration` or it has
  // executed `max_requests` requests, whichever comes first, then drains.
  void Run(SimTime duration, uint64_t max_requests);

  // Results are valid after Run(), one per workload in workload order.
  const std::vector<ProcessResult>& results() const { return results_; }

  const hw::CpuTopology& topology() const { return topology_; }
  int num_processes() const { return static_cast<int>(processes_.size()); }
  workload::Driver& driver(int i) { return *processes_[i]->driver; }
  tcmalloc::Allocator& allocator(int i) { return *processes_[i]->allocator; }

 private:
  struct Process {
    workload::WorkloadSpec spec;
    std::unique_ptr<tcmalloc::Allocator> allocator;
    std::unique_ptr<hw::TlbSimulator> tlb;
    std::unique_ptr<hw::LlcModel> llc;
    std::unique_ptr<workload::Driver> driver;
    // Time-weighted footprint accumulators.
    double heap_byte_seconds = 0;
    double live_byte_seconds = 0;
    SimTime last_sample = 0;
    bool done = false;
    // Peak observed footprint; pressure events retarget soft limits as a
    // fraction of this.
    size_t peak_heap_bytes = 0;
  };

  void SampleFootprint(Process& p);

  // Retargets `p`'s soft limit for the pressure events active at its
  // local time (called at footprint-sample boundaries).
  void ApplyPressure(Process& p);

  // Builds one fully wired process: placement-resolved allocator (arena at
  // `workload_index` stride), hardware models, and driver.
  std::unique_ptr<Process> MakeProcess(int workload_index,
                                       const workload::WorkloadSpec& spec,
                                       std::vector<int> cpus,
                                       uint64_t llc_seed, uint64_t driver_seed);

  // Captures the final metrics of one process at the end of Run.
  ProcessResult FinalizeResult(Process& p) const;

  hw::CpuTopology topology_;
  tcmalloc::AllocatorConfig base_config_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<ProcessResult> results_;
  std::vector<PressureEvent> pressure_events_;
};

}  // namespace wsc::fleet

#endif  // WSC_FLEET_MACHINE_H_
