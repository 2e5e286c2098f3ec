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
#include "tcmalloc/fault_injection.h"
#include "telemetry/registry.h"
#include "telemetry/timeseries.h"
#include "trace/flight_recorder.h"
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

// Machine-level fault script, planned by the fleet after the machine-seed
// fork (fleet.cc) so that enabling faults never perturbs machine
// composition. `fault_plans[i]` is installed on process i's allocator as a
// FaultInjector; an empty vector (or an empty plan) means no injection.
// `oom_kill_time` > 0 schedules one machine OOM kill: when the machine's
// local timeline (the minimum process clock) crosses it, the
// biggest-footprint process is killed — its result is captured with
// `oom_killed` set — and restarted in place with a seed forked from
// `restart_seed`, a fresh arena, and a fresh local timeline.
struct MachineFaults {
  std::vector<tcmalloc::FaultPlan> fault_plans;
  SimTime oom_kill_time = 0;  // 0 = no kill
  uint64_t restart_seed = 0;
};

// Deploy-wave schedule, planned by the fleet scenario layer after the
// machine-seed fork. Each time in `restart_times` (sorted ascending, on
// the machine's local timeline) restarts every live process in place: the
// old instance drains and reports (tagged deploy_restarted), and its
// replacement — seeded from `restart_seed` — rejoins the shared clock at
// the restart instant and recycles the old instance's arena slot, so even
// hundred-restart waves keep the arena stride table bounded.
struct DeploySchedule {
  std::vector<SimTime> restart_times;
  uint64_t restart_seed = 0;
};

// Resolves topology-derived knobs in `config` for a process placed on
// `topology`: the LLC domain count always comes from the machine, and the
// NUMA node count from its socket count when NUMA mode is on. This is the
// resolution Machine applies at placement time, exposed so tests can build
// placement-resolved configs (e.g. NUCA on a monolithic platform) without
// assigning config fields directly.
tcmalloc::AllocatorConfig ResolveTopology(tcmalloc::AllocatorConfig config,
                                          const hw::CpuTopology& topology);

// Final metrics of one process after a machine run.
struct ProcessResult {
  std::string workload_name;
  // Index into the machine's workload list (and the fleet plan's `ranks`).
  // With OOM restarts a machine emits more results than workloads, so rank
  // attribution must go through this, not the result position.
  int workload_index = 0;
  // True when this result belongs to a process the machine OOM killer
  // terminated mid-run (a restarted instance reports separately).
  bool oom_killed = false;
  // True when this result belongs to an instance retired by a deploy-wave
  // restart (its replacement reports separately).
  bool deploy_restarted = false;
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
  // Drained flight-recorder contents (empty with capacity 0 when tracing
  // was off) and the process's heap profile, both taken at the same point
  // as `telemetry`. Merged machine-index ordered like telemetry.
  trace::TraceBuffer trace;
  trace::HeapProfile heap_profile;
  // Interval time series of this process's telemetry (empty unless the
  // machine ran with timeseries_interval > 0): counter/histogram deltas
  // and gauge samples at logical interval boundaries, plus footprint and
  // alloc-latency sketches. Interval indices are boundary numbers on the
  // shared logical clock, so series from co-located processes (and the
  // whole fleet) align by index and merge exactly.
  telemetry::IntervalSeries timeseries;
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
  // `trace_events_per_process` > 0 attaches a flight recorder of that
  // capacity to every process's allocator; the drained ring lands in
  // ProcessResult::trace. `timeseries_interval` > 0 captures every
  // process's telemetry deltas at that logical-clock cadence into
  // ProcessResult::timeseries.
  Machine(const hw::PlatformSpec& platform,
          std::vector<workload::WorkloadSpec> workloads,
          const tcmalloc::AllocatorConfig& base_config, uint64_t seed,
          std::vector<PressureEvent> pressure_events = {},
          size_t trace_events_per_process = 0, MachineFaults faults = {},
          SimTime timeseries_interval = 0, DeploySchedule deploys = {});

  // Runs every process until its local clock reaches `duration` or it has
  // executed `max_requests` requests, whichever comes first, then drains.
  void Run(SimTime duration, uint64_t max_requests);

  // Results are valid after Run(). Surviving processes come first in
  // process order; results of OOM-killed instances are appended after, in
  // kill order, tagged with their workload_index and oom_killed.
  const std::vector<ProcessResult>& results() const { return results_; }

  const hw::CpuTopology& topology() const { return topology_; }
  int num_processes() const { return static_cast<int>(processes_.size()); }
  int oom_kills() const { return oom_kills_; }
  int deploy_restarts() const { return deploy_restarts_; }
  // Arena stride slots ever handed out: the slot table's high-water mark.
  // With recycling this stays at the co-location count no matter how many
  // restarts a run performs (the bounded-table guarantee).
  int arena_slots_high_water() const { return next_arena_index_; }
  int free_arena_slots() const {
    return static_cast<int>(free_arena_slots_.size());
  }
  workload::Driver& driver(int i) { return *processes_[i]->driver; }
  tcmalloc::Allocator& allocator(int i) { return *processes_[i]->allocator; }

 private:
  struct Process {
    workload::WorkloadSpec spec;
    int workload_index = 0;
    std::vector<int> cpus;  // control-plane CPU mask (kept for restarts)
    int arena_slot = 0;     // arena stride slot (recycled on restart)
    // Local-timeline origin: 0 except for deploy-restarted replacements,
    // which rejoin the shared clock at the restart instant.
    SimTime start_time = 0;
    // Declared before the allocator: ~Allocator drains leftover large
    // objects through the page heap, which emits trace events, so the
    // recorder must outlive it. The fault injector likewise outlives the
    // allocator that consults it.
    std::unique_ptr<trace::FlightRecorder> recorder;  // null: tracing off
    std::unique_ptr<tcmalloc::FaultInjector> injector;  // null: no faults
    std::unique_ptr<tcmalloc::Allocator> allocator;
    std::unique_ptr<hw::TlbSimulator> tlb;
    std::unique_ptr<hw::LlcModel> llc;
    std::unique_ptr<workload::Driver> driver;
    // Interval time series (null: timeseries off). Restarted processes get
    // a fresh series starting at interval 0, like a fresh exec.
    std::unique_ptr<telemetry::IntervalSeries> series;
    SimTime next_capture = 0;  // next timeseries boundary
    // Driver totals at the last capture, for per-interval alloc latency.
    double captured_malloc_ns = 0;
    uint64_t captured_allocations = 0;
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
  // `arena_index` stride), optional flight recorder and fault injector,
  // hardware models, and driver. Used at construction and for OOM
  // restarts.
  std::unique_ptr<Process> MakeProcess(int workload_index,
                                       const workload::WorkloadSpec& spec,
                                       std::vector<int> cpus,
                                       uint64_t llc_seed, uint64_t driver_seed,
                                       int arena_index,
                                       SimTime start_time = 0);

  // Arena slot pool: Acquire returns the smallest recycled slot, or grows
  // the table when none is free; Release returns a dead instance's slot.
  int AcquireArenaSlot();
  void ReleaseArenaSlot(int slot);

  // Captures one timeseries interval for `p`: telemetry deltas plus the
  // footprint and per-interval alloc-latency sketches.
  void CaptureTimeseries(Process& p, uint64_t index, double t_seconds,
                         const telemetry::Snapshot& snapshot) const;

  // Captures the final metrics of one process (used at the end of Run and
  // at OOM-kill time for the dying instance), including the series' final
  // drain interval.
  ProcessResult FinalizeResult(Process& p) const;

  // Kills the biggest-footprint live process (draining it and recording
  // its result with oom_killed set) and restarts it in place.
  void OomKillAndRestart(std::vector<SimTime>& next_sample);

  // One deploy-wave restart: retires every live process (results tagged
  // deploy_restarted) and respawns each in place at its own local time,
  // recycling arena slots. `wave` indexes the restart within the schedule
  // and salts the replacement seeds.
  void DeployRestartAll(std::vector<SimTime>& next_sample, size_t wave);

  hw::CpuTopology topology_;
  tcmalloc::AllocatorConfig base_config_;
  size_t trace_capacity_ = 0;
  SimTime timeseries_interval_ = 0;
  MachineFaults faults_;
  DeploySchedule deploys_;
  size_t next_deploy_ = 0;  // cursor into deploys_.restart_times
  bool oom_fired_ = false;
  int oom_kills_ = 0;
  int deploy_restarts_ = 0;
  // Arena stride slot table: slots ever handed out number
  // [0, next_arena_index_); dead instances' slots return to the pool and
  // are reused smallest-first, keeping the table bounded across restarts.
  int next_arena_index_ = 0;
  std::vector<int> free_arena_slots_;  // sorted descending (smallest last)
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<ProcessResult> results_;
  std::vector<ProcessResult> killed_results_;
  std::vector<PressureEvent> pressure_events_;
};

}  // namespace wsc::fleet

#endif  // WSC_FLEET_MACHINE_H_
