// Fleet model: a population of machines running a Zipf-weighted binary mix.
//
// Section 2.2: there is no killer app — the top 50 binaries cover only
// ~50% of fleet malloc cycles and ~65% of allocated memory (Fig. 3). The
// fleet samples binaries by Zipf popularity onto machines of mixed platform
// generations, with 1-3 co-located processes per machine, and aggregates
// telemetry across all of them.

#ifndef WSC_FLEET_FLEET_H_
#define WSC_FLEET_FLEET_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/machine.h"
#include "fleet/scenario.h"
#include "hw/topology.h"
#include "tcmalloc/config.h"
#include "tcmalloc/fault_injection.h"
#include "trace/chrome_trace.h"
#include "workload/profiles.h"

namespace wsc::fleet {

class StreamCollector;

// Fleet-wide memory-pressure injection (ISSUE: diurnal trough + random
// spikes). Events are planned per machine in PlanMachines — sampled
// seed-ordered after the machine seed fork, so enabling pressure never
// perturbs machine composition — and retarget each process's soft limit
// as a fraction of its observed peak footprint (see fleet::PressureEvent).
struct PressureConfig {
  bool enabled = false;
  // Diurnal trough: every machine's limit drops to this fraction of peak
  // for the window [diurnal_start_frac, diurnal_end_frac) of the run.
  double diurnal_fraction = 0.6;
  double diurnal_start_frac = 0.35;
  double diurnal_end_frac = 0.8;
  // Per-machine antagonist spike: with this probability, a machine gets a
  // harsher window of `spike_duration_frac` of the run at `spike_fraction`
  // of peak, starting at a uniformly drawn offset.
  double spike_probability = 0.25;
  double spike_fraction = 0.45;
  double spike_duration_frac = 0.15;
};

// Fleet-wide deterministic fault injection: mmap failures, hugepage
// scarcity, driver-injected heap bugs, and machine OOM kills. Like
// pressure events, everything here is planned per machine in PlanMachines
// strictly after the machine-seed fork and draws the RNG only when
// enabled, so a faulted fleet shares machine composition (and every
// fault-free result) with an unfaulted one. Fault points are windows over
// per-kind *call indices* (see tcmalloc::FaultPlan), which keeps results
// bit-identical for any --threads value.
struct FaultConfig {
  bool enabled = false;

  // Per-process mmap-failure windows: `mmap_windows` windows, each denying
  // `mmap_window_calls` consecutive SystemAllocator hugepage requests,
  // starting at call indices drawn uniformly from [0, mmap_call_horizon).
  int mmap_windows = 1;
  uint64_t mmap_window_calls = 4;
  uint64_t mmap_call_horizon = 256;

  // Hugepage-scarcity windows: address ranges are granted but THP backing
  // is denied (the range runs at 4 KiB TLB reach until released).
  int huge_backing_windows = 1;
  uint64_t huge_backing_window_calls = 32;
  uint64_t huge_backing_call_horizon = 256;

  // Driver-injected heap bugs, stamped onto every workload spec (see
  // WorkloadSpec: exercised only against guarded/sampled allocations, so
  // pair with AllocatorConfig guarded_sampling to detect them).
  double double_free_probability = 0.0;
  double use_after_free_probability = 0.0;
  double overrun_probability = 0.0;

  // With this probability a machine schedules one OOM kill at a uniformly
  // drawn fraction of the run in [oom_kill_min_frac, oom_kill_max_frac):
  // the biggest-footprint process dies and restarts (fleet::MachineFaults).
  double oom_kill_probability = 0.0;
  double oom_kill_min_frac = 0.3;
  double oom_kill_max_frac = 0.7;
};

// Fleet shape and run-length parameters.
struct FleetConfig {
  int num_machines = 16;
  int num_binaries = 50;
  double zipf_exponent = 1.1;  // binary popularity skew
  int min_colocated = 1;
  int max_colocated = 3;

  // Worker threads for Run(): machines execute concurrently on this many
  // threads. 0 = auto (WSC_THREADS env var, else hardware concurrency).
  // Results are bit-identical for every value.
  int num_threads = 0;

  // Per-process run bounds.
  SimTime duration = Minutes(5);
  uint64_t max_requests_per_process = 120000;

  // Fraction of machines per platform generation (kGenA..kGenE); chiplet
  // platforms are generations C-E.
  std::vector<double> platform_mix = {0.10, 0.20, 0.30, 0.25, 0.15};

  // Ranks 0-4 are the exact top-5 production profiles (they are also the
  // most popular by Zipf weight); higher ranks are jittered variants.
  bool include_top_five = true;

  // Memory-pressure event injection (off by default).
  PressureConfig pressure;

  // Deterministic fault injection (off by default).
  FaultConfig faults;

  // Traffic scenario (off by default): diurnal curves, flash crowds,
  // deploy waves, antagonist co-location (fleet::ScenarioConfig). Planned
  // per machine after the machine-seed fork, exactly like pressure and
  // faults, so enabling a scenario never perturbs machine composition.
  ScenarioConfig scenario;

  // Flight-recorder ring capacity per process (0 = tracing off). When set,
  // every process's drained ring lands in its ProcessResult::trace and the
  // fleet trace is exported via MergedTrace.
  size_t trace_events_per_process = 0;

  // Telemetry time-series capture cadence on the logical clock (0 = off).
  // When set, every process captures counter/histogram deltas and gauge
  // samples at each boundary into ProcessResult::timeseries; series merge
  // via MergedTimeSeries / StreamCollector, aligned by interval index, so
  // the fleet series is bit-identical for any --threads value.
  SimTime timeseries_interval = 0;
};

// Binary rank assigned to scenario antagonists: they are fleet furniture,
// not sampled binaries, and per-rank reports should skip them.
inline constexpr int kAntagonistRank = -1;

// One process observation, tagged with provenance.
struct FleetObservation {
  int machine = 0;
  int process = 0;  // process index within its machine
  int binary_rank = 0;
  ProcessResult result;
};

// GWP-style fleet aggregate: merges every observation's telemetry
// snapshot in observation order (machine-index order, the order Run()
// produces), so the result is bit-identical for any worker-thread count.
telemetry::Snapshot MergedTelemetry(
    const std::vector<FleetObservation>& observations);

// Per-process trace buffers tagged pid = machine index, tid = process
// index, in observation order — ready for trace::RenderChromeTrace.
// Observation order is machine-index order, so the rendered trace is
// bit-identical for any worker-thread count.
std::vector<trace::ProcessTrace> MergedTrace(
    const std::vector<FleetObservation>& observations);

// Fleet-wide heap profile: every observation's profile merged in
// observation order (bit-identical for any worker-thread count).
trace::HeapProfile MergedHeapProfile(
    const std::vector<FleetObservation>& observations);

// Fleet-wide time series: every observation's interval series merged in
// observation order, aligned by interval index (exact bucketwise sums —
// bit-identical for any worker-thread count).
telemetry::IntervalSeries MergedTimeSeries(
    const std::vector<FleetObservation>& observations);

// A runnable fleet. Machine composition (platforms, binary placement,
// seeds) is a pure function of (config, seed) and never depends on the
// allocator configuration — this is what makes paired A/B runs
// low-variance.
class Fleet {
 public:
  Fleet(const FleetConfig& config, const tcmalloc::AllocatorConfig& allocator,
        uint64_t seed);

  // Everything one machine needs before it runs: platform, workload mix,
  // and a forked RNG seed, all sampled sequentially in machine-index order
  // from (config, seed) alone. Execution never draws from the composition
  // RNG, so plans are stable however machines are scheduled.
  struct MachinePlan {
    hw::PlatformSpec platform;
    std::vector<workload::WorkloadSpec> workloads;
    std::vector<int> ranks;      // binary rank per workload
    uint64_t machine_seed = 0;
    // Pressure windows for this machine (empty unless config.pressure is
    // enabled). Planned seed-ordered, after the machine seed fork, so a
    // pressure run shares machine composition with a pressure-free run.
    std::vector<PressureEvent> pressure_events;
    // Per-process fault plans plus the machine's OOM-kill schedule (empty
    // and zero unless config.faults is enabled). Planned after the seed
    // fork, exactly like pressure events.
    std::vector<tcmalloc::FaultPlan> fault_plans;
    SimTime oom_kill_time = 0;  // 0 = no kill planned
    uint64_t restart_seed = 0;
    // Scenario slice (empty/zero unless config.scenario is enabled),
    // planned last, after pressure and faults. Load phases are stamped
    // directly onto `workloads`; an antagonist, when present, is appended
    // to `workloads` with rank kAntagonistRank so victims keep their CPU
    // masks, seeds, and arena slots.
    std::vector<SimTime> deploy_restarts;
    uint64_t deploy_restart_seed = 0;
  };

  // The deterministic composition of every machine (exposed for tests).
  std::vector<MachinePlan> PlanMachines() const;

  // Runs every machine and collects observations. Machines execute
  // concurrently on `config.num_threads` workers; per-machine results are
  // merged in machine-index order, so the outcome is bit-identical to the
  // sequential run for any thread count. May be called with an explicit
  // worker count (overriding the config), e.g. when two fleets share a
  // thread budget.
  void Run();
  void Run(int num_threads);

  // Streaming variant for warehouse scale: machines still execute
  // concurrently, but observations are folded into `collector` in strict
  // machine-index order as machines complete and then discarded — memory
  // stays O(metrics × intervals) instead of O(machines). Workers that run
  // more than `window` machines ahead of the fold cursor wait (window = 2×
  // worker count when 0), which bounds the reorder buffer without ever
  // blocking the machine the fold is waiting on. The fold order equals the
  // buffered Run()'s merge order, so every aggregate is bit-identical to
  // Run() + Merged* for any thread count. observations() is left empty.
  void RunStreaming(StreamCollector& collector);
  void RunStreaming(StreamCollector& collector, int num_threads,
                    int window = 0);

  const std::vector<FleetObservation>& observations() const {
    return observations_;
  }

  // The workload spec for a binary rank under this fleet's seed.
  workload::WorkloadSpec BinarySpec(int rank) const;

 private:
  // Executes one planned machine and tags its observations.
  std::vector<FleetObservation> RunMachine(int m,
                                           const MachinePlan& plan) const;

  FleetConfig config_;
  tcmalloc::AllocatorConfig allocator_config_;
  uint64_t seed_;
  std::vector<FleetObservation> observations_;
};

}  // namespace wsc::fleet

#endif  // WSC_FLEET_FLEET_H_
