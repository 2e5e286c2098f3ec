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
#include "hw/topology.h"
#include "tcmalloc/config.h"
#include "trace/heap_profile.h"
#include "workload/profiles.h"

namespace wsc::fleet {

// Fleet-wide memory-pressure injection: a diurnal trough plus random
// spikes. Events are planned per machine in PlanMachines — sampled
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
};

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

// Fleet-wide heap profile: every observation's profile merged in
// observation order (bit-identical for any worker-thread count).
trace::HeapProfile MergedHeapProfile(
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
