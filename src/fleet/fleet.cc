#include "fleet/fleet.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <mutex>

#include "common/distribution.h"
#include "common/logging.h"
#include "common/rng.h"
#include "fleet/parallel.h"
#include "fleet/stream_collector.h"

namespace wsc::fleet {

Fleet::Fleet(const FleetConfig& config,
             const tcmalloc::AllocatorConfig& allocator, uint64_t seed)
    : config_(config), allocator_config_(allocator), seed_(seed) {
  WSC_CHECK_GT(config.num_machines, 0);
  WSC_CHECK_GT(config.num_binaries, 0);
  WSC_CHECK_GE(config.max_colocated, config.min_colocated);
  WSC_CHECK_EQ(config.platform_mix.size(),
               hw::AllPlatformGenerations().size());
}

workload::WorkloadSpec Fleet::BinarySpec(int rank) const {
  if (config_.include_top_five && rank < 5) {
    return workload::TopFiveProfiles()[rank];
  }
  return workload::SyntheticBinary(rank, seed_ ^ 0xF1EE7ULL);
}

std::vector<Fleet::MachinePlan> Fleet::PlanMachines() const {
  std::vector<MachinePlan> plans;
  plans.reserve(static_cast<size_t>(config_.num_machines));
  ZipfDistribution zipf(config_.num_binaries, config_.zipf_exponent);
  auto generations = hw::AllPlatformGenerations();

  for (int m = 0; m < config_.num_machines; ++m) {
    // Machine composition derives only from (seed_, m). Sampling stays
    // sequential and seed-ordered even though execution is parallel, so
    // seeds are stable by machine index.
    Rng rng(seed_ + 0x1000003 * static_cast<uint64_t>(m));
    MachinePlan plan;

    // Platform generation by configured mix.
    double u = rng.UniformDouble();
    size_t gen = 0;
    double acc = 0;
    for (size_t g = 0; g < config_.platform_mix.size(); ++g) {
      acc += config_.platform_mix[g];
      if (u < acc) {
        gen = g;
        break;
      }
      gen = g;
    }
    plan.platform = hw::PlatformSpecFor(generations[gen]);

    // Co-located binaries by Zipf popularity. The first five machines
    // each host one of the top-5 production binaries so per-application
    // telemetry (the paper's per-app tables) always has observations.
    int n = config_.min_colocated +
            static_cast<int>(rng.UniformInt(
                config_.max_colocated - config_.min_colocated + 1));
    for (int i = 0; i < n; ++i) {
      int rank;
      if (config_.include_top_five && m < 5 && i == 0) {
        rank = m;
      } else {
        rank = static_cast<int>(zipf.Sample(rng)) - 1;
      }
      plan.workloads.push_back(BinarySpec(rank));
      plan.ranks.push_back(rank);
    }

    plan.machine_seed = rng.Fork();

    // Pressure events come after the seed fork and only draw when enabled,
    // so machine seeds (and thus every pressure-free result) are identical
    // whether or not pressure injection is on.
    if (config_.pressure.enabled) {
      const PressureConfig& pc = config_.pressure;
      double dur = static_cast<double>(config_.duration);
      PressureEvent diurnal;
      diurnal.start = static_cast<SimTime>(dur * pc.diurnal_start_frac);
      diurnal.end = static_cast<SimTime>(dur * pc.diurnal_end_frac);
      diurnal.limit_fraction = pc.diurnal_fraction;
      plan.pressure_events.push_back(diurnal);
      if (rng.UniformDouble() < pc.spike_probability) {
        PressureEvent spike;
        double start_frac = rng.UniformDouble() *
                            std::max(0.0, 1.0 - pc.spike_duration_frac);
        spike.start = static_cast<SimTime>(dur * start_frac);
        spike.end = static_cast<SimTime>(
            dur * (start_frac + pc.spike_duration_frac));
        spike.limit_fraction = pc.spike_fraction;
        plan.pressure_events.push_back(spike);
      }
    }

    // Fault plans follow the same discipline as pressure events: drawn
    // after the seed fork, and only when enabled, so a faulted fleet
    // shares machine composition and seeds with a fault-free one.
    if (config_.faults.enabled) {
      const FaultConfig& fc = config_.faults;
      for (size_t i = 0; i < plan.workloads.size(); ++i) {
        tcmalloc::FaultPlan fault;
        for (int w = 0; w < fc.mmap_windows; ++w) {
          uint64_t begin = rng.UniformInt(std::max<uint64_t>(
              fc.mmap_call_horizon, 1));
          fault.mmap_windows.push_back({begin, begin + fc.mmap_window_calls});
        }
        for (int w = 0; w < fc.huge_backing_windows; ++w) {
          uint64_t begin = rng.UniformInt(std::max<uint64_t>(
              fc.huge_backing_call_horizon, 1));
          fault.huge_backing_windows.push_back(
              {begin, begin + fc.huge_backing_window_calls});
        }
        plan.fault_plans.push_back(std::move(fault));
        // Bug injection is a spec stamp, not an RNG draw: the driver rolls
        // the dice itself, and only on guarded allocations.
        plan.workloads[i].double_free_probability = fc.double_free_probability;
        plan.workloads[i].use_after_free_probability =
            fc.use_after_free_probability;
        plan.workloads[i].overrun_probability = fc.overrun_probability;
      }
      if (fc.oom_kill_probability > 0 &&
          rng.UniformDouble() < fc.oom_kill_probability) {
        double span =
            std::max(0.0, fc.oom_kill_max_frac - fc.oom_kill_min_frac);
        double frac = fc.oom_kill_min_frac + rng.UniformDouble() * span;
        plan.oom_kill_time = std::max<SimTime>(
            static_cast<SimTime>(static_cast<double>(config_.duration) * frac),
            1);
        plan.restart_seed = rng.Fork();
      }
    }

    // The traffic scenario plans last, under the same discipline: strictly
    // after the machine-seed fork, drawing only when enabled — so the
    // scenario-free composition (and the pressure/fault streams above) are
    // identical whether or not a scenario is on.
    if (config_.scenario.enabled) {
      MachineScenario scenario = PlanMachineScenario(
          config_.scenario, m, config_.num_machines, config_.duration, rng);
      if (!scenario.load_phases.empty()) {
        for (workload::WorkloadSpec& w : plan.workloads) {
          w.load_phases = scenario.load_phases;
        }
      }
      plan.deploy_restarts = scenario.deploy_restarts;
      plan.deploy_restart_seed = scenario.deploy_restart_seed;
      if (scenario.antagonist) {
        // Appended after every victim: the machine partitions CPUs, forks
        // seeds, and assigns arena slots for primaries first, so victim
        // results are bit-identical with or without the antagonist.
        plan.workloads.push_back(AntagonistWorkload(scenario.antagonist_load,
                                                    config_.duration));
        plan.ranks.push_back(kAntagonistRank);
      }
    }
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<FleetObservation> Fleet::RunMachine(
    int m, const MachinePlan& plan) const {
  MachineFaults faults;
  faults.fault_plans = plan.fault_plans;
  faults.oom_kill_time = plan.oom_kill_time;
  faults.restart_seed = plan.restart_seed;
  DeploySchedule deploys;
  deploys.restart_times = plan.deploy_restarts;
  deploys.restart_seed = plan.deploy_restart_seed;
  Machine machine(plan.platform, plan.workloads, allocator_config_,
                  plan.machine_seed, plan.pressure_events,
                  config_.trace_events_per_process, std::move(faults),
                  config_.timeseries_interval, std::move(deploys));
  machine.Run(config_.duration, config_.max_requests_per_process);
  std::vector<FleetObservation> observations;
  observations.reserve(machine.results().size());
  for (size_t i = 0; i < machine.results().size(); ++i) {
    const ProcessResult& result = machine.results()[i];
    FleetObservation obs;
    obs.machine = m;
    obs.process = static_cast<int>(i);
    // Rank attribution goes through workload_index: OOM restarts make a
    // machine emit more results than workloads.
    obs.binary_rank = plan.ranks[static_cast<size_t>(result.workload_index)];
    obs.result = result;
    observations.push_back(std::move(obs));
  }
  return observations;
}

void Fleet::Run() { Run(ResolveThreadCount(config_.num_threads)); }

void Fleet::Run(int num_threads) {
  observations_.clear();
  std::vector<MachinePlan> plans = PlanMachines();

  // Machines share nothing — each owns its allocators, hardware models,
  // and RNG stream — so they run concurrently. Merging per-machine slots
  // in machine-index order makes the reduction order-independent: results
  // are bit-identical for any thread count.
  std::vector<std::vector<FleetObservation>> per_machine(plans.size());
  ParallelFor(static_cast<int>(plans.size()), num_threads, [&](int m) {
    per_machine[static_cast<size_t>(m)] =
        RunMachine(m, plans[static_cast<size_t>(m)]);
  });
  for (std::vector<FleetObservation>& machine_obs : per_machine) {
    for (FleetObservation& obs : machine_obs) {
      observations_.push_back(std::move(obs));
    }
  }
}

void Fleet::RunStreaming(StreamCollector& collector) {
  RunStreaming(collector, ResolveThreadCount(config_.num_threads));
}

void Fleet::RunStreaming(StreamCollector& collector, int num_threads,
                         int window) {
  observations_.clear();
  std::vector<MachinePlan> plans = PlanMachines();
  if (window <= 0) window = std::max(2 * num_threads, 2);

  // Reorder buffer: machines complete out of order, the fold cursor
  // consumes them in index order. ParallelFor hands out indices in order,
  // and a worker whose index is `window` past the fold cursor waits before
  // running its machine, so `pending` never exceeds `window` entries — the
  // machine the cursor is waiting on is always being run by a worker that
  // did not wait, so the fold always advances.
  std::mutex mu;
  std::condition_variable cv;
  std::map<int, std::vector<FleetObservation>> pending;
  int next_to_fold = 0;
  size_t peak_pending = 0;

  ParallelFor(static_cast<int>(plans.size()), num_threads, [&](int m) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return m < next_to_fold + window; });
    }
    std::vector<FleetObservation> machine_obs =
        RunMachine(m, plans[static_cast<size_t>(m)]);
    std::unique_lock<std::mutex> lock(mu);
    pending.emplace(m, std::move(machine_obs));
    peak_pending = std::max(peak_pending, pending.size());
    bool advanced = false;
    while (!pending.empty() && pending.begin()->first == next_to_fold) {
      // Folding under the lock serializes Collect — the fold is cheap
      // relative to a machine run, and the order is what buys bit-exact
      // equality with the buffered path.
      collector.Collect(next_to_fold, pending.begin()->second);
      pending.erase(pending.begin());
      ++next_to_fold;
      advanced = true;
    }
    if (advanced) cv.notify_all();
  });
  WSC_CHECK(pending.empty());
  collector.set_peak_pending(
      std::max(collector.peak_pending(), peak_pending));
}

telemetry::Snapshot MergedTelemetry(
    const std::vector<FleetObservation>& observations) {
  telemetry::Snapshot merged;
  for (const FleetObservation& obs : observations) {
    merged.MergeFrom(obs.result.telemetry);
  }
  return merged;
}

std::vector<trace::ProcessTrace> MergedTrace(
    const std::vector<FleetObservation>& observations) {
  std::vector<trace::ProcessTrace> traces;
  traces.reserve(observations.size());
  for (const FleetObservation& obs : observations) {
    traces.push_back({obs.machine, obs.process, obs.result.trace});
  }
  return traces;
}

trace::HeapProfile MergedHeapProfile(
    const std::vector<FleetObservation>& observations) {
  trace::HeapProfile merged;
  for (const FleetObservation& obs : observations) {
    merged.MergeFrom(obs.result.heap_profile);
  }
  return merged;
}

telemetry::IntervalSeries MergedTimeSeries(
    const std::vector<FleetObservation>& observations) {
  telemetry::IntervalSeries merged;
  for (const FleetObservation& obs : observations) {
    merged.MergeFrom(obs.result.timeseries);
  }
  return merged;
}

}  // namespace wsc::fleet
