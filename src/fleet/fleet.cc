#include "fleet/fleet.h"

#include <algorithm>

#include "common/distribution.h"
#include "common/logging.h"
#include "common/rng.h"
#include "fleet/parallel.h"

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
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<FleetObservation> Fleet::RunMachine(
    int m, const MachinePlan& plan) const {
  Machine machine(plan.platform, plan.workloads, allocator_config_,
                  plan.machine_seed, plan.pressure_events);
  machine.Run(config_.duration, config_.max_requests_per_process);
  std::vector<FleetObservation> observations;
  observations.reserve(machine.results().size());
  for (size_t i = 0; i < machine.results().size(); ++i) {
    const ProcessResult& result = machine.results()[i];
    FleetObservation obs;
    obs.machine = m;
    obs.process = static_cast<int>(i);
    obs.binary_rank = plan.ranks[i];
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

telemetry::Snapshot MergedTelemetry(
    const std::vector<FleetObservation>& observations) {
  telemetry::Snapshot merged;
  for (const FleetObservation& obs : observations) {
    merged.MergeFrom(obs.result.telemetry);
  }
  return merged;
}

trace::HeapProfile MergedHeapProfile(
    const std::vector<FleetObservation>& observations) {
  trace::HeapProfile merged;
  for (const FleetObservation& obs : observations) {
    merged.MergeFrom(obs.result.heap_profile);
  }
  return merged;
}

}  // namespace wsc::fleet
