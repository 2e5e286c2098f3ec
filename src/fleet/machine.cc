#include "fleet/machine.h"

#include <algorithm>

#include "common/logging.h"
#include "tcmalloc/malloc_extension.h"

namespace wsc::fleet {

namespace {

// LLC model resident-line budget per domain: 256 Ki modeled lines
// (16 MiB) per domain, large enough that an object freed on one domain and
// re-allocated on another still has resident lines — the cross-domain
// transfer the NUCA transfer cache eliminates (Section 4.2).
constexpr size_t kLlcLinesPerDomain = 256 * 1024;

// Footprint sampling cadence: fine enough that time-averaged memory
// metrics resolve sub-percent A/B deltas on runs of tens of seconds.
constexpr SimTime kSamplePeriod = Milliseconds(500);

}  // namespace

tcmalloc::AllocatorConfig ResolveTopology(tcmalloc::AllocatorConfig config,
                                          const hw::CpuTopology& topology) {
  config.num_llc_domains = topology.num_domains();
  if (config.numa_aware) {
    config.num_numa_nodes = topology.spec().sockets;
  }
  return config;
}

Machine::Machine(const hw::PlatformSpec& platform,
                 std::vector<workload::WorkloadSpec> workloads,
                 const tcmalloc::AllocatorConfig& base_config, uint64_t seed,
                 std::vector<PressureEvent> pressure_events,
                 size_t trace_events_per_process, MachineFaults faults,
                 SimTime timeseries_interval, DeploySchedule deploys)
    : topology_(platform),
      base_config_(base_config),
      trace_capacity_(trace_events_per_process),
      timeseries_interval_(timeseries_interval),
      faults_(std::move(faults)),
      deploys_(std::move(deploys)),
      pressure_events_(std::move(pressure_events)) {
  WSC_CHECK(!workloads.empty());
  Rng rng(seed);

  // Partition the machine's logical CPUs into contiguous blocks, one per
  // co-located *primary* process (the control-plane CPU mask). Scenario
  // antagonists (spec.antagonist, always appended after the primaries) do
  // not participate in the partition: a noisy neighbor spans the whole
  // machine, and its presence must leave every victim's CPU mask, seeds,
  // and arena slot exactly as they were without it.
  int total_cpus = topology_.num_cpus();
  int n = static_cast<int>(workloads.size());
  int n_primary = 0;
  for (const workload::WorkloadSpec& w : workloads) {
    if (!w.antagonist) ++n_primary;
  }
  WSC_CHECK_GT(n_primary, 0);
  int per_process = std::max(1, total_cpus / n_primary);
  next_arena_index_ = n;  // restarts recycle slots from the free pool

  int primary_ordinal = 0;
  for (int i = 0; i < n; ++i) {
    const workload::WorkloadSpec& spec = workloads[static_cast<size_t>(i)];
    std::vector<int> cpus;
    if (spec.antagonist) {
      cpus.resize(static_cast<size_t>(total_cpus));
      for (int c = 0; c < total_cpus; ++c) cpus[static_cast<size_t>(c)] = c;
    } else {
      int first = (primary_ordinal * per_process) % total_cpus;
      for (int c = 0; c < per_process; ++c) {
        cpus.push_back((first + c) % total_cpus);
      }
      ++primary_ordinal;
    }
    // Seeds fork in the same order as before faults existed (LLC first,
    // then driver), keeping fault-free machines bit-identical to history.
    uint64_t llc_seed = rng.Fork();
    uint64_t driver_seed = rng.Fork();
    processes_.push_back(MakeProcess(i, spec, std::move(cpus), llc_seed,
                                     driver_seed, /*arena_index=*/i));
  }
}

int Machine::AcquireArenaSlot() {
  if (!free_arena_slots_.empty()) {
    int slot = free_arena_slots_.back();
    free_arena_slots_.pop_back();
    return slot;
  }
  return next_arena_index_++;
}

void Machine::ReleaseArenaSlot(int slot) {
  // Keep the pool sorted descending so Acquire pops the smallest slot:
  // reuse is deterministic and the densest prefix of the table stays hot.
  auto it = std::lower_bound(free_arena_slots_.begin(),
                             free_arena_slots_.end(), slot,
                             [](int a, int b) { return a > b; });
  free_arena_slots_.insert(it, slot);
}

std::unique_ptr<Machine::Process> Machine::MakeProcess(
    int workload_index, const workload::WorkloadSpec& spec,
    std::vector<int> cpus, uint64_t llc_seed, uint64_t driver_seed,
    int arena_index, SimTime start_time) {
  auto process = std::make_unique<Process>();
  process->spec = spec;
  process->workload_index = workload_index;
  process->cpus = cpus;
  process->arena_slot = arena_index;
  process->start_time = start_time;
  process->last_sample = start_time;

  tcmalloc::AllocatorConfig config = ResolveTopology(base_config_, topology_);
  if (config.per_thread_front_end) {
    // Legacy per-thread caches: one front-end cache per thread.
    config.num_vcpus = std::max(1, process->spec.max_threads);
  } else {
    // Dense vCPU ids: populate only as many caches as the process can
    // use (bounded by its CPU mask).
    config.num_vcpus =
        std::max(1, std::min<int>(process->spec.max_threads,
                                  static_cast<int>(cpus.size())));
  }
  // Disjoint arenas per process on the same machine (16 TiB stride, larger
  // than any arena). Restarted processes take a fresh slot: a fresh exec
  // maps a fresh address space.
  config.arena_base =
      (uintptr_t{1} << 44) * (1 + static_cast<uintptr_t>(arena_index));

  process->allocator = std::make_unique<tcmalloc::Allocator>(config);
  if (trace_capacity_ > 0) {
    process->recorder = std::make_unique<trace::FlightRecorder>(trace_capacity_);
    process->allocator->SetFlightRecorder(process->recorder.get());
  }
  size_t wi = static_cast<size_t>(workload_index);
  if (wi < faults_.fault_plans.size() && !faults_.fault_plans[wi].Empty()) {
    process->injector =
        std::make_unique<tcmalloc::FaultInjector>(faults_.fault_plans[wi]);
    process->allocator->SetFaultInjector(process->injector.get());
  }
  if (timeseries_interval_ > 0) {
    process->series = std::make_unique<telemetry::IntervalSeries>();
    // First boundary strictly after the local-timeline origin (deploy
    // replacements rejoin the shared clock mid-run).
    process->next_capture =
        (start_time / timeseries_interval_ + 1) * timeseries_interval_;
  }
  process->tlb = std::make_unique<hw::TlbSimulator>();
  process->llc =
      std::make_unique<hw::LlcModel>(&topology_, kLlcLinesPerDomain, llc_seed);
  process->driver = std::make_unique<workload::Driver>(
      process->spec, process->allocator.get(), &topology_, std::move(cpus),
      process->llc.get(), process->tlb.get(), driver_seed, start_time);
  return process;
}

void Machine::SampleFootprint(Process& p) {
  SimTime now = p.driver->now();
  SimTime dt = now - p.last_sample;
  if (dt <= 0) return;
  tcmalloc::HeapStats heap = p.allocator->CollectStats();
  p.heap_byte_seconds +=
      static_cast<double>(heap.HeapBytes()) * static_cast<double>(dt);
  p.live_byte_seconds +=
      static_cast<double>(heap.live_bytes) * static_cast<double>(dt);
  p.allocator->RecordHeapSample(heap);
  p.peak_heap_bytes = std::max(p.peak_heap_bytes, heap.HeapBytes());
  p.last_sample = now;
  ApplyPressure(p);
}

void Machine::ApplyPressure(Process& p) {
  if (pressure_events_.empty()) return;
  SimTime now = p.driver->now();
  double fraction = 1.0;
  for (const PressureEvent& e : pressure_events_) {
    if (now >= e.start && now < e.end) {
      fraction = std::min(fraction, e.limit_fraction);
    }
  }
  tcmalloc::MallocExtension extension(p.allocator.get());
  if (fraction < 1.0 && p.peak_heap_bytes > 0) {
    size_t target = static_cast<size_t>(
        static_cast<double>(p.peak_heap_bytes) * fraction);
    extension.SetMemoryLimit(tcmalloc::MemoryLimitKind::kSoft,
                             std::max<size_t>(target, 1));
  } else {
    // Event window over: restore the configured limit (0 = none).
    extension.SetMemoryLimit(tcmalloc::MemoryLimitKind::kSoft,
                             p.allocator->config().soft_limit_bytes);
  }
}

void Machine::Run(SimTime duration, uint64_t max_requests) {
  // Interleave processes by next-event order so co-located workloads share
  // the timeline.
  bool any_active = true;
  std::vector<SimTime> next_sample(processes_.size(), kSamplePeriod);
  while (any_active) {
    any_active = false;
    // Step the process with the smallest local clock.
    Process* lowest = nullptr;
    size_t lowest_idx = 0;
    for (size_t i = 0; i < processes_.size(); ++i) {
      Process& p = *processes_[i];
      if (p.done) continue;
      if (lowest == nullptr || p.driver->now() < lowest->driver->now()) {
        lowest = &p;
        lowest_idx = i;
      }
    }
    if (lowest == nullptr) break;
    // Machine OOM kill: fires once, when the machine's local timeline (the
    // minimum process clock — exactly `lowest`) crosses the planned kill
    // time. Restarting invalidates `lowest`, so re-select next iteration.
    if (!oom_fired_ && faults_.oom_kill_time > 0 &&
        lowest->driver->now() >= faults_.oom_kill_time) {
      oom_fired_ = true;
      OomKillAndRestart(next_sample);
      any_active = true;
      continue;
    }
    // Deploy wave: when the machine's local timeline (the minimum process
    // clock — exactly `lowest`) crosses the next scheduled restart, every
    // live process is retired and respawned in place. Restarting
    // invalidates `lowest`, so re-select next iteration.
    if (next_deploy_ < deploys_.restart_times.size() &&
        lowest->driver->now() >= deploys_.restart_times[next_deploy_]) {
      DeployRestartAll(next_sample, next_deploy_);
      ++next_deploy_;
      any_active = true;
      continue;
    }
    lowest->driver->Step();
    if (lowest->driver->now() >= next_sample[lowest_idx]) {
      SampleFootprint(*lowest);
      next_sample[lowest_idx] = lowest->driver->now() + kSamplePeriod;
    }
    if (lowest->series != nullptr &&
        lowest->driver->now() >= lowest->next_capture) {
      // The interval index is the boundary number on the logical clock, so
      // co-located processes (and every machine in the fleet) produce
      // alignable indices. A step that jumps several boundaries captures
      // once and leaves a gap.
      uint64_t index = static_cast<uint64_t>(lowest->driver->now() /
                                             timeseries_interval_);
      double t = static_cast<double>(index) *
                 static_cast<double>(timeseries_interval_) / 1e9;
      CaptureTimeseries(*lowest, index, t,
                        lowest->allocator->TelemetrySnapshot());
      lowest->next_capture =
          static_cast<SimTime>(index + 1) * timeseries_interval_;
    }
    if (lowest->driver->now() >= duration ||
        lowest->driver->metrics().requests >= max_requests) {
      SampleFootprint(*lowest);
      lowest->done = true;
    }
    for (const auto& p : processes_) {
      if (!p->done) {
        any_active = true;
        break;
      }
    }
  }

  // Finalize results: surviving processes first (process order), then the
  // OOM-killed instances captured mid-run (kill order).
  results_.clear();
  results_.reserve(processes_.size() + killed_results_.size());
  for (const auto& p : processes_) {
    results_.push_back(FinalizeResult(*p));
  }
  for (ProcessResult& r : killed_results_) {
    results_.push_back(std::move(r));
  }
  killed_results_.clear();
}

void Machine::CaptureTimeseries(Process& p, uint64_t index, double t_seconds,
                                const telemetry::Snapshot& snapshot) const {
  p.series->Capture(index, t_seconds, snapshot);
  // Footprint distribution: one point per interval, the fleet CDF input
  // (Fig. 3-style percentiles without retaining per-machine data).
  const telemetry::MetricSample* heap =
      snapshot.Find("allocator", "heap_bytes");
  if (heap != nullptr) {
    p.series->Sketch("footprint_bytes").Record(heap->gauge);
  }
  // Per-interval mean allocation latency, weighted by the interval's
  // allocation count — the alloc-latency class distribution.
  const workload::DriverMetrics& m = p.driver->metrics();
  uint64_t allocs = m.allocations - p.captured_allocations;
  if (allocs > 0) {
    double ns = (m.malloc_ns - p.captured_malloc_ns) /
                static_cast<double>(allocs);
    p.series->Sketch("alloc_latency_ns").Record(ns, allocs);
  }
  p.captured_malloc_ns = m.malloc_ns;
  p.captured_allocations = m.allocations;
}

ProcessResult Machine::FinalizeResult(Process& p) const {
  ProcessResult r;
  r.workload_name = p.spec.name;
  r.workload_index = p.workload_index;
  r.driver = p.driver->metrics();
  r.heap = p.allocator->CollectStats();
  SimTime elapsed = std::max<SimTime>(p.driver->now() - p.start_time, 1);
  r.avg_heap_bytes = p.heap_byte_seconds / static_cast<double>(elapsed);
  r.avg_live_bytes = p.live_byte_seconds / static_cast<double>(elapsed);
  if (r.avg_heap_bytes == 0) {
    r.avg_heap_bytes = static_cast<double>(r.heap.HeapBytes());
    r.avg_live_bytes = static_cast<double>(r.heap.live_bytes);
  }
  r.hugepage_coverage = p.allocator->HugepageCoverage();
  r.tlb = p.tlb->stats();
  r.llc = p.llc->stats();
  r.malloc_cycles = p.allocator->cycle_breakdown();
  r.tier_hits = p.allocator->alloc_tier_hits();
  r.telemetry = p.allocator->TelemetrySnapshot();
  if (p.series != nullptr) {
    // Drain interval: whatever accumulated since the last boundary, at an
    // index strictly past every captured one so restarts and stragglers
    // merge cleanly.
    uint64_t boundary =
        static_cast<uint64_t>(p.driver->now() / timeseries_interval_) + 1;
    if (!p.series->intervals().empty()) {
      boundary = std::max(boundary, p.series->intervals().back().index + 1);
    }
    CaptureTimeseries(p, boundary,
                      static_cast<double>(p.driver->now()) / 1e9, r.telemetry);
    r.timeseries = std::move(*p.series);
    *p.series = telemetry::IntervalSeries();
  }
  if (p.recorder != nullptr) r.trace = p.recorder->Drain();
  r.heap_profile = p.allocator->CollectHeapProfile();
  r.ghz = topology_.spec().ghz;
  return r;
}

void Machine::OomKillAndRestart(std::vector<SimTime>& next_sample) {
  // The machine OOM killer picks the biggest-footprint live process (ties
  // break to the lowest index, keeping the choice deterministic).
  size_t victim = processes_.size();
  size_t best = 0;
  for (size_t i = 0; i < processes_.size(); ++i) {
    if (processes_[i]->done) continue;
    size_t fp = processes_[i]->allocator->FootprintBytes();
    if (victim == processes_.size() || fp > best) {
      victim = i;
      best = fp;
    }
  }
  if (victim == processes_.size()) return;
  Process& p = *processes_[victim];

  // Process death: drain frees every live object at once, and the dying
  // instance's metrics become its kill report.
  SampleFootprint(p);
  p.driver->Drain();
  ProcessResult killed = FinalizeResult(p);
  killed.oom_killed = true;
  killed_results_.push_back(std::move(killed));
  ++oom_kills_;

  // Restart in place: same binary and CPU mask, fresh allocator and
  // hardware-model state, a seed forked from the planned restart seed, and
  // a fresh local timeline (like a fresh exec). The dead instance's arena
  // slot returns to the pool and the replacement takes the smallest free
  // slot, so restart storms never grow the stride table. The replacement
  // re-experiences its fault plan from call index zero.
  Rng rng(faults_.restart_seed + 0x9E3779B9u * static_cast<uint64_t>(victim));
  uint64_t llc_seed = rng.Fork();
  uint64_t driver_seed = rng.Fork();
  int workload_index = p.workload_index;
  workload::WorkloadSpec spec = p.spec;
  std::vector<int> cpus = p.cpus;
  ReleaseArenaSlot(p.arena_slot);
  processes_[victim] = MakeProcess(workload_index, spec, std::move(cpus),
                                   llc_seed, driver_seed, AcquireArenaSlot());
  next_sample[victim] = kSamplePeriod;
}

void Machine::DeployRestartAll(std::vector<SimTime>& next_sample,
                               size_t wave) {
  for (size_t i = 0; i < processes_.size(); ++i) {
    Process& p = *processes_[i];
    if (p.done) continue;
    // Graceful shutdown: the outgoing instance drains (frees everything,
    // flushes samplers) and its metrics become its retirement report.
    SampleFootprint(p);
    p.driver->Drain();
    ProcessResult retired = FinalizeResult(p);
    retired.deploy_restarted = true;
    killed_results_.push_back(std::move(retired));
    ++deploy_restarts_;

    // The replacement rejoins the shared clock where its predecessor
    // stopped (a deploy restarts a serving process mid-run; it does not
    // rewind the machine's timeline) and recycles the freed arena slot.
    SimTime start = p.driver->now();
    int workload_index = p.workload_index;
    workload::WorkloadSpec spec = p.spec;
    std::vector<int> cpus = p.cpus;
    Rng rng(deploys_.restart_seed +
            0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(wave + 1) +
            0x9E3779B9u * static_cast<uint64_t>(i));
    uint64_t llc_seed = rng.Fork();
    uint64_t driver_seed = rng.Fork();
    ReleaseArenaSlot(p.arena_slot);
    processes_[i] = MakeProcess(workload_index, spec, std::move(cpus),
                                llc_seed, driver_seed, AcquireArenaSlot(),
                                start);
    next_sample[i] = start + kSamplePeriod;
  }
}

}  // namespace wsc::fleet
