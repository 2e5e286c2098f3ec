#include "fleet/machine.h"

#include <algorithm>

#include "common/logging.h"

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
  return config;
}

Machine::Machine(const hw::PlatformSpec& platform,
                 std::vector<workload::WorkloadSpec> workloads,
                 const tcmalloc::AllocatorConfig& base_config, uint64_t seed,
                 std::vector<PressureEvent> pressure_events)
    : topology_(platform),
      base_config_(base_config),
      pressure_events_(std::move(pressure_events)) {
  WSC_CHECK(!workloads.empty());
  Rng rng(seed);

  // Partition the machine's logical CPUs into contiguous blocks, one per
  // co-located process (the control-plane CPU mask).
  int total_cpus = topology_.num_cpus();
  int n = static_cast<int>(workloads.size());
  int per_process = std::max(1, total_cpus / n);
  for (int i = 0; i < n; ++i) {
    std::vector<int> cpus;
    int first = (i * per_process) % total_cpus;
    for (int c = 0; c < per_process; ++c) {
      cpus.push_back((first + c) % total_cpus);
    }
    // The fork order (LLC, then driver) is part of every recorded golden.
    uint64_t llc_seed = rng.Fork();
    uint64_t driver_seed = rng.Fork();
    processes_.push_back(MakeProcess(i, workloads[static_cast<size_t>(i)],
                                     std::move(cpus), llc_seed, driver_seed));
  }
}

std::unique_ptr<Machine::Process> Machine::MakeProcess(
    int workload_index, const workload::WorkloadSpec& spec,
    std::vector<int> cpus, uint64_t llc_seed, uint64_t driver_seed) {
  auto process = std::make_unique<Process>();
  process->spec = spec;

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
  // than any arena), one slot per workload.
  config.arena_base =
      (uintptr_t{1} << 44) * (1 + static_cast<uintptr_t>(workload_index));

  process->allocator = std::make_unique<tcmalloc::Allocator>(config);
  process->tlb = std::make_unique<hw::TlbSimulator>();
  process->llc =
      std::make_unique<hw::LlcModel>(&topology_, kLlcLinesPerDomain, llc_seed);
  process->driver = std::make_unique<workload::Driver>(
      process->spec, process->allocator.get(), &topology_, std::move(cpus),
      process->llc.get(), process->tlb.get(), driver_seed);
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
  tcmalloc::BackgroundReclaimer& reclaimer = p.allocator->reclaimer();
  if (fraction < 1.0 && p.peak_heap_bytes > 0) {
    size_t target = static_cast<size_t>(
        static_cast<double>(p.peak_heap_bytes) * fraction);
    reclaimer.SetLimit(tcmalloc::MemoryLimitKind::kSoft,
                       std::max<size_t>(target, 1));
  } else {
    // Event window over: restore the configured limit (0 = none).
    reclaimer.SetLimit(tcmalloc::MemoryLimitKind::kSoft,
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
    lowest->driver->Step();
    if (lowest->driver->now() >= next_sample[lowest_idx]) {
      SampleFootprint(*lowest);
      next_sample[lowest_idx] = lowest->driver->now() + kSamplePeriod;
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

  results_.clear();
  results_.reserve(processes_.size());
  for (const auto& p : processes_) {
    results_.push_back(FinalizeResult(*p));
  }
}

ProcessResult Machine::FinalizeResult(Process& p) const {
  ProcessResult r;
  r.workload_name = p.spec.name;
  r.driver = p.driver->metrics();
  r.heap = p.allocator->CollectStats();
  SimTime elapsed = std::max<SimTime>(p.driver->now(), 1);
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
  r.heap_profile = p.allocator->CollectHeapProfile();
  r.ghz = topology_.spec().ghz;
  return r;
}

}  // namespace wsc::fleet
