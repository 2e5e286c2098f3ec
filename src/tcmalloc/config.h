// Allocator configuration: feature toggles for the four warehouse-scale
// optimizations studied in the paper, plus their tuning knobs.
//
// The fleet A/B framework (src/fleet/experiment.h) flips exactly these
// fields between the experiment and control groups.

#ifndef WSC_TCMALLOC_CONFIG_H_
#define WSC_TCMALLOC_CONFIG_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "common/sim_clock.h"

namespace wsc::tcmalloc {

// Feature toggles + tuning knobs (defaults = paper's baseline TCMalloc).
//
// Construct through AllocatorConfig::Builder (below) outside src/tcmalloc/:
// the builder validates knob combinations and resolves topology-derived
// counts, and is the only construction path CI permits for benches and
// tests.
struct AllocatorConfig {
  // Sentinel for num_llc_domains: "derive from the machine topology at
  // placement time". fleet::Machine resolves it when it places a process;
  // constructing an Allocator directly with an unresolved sentinel is a
  // fatal error (ValidationError explains how to fix it).
  static constexpr int kTopologyDerived = 0;

  // ---- Front-end: per-CPU caches (Section 4.1) ----
  // Number of virtual CPUs to populate caches for (dense vCPU id space).
  int num_vcpus = 8;
  // Legacy front end: one cache per *thread* instead of per CPU (the
  // paper's footnote 2 — strands memory when threads idle and scales
  // poorly with thread count). The machine model sizes the cache set by
  // thread count instead of the CPU mask when this is set.
  bool per_thread_front_end = false;
  // Static per-vCPU capacity. The paper's baseline is 3 MiB; the
  // heterogeneous design halves it to 1.5 MiB.
  size_t per_cpu_cache_bytes = 3 * 1024 * 1024;
  // Usage-based dynamic sizing of per-CPU caches ("heterogeneous caches").
  bool dynamic_cpu_caches = false;
  // Resize cadence and number of top-miss caches grown per step.
  SimTime cpu_cache_resize_interval = Seconds(5);
  int cpu_cache_grow_candidates = 5;
  // Floor below which a cache is never shrunk.
  size_t per_cpu_cache_min_bytes = 128 * 1024;

  // ---- Middle tier: transfer cache (Section 4.2) ----
  bool nuca_transfer_cache = false;
  // LLC domains on this machine (1 = monolithic).
  int num_llc_domains = 1;
  // Per-class object capacity of the centralized transfer cache, in
  // batches; NUCA shards get a fraction of this each.
  int transfer_cache_batches = 64;
  int nuca_shard_batches = 16;

  // ---- Middle tier: central free list (Section 4.3) ----
  bool span_prioritization = false;
  // Number of occupancy-indexed span lists L (paper: 8).
  int cfl_num_lists = 8;

  // ---- Back end: hugepage filler (Section 4.4) ----
  bool lifetime_aware_filler = false;
  // Span-capacity threshold C separating short-lived from long-lived span
  // hugepage sets (paper: 16).
  int filler_capacity_threshold = 16;

  // ---- Sampling (Section 3) ----
  // Sample one allocation for every this many allocated bytes.
  size_t sample_interval_bytes = 2 * 1024 * 1024;

  // ---- Memory limits (background.h control plane) ----
  // Soft limit: the background reclaimer degrades the cache hierarchy in
  // tier order until the footprint drops back under it. 0 = no limit.
  size_t soft_limit_bytes = 0;
  // Hard limit: allocations that would push the footprint past it fail
  // (Allocate returns 0) after one emergency reclaim attempt. 0 = no limit.
  size_t hard_limit_bytes = 0;

  // ---- Arena ----
  // The simulated Allocator's arena is purely virtual (addresses, not
  // memory), so it is sized generously: a bump allocator plus hugepage-run
  // reuse can churn through a lot of address space, exactly like a
  // long-lived production process.
  uintptr_t arena_base = uintptr_t{1} << 44;
  size_t arena_bytes = size_t{4} << 40;  // 4 TiB of virtual space

  // ---- Memory backing ----
  // Which allocator this config is for. Each runs on one kind of memory:
  // the simulated Allocator on the virtual arena above (it rejects a
  // real_memory config), RealThreadsAllocator — the malloc behind the
  // shim — on one mmap'd MADV_HUGEPAGE reservation (it requires
  // real_memory). Set only through Builder::WithRealMemory().
  bool real_memory = false;
  // Size of RealThreadsAllocator's reservation; 0 = its 256 GiB default.
  // The malloc shim sets this from WSC_SHIM_RESERVE_MB so OOM behavior is
  // testable without exhausting terabytes of address space.
  size_t real_memory_reserve_bytes = 0;

  // Returns the paper's optimized configuration: all four redesigns on
  // (Section 4.5 "putting it all together").
  static AllocatorConfig AllOptimizations(AllocatorConfig base) {
    base.dynamic_cpu_caches = true;
    base.per_cpu_cache_bytes = 3 * 1024 * 1024 / 2;
    base.nuca_transfer_cache = true;
    // NUCA shards are per LLC domain; the old behavior kept the monolithic
    // default (num_llc_domains = 1), silently turning the toggle into a
    // no-op for directly-constructed allocators. Derive the shard count
    // from the machine topology instead unless a count was chosen already.
    if (base.num_llc_domains <= 1) base.num_llc_domains = kTopologyDerived;
    base.span_prioritization = true;
    base.lifetime_aware_filler = true;
    return base;
  }

  // Empty when this config can construct an Allocator; otherwise an
  // actionable description of the first problem found (unresolved topology
  // sentinels, out-of-range knobs, soft limit above hard limit, ...).
  std::string ValidationError() const;

  class Builder;
};

// Fluent, validating construction for everything outside src/tcmalloc/.
//
//   auto config = tcmalloc::AllocatorConfig::Builder()
//                     .WithDynamicCpuCaches()
//                     .WithSoftMemoryLimit(size_t{1} << 30)
//                     .Build();
//
// Build() aborts with an actionable message on invalid knob combinations
// (e.g. NUCA with fewer than two LLC domains);
// TryBuild() reports the error instead. Enabling a topology-dependent
// feature without an explicit count leaves the count at kTopologyDerived,
// to be resolved by fleet::Machine at placement time.
class AllocatorConfig::Builder {
 public:
  Builder() = default;
  // Starts from an existing config (all fields taken as explicit).
  explicit Builder(const AllocatorConfig& base);

  // ---- Front-end ----
  Builder& WithVcpus(int n);
  Builder& WithPerThreadFrontEnd(bool on = true);
  Builder& WithCpuCacheBytes(size_t bytes);
  Builder& WithDynamicCpuCaches(bool on = true);
  Builder& WithCpuCacheResizeInterval(SimTime interval);
  Builder& WithCpuCacheGrowCandidates(int n);
  Builder& WithCpuCacheMinBytes(size_t bytes);

  // ---- Transfer cache ----
  Builder& WithNucaTransferCache(bool on = true);
  Builder& WithLlcDomains(int n);
  Builder& WithTransferCacheBatches(int n);
  Builder& WithNucaShardBatches(int n);

  // ---- Central free list ----
  Builder& WithSpanPrioritization(bool on = true);
  Builder& WithCflNumLists(int n);

  // ---- Hugepage filler / release ----
  Builder& WithLifetimeAwareFiller(bool on = true);
  Builder& WithFillerCapacityThreshold(int threshold);

  // ---- Sampling / arena ----
  Builder& WithSampleIntervalBytes(size_t bytes);
  Builder& WithArena(uintptr_t base, size_t bytes);

  // ---- Memory backing ----
  // Marks the config as RealThreadsAllocator's, which runs on real memory
  // (mmap/madvise); the simulated Allocator refuses such a config.
  // Incompatible with an explicit WithArena() base (TryBuild explains).
  Builder& WithRealMemory(bool on = true);
  // Bounds the real-memory reservation (implies nothing by itself:
  // TryBuild rejects it without WithRealMemory()).
  Builder& WithRealMemoryReserve(size_t bytes);

  // ---- Memory limits ----
  Builder& WithSoftMemoryLimit(size_t bytes);
  Builder& WithHardMemoryLimit(size_t bytes);

  // All four paper redesigns (Section 4.5), NUCA shard count derived from
  // topology unless WithLlcDomains chose one.
  Builder& WithAllOptimizations();

  // Validates and returns the config, or the reason it is invalid.
  std::optional<AllocatorConfig> TryBuild(std::string* error = nullptr) const;

  // Validates and returns the config; aborts with the error message on
  // invalid combinations.
  AllocatorConfig Build() const;

 private:
  AllocatorConfig config_;
  bool explicit_llc_domains_ = false;
  bool explicit_arena_ = false;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_CONFIG_H_
