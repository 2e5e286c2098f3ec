#include "tcmalloc/config.h"

#include <cstdio>
#include <cstdlib>

#include "tcmalloc/pages.h"

namespace wsc::tcmalloc {

namespace {

std::string BadKnob(const char* what, const std::string& how_to_fix) {
  return std::string(what) + ": " + how_to_fix;
}

}  // namespace

std::string AllocatorConfig::ValidationError() const {
  if (num_vcpus < 1) {
    return BadKnob("num_vcpus must be >= 1",
                   "pass a positive count to WithVcpus()");
  }
  if (per_cpu_cache_min_bytes > per_cpu_cache_bytes) {
    return BadKnob(
        "per_cpu_cache_min_bytes exceeds per_cpu_cache_bytes",
        "lower WithCpuCacheMinBytes() or raise WithCpuCacheBytes()");
  }
  if (cpu_cache_grow_candidates < 1) {
    return BadKnob("cpu_cache_grow_candidates must be >= 1",
                   "pass a positive count to WithCpuCacheGrowCandidates()");
  }
  if (num_llc_domains == kTopologyDerived) {
    return BadKnob(
        "num_llc_domains is unresolved (kTopologyDerived)",
        "construct the allocator through fleet::Machine so the LLC domain "
        "count comes from the machine topology, or choose one explicitly "
        "with WithLlcDomains(n)");
  }
  if (num_llc_domains < 1) {
    return BadKnob("num_llc_domains must be >= 1",
                   "pass a positive count to WithLlcDomains()");
  }
  if (transfer_cache_batches < 1) {
    return BadKnob("transfer_cache_batches must be >= 1",
                   "pass a positive count to WithTransferCacheBatches()");
  }
  if (nuca_shard_batches < 1 || nuca_shard_batches > transfer_cache_batches) {
    return BadKnob(
        "nuca_shard_batches must be in [1, transfer_cache_batches]",
        "NUCA shards hold a fraction of the central capacity; adjust "
        "WithNucaShardBatches()");
  }
  if (cfl_num_lists < 1) {
    return BadKnob("cfl_num_lists must be >= 1",
                   "pass a positive count to WithCflNumLists()");
  }
  if (filler_capacity_threshold < 1) {
    return BadKnob("filler_capacity_threshold must be >= 1",
                   "pass a positive threshold to WithFillerCapacityThreshold()");
  }
  if (sample_interval_bytes < 1) {
    return BadKnob("sample_interval_bytes must be >= 1",
                   "pass a positive interval to WithSampleIntervalBytes()");
  }
  if (arena_bytes < kHugePageSize) {
    return BadKnob("arena_bytes too small",
                   "the arena needs at least one hugepage; enlarge "
                   "WithArena()");
  }
  if (soft_limit_bytes != 0 && hard_limit_bytes != 0 &&
      soft_limit_bytes > hard_limit_bytes) {
    return BadKnob(
        "soft_limit_bytes exceeds hard_limit_bytes",
        "the soft limit must trigger reclaim before the hard limit fails "
        "allocations; swap WithSoftMemoryLimit()/WithHardMemoryLimit()");
  }
  return "";
}

AllocatorConfig::Builder::Builder(const AllocatorConfig& base)
    : config_(base),
      explicit_llc_domains_(base.num_llc_domains !=
                            AllocatorConfig::kTopologyDerived),
      explicit_arena_(base.arena_base != AllocatorConfig{}.arena_base ||
                      base.arena_bytes != AllocatorConfig{}.arena_bytes) {}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithVcpus(int n) {
  config_.num_vcpus = n;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithPerThreadFrontEnd(
    bool on) {
  config_.per_thread_front_end = on;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithCpuCacheBytes(
    size_t bytes) {
  config_.per_cpu_cache_bytes = bytes;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithDynamicCpuCaches(
    bool on) {
  config_.dynamic_cpu_caches = on;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithCpuCacheResizeInterval(
    SimTime interval) {
  config_.cpu_cache_resize_interval = interval;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithCpuCacheGrowCandidates(
    int n) {
  config_.cpu_cache_grow_candidates = n;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithCpuCacheMinBytes(
    size_t bytes) {
  config_.per_cpu_cache_min_bytes = bytes;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithNucaTransferCache(
    bool on) {
  config_.nuca_transfer_cache = on;
  if (on && !explicit_llc_domains_) {
    config_.num_llc_domains = AllocatorConfig::kTopologyDerived;
  }
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithLlcDomains(int n) {
  config_.num_llc_domains = n;
  explicit_llc_domains_ = true;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithTransferCacheBatches(
    int n) {
  config_.transfer_cache_batches = n;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithNucaShardBatches(
    int n) {
  config_.nuca_shard_batches = n;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithSpanPrioritization(
    bool on) {
  config_.span_prioritization = on;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithCflNumLists(int n) {
  config_.cfl_num_lists = n;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithLifetimeAwareFiller(
    bool on) {
  config_.lifetime_aware_filler = on;
  return *this;
}

AllocatorConfig::Builder&
AllocatorConfig::Builder::WithFillerCapacityThreshold(int threshold) {
  config_.filler_capacity_threshold = threshold;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithSampleIntervalBytes(
    size_t bytes) {
  config_.sample_interval_bytes = bytes;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithArena(uintptr_t base,
                                                              size_t bytes) {
  config_.arena_base = base;
  config_.arena_bytes = bytes;
  explicit_arena_ = true;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithRealMemory(bool on) {
  config_.real_memory = on;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithRealMemoryReserve(
    size_t bytes) {
  config_.real_memory_reserve_bytes = bytes;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithSoftMemoryLimit(
    size_t bytes) {
  config_.soft_limit_bytes = bytes;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithHardMemoryLimit(
    size_t bytes) {
  config_.hard_limit_bytes = bytes;
  return *this;
}

AllocatorConfig::Builder& AllocatorConfig::Builder::WithAllOptimizations() {
  config_ = AllocatorConfig::AllOptimizations(config_);
  if (explicit_llc_domains_ &&
      config_.num_llc_domains == AllocatorConfig::kTopologyDerived) {
    // AllOptimizations resets a monolithic explicit count; keep the
    // explicit flag consistent with the now-derived value.
    explicit_llc_domains_ = false;
  }
  return *this;
}

std::optional<AllocatorConfig> AllocatorConfig::Builder::TryBuild(
    std::string* error) const {
  auto fail = [error](const std::string& message) {
    if (error != nullptr) *error = message;
    return std::nullopt;
  };

  // Builder-level combination checks: these knobs were chosen explicitly,
  // so a contradictory pair is a caller bug even when the config would be
  // constructible (e.g. NUCA quietly disabled on one domain).
  if (config_.nuca_transfer_cache && explicit_llc_domains_ &&
      config_.num_llc_domains < 2) {
    return fail(BadKnob(
        "nuca_transfer_cache requires num_llc_domains >= 2",
        "a NUCA transfer cache shards per LLC domain; pass WithLlcDomains(n "
        ">= 2), or drop WithLlcDomains() to derive the count from the "
        "machine topology"));
  }
  // Real-memory combination checks: TryBuild reports, never aborts.
  if (!config_.real_memory && config_.real_memory_reserve_bytes != 0) {
    return fail(BadKnob(
        "real_memory_reserve_bytes requires real_memory",
        "WithRealMemoryReserve() only sizes the real-memory reservation; "
        "add WithRealMemory() or drop the reserve"));
  }
  if (config_.real_memory && explicit_arena_) {
    return fail(BadKnob(
        "real_memory ignores an explicit WithArena()",
        "the kernel chooses the base of the real-memory reservation; drop "
        "WithArena() (size the reservation with WithRealMemoryReserve()) "
        "or drop WithRealMemory() to configure the simulator's arena"));
  }

  AllocatorConfig config = config_;
  // The LLC-domain sentinel is legal in a *built* config — fleet::Machine
  // resolves it at placement — so validate everything else with the
  // sentinel masked to a resolvable value.
  AllocatorConfig check = config;
  if (check.num_llc_domains == AllocatorConfig::kTopologyDerived) {
    check.num_llc_domains = 2;
  }
  if (std::string err = check.ValidationError(); !err.empty()) {
    return fail(err);
  }
  return config;
}

AllocatorConfig AllocatorConfig::Builder::Build() const {
  std::string error;
  std::optional<AllocatorConfig> config = TryBuild(&error);
  if (!config.has_value()) {
    std::fprintf(stderr, "AllocatorConfig::Builder::Build failed: %s\n",
                 error.c_str());
    std::abort();
  }
  return *config;
}

}  // namespace wsc::tcmalloc
