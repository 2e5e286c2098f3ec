// Hugepage cache: pool of free hugepage runs.
//
// Handles large allocations of at least a hugepage (Section 4.4, component
// (3) of the page heap). Keeps recently-freed hugepages cached for reuse —
// refilling from the OS costs a zero-filled 2 MiB mmap, the slowest path in
// Fig. 4 — and releases excess free hugepages back to the OS. Tail slack of
// large allocations (e.g. 1.5 MiB of a 4.5 MiB request) is donated to the
// hugepage filler by the page heap.

#ifndef WSC_TCMALLOC_HUGE_CACHE_H_
#define WSC_TCMALLOC_HUGE_CACHE_H_

#include <cstdint>
#include <map>
#include <unordered_set>

#include "tcmalloc/pages.h"
#include "tcmalloc/system_alloc.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {

// Hugepage cache statistics.
struct HugeCacheStats {
  size_t cached_hugepages = 0;    // free, still THP-backed
  size_t released_hugepages = 0;  // free, returned to the OS
  size_t in_use_hugepages = 0;    // handed out and not yet returned
  uint64_t os_allocations = 0;    // runs obtained from the system
  uint64_t reuse_hits = 0;        // runs served from the cache
  uint64_t allocation_failures = 0;  // system refused to grow the arena
};

// Free-run pool with coalescing and a bounded cached-footprint.
class HugeCache {
 public:
  // Keeps at most `max_cached` free hugepages THP-backed; excess free
  // hugepages are immediately released to the OS (madvise-equivalent).
  HugeCache(SystemAllocator* system, size_t max_cached = 64);

  // Allocates `n` contiguous hugepages (from the cache if a run fits,
  // otherwise from the system). Returns kInvalidHugePage when the system
  // refuses to grow the arena (simulated OOM); callers must check
  // IsValid().
  HugePageId Allocate(int n);

  // Returns a run of `n` hugepages to the cache. `intact` = false means the
  // pages were already returned to the OS (e.g. the run drained out of a
  // subreleased filler hugepage), so they enter the pool OS-released.
  void Release(HugePageId hp, int n, bool intact = true);

  // Shrinks the cached footprint to `limit` hugepages, releasing the rest
  // to the OS. Returns hugepages released.
  size_t ReleaseExcess(size_t limit);

  HugeCacheStats stats() const;

  // Free bytes still cached (page-heap external fragmentation).
  size_t CachedBytes() const {
    return stats_.cached_hugepages * kHugePageSize;
  }

  // Publishes this tier's metrics (component "huge_cache") into `registry`.
  void ContributeTelemetry(telemetry::MetricRegistry& registry) const;

 private:
  // Marks up to `count` cached free hugepages as released to the OS.
  size_t MarkReleased(size_t count);

  SystemAllocator* system_;
  size_t max_cached_;
  // Free runs keyed by start hugepage index -> length, coalesced.
  std::map<uintptr_t, size_t> free_runs_;
  // Free hugepages already released to the OS (subset of free_runs_ pages).
  std::unordered_set<uintptr_t> released_;
  HugeCacheStats stats_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_HUGE_CACHE_H_
