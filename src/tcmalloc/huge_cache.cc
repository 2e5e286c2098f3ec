#include "tcmalloc/huge_cache.h"

#include "common/logging.h"

namespace wsc::tcmalloc {

HugeCache::HugeCache(SystemAllocator* system, size_t max_cached)
    : system_(system), max_cached_(max_cached) {
  WSC_CHECK(system != nullptr);
}

HugePageId HugeCache::Allocate(int n) {
  WSC_CHECK_GT(n, 0);
  // Best-fit over cached runs.
  auto best = free_runs_.end();
  for (auto it = free_runs_.begin(); it != free_runs_.end(); ++it) {
    if (it->second < static_cast<size_t>(n)) continue;
    if (best == free_runs_.end() || it->second < best->second) best = it;
  }
  if (best != free_runs_.end()) {
    uintptr_t start = best->first;
    size_t len = best->second;
    free_runs_.erase(best);
    if (len > static_cast<size_t>(n)) {
      free_runs_.emplace(start + n, len - n);
    }
    for (uintptr_t i = start; i < start + static_cast<uintptr_t>(n); ++i) {
      // Reused released hugepages are refaulted by the kernel on touch and
      // become THP-backed again.
      auto it = released_.find(i);
      if (it != released_.end()) {
        released_.erase(it);
        --stats_.released_hugepages;
        // Tell the system allocator this hugepage is in use again (it
        // clears its released mark).
        system_->Commit(HugePageId{i}.Addr(), kHugePageSize);
      } else {
        --stats_.cached_hugepages;
      }
    }
    stats_.in_use_hugepages += n;
    ++stats_.reuse_hits;
    return HugePageId{start};
  }
  HugePageId hp = system_->AllocateHugePages(n);
  if (!IsValid(hp)) {
    // The system refused (arena exhaustion): nothing was handed out, so no
    // accounting moves. Callers degrade.
    ++stats_.allocation_failures;
    return kInvalidHugePage;
  }
  ++stats_.os_allocations;
  stats_.in_use_hugepages += n;
  return hp;
}

void HugeCache::Release(HugePageId hp, int n, bool intact) {
  WSC_CHECK_GT(n, 0);
  WSC_CHECK_GE(stats_.in_use_hugepages, static_cast<size_t>(n));
  stats_.in_use_hugepages -= n;
  if (intact) {
    stats_.cached_hugepages += n;
  } else {
    for (int i = 0; i < n; ++i) {
      WSC_CHECK(released_.insert(hp.index + i).second);
    }
    stats_.released_hugepages += n;
  }

  uintptr_t start = hp.index;
  size_t len = n;
  // Overlap (double-release) detection: the next run must start at or
  // after the end of this one, and the previous must end at or before its
  // start.
  auto it = free_runs_.lower_bound(start);
  if (it != free_runs_.end()) {
    WSC_CHECK_GE(it->first, start + len);
  }
  // Coalesce with the predecessor run.
  it = free_runs_.lower_bound(start);
  if (it != free_runs_.begin()) {
    auto prev = std::prev(it);
    WSC_CHECK_LE(prev->first + prev->second, start);  // overlap = double free
    if (prev->first + prev->second == start) {
      start = prev->first;
      len += prev->second;
      free_runs_.erase(prev);
    }
  }
  // Coalesce with the successor run.
  it = free_runs_.lower_bound(start + len);
  if (it != free_runs_.end() && it->first == hp.index + n) {
    len += it->second;
    free_runs_.erase(it);
  }
  free_runs_.emplace(start, len);

  if (stats_.cached_hugepages > max_cached_) {
    MarkReleased(stats_.cached_hugepages - max_cached_);
  }
}

size_t HugeCache::MarkReleased(size_t count) {
  size_t released = 0;
  for (auto& [start, len] : free_runs_) {
    for (size_t i = 0; i < len && released < count; ++i) {
      if (released_.insert(start + i).second) {
        ++released;
        --stats_.cached_hugepages;
        ++stats_.released_hugepages;
        // madvise-equivalent: the backing returns the pages to the OS.
        system_->Release(HugePageId{start + i}.Addr(), kHugePageSize);
      }
    }
    if (released >= count) break;
  }
  return released;
}

size_t HugeCache::ReleaseExcess(size_t limit) {
  if (stats_.cached_hugepages <= limit) return 0;
  return MarkReleased(stats_.cached_hugepages - limit);
}

HugeCacheStats HugeCache::stats() const { return stats_; }

void HugeCache::ContributeTelemetry(
    telemetry::MetricRegistry& registry) const {
  registry.ExportGauge("huge_cache", "cached_hugepages",
                       static_cast<double>(stats_.cached_hugepages));
  registry.ExportGauge("huge_cache", "released_hugepages",
                       static_cast<double>(stats_.released_hugepages));
  registry.ExportGauge("huge_cache", "in_use_hugepages",
                       static_cast<double>(stats_.in_use_hugepages));
  registry.ExportCounter("huge_cache", "os_allocations",
                         stats_.os_allocations);
  registry.ExportCounter("huge_cache", "reuse_hits", stats_.reuse_hits);
  registry.ExportCounter("huge_cache", "allocation_failures",
                         stats_.allocation_failures);
}

}  // namespace wsc::tcmalloc
