#include "tcmalloc/system_alloc.h"

#include <algorithm>
#include <iterator>

#include "common/logging.h"

namespace wsc::tcmalloc {

size_t ReleasedRangeSet::Add(uintptr_t addr, size_t bytes) {
  if (bytes == 0) return 0;
  uintptr_t start = addr;
  uintptr_t end = addr + bytes;
  size_t fresh = bytes;

  // Find all existing runs overlapping or touching [start, end) and merge
  // them, subtracting the overlap from the fresh-byte count.
  auto it = runs_.upper_bound(start);
  if (it != runs_.begin()) {
    auto prev = std::prev(it);
    if (prev->second >= start) it = prev;
  }
  while (it != runs_.end() && it->first <= end) {
    uintptr_t olap_lo = std::max(it->first, start);
    uintptr_t olap_hi = std::min(it->second, end);
    if (olap_hi > olap_lo) fresh -= olap_hi - olap_lo;
    start = std::min(start, it->first);
    end = std::max(end, it->second);
    it = runs_.erase(it);
  }
  runs_[start] = end;
  total_bytes_ += fresh;
  return fresh;
}

size_t ReleasedRangeSet::Remove(uintptr_t addr, size_t bytes) {
  if (bytes == 0) return 0;
  const uintptr_t start = addr;
  const uintptr_t end = addr + bytes;
  size_t removed = 0;

  auto it = runs_.upper_bound(start);
  if (it != runs_.begin()) {
    auto prev = std::prev(it);
    if (prev->second > start) it = prev;
  }
  while (it != runs_.end() && it->first < end) {
    uintptr_t run_lo = it->first;
    uintptr_t run_hi = it->second;
    uintptr_t olap_lo = std::max(run_lo, start);
    uintptr_t olap_hi = std::min(run_hi, end);
    it = runs_.erase(it);
    removed += olap_hi - olap_lo;
    if (run_lo < olap_lo) runs_[run_lo] = olap_lo;
    if (olap_hi < run_hi) runs_[olap_hi] = run_hi;
    it = runs_.upper_bound(olap_hi);
  }
  total_bytes_ -= removed;
  return removed;
}

SystemAllocator::SystemAllocator(uintptr_t base, size_t arena_bytes,
                                 double mmap_latency_ns)
    : base_(base),
      arena_bytes_(arena_bytes),
      next_(base),
      mmap_latency_ns_(mmap_latency_ns) {
  WSC_CHECK(base % kHugePageSize == 0);
  WSC_CHECK(arena_bytes % kHugePageSize == 0);
  WSC_CHECK_GT(arena_bytes, 0u);
}

HugePageId SystemAllocator::AllocateHugePages(int n) {
  WSC_CHECK_GT(n, 0);
  size_t bytes = static_cast<size_t>(n) * kHugePageSize;
  // Reservation exhaustion (OOM) is a counted failure, never fatal: the
  // tiers above fall back or surface nullptr.
  if (next_ + bytes > base_ + arena_bytes_) {
    ++stats_.mmap_failures;
    return kInvalidHugePage;
  }
  const uintptr_t addr = next_;
  next_ += bytes;
  ++stats_.mmap_calls;
  stats_.mapped_bytes += bytes;
  stats_.mmap_ns += mmap_latency_ns_;
  return HugePageContainingAddr(addr);
}

size_t SystemAllocator::Release(uintptr_t addr, size_t bytes) {
  const size_t fresh = released_.Add(addr, bytes);
  stats_.released_bytes += fresh;
  return fresh;
}

void SystemAllocator::Commit(uintptr_t addr, size_t bytes) {
  stats_.recommitted_bytes += released_.Remove(addr, bytes);
}

void SystemAllocator::ContributeTelemetry(
    telemetry::MetricRegistry& registry) const {
  registry.ExportCounter("system", "mmap_calls", stats_.mmap_calls);
  registry.ExportCounter("system", "mapped_bytes", stats_.mapped_bytes);
  registry.ExportGauge("system", "mmap_ns", stats_.mmap_ns);
  registry.ExportCounter("system", "mmap_failures", stats_.mmap_failures);
  registry.ExportCounter("system", "backing_released_bytes",
                         stats_.released_bytes);
  registry.ExportCounter("system", "backing_recommitted_bytes",
                         stats_.recommitted_bytes);
}

}  // namespace wsc::tcmalloc
