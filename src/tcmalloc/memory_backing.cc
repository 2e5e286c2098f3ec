#include "tcmalloc/memory_backing.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>

#include "tcmalloc/pages.h"

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

RealMemoryBacking::RealMemoryBacking(size_t reserve_bytes) {
  size_t want = std::max(reserve_bytes, kMinReserveBytes);
  want = (want + kHugePageSize - 1) & ~(kHugePageSize - 1);
  // Over-map by one hugepage so the working base can be aligned up to a
  // 2 MiB boundary; the slack stays mapped (NORESERVE, never touched).
  for (; want >= kMinReserveBytes; want /= 2) {
    void* p = mmap(nullptr, want + kHugePageSize, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p != MAP_FAILED) {
      raw_base_ = reinterpret_cast<uintptr_t>(p);
      raw_bytes_ = want + kHugePageSize;
      base_ = (raw_base_ + kHugePageSize - 1) & ~(kHugePageSize - 1);
      reserved_bytes_ = want;
#ifdef MADV_HUGEPAGE
      // Best-effort: ask for transparent hugepages across the heap. THP
      // may be disabled system-wide; the allocator works either way.
      (void)madvise(reinterpret_cast<void*>(base_), reserved_bytes_,
                    MADV_HUGEPAGE);
#endif
      return;
    }
  }
  // base_ stays 0: ok() is false and the caller decides how to fail.
}

RealMemoryBacking::~RealMemoryBacking() {
  if (raw_base_ != 0) {
    (void)munmap(reinterpret_cast<void*>(raw_base_), raw_bytes_);
  }
}

size_t RealMemoryBacking::Release(uintptr_t addr, size_t bytes) {
  // Align inward to native page boundaries: a partial native page cannot
  // be returned to the OS.
  const uintptr_t kNative = 4096;
  uintptr_t lo = (addr + kNative - 1) & ~(kNative - 1);
  uintptr_t hi = (addr + bytes) & ~(kNative - 1);
  if (hi <= lo) return 0;

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.release_calls;
  const size_t fresh = released_.Add(lo, hi - lo);
  if (fresh > 0) {
    // madvise the whole aligned range: re-advising already-released pages
    // is harmless, and one syscall beats walking the fresh sub-runs.
    if (madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED) != 0) {
      // The advice failed (e.g. range outside the mapping): undo the
      // bookkeeping so stats stay honest.
      released_.Remove(lo, hi - lo);
      return 0;
    }
    stats_.released_bytes += fresh;
  }
  return fresh;
}

void RealMemoryBacking::Commit(uintptr_t addr, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  // No syscall: MADV_DONTNEED'd pages refault zero-filled on first touch.
  stats_.recommitted_bytes += released_.Remove(addr, bytes);
}

uintptr_t RealMemoryBacking::MapMetadata(size_t bytes) {
  void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) return 0;
  return reinterpret_cast<uintptr_t>(p);
}

void RealMemoryBacking::UnmapMetadata(uintptr_t addr, size_t bytes) {
  if (addr != 0) (void)munmap(reinterpret_cast<void*>(addr), bytes);
}

}  // namespace wsc::tcmalloc
