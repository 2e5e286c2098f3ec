#include "tcmalloc/memory_backing.h"

#include <sys/mman.h>

#include <algorithm>
#include <cerrno>

#include "tcmalloc/pages.h"

namespace wsc::tcmalloc {

RealMemoryBacking::RealMemoryBacking(size_t reserve_bytes) {
  // No mapping spans half the address space, so a larger request
  // saturates there; the hugepage round-up and the over-map slack below
  // then cannot wrap.
  constexpr size_t kMaxReserveBytes = size_t{1} << 63;
  size_t want = std::clamp(reserve_bytes, kMinReserveBytes, kMaxReserveBytes);
  want = (want + kHugePageSize - 1) & ~(kHugePageSize - 1);
  // Over-map by one hugepage so the working base can be aligned up to a
  // 2 MiB boundary; the slack stays mapped (NORESERVE, never touched).
  // Each refused rung halves, rounded down to whole hugepages.
  for (; want >= kMinReserveBytes;
       want = (want / 2) & ~(kHugePageSize - 1)) {
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

  ++stats_.release_calls;
  if (madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_DONTNEED) != 0) {
    return 0;  // e.g. a range outside the mapping: nothing was released
  }
  stats_.released_bytes += hi - lo;
  return hi - lo;
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
