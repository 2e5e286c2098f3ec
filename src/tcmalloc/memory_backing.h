// Real memory for RealThreadsAllocator, the malloc behind the shim.
//
// RealMemoryBacking reserves one contiguous anonymous mapping; the
// allocator's page heap grows into it, and returns free pages with
// Release() (madvise(MADV_DONTNEED)). It keeps no record of which ranges
// are released — the page heap's free runs carry that flag themselves —
// only the release/recommit counters, which its caller serializes.

#ifndef WSC_TCMALLOC_MEMORY_BACKING_H_
#define WSC_TCMALLOC_MEMORY_BACKING_H_

#include <cstddef>
#include <cstdint>

namespace wsc::tcmalloc {

struct MemoryBackingStats {
  uint64_t release_calls = 0;
  uint64_t released_bytes = 0;
  uint64_t recommitted_bytes = 0;
};

// One contiguous PROT_READ|PROT_WRITE anonymous MAP_NORESERVE reservation,
// hinted MADV_HUGEPAGE and hugepage-aligned. Pages are committed by the
// kernel on first touch. Release/Commit are not thread-safe: the caller
// serializes them (RealPageHeap holds its lock).
class RealMemoryBacking {
 public:
  // Reserves `reserve_bytes` (rounded up to a hugepage), walking a
  // fallback ladder of halved sizes down to kMinReserveBytes if the mmap
  // is refused. ok() is false only if even the smallest rung failed.
  explicit RealMemoryBacking(size_t reserve_bytes);
  ~RealMemoryBacking();

  RealMemoryBacking(const RealMemoryBacking&) = delete;
  RealMemoryBacking& operator=(const RealMemoryBacking&) = delete;

  bool ok() const { return base_ != 0; }

  // Returns [addr, addr+bytes) to the OS with madvise(MADV_DONTNEED).
  // Returns the bytes released, or 0 if the madvise failed. The caller
  // must not release a range twice without reusing it in between.
  size_t Release(uintptr_t addr, size_t bytes);

  // Counts `bytes` of released memory as in use again. No syscall:
  // released pages refault zero-filled on first touch.
  void Commit(size_t bytes) { stats_.recommitted_bytes += bytes; }

  uintptr_t base() const { return base_; }
  size_t reserved_bytes() const { return reserved_bytes_; }
  uintptr_t end() const { return base_ + reserved_bytes_; }
  const MemoryBackingStats& stats() const { return stats_; }

  // Plain anonymous RW mapping for allocator metadata (page directory,
  // pagemap, span records) that must not come from the object heap.
  // Returns 0 on failure. Unmap with UnmapMetadata.
  static uintptr_t MapMetadata(size_t bytes);
  static void UnmapMetadata(uintptr_t addr, size_t bytes);

  static constexpr size_t kMinReserveBytes = size_t{1} << 30;  // 1 GiB

 private:
  // Raw mapping before hugepage alignment trim (for munmap).
  uintptr_t raw_base_ = 0;
  size_t raw_bytes_ = 0;
  uintptr_t base_ = 0;
  size_t reserved_bytes_ = 0;
  MemoryBackingStats stats_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_MEMORY_BACKING_H_
