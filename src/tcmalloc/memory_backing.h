// Real memory for RealThreadsAllocator, the malloc behind the shim.
//
// RealMemoryBacking reserves one contiguous anonymous mapping; the
// allocator bump-carves it, threads freelists through object storage,
// and returns freed ranges with Release() (madvise(MADV_DONTNEED)).
//
// ReleasedRangeSet is the released-byte bookkeeping shared with the
// simulator's SystemAllocator, which runs on a virtual arena and never
// maps anything.

#ifndef WSC_TCMALLOC_MEMORY_BACKING_H_
#define WSC_TCMALLOC_MEMORY_BACKING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>

namespace wsc::tcmalloc {

struct MemoryBackingStats {
  uint64_t release_calls = 0;
  uint64_t released_bytes = 0;   // cumulative bytes *newly* released
  uint64_t recommitted_bytes = 0;
};

// Tracks which byte ranges of the reservation are currently released to
// the OS, so Release() can report only *newly* returned bytes (releasing
// an already-released range is a no-op, not double credit) and Commit()
// can clear the marks when memory is reused. Interval-coalescing map,
// byte-granular; callers align to page boundaries.
class ReleasedRangeSet {
 public:
  // Marks [addr, addr+bytes) released; returns bytes not already released.
  size_t Add(uintptr_t addr, size_t bytes);
  // Clears released marks overlapping [addr, addr+bytes); returns bytes
  // that had been released (and are now considered committed again).
  size_t Remove(uintptr_t addr, size_t bytes);
  size_t total_bytes() const { return total_bytes_; }

 private:
  std::map<uintptr_t, uintptr_t> runs_;  // start -> end (exclusive)
  size_t total_bytes_ = 0;
};

// One contiguous PROT_READ|PROT_WRITE anonymous MAP_NORESERVE reservation,
// hinted MADV_HUGEPAGE and hugepage-aligned. Pages are committed by the
// kernel on first touch. Release/Commit are thread-safe.
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
  // Returns the number of bytes *newly* released — re-releasing an
  // already-released range counts zero, which is what makes
  // ReleaseMemoryToSystem honest.
  size_t Release(uintptr_t addr, size_t bytes);

  // Declares [addr, addr+bytes) in use again after a Release. Released
  // pages refault zero-filled on first touch, so this only clears the
  // released marks.
  void Commit(uintptr_t addr, size_t bytes);

  uintptr_t base() const { return base_; }
  size_t reserved_bytes() const { return reserved_bytes_; }
  uintptr_t end() const { return base_ + reserved_bytes_; }
  const MemoryBackingStats& stats() const { return stats_; }

  // Plain anonymous RW mapping for allocator metadata (page directory,
  // bootstrap spill) that must not come from the object heap. Returns 0 on
  // failure. Unmap with UnmapMetadata.
  static uintptr_t MapMetadata(size_t bytes);
  static void UnmapMetadata(uintptr_t addr, size_t bytes);

  // fork() support: hold mu_ across the fork so the child's copy is not
  // left locked by a vanished thread (see RealThreadsAllocator::
  // ForkPrepare).
  void ForkLock() { mu_.lock(); }
  void ForkUnlock() { mu_.unlock(); }

  static constexpr size_t kMinReserveBytes = size_t{1} << 30;  // 1 GiB

 private:
  // Raw mapping before hugepage alignment trim (for munmap).
  uintptr_t raw_base_ = 0;
  size_t raw_bytes_ = 0;
  uintptr_t base_ = 0;
  size_t reserved_bytes_ = 0;
  // Guards released_ and stats_ against concurrent Release/Commit.
  mutable std::mutex mu_;
  ReleasedRangeSet released_;
  MemoryBackingStats stats_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_MEMORY_BACKING_H_
