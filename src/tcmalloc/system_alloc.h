// System allocator over the simulator's virtual arena.
//
// The real TCMalloc obtains zero-initialized, hugepage-aligned 2 MiB blocks
// from the kernel with mmap (Section 3, Fig. 4: the mmap path is orders of
// magnitude slower than any cache tier). Here the OS interface hands out
// hugepage-aligned *address ranges* bump-allocated inside a reserved
// numeric address space, nothing ever dereferenced, and charges simulated
// mmap latency. Address space is never unmapped, exactly like TCMalloc —
// "releasing" memory keeps the mapping, and Release()/Commit() below track
// which bytes are released so the page heap reports only newly released
// bytes.

#ifndef WSC_TCMALLOC_SYSTEM_ALLOC_H_
#define WSC_TCMALLOC_SYSTEM_ALLOC_H_

#include <cstddef>
#include <cstdint>
#include <map>

#include "tcmalloc/pages.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {

// Tracks which byte ranges of the arena are currently released to the
// (simulated) OS, so Release() can report only *newly* returned bytes
// (releasing an already-released range is a no-op, not double credit)
// and Commit() can clear the marks when memory is reused. Interval-
// coalescing map, byte-granular; callers align to page boundaries.
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

// Statistics of the simulated OS interface.
struct SystemStats {
  uint64_t mmap_calls = 0;
  uint64_t mapped_bytes = 0;
  double mmap_ns = 0.0;  // cumulative simulated syscall latency
  uint64_t mmap_failures = 0;  // denied by arena exhaustion
  uint64_t released_bytes = 0;  // newly released (re-releases count 0)
  uint64_t recommitted_bytes = 0;  // released bytes brought back into use
};

// OS interface of one simulated allocator.
class SystemAllocator {
 public:
  // Deterministic virtual arena of `arena_bytes` starting at `base`; both
  // must be hugepage-aligned and the arena nonempty.
  SystemAllocator(uintptr_t base, size_t arena_bytes,
                  double mmap_latency_ns = 8000.0);

  // Returns `n` contiguous hugepages (hugepage-aligned), or
  // kInvalidHugePage when the (simulated) mmap fails on reservation
  // exhaustion (OOM). Callers must check IsValid() and degrade; nothing in
  // this path is fatal.
  HugePageId AllocateHugePages(int n);

  // Returns [addr, addr+bytes) to the (simulated) OS. Returns the bytes
  // *newly* released (0 for re-release), which is the honest figure
  // ReleaseMemoryToSystem reports.
  size_t Release(uintptr_t addr, size_t bytes);

  // Declares a previously released range in use again.
  void Commit(uintptr_t addr, size_t bytes);

  uintptr_t base() const { return base_; }
  size_t arena_bytes() const { return arena_bytes_; }
  PageId base_page() const { return PageIdContaining(base()); }
  Length arena_pages() const { return arena_bytes() >> kPageShift; }

  const SystemStats& stats() const { return stats_; }

  // Publishes the OS interface metrics (component "system") into
  // `registry`.
  void ContributeTelemetry(telemetry::MetricRegistry& registry) const;

 private:
  uintptr_t base_;
  size_t arena_bytes_;
  uintptr_t next_;  // bump pointer: the arena below it has been mapped
  ReleasedRangeSet released_;
  double mmap_latency_ns_;
  SystemStats stats_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_SYSTEM_ALLOC_H_
