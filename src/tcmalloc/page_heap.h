// Hugepage-aware page heap (Section 2.1 back-end, Section 4.4).
//
// Composes the three components of TCMalloc's hugepage-aware page heap:
//   (1) the hugepage filler for requests smaller than a hugepage,
//   (2) hugepage regions for requests that slightly exceed hugepages, and
//   (3) the hugepage cache for large whole-hugepage requests, whose tail
//       slack is donated to the filler.
// Also implements the page-backing oracle for the dTLB model and the
// page-heap fragmentation breakdown of Fig. 15.

#ifndef WSC_TCMALLOC_PAGE_HEAP_H_
#define WSC_TCMALLOC_PAGE_HEAP_H_

#include <cstdint>
#include <deque>

#include "common/flat_map.h"
#include "tcmalloc/central_free_list.h"
#include "tcmalloc/config.h"
#include "tcmalloc/huge_cache.h"
#include "tcmalloc/huge_page_filler.h"
#include "tcmalloc/huge_region.h"
#include "tcmalloc/pagemap.h"
#include "tcmalloc/size_classes.h"
#include "tcmalloc/span.h"
#include "tcmalloc/system_alloc.h"

namespace wsc::tcmalloc {

// Fig. 15-style component breakdown, all in bytes.
struct PageHeapStats {
  size_t filler_used = 0;
  size_t filler_free = 0;           // intact free pages (fragmentation)
  size_t filler_released = 0;       // subreleased free pages (returned)
  size_t region_used = 0;
  size_t region_free = 0;
  size_t cache_used = 0;            // large-span bytes on whole hugepages
  size_t cache_free = 0;            // cached free hugepages
  size_t cache_released = 0;        // free hugepages returned to the OS

  size_t TotalInUse() const { return filler_used + region_used + cache_used; }
  size_t TotalFree() const { return filler_free + region_free + cache_free; }
  size_t TotalReleased() const { return filler_released + cache_released; }
};

// The back-end of the allocator. Privately a HugePageBacking: the filler
// draws fresh hugepages from (and returns empty ones to) the huge cache
// through this page heap.
class PageHeap : public SpanSource, private HugePageBacking {
 public:
  PageHeap(const SizeClasses* size_classes, const AllocatorConfig& config,
           SystemAllocator* system, PageMap* pagemap);
  ~PageHeap() override = default;

  PageHeap(const PageHeap&) = delete;
  PageHeap& operator=(const PageHeap&) = delete;

  // SpanSource: small-object spans for the central free lists. Returns
  // nullptr when the filler cannot grow (simulated OOM); central free
  // lists degrade to partial batches.
  Span* NewSpan(int cls) override;
  void ReturnSpan(Span* span) override;

  // Large allocations (> kMaxSmallSize), in pages. Returns nullptr when
  // every placement ladder rung fails (filler -> regions for sub-hugepage
  // spans, regions -> whole cache hugepages for awkward sizes); fallbacks
  // taken along the way are counted in large_fallbacks().
  Span* NewLargeSpan(Length pages);
  void FreeLargeSpan(Span* span);

  // Growth-failure observability for the failure telemetry component.
  uint64_t large_fallbacks() const { return large_fallbacks_; }
  uint64_t large_failures() const { return large_failures_; }
  uint64_t region_growth_failures() const {
    return regions_.growth_failures();
  }

  // Periodic background maintenance: subrelease from the filler when its
  // free fraction exceeds a fixed threshold.
  void BackgroundRelease();

  // Pressure-driven release (the background reclaimer's final tier, also
  // backing BackgroundReclaimer::ReleaseMemoryToSystem): returns up to
  // `target_bytes` of free back-end memory to the OS — whole cached
  // hugepages first (cheapest: no live THP mapping breaks), then
  // aggressive filler subrelease with no demand guard. Returns the bytes
  // actually released.
  size_t ReleaseForPressure(size_t target_bytes);

  // True if the (live) address is backed by an intact transparent
  // hugepage. Subreleased filler hugepages are the only broken mappings a
  // live object can sit on.
  bool IsHugepageBacked(uintptr_t addr) const;

  // Fraction of in-use page-heap bytes residing on intact hugepages
  // (Fig. 17a's hugepage coverage).
  double HugepageCoverage() const;

  // Free bytes stranded on the filler-owned hugepage containing `addr`, or
  // 0 when the address is not filler-backed (regions and whole cache
  // hugepages carry no per-hugepage fragmentation by construction). The
  // heap profiler attributes these bytes to the live sampled objects that
  // pin the hugepage.
  size_t FragmentedBytesOnHugepage(uintptr_t addr) const;

  PageHeapStats stats() const;
  const FillerStats filler_stats() const { return filler_.stats(); }
  const HugeCacheStats cache_stats() const { return cache_.stats(); }

  // Publishes the back-end metrics: the page-heap breakdown (component
  // "page_heap") plus the filler, huge cache, and huge region components
  // it composes.
  void ContributeTelemetry(telemetry::MetricRegistry& registry) const;

  uint64_t spans_created() const { return next_span_id_; }

 private:
  enum class LargeKind { kFiller, kRegion, kCache };
  struct LargeAlloc {
    LargeKind kind;
    int cache_hugepages = 0;        // whole hugepages (kCache)
    Length donated_head_pages = 0;  // span pages on the donated tail hp
  };

  Span* RegisterSpan(Span* span);

  // HugePageBacking: the filler's hugepage supply line.
  HugePageId GetHugePage() override;
  void PutHugePage(HugePageId hp, bool intact) override;
  size_t ReleasePageRange(HugePageId hp, int offset, Length n) override;
  void CommitPageRange(HugePageId hp, int offset, Length n) override;

  const SizeClasses* size_classes_;
  SystemAllocator* system_;
  PageMap* pagemap_;

  HugeCache cache_;
  HugeRegionSet regions_;
  HugePageFiller filler_;

  // Large-span records by start address; flat open addressing, probed on
  // every large free.
  FlatPtrMap<LargeAlloc> large_allocs_;
  Length cache_span_pages_ = 0;  // large-span pages on non-donated hugepages
  uint64_t next_span_id_ = 0;
  uint64_t large_fallbacks_ = 0;  // ladder rung failed, next rung served
  uint64_t large_failures_ = 0;   // whole ladder failed -> nullptr

  // Sliding window of recent filler demand (used pages), sampled once per
  // BackgroundRelease call; its peak guards subrelease against transient
  // load troughs.
  std::deque<Length> recent_used_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_PAGE_HEAP_H_
