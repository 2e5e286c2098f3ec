// Hugepage regions: contiguous multi-hugepage areas for allocations that
// slightly exceed a hugepage (Section 4.4, component (2) of the page heap).
//
// A 2.1 MiB allocation placed on dedicated hugepages would waste nearly a
// whole hugepage of tail slack. Regions pack such awkwardly-sized
// allocations next to each other on a shared contiguous run of hugepages.

#ifndef WSC_TCMALLOC_HUGE_REGION_H_
#define WSC_TCMALLOC_HUGE_REGION_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "tcmalloc/huge_cache.h"
#include "tcmalloc/pages.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {

// One region: a contiguous run of hugepages allocated at page granularity.
class HugeRegion {
 public:
  // Region size in hugepages (16 x 2 MiB = 32 MiB).
  static constexpr size_t kRegionHugePages = 16;
  static constexpr Length kRegionPages =
      kRegionHugePages * kPagesPerHugePage;

  explicit HugeRegion(HugePageId first);

  HugePageId first_hugepage() const { return first_; }
  PageId first_page() const { return first_.first_page(); }
  Length used_pages() const { return used_; }
  Length free_pages() const { return kRegionPages - used_; }
  bool empty() const { return used_ == 0; }

  // First-fit allocation of `n` contiguous pages; returns page offset in
  // the region or -1.
  int Allocate(Length n);

  // Frees [offset, offset + n).
  void Free(int offset, Length n);

  // True if the region spans `page`.
  bool Contains(PageId page) const {
    return page >= first_page() && page.index < first_page().index + kRegionPages;
  }

 private:
  HugePageId first_;
  Length used_ = 0;
  std::vector<uint64_t> bitmap_;  // kRegionPages bits; set => used
};

// Set of regions; grows on demand from the huge cache and returns empty
// regions to it.
class HugeRegionSet {
 public:
  explicit HugeRegionSet(HugeCache* cache);

  // Allocates `n` contiguous pages from some region (creating one if
  // needed). n must fit in a region. Returns kInvalidPageId when no
  // existing region fits and the huge cache refuses a fresh region run
  // (simulated OOM); the page heap then falls back to whole cache
  // hugepages.
  PageId Allocate(Length n);

  uint64_t growth_failures() const { return growth_failures_; }

  // Frees pages if they belong to a region; returns false otherwise.
  bool Free(PageId page, Length n);

  // True if any region contains `page`.
  bool Owns(PageId page) const { return RegionFor(page) != nullptr; }

  Length used_pages() const;
  Length free_pages() const;
  size_t num_regions() const { return regions_.size(); }

  // Publishes this tier's metrics (component "huge_region") into
  // `registry`.
  void ContributeTelemetry(telemetry::MetricRegistry& registry) const;

 private:
  HugeRegion* RegionFor(PageId page) const;

  HugeCache* cache_;
  std::vector<std::unique_ptr<HugeRegion>> regions_;
  uint64_t growth_failures_ = 0;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_HUGE_REGION_H_
