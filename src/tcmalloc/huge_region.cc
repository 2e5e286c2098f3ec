#include "tcmalloc/huge_region.h"

#include "common/logging.h"

namespace wsc::tcmalloc {

HugeRegion::HugeRegion(HugePageId first) : first_(first) {
  bitmap_.assign(kRegionPages / 64, 0);
}

int HugeRegion::Allocate(Length n) {
  WSC_CHECK_GT(n, 0u);
  if (n > free_pages()) return -1;
  Length run = 0;
  for (size_t p = 0; p < kRegionPages; ++p) {
    bool used = (bitmap_[p / 64] >> (p % 64)) & 1;
    if (used) {
      run = 0;
      continue;
    }
    if (++run == n) {
      size_t start = p + 1 - n;
      for (size_t q = start; q <= p; ++q) {
        bitmap_[q / 64] |= uint64_t{1} << (q % 64);
      }
      used_ += n;
      return static_cast<int>(start);
    }
  }
  return -1;
}

void HugeRegion::Free(int offset, Length n) {
  WSC_CHECK_GE(offset, 0);
  WSC_CHECK_LE(static_cast<Length>(offset) + n, kRegionPages);
  for (Length q = offset; q < offset + n; ++q) {
    uint64_t mask = uint64_t{1} << (q % 64);
    WSC_CHECK_NE(bitmap_[q / 64] & mask, 0u);
    bitmap_[q / 64] &= ~mask;
  }
  WSC_CHECK_GE(used_, n);
  used_ -= n;
}

HugeRegionSet::HugeRegionSet(HugeCache* cache) : cache_(cache) {
  WSC_CHECK(cache != nullptr);
}

PageId HugeRegionSet::Allocate(Length n) {
  WSC_CHECK_LE(n, HugeRegion::kRegionPages);
  // Prefer the fullest region that fits, to densify and let sparse regions
  // drain (same packing philosophy as the filler).
  HugeRegion* best = nullptr;
  for (const auto& region : regions_) {
    if (region->free_pages() < n) continue;
    if (best == nullptr || region->used_pages() > best->used_pages()) {
      best = region.get();
    }
  }
  if (best != nullptr) {
    int offset = best->Allocate(n);
    if (offset >= 0) {
      return PageId{best->first_page().index +
                    static_cast<uintptr_t>(offset)};
    }
    // Fullest region had the pages but not contiguously; fall through and
    // scan the rest before growing.
    for (const auto& region : regions_) {
      if (region.get() == best) continue;
      int off = region->Allocate(n);
      if (off >= 0) {
        return PageId{region->first_page().index +
                      static_cast<uintptr_t>(off)};
      }
    }
  }
  HugePageId hp = cache_->Allocate(HugeRegion::kRegionHugePages);
  if (!IsValid(hp)) {
    // No region run to be had; the caller falls back to the huge cache's
    // whole-hugepage path (which can serve smaller runs).
    ++growth_failures_;
    return kInvalidPageId;
  }
  regions_.push_back(std::make_unique<HugeRegion>(hp));
  int offset = regions_.back()->Allocate(n);
  WSC_CHECK_GE(offset, 0);
  return PageId{regions_.back()->first_page().index +
                static_cast<uintptr_t>(offset)};
}

bool HugeRegionSet::Free(PageId page, Length n) {
  HugeRegion* region = RegionFor(page);
  if (region == nullptr) return false;
  region->Free(static_cast<int>(page.index - region->first_page().index), n);
  if (region->empty()) {
    cache_->Release(region->first_hugepage(), HugeRegion::kRegionHugePages);
    for (auto it = regions_.begin(); it != regions_.end(); ++it) {
      if (it->get() == region) {
        regions_.erase(it);
        break;
      }
    }
  }
  return true;
}

HugeRegion* HugeRegionSet::RegionFor(PageId page) const {
  for (const auto& region : regions_) {
    if (region->Contains(page)) return region.get();
  }
  return nullptr;
}

Length HugeRegionSet::used_pages() const {
  Length used = 0;
  for (const auto& region : regions_) used += region->used_pages();
  return used;
}

Length HugeRegionSet::free_pages() const {
  Length free = 0;
  for (const auto& region : regions_) free += region->free_pages();
  return free;
}

void HugeRegionSet::ContributeTelemetry(
    telemetry::MetricRegistry& registry) const {
  registry.ExportGauge("huge_region", "used_pages",
                       static_cast<double>(used_pages()));
  registry.ExportGauge("huge_region", "free_pages",
                       static_cast<double>(free_pages()));
  registry.ExportGauge("huge_region", "regions",
                       static_cast<double>(regions_.size()));
  registry.ExportCounter("huge_region", "growth_failures", growth_failures_);
}

}  // namespace wsc::tcmalloc
