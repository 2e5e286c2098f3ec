#include "tcmalloc/page_heap.h"

#include <algorithm>

#include "common/logging.h"

namespace wsc::tcmalloc {

namespace {
// Requests at or above a hugepage but below this length with a non-aligned
// tail are packed into shared hugepage regions ("slightly exceed the size
// of a hugepage", e.g. 2.1 MiB).
constexpr Length kRegionMaxPages = 4 * kPagesPerHugePage;  // 8 MiB
// Background release: free pages are subreleased from sparse hugepages
// when filler free space exceeds this fraction of filler total space.
// Production tuning is memory-pressure driven; this fixed fraction
// reproduces the fleet's ~50% baseline hugepage coverage under diurnal
// load variation.
constexpr double kSubreleaseFreeFraction = 0.08;
}  // namespace

PageHeap::PageHeap(const SizeClasses* size_classes,
                   const AllocatorConfig& config, SystemAllocator* system,
                   PageMap* pagemap)
    : size_classes_(size_classes),
      system_(system),
      pagemap_(pagemap),
      cache_(system),
      regions_(&cache_),
      filler_(config.lifetime_aware_filler, config.filler_capacity_threshold,
              this) {
  WSC_CHECK(size_classes != nullptr);
  WSC_CHECK(system != nullptr);
  WSC_CHECK(pagemap != nullptr);
}

HugePageId PageHeap::GetHugePage() { return cache_.Allocate(1); }

size_t PageHeap::ReleasePageRange(HugePageId hp, int offset, Length n) {
  return system_->Release(hp.Addr() + LengthToBytes(offset),
                          LengthToBytes(n));
}

void PageHeap::CommitPageRange(HugePageId hp, int offset, Length n) {
  system_->Commit(hp.Addr() + LengthToBytes(offset), LengthToBytes(n));
}

void PageHeap::PutHugePage(HugePageId hp, bool intact) {
  cache_.Release(hp, 1, intact);
}

Span* PageHeap::RegisterSpan(Span* span) {
  span->span_id = ++next_span_id_;
  pagemap_->Insert(span);
  return span;
}

Span* PageHeap::NewSpan(int cls) {
  const SizeClassInfo& info = size_classes_->info(cls);
  WSC_CHECK_LT(info.pages_per_span, kPagesPerHugePage);
  PageId first = filler_.Allocate(info.pages_per_span, info.objects_per_span);
  if (!IsValid(first)) return nullptr;  // growth denied; CFLs degrade
  return RegisterSpan(new Span(first, info.pages_per_span, cls, info.size,
                              info.objects_per_span));
}

void PageHeap::ReturnSpan(Span* span) {
  WSC_CHECK(!span->is_large());
  WSC_CHECK(span->empty());
  pagemap_->Erase(span);
  filler_.Free(span->first_page(), span->num_pages());
  delete span;
}

Span* PageHeap::NewLargeSpan(Length pages) {
  WSC_CHECK_GT(pages, 0u);
  LargeAlloc record;
  PageId first = kInvalidPageId;

  auto try_filler = [&] {
    // Large object that still fits inside one hugepage: pack via the filler
    // (span capacity 1: this is a high-return-rate span, Fig. 16).
    record.kind = LargeKind::kFiller;
    first = filler_.Allocate(pages, /*span_capacity=*/1);
  };
  auto try_region = [&] {
    record.kind = LargeKind::kRegion;
    first = regions_.Allocate(pages);
  };
  auto try_cache = [&] {
    record.kind = LargeKind::kCache;
    int k = static_cast<int>(
        (pages + kPagesPerHugePage - 1) / kPagesPerHugePage);
    HugePageId hp = cache_.Allocate(k);
    if (!IsValid(hp)) return;
    record.cache_hugepages = k;
    first = hp.first_page();
    Length slack = static_cast<Length>(k) * kPagesPerHugePage - pages;
    if (slack > 0) {
      // The allocation's tail partially covers the last hugepage; donate
      // the slack to the filler so small spans can use it.
      Length head = kPagesPerHugePage - slack;
      record.donated_head_pages = head;
      HugePageId last{hp.index + static_cast<uintptr_t>(k - 1)};
      filler_.Donate(last, static_cast<int>(head));
      cache_span_pages_ += pages - head;
    } else {
      cache_span_pages_ += pages;
    }
  };

  // The placement ladder. When a rung's supply line is cut (simulated
  // OOM) the next rung gets a chance: sub-hugepage spans retry in the
  // shared regions (which may have room without growing), awkward region
  // sizes round up to whole cache hugepages.
  if (pages < kPagesPerHugePage) {
    try_filler();
    if (!IsValid(first)) {
      try_region();
      if (IsValid(first)) ++large_fallbacks_;
    }
  } else if (pages % kPagesPerHugePage != 0 && pages < kRegionMaxPages) {
    try_region();
    if (!IsValid(first)) {
      try_cache();
      if (IsValid(first)) ++large_fallbacks_;
    }
  } else {
    try_cache();
  }
  if (!IsValid(first)) {
    ++large_failures_;
    return nullptr;
  }
  Span* span = RegisterSpan(new Span(first, pages));
  large_allocs_.Insert(span->start_addr(), record);
  return span;
}

void PageHeap::FreeLargeSpan(Span* span) {
  WSC_CHECK(span->is_large());
  LargeAlloc* found = large_allocs_.Find(span->start_addr());
  WSC_CHECK(found != nullptr);
  LargeAlloc record = *found;
  large_allocs_.Erase(span->start_addr());
  pagemap_->Erase(span);

  switch (record.kind) {
    case LargeKind::kFiller:
      filler_.Free(span->first_page(), span->num_pages());
      break;
    case LargeKind::kRegion:
      WSC_CHECK(regions_.Free(span->first_page(), span->num_pages()));
      break;
    case LargeKind::kCache: {
      HugePageId hp = HugePageContaining(span->first_page());
      int k = record.cache_hugepages;
      if (record.donated_head_pages > 0) {
        // Release the fully-owned hugepages; the donated tail hugepage is
        // handed back page-wise through the filler.
        if (k > 1) cache_.Release(hp, k - 1);
        HugePageId last{hp.index + static_cast<uintptr_t>(k - 1)};
        filler_.FreeDonatedHead(last, record.donated_head_pages);
        cache_span_pages_ -= span->num_pages() - record.donated_head_pages;
      } else {
        cache_.Release(hp, k);
        cache_span_pages_ -= span->num_pages();
      }
      break;
    }
  }
  delete span;
}

void PageHeap::BackgroundRelease() {
  // Track recent peak demand so transient troughs do not trigger
  // subrelease (free pages will be needed again when load returns).
  constexpr size_t kDemandWindow = 3;  // release intervals; production keeps
  // this window far shorter than the diurnal load period it guards against
  Length used = filler_.stats().used_pages;
  recent_used_.push_back(used);
  if (recent_used_.size() > kDemandWindow) recent_used_.pop_front();
  Length peak = *std::max_element(recent_used_.begin(), recent_used_.end());
  Length guard = peak > used ? peak - used : 0;
  filler_.SubreleaseExcess(kSubreleaseFreeFraction, guard);
}

size_t PageHeap::ReleaseForPressure(size_t target_bytes) {
  size_t released = 0;
  if (target_bytes == 0) return 0;
  HugeCacheStats c = cache_.stats();
  if (c.cached_hugepages > 0) {
    size_t want_hp =
        (target_bytes + kHugePageSize - 1) / kHugePageSize;
    size_t keep =
        c.cached_hugepages > want_hp ? c.cached_hugepages - want_hp : 0;
    released += cache_.ReleaseExcess(keep) * kHugePageSize;
  }
  if (released < target_bytes) {
    Length need = BytesToLengthCeil(target_bytes - released);
    released += LengthToBytes(filler_.SubreleaseUpTo(need));
  }
  return released;
}

bool PageHeap::IsHugepageBacked(uintptr_t addr) const {
  if (filler_.Owns(addr)) return filler_.IsIntactHugepage(addr);
  // Regions and whole cache hugepages never subrelease while occupied.
  return true;
}

size_t PageHeap::FragmentedBytesOnHugepage(uintptr_t addr) const {
  return LengthToBytes(filler_.FreePagesOnHugepage(addr));
}

double PageHeap::HugepageCoverage() const {
  PageHeapStats s = stats();
  size_t in_use = s.TotalInUse();
  if (in_use == 0) return 1.0;
  // Regions and whole cache hugepages are always intact.
  size_t intact_used = LengthToBytes(filler_.UsedPagesOnIntactHugepages()) +
                       s.region_used + s.cache_used;
  return static_cast<double>(intact_used) / static_cast<double>(in_use);
}

PageHeapStats PageHeap::stats() const {
  PageHeapStats s;
  FillerStats f = filler_.stats();
  s.filler_used = LengthToBytes(f.used_pages);
  s.filler_free = LengthToBytes(f.free_pages);
  s.filler_released = LengthToBytes(f.released_free_pages);
  s.region_used = LengthToBytes(regions_.used_pages());
  s.region_free = LengthToBytes(regions_.free_pages());
  HugeCacheStats c = cache_.stats();
  s.cache_used = LengthToBytes(cache_span_pages_);
  s.cache_free = c.cached_hugepages * kHugePageSize;
  s.cache_released = c.released_hugepages * kHugePageSize;
  return s;
}

void PageHeap::ContributeTelemetry(
    telemetry::MetricRegistry& registry) const {
  const PageHeapStats s = stats();
  registry.ExportGauge("page_heap", "filler_used_bytes",
                       static_cast<double>(s.filler_used));
  registry.ExportGauge("page_heap", "filler_free_bytes",
                       static_cast<double>(s.filler_free));
  registry.ExportGauge("page_heap", "filler_released_bytes",
                       static_cast<double>(s.filler_released));
  registry.ExportGauge("page_heap", "region_used_bytes",
                       static_cast<double>(s.region_used));
  registry.ExportGauge("page_heap", "region_free_bytes",
                       static_cast<double>(s.region_free));
  registry.ExportGauge("page_heap", "cache_used_bytes",
                       static_cast<double>(s.cache_used));
  registry.ExportGauge("page_heap", "cache_free_bytes",
                       static_cast<double>(s.cache_free));
  registry.ExportGauge("page_heap", "cache_released_bytes",
                       static_cast<double>(s.cache_released));
  registry.ExportCounter("page_heap", "spans_created", next_span_id_);
  registry.ExportCounter("page_heap", "large_fallbacks", large_fallbacks_);
  registry.ExportCounter("page_heap", "large_failures", large_failures_);
  filler_.ContributeTelemetry(registry);
  cache_.ContributeTelemetry(registry);
  regions_.ContributeTelemetry(registry);
}

}  // namespace wsc::tcmalloc
