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

bool PageHeap::LastHugePageBacked() const {
  return cache_.last_allocation_backed();
}

void PageHeap::PutHugePage(HugePageId hp, bool intact) {
  cache_.Release(hp, 1, intact);
}

bool PageHeap::TakeUnbacked(HugePageId hp, int n) {
  if (unbacked_.empty()) return false;
  bool found = unbacked_.count(hp.index) > 0;
  for (int i = 0; i < n; ++i) {
    unbacked_.erase(hp.index + static_cast<uintptr_t>(i));
  }
  return found;
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
  Span* span = RegisterSpan(new Span(first, info.pages_per_span, cls,
                                     info.size, info.objects_per_span));
  if (trace_) {
    trace_->Emit(trace::EventType::kPageHeapSpanAlloc, -1, -1, cls, -1,
                 span->span_id, static_cast<uint64_t>(span->num_pages()));
  }
  return span;
}

void PageHeap::ReturnSpan(Span* span) {
  WSC_CHECK(!span->is_large());
  WSC_CHECK(span->empty());
  if (trace_) {
    trace_->Emit(trace::EventType::kPageHeapSpanFree, -1, -1,
                 static_cast<int16_t>(span->size_class()), -1, span->span_id,
                 static_cast<uint64_t>(span->num_pages()));
  }
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
    bool backed = cache_.last_allocation_backed();
    first = hp.first_page();
    Length slack = static_cast<Length>(k) * kPagesPerHugePage - pages;
    int owned = k;  // hugepages fully owned by the span (not donated)
    if (slack > 0) {
      // The allocation's tail partially covers the last hugepage; donate
      // the slack to the filler so small spans can use it.
      Length head = kPagesPerHugePage - slack;
      record.donated_head_pages = head;
      HugePageId last{hp.index + static_cast<uintptr_t>(k - 1)};
      filler_.Donate(last, static_cast<int>(head), backed);
      cache_span_pages_ += pages - head;
      owned = k - 1;
    } else {
      cache_span_pages_ += pages;
    }
    if (!backed) {
      for (int i = 0; i < owned; ++i) {
        unbacked_.insert(hp.index + static_cast<uintptr_t>(i));
      }
    }
  };

  // The placement ladder. When a rung's supply line is cut (fault
  // injection or simulated OOM) the next rung gets a chance: sub-hugepage
  // spans retry in the shared regions (which may have room without
  // growing), awkward region sizes round up to whole cache hugepages.
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
  if (trace_) {
    trace_->Emit(trace::EventType::kPageHeapSpanAlloc, -1, -1, -1, -1,
                 span->span_id, static_cast<uint64_t>(pages));
  }
  return span;
}

void PageHeap::FreeLargeSpan(Span* span) {
  WSC_CHECK(span->is_large());
  if (trace_) {
    trace_->Emit(trace::EventType::kPageHeapSpanFree, -1, -1, -1, -1,
                 span->span_id, static_cast<uint64_t>(span->num_pages()));
  }
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
        bool intact = !TakeUnbacked(hp, k - 1);
        if (k > 1) cache_.Release(hp, k - 1, intact);
        HugePageId last{hp.index + static_cast<uintptr_t>(k - 1)};
        filler_.FreeDonatedHead(last, record.donated_head_pages);
        cache_span_pages_ -= span->num_pages() - record.donated_head_pages;
      } else {
        cache_.Release(hp, k, /*intact=*/!TakeUnbacked(hp, k));
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
  PageId page = PageIdContaining(addr);
  if (regions_.Owns(page)) return regions_.IsBacked(page);
  // Whole cache hugepages never subrelease while occupied, but injected
  // hugepage scarcity can have granted them without THP backing.
  if (!unbacked_.empty() &&
      unbacked_.count(HugePageContainingAddr(addr).index) > 0) {
    return false;
  }
  return true;
}

size_t PageHeap::FragmentedBytesOnHugepage(uintptr_t addr) const {
  return LengthToBytes(filler_.FreePagesOnHugepage(addr));
}

double PageHeap::HugepageCoverage() const {
  PageHeapStats s = stats();
  size_t in_use = s.TotalInUse();
  if (in_use == 0) return 1.0;
  // Unbacked region/cache hugepages (injected scarcity) do not count as
  // covered; owned unbacked cache hugepages are fully used by their span.
  size_t intact_used = LengthToBytes(filler_.UsedPagesOnIntactHugepages()) +
                       LengthToBytes(regions_.backed_used_pages()) +
                       (s.cache_used - unbacked_.size() * kHugePageSize);
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
