#include "tcmalloc/huge_page_filler.h"

#include <algorithm>

#include "common/logging.h"

namespace wsc::tcmalloc {

// ---------------------------------------------------------------------------
// PageTracker
// ---------------------------------------------------------------------------

PageTracker::PageTracker(HugePageId hp) : hp_(hp) {}

Length PageTracker::LongestFreeRange() const {
  Length longest = 0;
  Length run = 0;
  for (size_t p = 0; p < kPagesPerHugePage; ++p) {
    bool used = (bitmap_[p / 64] >> (p % 64)) & 1;
    if (used) {
      longest = std::max(longest, run);
      run = 0;
    } else {
      ++run;
    }
  }
  return std::max(longest, run);
}

int PageTracker::Allocate(Length n) {
  WSC_CHECK_GT(n, 0u);
  WSC_CHECK_LE(n, kPagesPerHugePage);
  // First fit over the bitmap.
  Length run = 0;
  for (size_t p = 0; p < kPagesPerHugePage; ++p) {
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

void PageTracker::MarkAllocated(int offset, Length n) {
  WSC_CHECK_GE(offset, 0);
  WSC_CHECK_LE(static_cast<Length>(offset) + n, kPagesPerHugePage);
  for (Length q = offset; q < offset + n; ++q) {
    uint64_t mask = uint64_t{1} << (q % 64);
    WSC_CHECK_EQ(bitmap_[q / 64] & mask, 0u);
    bitmap_[q / 64] |= mask;
  }
  used_ += n;
}

void PageTracker::Free(int offset, Length n) {
  WSC_CHECK_GE(offset, 0);
  WSC_CHECK_LE(static_cast<Length>(offset) + n, kPagesPerHugePage);
  for (Length q = offset; q < offset + n; ++q) {
    uint64_t mask = uint64_t{1} << (q % 64);
    WSC_CHECK_NE(bitmap_[q / 64] & mask, 0u);  // double free of pages
    bitmap_[q / 64] &= ~mask;
  }
  WSC_CHECK_GE(used_, n);
  used_ -= n;
}

// ---------------------------------------------------------------------------
// HugePageFiller
// ---------------------------------------------------------------------------

HugePageFiller::HugePageFiller(bool lifetime_aware, int capacity_threshold,
                               HugePageBacking* backing)
    : lifetime_aware_(lifetime_aware),
      capacity_threshold_(capacity_threshold),
      backing_(backing) {
  WSC_CHECK(backing != nullptr);
  lists_.resize(lifetime_aware_ ? 2 : 1);
  for (auto& set : lists_) set.assign(kPagesPerHugePage + 1, nullptr);
  donated_lists_.assign(kPagesPerHugePage + 1, nullptr);
}

HugePageFiller::~HugePageFiller() {
  tracker_index_.ForEach([](uintptr_t, PageTracker* const& t) { delete t; });
}

PageTracker* HugePageFiller::FindTracker(HugePageId hp) const {
  PageTracker* const* t = tracker_index_.Find(hp.index);
  return t == nullptr ? nullptr : *t;
}

void HugePageFiller::ListInsert(PageTracker* t) {
  FreeLists& lists = t->donated()
                         ? donated_lists_
                         : lists_[lifetime_aware_ ? t->lifetime_set() : 0];
  PageTracker*& head = lists[t->free_pages()];
  t->prev = nullptr;
  t->next = head;
  if (head != nullptr) head->prev = t;
  head = t;
}

void HugePageFiller::ListRemove(PageTracker* t) {
  FreeLists& lists = t->donated()
                         ? donated_lists_
                         : lists_[lifetime_aware_ ? t->lifetime_set() : 0];
  if (t->prev != nullptr) {
    t->prev->next = t->next;
  } else {
    WSC_CHECK(lists[t->free_pages()] == t);
    lists[t->free_pages()] = t->next;
  }
  if (t->next != nullptr) t->next->prev = t->prev;
  t->prev = nullptr;
  t->next = nullptr;
}

PageTracker* HugePageFiller::PickTracker(int set, Length n) {
  // Prefer the hugepages with the most allocations (fewest free pages)
  // that can still fit the request: scan free counts from n upward. Within
  // a free count, prefer intact trackers over subreleased ones.
  FreeLists& lists = lists_[set];
  PageTracker* released_candidate = nullptr;
  for (Length free_count = n; free_count <= kPagesPerHugePage; ++free_count) {
    for (PageTracker* t = lists[free_count]; t != nullptr; t = t->next) {
      if (t->LongestFreeRange() < n) continue;
      if (!t->released()) return t;
      if (released_candidate == nullptr) released_candidate = t;
    }
  }
  if (released_candidate != nullptr) return released_candidate;
  // Fall back to donated tails before growing the footprint.
  for (Length free_count = n; free_count <= kPagesPerHugePage; ++free_count) {
    for (PageTracker* t = donated_lists_[free_count]; t != nullptr;
         t = t->next) {
      if (t->LongestFreeRange() >= n) return t;
    }
  }
  return nullptr;
}

PageId HugePageFiller::Allocate(Length n, int span_capacity) {
  WSC_CHECK_GT(n, 0u);
  WSC_CHECK_LT(n, kPagesPerHugePage);
  int set = 0;
  if (lifetime_aware_) {
    // Span capacity is the statically known lifetime proxy: low-capacity
    // spans return to the filler at a much higher rate (Fig. 16).
    set = (span_capacity < capacity_threshold_) ? kShortLived : kLongLived;
  }
  PageTracker* t = PickTracker(set, n);
  if (t == nullptr) {
    HugePageId hp = backing_->GetHugePage();
    if (IsValid(hp)) {
      t = new PageTracker(hp);
      t->set_lifetime_set(set);
      if (!backing_->LastHugePageBacked()) {
        // Hugepage scarcity: the mapping is usable but the kernel refused
        // THP backing, so the tracker starts life broken, exactly like a
        // subreleased hugepage (the dTLB model charges 4 KiB walks).
        t->set_released(true);
        ++stats_.released_hugepages;
        ++stats_.unbacked_hugepages;
      }
      tracker_index_.Insert(hp.index, t);
      ++stats_.total_hugepages;
      ListInsert(t);
    } else if (lifetime_aware_) {
      // Growth denied: place across the lifetime-set boundary rather than
      // fail — a mispacked span beats a failed allocation.
      t = PickTracker(1 - set, n);
      if (t != nullptr) ++stats_.cross_set_fallbacks;
    }
    if (t == nullptr) {
      ++stats_.growth_failures;
      return kInvalidPageId;
    }
  }
  bool was_released = t->released();
  ListRemove(t);
  if (t->donated()) {
    // First reuse of a donated tail: it now behaves like a normal filler
    // hugepage of this lifetime set.
    t->set_donated(false);
    --stats_.donated_hugepages;
    t->set_lifetime_set(set);
  }
  int offset = t->Allocate(n);
  WSC_CHECK_GE(offset, 0);
  ListInsert(t);
  if (trace_) {
    trace_->Emit(trace::EventType::kFillerPlace, -1, -1, -1,
                 static_cast<int16_t>(set), t->hugepage().index,
                 static_cast<uint64_t>(n));
  }
  if (was_released) {
    // Pages on a broken hugepage get recommitted on use; they stop counting
    // as released. (The hugepage itself stays broken until fully free.)
    backing_->CommitPageRange(t->hugepage(), offset, n);
  }
  return PageId{t->hugepage().first_page().index +
                static_cast<uintptr_t>(offset)};
}

void HugePageFiller::Free(PageId page, Length n) {
  HugePageId hp = HugePageContaining(page);
  PageTracker* t = FindTracker(hp);
  WSC_CHECK(t != nullptr);
  int offset = static_cast<int>(page.index - hp.first_page().index);
  ListRemove(t);
  t->Free(offset, n);
  if (t->released()) {
    // Pages freed onto a broken hugepage go straight back to the OS; by
    // the time the tracker empties, its whole 2 MiB is already released.
    backing_->ReleasePageRange(hp, offset, n);
  }
  if (t->empty()) {
    ReleaseEmpty(t);
    return;
  }
  ListInsert(t);
}

void HugePageFiller::Donate(HugePageId hp, int donated_offset, bool backed) {
  WSC_CHECK_GE(donated_offset, 0);
  WSC_CHECK_LT(static_cast<Length>(donated_offset), kPagesPerHugePage);
  WSC_CHECK(FindTracker(hp) == nullptr);
  auto* t = new PageTracker(hp);
  t->set_donated(true);
  if (!backed) {
    t->set_released(true);
    ++stats_.released_hugepages;
    ++stats_.unbacked_hugepages;
  }
  // The head [0, donated_offset) belongs to the large span.
  if (donated_offset > 0) t->MarkAllocated(0, donated_offset);
  tracker_index_.Insert(hp.index, t);
  ++stats_.total_hugepages;
  ++stats_.donated_hugepages;
  ListInsert(t);
}

void HugePageFiller::FreeDonatedHead(HugePageId hp, Length head_pages) {
  PageTracker* t = FindTracker(hp);
  WSC_CHECK(t != nullptr);
  ListRemove(t);
  t->Free(0, head_pages);
  if (t->released()) {
    backing_->ReleasePageRange(hp, 0, head_pages);
  }
  if (t->empty()) {
    ReleaseEmpty(t);
    return;
  }
  ListInsert(t);
}

void HugePageFiller::ReleaseEmpty(PageTracker* t) {
  bool intact = !t->released();
  if (t->released()) --stats_.released_hugepages;
  if (t->donated()) --stats_.donated_hugepages;
  --stats_.total_hugepages;
  ++stats_.hugepages_freed;
  HugePageId hp = t->hugepage();
  tracker_index_.Erase(hp.index);
  delete t;
  backing_->PutHugePage(hp, intact);
}

Length HugePageFiller::SubreleaseExcess(double target_fraction,
                                        Length demand_guard_pages) {
  // Compute intact free pages and the filler's total span.
  Length used = 0, intact_free = 0;
  tracker_index_.ForEach([&](uintptr_t, PageTracker* const& t) {
    used += t->used_pages();
    if (!t->released()) intact_free += t->free_pages();
  });
  Length total = used + intact_free;
  if (total == 0) return 0;
  // Retain enough free pages to serve a return to recent peak demand.
  if (intact_free <= demand_guard_pages) return 0;
  Length releasable_free = intact_free - demand_guard_pages;
  double fraction =
      static_cast<double>(releasable_free) / static_cast<double>(total);
  if (fraction <= target_fraction) return 0;

  Length need =
      releasable_free - static_cast<Length>(target_fraction * total);
  return ReleaseSparsest(need);
}

Length HugePageFiller::SubreleaseUpTo(Length need) {
  return ReleaseSparsest(need);
}

Length HugePageFiller::ReleaseSparsest(Length need) {
  if (need == 0) return 0;
  // Break the sparsest intact hugepages first: their free pages buy the
  // most released memory per broken hugepage. At equal sparseness, prefer
  // short-lived-set victims — they drain to fully free and leave the
  // filler whole, while a broken long-lived hugepage stays uncovered for
  // its tenants' whole lifetime (Section 4.4) — then the hugepage whose
  // free space is most fragmented (smallest longest-free-run: the least
  // useful to keep for future span placement), then the newest hugepage.
  // The full key makes victim order independent of hash-table layout.
  std::vector<PageTracker*> intact;
  tracker_index_.ForEach([&](uintptr_t, PageTracker* const& t) {
    if (!t->released() && t->free_pages() > 0 && !t->donated()) {
      intact.push_back(t);
    }
  });
  std::sort(intact.begin(), intact.end(),
            [](const PageTracker* a, const PageTracker* b) {
              if (a->free_pages() != b->free_pages()) {
                return a->free_pages() > b->free_pages();
              }
              if (a->lifetime_set() != b->lifetime_set()) {
                return a->lifetime_set() > b->lifetime_set();
              }
              if (a->LongestFreeRange() != b->LongestFreeRange()) {
                return a->LongestFreeRange() < b->LongestFreeRange();
              }
              return a->hugepage().index > b->hugepage().index;
            });
  Length released = 0;
  size_t confirmed_bytes = 0;
  for (PageTracker* t : intact) {
    if (released >= need) break;
    t->set_released(true);
    ++stats_.released_hugepages;
    ++stats_.subrelease_events;
    released += t->free_pages();
    // Hand the exact free ranges to the backing. Victims are intact
    // trackers, whose free pages are always committed, so confirmed ==
    // marked and the return value is unchanged by this plumbing.
    t->ForEachFreeRun([&](int offset, Length len) {
      confirmed_bytes += backing_->ReleasePageRange(t->hugepage(), offset,
                                                    len);
    });
    if (trace_) {
      trace_->Emit(trace::EventType::kFillerSubrelease, -1, -1, -1,
                   static_cast<int16_t>(t->lifetime_set()),
                   t->hugepage().index,
                   static_cast<uint64_t>(t->free_pages()));
    }
  }
  // Report what the backing confirmed, not what was marked: this is the
  // figure ReleaseMemoryToSystem surfaces to callers.
  return static_cast<Length>(confirmed_bytes >> kPageShift);
}

bool HugePageFiller::IsIntactHugepage(uintptr_t addr) const {
  PageTracker* t = FindTracker(HugePageContainingAddr(addr));
  if (t == nullptr) return false;
  return !t->released();
}

bool HugePageFiller::Owns(uintptr_t addr) const {
  return FindTracker(HugePageContainingAddr(addr)) != nullptr;
}

Length HugePageFiller::FreePagesOnHugepage(uintptr_t addr) const {
  PageTracker* t = FindTracker(HugePageContainingAddr(addr));
  return t == nullptr ? 0 : t->free_pages();
}

FillerStats HugePageFiller::stats() const {
  FillerStats s = stats_;
  s.used_pages = 0;
  s.free_pages = 0;
  s.released_free_pages = 0;
  tracker_index_.ForEach([&](uintptr_t, PageTracker* const& t) {
    s.used_pages += t->used_pages();
    if (t->released()) {
      s.released_free_pages += t->free_pages();
    } else {
      s.free_pages += t->free_pages();
    }
  });
  return s;
}

Length HugePageFiller::UsedPagesOnIntactHugepages() const {
  Length used = 0;
  tracker_index_.ForEach([&](uintptr_t, PageTracker* const& t) {
    if (!t->released()) used += t->used_pages();
  });
  return used;
}

void HugePageFiller::ContributeTelemetry(
    telemetry::MetricRegistry& registry) const {
  const FillerStats s = stats();
  registry.ExportGauge("huge_page_filler", "used_pages",
                       static_cast<double>(s.used_pages));
  registry.ExportGauge("huge_page_filler", "free_pages",
                       static_cast<double>(s.free_pages));
  registry.ExportGauge("huge_page_filler", "released_free_pages",
                       static_cast<double>(s.released_free_pages));
  registry.ExportGauge("huge_page_filler", "hugepages",
                       static_cast<double>(s.total_hugepages));
  registry.ExportGauge("huge_page_filler", "released_hugepages",
                       static_cast<double>(s.released_hugepages));
  registry.ExportGauge("huge_page_filler", "donated_hugepages",
                       static_cast<double>(s.donated_hugepages));
  registry.ExportCounter("huge_page_filler", "subrelease_events",
                         s.subrelease_events);
  registry.ExportCounter("huge_page_filler", "hugepages_freed",
                         s.hugepages_freed);
  registry.ExportCounter("huge_page_filler", "growth_failures",
                         s.growth_failures);
  registry.ExportCounter("huge_page_filler", "cross_set_fallbacks",
                         s.cross_set_fallbacks);
  registry.ExportCounter("huge_page_filler", "unbacked_hugepages",
                         s.unbacked_hugepages);
}

}  // namespace wsc::tcmalloc
