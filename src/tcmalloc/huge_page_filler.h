// Hugepage filler (Section 4.4).
//
// The filler packs spans smaller than a hugepage into hugepage-aligned
// 2 MiB regions so the kernel can back them with transparent hugepages. It
// frees a hugepage only when all spans on it are gone; it is the dominant
// source of page-heap fragmentation (Fig. 15: 83.6% of in-use memory, 94.4%
// of page-heap fragmentation). The baseline prioritizes placing spans on
// the hugepages that already have the most allocations. The paper's
// lifetime-aware design additionally segregates spans by their statically
// known capacity (objects per span): low-capacity spans (capacity < C,
// C = 16) have a high return rate (Fig. 16, Spearman -0.75) and are packed
// onto dedicated hugepages that therefore become fully free sooner.
//
// Subrelease: under memory pressure the filler can break a partially-free
// hugepage and return its free TCMalloc pages to the OS; that hugepage
// loses THP backing (the dTLB model then charges 4 KiB-entry walks).

#ifndef WSC_TCMALLOC_HUGE_PAGE_FILLER_H_
#define WSC_TCMALLOC_HUGE_PAGE_FILLER_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "common/flat_map.h"
#include "tcmalloc/pages.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {

// Allocation bitmap over one hugepage's 256 TCMalloc pages.
class PageTracker {
 public:
  explicit PageTracker(HugePageId hp);

  HugePageId hugepage() const { return hp_; }
  Length used_pages() const { return used_; }
  Length free_pages() const { return kPagesPerHugePage - used_; }
  bool empty() const { return used_ == 0; }
  bool full() const { return used_ == kPagesPerHugePage; }

  // Longest run of contiguous free pages.
  Length LongestFreeRange() const;

  // Allocates `n` contiguous pages (first fit); returns the page offset
  // within the hugepage, or -1 if no run fits.
  int Allocate(Length n);

  // Marks [offset, offset+n) used; the range must currently be free.
  // Used for donated tails whose head is owned by a large span.
  void MarkAllocated(int offset, Length n);

  // Frees [offset, offset+n); the range must currently be used.
  void Free(int offset, Length n);

  // A hugepage that has been subreleased lost its THP backing for good
  // (until fully freed back to the OS).
  bool released() const { return released_; }
  void set_released(bool released) { released_ = released; }

  // Donated trackers carry the tail slack of a large allocation.
  bool donated() const { return donated_; }
  void set_donated(bool donated) { donated_ = donated; }

  // Lifetime set this tracker belongs to (see HugePageFiller).
  int lifetime_set() const { return lifetime_set_; }
  void set_lifetime_set(int s) { lifetime_set_ = s; }

  // Invokes fn(offset, len) for every maximal run of contiguous free
  // pages. Used by subrelease to hand the exact free ranges to the
  // backing's release bookkeeping.
  template <typename Fn>
  void ForEachFreeRun(Fn&& fn) const {
    for (size_t start = FindNext(0, false); start < kPagesPerHugePage;) {
      const size_t end = FindNext(start, true);
      fn(static_cast<int>(start), static_cast<Length>(end - start));
      start = FindNext(end, false);
    }
  }

  // Intrusive list hooks managed by HugePageFiller.
  PageTracker* prev = nullptr;
  PageTracker* next = nullptr;

 private:
  static constexpr int kWords = kPagesPerHugePage / 64;  // 4

  // First page at or after `p` that is used (`used`) or free (!`used`), or
  // kPagesPerHugePage if there is none: steps a word of 64 pages at a time.
  size_t FindNext(size_t p, bool used) const {
    while (p < kPagesPerHugePage) {
      const uint64_t word = used ? bitmap_[p / 64] : ~bitmap_[p / 64];
      const uint64_t ahead = word >> (p % 64);
      if (ahead != 0) return p + std::countr_zero(ahead);
      p = (p / 64 + 1) * 64;
    }
    return kPagesPerHugePage;
  }

  HugePageId hp_;
  Length used_ = 0;
  bool released_ = false;
  bool donated_ = false;
  int lifetime_set_ = 0;
  uint64_t bitmap_[kWords] = {};  // bit set => page used
};

// Filler statistics (drives Figs. 15 and 17).
struct FillerStats {
  Length used_pages = 0;          // pages allocated to spans
  Length free_pages = 0;          // free pages on intact hugepages
  Length released_free_pages = 0; // free pages on subreleased hugepages
  size_t total_hugepages = 0;
  size_t released_hugepages = 0;  // currently owned and broken
  size_t donated_hugepages = 0;
  uint64_t subrelease_events = 0;
  uint64_t hugepages_freed = 0;   // became fully empty and left the filler
  uint64_t growth_failures = 0;   // backing refused a hugepage, no fallback
  uint64_t cross_set_fallbacks = 0;  // placed across the lifetime boundary
};

// Supplier/consumer of the whole hugepages backing the filler: the page
// heap's huge cache in production, a harness in tests. A plain virtual
// interface rather than std::function callbacks — GetHugePage sits on the
// span-allocation slow path (every span miss that grows the footprint), so
// the indirection must be one devirtualizable call, not a type-erased
// closure.
class HugePageBacking {
 public:
  virtual ~HugePageBacking() = default;

  // Provides a fresh hugepage for the filler to pack spans into, or
  // kInvalidHugePage when the system refuses to grow (simulated OOM) —
  // the filler then falls back or propagates the failure.
  virtual HugePageId GetHugePage() = 0;

  // Accepts a fully-empty hugepage leaving the filler; `intact` tells
  // whether it left THP-intact.
  virtual void PutHugePage(HugePageId hp, bool intact) = 0;

  // Returns pages [offset, offset+n) of `hp` to the (simulated) OS.
  // Returns the bytes the backing confirmed as *newly* released; the
  // default (test harnesses) confirms everything.
  virtual size_t ReleasePageRange(HugePageId hp, int offset, Length n) {
    (void)hp;
    (void)offset;
    return LengthToBytes(n);
  }

  // Declares pages [offset, offset+n) of `hp` in use again after a
  // ReleasePageRange (refault semantics; bookkeeping-only by default).
  virtual void CommitPageRange(HugePageId hp, int offset, Length n) {
    (void)hp;
    (void)offset;
    (void)n;
  }
};

// Packs sub-hugepage allocations into hugepages.
class HugePageFiller {
 public:
  // Lifetime sets: with lifetime awareness off everything goes to set 0.
  static constexpr int kLongLived = 0;
  static constexpr int kShortLived = 1;

  // `lifetime_aware` enables the dedicated short-lived hugepage set;
  // `capacity_threshold` is the paper's C (spans with capacity < C are
  // treated as short-lived). `backing` supplies fresh hugepages and takes
  // back fully-empty ones; it must outlive the filler.
  HugePageFiller(bool lifetime_aware, int capacity_threshold,
                 HugePageBacking* backing);
  ~HugePageFiller();

  HugePageFiller(const HugePageFiller&) = delete;
  HugePageFiller& operator=(const HugePageFiller&) = delete;

  // Allocates `n` contiguous pages (n < kPagesPerHugePage) for a span whose
  // size class has `span_capacity` objects per span. Returns the first
  // page, or kInvalidPageId when no tracker fits and the backing refuses a
  // fresh hugepage (with lifetime awareness on, the other lifetime set is
  // tried first — a mispacked span beats a failed allocation).
  PageId Allocate(Length n, int span_capacity);

  // Frees pages previously returned by Allocate.
  void Free(PageId page, Length n);

  // Accepts the tail of a large allocation: pages [donated_offset, 256) of
  // `hp` are free for the filler to pack spans into; pages before the
  // offset belong to the large span and are freed via FreeDonatedHead.
  void Donate(HugePageId hp, int donated_offset);

  // Frees the large-span head of a donated hugepage.
  void FreeDonatedHead(HugePageId hp, Length head_pages);

  // Subreleases free pages from the sparsest hugepages until the filler's
  // intact free-page fraction drops below `target_fraction`.
  // `demand_guard_pages` free pages are additionally retained to absorb a
  // return to recent peak demand (the "skip subrelease" policy of adaptive
  // hugepage subrelease, Maas et al. ISMM'21) — without it every transient
  // load trough would break hugepages that are about to be refilled.
  // Returns pages released to the OS.
  Length SubreleaseExcess(double target_fraction,
                          Length demand_guard_pages = 0);

  // Aggressive pressure-driven subrelease (the background reclaimer's last
  // tier): releases free pages from the sparsest intact hugepages until at
  // least `need` pages are released or no intact free pages remain. Unlike
  // SubreleaseExcess there is no fraction target and no demand guard — a
  // process over its memory limit gives pages back even if load may
  // return. Returns pages released to the OS.
  Length SubreleaseUpTo(Length need);

  // True if `addr` lies on a hugepage owned by the filler that is still
  // THP-intact.
  bool IsIntactHugepage(uintptr_t addr) const;

  // Whether the filler owns the hugepage containing `addr` at all.
  bool Owns(uintptr_t addr) const;

  // Free pages on the filler-owned hugepage containing `addr` (intact or
  // subreleased), or 0 if the filler does not own it. The heap profiler
  // charges these to the live objects sharing the hugepage.
  Length FreePagesOnHugepage(uintptr_t addr) const;

  FillerStats stats() const;

  // In-use pages on intact hugepages (numerator of hugepage coverage).
  Length UsedPagesOnIntactHugepages() const;

  // Publishes this tier's metrics (component "huge_page_filler") into
  // `registry`.
  void ContributeTelemetry(telemetry::MetricRegistry& registry) const;

 private:
  // lists_[set][free_pages] -> trackers with exactly that many free pages.
  // Index 0 (full trackers) through kPagesPerHugePage.
  using FreeLists = std::vector<PageTracker*>;

  PageTracker* FindTracker(HugePageId hp) const;
  void ListInsert(PageTracker* t);
  void ListRemove(PageTracker* t);

  // Picks the fullest tracker in `set` able to fit `n` contiguous pages;
  // prefers intact trackers over released ones, donated last.
  PageTracker* PickTracker(int set, Length n);

  // Marks the sparsest intact hugepages released until `need` pages are
  // released; shared victim-ordering core of SubreleaseExcess and
  // SubreleaseUpTo. Returns pages released.
  Length ReleaseSparsest(Length need);

  // Handles a tracker that became empty: returns the hugepage upstream.
  void ReleaseEmpty(PageTracker* t);

  bool lifetime_aware_;
  int capacity_threshold_;
  HugePageBacking* backing_;

  // Two lifetime sets x (free count -> list head). Donated trackers are
  // kept in a separate per-free-count structure.
  std::vector<FreeLists> lists_;        // [set][free_count]
  FreeLists donated_lists_;             // [free_count]

  // hugepage index -> tracker (ownership). Flat open addressing: this is
  // probed on every filler free and every dTLB backing query.
  FlatPtrMap<PageTracker*> tracker_index_;

  FillerStats stats_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_HUGE_PAGE_FILLER_H_
