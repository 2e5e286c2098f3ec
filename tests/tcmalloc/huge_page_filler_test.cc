// Tests for the PageTracker bitmap and the hugepage filler, including the
// lifetime-aware placement of Section 4.4.

#include "tcmalloc/huge_page_filler.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bitset>
#include <set>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace wsc::tcmalloc {
namespace {

// --- PageTracker ---

TEST(PageTracker, AllocateFirstFitAndFree) {
  PageTracker t(HugePageId{100});
  EXPECT_TRUE(t.empty());
  EXPECT_EQ(t.LongestFreeRange(), kPagesPerHugePage);
  int a = t.Allocate(10);
  EXPECT_EQ(a, 0);
  int b = t.Allocate(20);
  EXPECT_EQ(b, 10);
  EXPECT_EQ(t.used_pages(), 30u);
  t.Free(a, 10);
  EXPECT_EQ(t.used_pages(), 20u);
  // First fit reuses the freed hole.
  EXPECT_EQ(t.Allocate(10), 0);
}

TEST(PageTracker, LongestFreeRangeTracksHoles) {
  PageTracker t(HugePageId{1});
  int a = t.Allocate(100);
  int b = t.Allocate(100);
  (void)b;
  EXPECT_EQ(t.LongestFreeRange(), kPagesPerHugePage - 200);
  t.Free(a, 100);
  EXPECT_EQ(t.LongestFreeRange(), 100u);  // hole > tail (56)
}

TEST(PageTracker, AllocateFailsWithoutContiguousRun) {
  PageTracker t(HugePageId{1});
  // Allocate everything then free alternating 1-page holes.
  ASSERT_EQ(t.Allocate(kPagesPerHugePage), 0);
  for (size_t p = 0; p < kPagesPerHugePage; p += 2) t.Free(p, 1);
  EXPECT_EQ(t.free_pages(), kPagesPerHugePage / 2);
  EXPECT_EQ(t.LongestFreeRange(), 1u);
  EXPECT_EQ(t.Allocate(2), -1);  // no 2-page run despite 128 free pages
  EXPECT_EQ(t.Allocate(1), 0);
}

TEST(PageTracker, FullTracker) {
  PageTracker t(HugePageId{1});
  EXPECT_EQ(t.Allocate(kPagesPerHugePage), 0);
  EXPECT_TRUE(t.full());
  EXPECT_EQ(t.Allocate(1), -1);
}

TEST(PageTrackerDeathTest, DoublePageFreeIsFatal) {
  PageTracker t(HugePageId{1});
  t.Allocate(4);
  t.Free(0, 4);
  EXPECT_DEATH(t.Free(0, 4), "CHECK failed");
}

TEST(PageTrackerDeathTest, MarkAllocatedOverlapIsFatal) {
  PageTracker t(HugePageId{1});
  t.MarkAllocated(0, 10);
  EXPECT_DEATH(t.MarkAllocated(5, 10), "CHECK failed");
}

// Bit-at-a-time reference for the tracker's word scans.
class ReferenceTracker {
 public:
  using Runs = std::vector<std::pair<int, Length>>;

  Length LongestFreeRange() const {
    Length longest = 0;
    Length run = 0;
    for (size_t p = 0; p < kPagesPerHugePage; ++p) {
      run = used_[p] ? 0 : run + 1;
      longest = std::max(longest, run);
    }
    return longest;
  }

  int Allocate(Length n) {
    Length run = 0;
    for (size_t p = 0; p < kPagesPerHugePage; ++p) {
      run = used_[p] ? 0 : run + 1;
      if (run == n) {
        for (size_t q = p + 1 - n; q <= p; ++q) used_[q] = true;
        return static_cast<int>(p + 1 - n);
      }
    }
    return -1;
  }

  void Set(int offset, Length n, bool used) {
    for (Length q = 0; q < n; ++q) used_[offset + q] = used;
  }

  Length used_pages() const { return used_.count(); }

  // Maximal runs of pages whose used bit equals `used`.
  Runs RunsOf(bool used) const {
    Runs runs;
    for (size_t p = 0; p < kPagesPerHugePage; ++p) {
      if (used_[p] != used) continue;
      if (p > 0 && used_[p - 1] == used) {
        ++runs.back().second;
      } else {
        runs.push_back({static_cast<int>(p), 1});
      }
    }
    return runs;
  }

 private:
  std::bitset<kPagesPerHugePage> used_;
};

// The tracker's free runs, in order: its bitmap as ForEachFreeRun sees it.
ReferenceTracker::Runs FreeRuns(const PageTracker& t) {
  ReferenceTracker::Runs runs;
  t.ForEachFreeRun(
      [&](int offset, Length len) { runs.push_back({offset, len}); });
  return runs;
}

// Checks every scan of `t` against the reference: the longest free range,
// the free runs (and so the bitmap), and the offset and bitmap that
// Allocate(n) leaves for every n.
void ExpectMatchesReference(const PageTracker& t, const ReferenceTracker& ref) {
  ASSERT_EQ(t.LongestFreeRange(), ref.LongestFreeRange());
  ASSERT_EQ(FreeRuns(t), ref.RunsOf(false));
  ASSERT_EQ(t.used_pages(), ref.used_pages());
  for (Length n = 1; n <= kPagesPerHugePage; ++n) {
    PageTracker trial = t;
    ReferenceTracker trial_ref = ref;
    ASSERT_EQ(trial.Allocate(n), trial_ref.Allocate(n)) << "n=" << n;
    ASSERT_EQ(FreeRuns(trial), trial_ref.RunsOf(false)) << "n=" << n;
    ASSERT_EQ(trial.used_pages(), trial_ref.used_pages()) << "n=" << n;
  }
}

TEST(PageTracker, WordScansMatchBitAtATimeReference) {
  PageTracker t(HugePageId{1});
  ReferenceTracker ref;
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(t, ref));  // empty

  // Runs that cross 64-page words, and a full tracker.
  t.MarkAllocated(60, 10);
  ref.Set(60, 10, true);
  t.MarkAllocated(127, 2);
  ref.Set(127, 2, true);
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(t, ref));
  for (int n : {127, 60, 57}) ASSERT_EQ(t.Allocate(n), ref.Allocate(n)) << n;
  ASSERT_TRUE(t.full());
  ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(t, ref));  // full
  t.Free(0, kPagesPerHugePage);
  ref.Set(0, kPagesPerHugePage, false);

  // Seeded random Allocate/MarkAllocated/Free sequences.
  Rng rng(20240427);
  for (int step = 0; step < 3000; ++step) {
    const uint64_t op = rng.UniformInt(3);
    if (op == 0) {
      // Mostly small spans, sometimes up to a whole hugepage.
      const Length n = rng.Bernoulli(0.9) ? 1 + rng.UniformInt(16)
                                          : 1 + rng.UniformInt(256);
      ASSERT_EQ(t.Allocate(n), ref.Allocate(n)) << "n=" << n;
    } else {
      // Mark part of a free run used, or free part of a used run.
      const bool mark = op == 1;
      const ReferenceTracker::Runs runs = ref.RunsOf(!mark);
      if (runs.empty()) continue;
      const auto [start, len] = runs[rng.UniformInt(runs.size())];
      const Length skip = rng.UniformInt(len);
      const Length n = 1 + rng.UniformInt(len - skip);
      const int offset = start + static_cast<int>(skip);
      if (mark) {
        t.MarkAllocated(offset, n);
      } else {
        t.Free(offset, n);
      }
      ref.Set(offset, n, mark);
    }
    if (step % 10 == 0) {
      ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(t, ref)) << step;
    } else {
      ASSERT_EQ(t.LongestFreeRange(), ref.LongestFreeRange()) << step;
    }
  }
}

// --- HugePageFiller ---

class FillerHarness : public HugePageBacking {
 public:
  explicit FillerHarness(bool lifetime_aware, int threshold = 16)
      : filler_(lifetime_aware, threshold, this) {}

  HugePageId GetHugePage() override { return HugePageId{next_hp_++}; }
  void PutHugePage(HugePageId hp, bool intact) override {
    sunk_.push_back({hp, intact});
  }

  HugePageFiller& filler() { return filler_; }
  const std::vector<std::pair<HugePageId, bool>>& sunk() const {
    return sunk_;
  }
  size_t hugepages_created() const { return next_hp_ - 1000; }

 private:
  uintptr_t next_hp_ = 1000;
  std::vector<std::pair<HugePageId, bool>> sunk_;
  HugePageFiller filler_;
};

TEST(HugePageFiller, PacksSpansOntoOneHugepage) {
  FillerHarness h(false);
  std::set<uintptr_t> pages;
  for (int i = 0; i < 16; ++i) {
    PageId p = h.filler().Allocate(4, /*span_capacity=*/100);
    EXPECT_TRUE(pages.insert(p.index).second);
    EXPECT_EQ(HugePageContaining(p).index, 1000u);  // all on hugepage #1
  }
  EXPECT_EQ(h.hugepages_created(), 1u);
  FillerStats stats = h.filler().stats();
  EXPECT_EQ(stats.used_pages, 64u);
  EXPECT_EQ(stats.free_pages, kPagesPerHugePage - 64);
}

TEST(HugePageFiller, PrefersFullestHugepage) {
  FillerHarness h(false);
  // Create two hugepages: fill hp0 almost fully, hp1 lightly.
  PageId a = h.filler().Allocate(250, 100);  // hp0: 250/256 used
  PageId b = h.filler().Allocate(100, 100);  // hp1: 100/256 used
  ASSERT_NE(HugePageContaining(a).index, HugePageContaining(b).index);
  // A 4-page span fits both; it must go to the fuller hp0.
  PageId c = h.filler().Allocate(4, 100);
  EXPECT_EQ(HugePageContaining(c).index, HugePageContaining(a).index);
}

TEST(HugePageFiller, HugepageFreedWhenEmptyAndSunkIntact) {
  FillerHarness h(false);
  PageId p = h.filler().Allocate(64, 100);
  h.filler().Free(p, 64);
  ASSERT_EQ(h.sunk().size(), 1u);
  EXPECT_EQ(h.sunk()[0].first.index, 1000u);
  EXPECT_TRUE(h.sunk()[0].second);  // intact: never subreleased
  EXPECT_EQ(h.filler().stats().total_hugepages, 0u);
  EXPECT_EQ(h.filler().stats().hugepages_freed, 1u);
}

TEST(HugePageFiller, LifetimeSetsUseSeparateHugepages) {
  FillerHarness h(true, /*threshold=*/16);
  // capacity >= 16 -> long-lived set; capacity < 16 -> short-lived set.
  PageId long_lived = h.filler().Allocate(4, /*span_capacity=*/512);
  PageId short_lived = h.filler().Allocate(4, /*span_capacity=*/1);
  EXPECT_NE(HugePageContaining(long_lived).index,
            HugePageContaining(short_lived).index);
  // More allocations of each category co-locate with their own set.
  PageId long2 = h.filler().Allocate(8, 100);
  PageId short2 = h.filler().Allocate(8, 2);
  EXPECT_EQ(HugePageContaining(long2).index,
            HugePageContaining(long_lived).index);
  EXPECT_EQ(HugePageContaining(short2).index,
            HugePageContaining(short_lived).index);
}

TEST(HugePageFiller, LifetimeThresholdBoundary) {
  FillerHarness h(true, /*threshold=*/16);
  PageId at = h.filler().Allocate(4, /*span_capacity=*/16);   // long-lived
  PageId below = h.filler().Allocate(4, /*span_capacity=*/15);  // short
  EXPECT_NE(HugePageContaining(at).index, HugePageContaining(below).index);
}

TEST(HugePageFiller, LifetimeOffUsesOneSet) {
  FillerHarness h(false);
  PageId a = h.filler().Allocate(4, 512);
  PageId b = h.filler().Allocate(4, 1);
  EXPECT_EQ(HugePageContaining(a).index, HugePageContaining(b).index);
}

TEST(HugePageFiller, DonatedTailServesSpans) {
  FillerHarness h(false);
  // Donate a hugepage whose first 200 pages belong to a large span.
  h.filler().Donate(HugePageId{5000}, /*donated_offset=*/200);
  EXPECT_EQ(h.filler().stats().donated_hugepages, 1u);
  // A small span that fits the 56-page tail lands there only when no
  // normal hugepage can serve it (donated pages are a last resort).
  PageId p = h.filler().Allocate(10, 100);
  EXPECT_EQ(HugePageContaining(p).index, 5000u);
  EXPECT_EQ(h.filler().stats().donated_hugepages, 0u);  // reused => normal
  // Freeing everything releases the hugepage.
  h.filler().Free(p, 10);
  h.filler().FreeDonatedHead(HugePageId{5000}, 200);
  ASSERT_EQ(h.sunk().size(), 1u);
  EXPECT_EQ(h.sunk()[0].first.index, 5000u);
}

TEST(HugePageFiller, SubreleaseBreaksSparsestHugepages) {
  FillerHarness h(false);
  // hp0 nearly full, hp1 sparse.
  PageId a = h.filler().Allocate(250, 100);
  PageId b = h.filler().Allocate(100, 100);
  (void)a;
  // Free most of hp1 to make it sparse.
  h.filler().Free(PageId{b.index}, 99);
  Length released = h.filler().SubreleaseExcess(/*target_fraction=*/0.05);
  EXPECT_GT(released, 0u);
  FillerStats stats = h.filler().stats();
  EXPECT_EQ(stats.released_hugepages, 1u);
  EXPECT_GT(stats.released_free_pages, 0u);
  // The sparse hugepage is the broken one.
  EXPECT_FALSE(h.filler().IsIntactHugepage(
      HugePageContaining(b).Addr()));
  EXPECT_TRUE(h.filler().IsIntactHugepage(
      HugePageContaining(a).Addr()));
}

TEST(HugePageFiller, SubreleaseNoopBelowTarget) {
  FillerHarness h(false);
  h.filler().Allocate(250, 100);  // dense
  EXPECT_EQ(h.filler().SubreleaseExcess(0.5), 0u);
  EXPECT_EQ(h.filler().stats().released_hugepages, 0u);
}

TEST(HugePageFiller, BrokenHugepageSinksNotIntact) {
  FillerHarness h(false);
  PageId a = h.filler().Allocate(50, 100);
  h.filler().Allocate(240, 100);  // second hugepage, dense
  // Make hp(a) sparse and subrelease it.
  h.filler().Free(a, 49);
  ASSERT_GT(h.filler().SubreleaseExcess(0.01), 0u);
  // Drain the last page: the hugepage leaves broken.
  h.filler().Free(PageId{a.index + 49}, 1);
  ASSERT_EQ(h.sunk().size(), 1u);
  EXPECT_FALSE(h.sunk()[0].second);
}

TEST(HugePageFiller, DemandGuardBlocksSubrelease) {
  // The skip-subrelease policy: free pages covered by the demand guard
  // (recent peak minus current use) are never released.
  FillerHarness h(false);
  PageId a = h.filler().Allocate(200, 100);
  h.filler().Free(a, 150);  // hp0: 50 used, 206 free (intact)
  // Guard covers all the free pages: nothing may be released.
  EXPECT_EQ(h.filler().SubreleaseExcess(0.01, /*demand_guard_pages=*/206),
            0u);
  EXPECT_EQ(h.filler().stats().released_hugepages, 0u);
  // Without the guard the same call releases.
  EXPECT_GT(h.filler().SubreleaseExcess(0.01, 0), 0u);
}

TEST(HugePageFiller, PartialGuardReleasesOnlyExcess) {
  FillerHarness h(false);
  PageId a = h.filler().Allocate(250, 100);
  h.filler().Allocate(100, 100);  // second hugepage
  h.filler().Free(a, 249);        // hp0: 1 used, 255 free
  // Guard protects 100 pages; the excess above guard+slack is released.
  Length released = h.filler().SubreleaseExcess(0.0, 100);
  EXPECT_GT(released, 0u);
}

TEST(HugePageFiller, UsedPagesOnIntactHugepages) {
  FillerHarness h(false);
  h.filler().Allocate(100, 100);
  EXPECT_EQ(h.filler().UsedPagesOnIntactHugepages(), 100u);
}

TEST(HugePageFiller, OwnsOnlyItsHugepages) {
  FillerHarness h(false);
  PageId p = h.filler().Allocate(4, 100);
  EXPECT_TRUE(h.filler().Owns(p.Addr()));
  EXPECT_FALSE(h.filler().Owns(uintptr_t{1} << 50));
}

}  // namespace
}  // namespace wsc::tcmalloc
