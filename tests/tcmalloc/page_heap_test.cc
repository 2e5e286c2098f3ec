// Tests for the composed page heap: request routing, donation, coverage,
// and the Fig. 15 component breakdown.

#include "tcmalloc/page_heap.h"

#include <gtest/gtest.h>

namespace wsc::tcmalloc {
namespace {

class PageHeapTest : public ::testing::Test {
 protected:
  PageHeapTest()
      : config_(MakeConfig()),
        system_(config_.arena_base, config_.arena_bytes),
        pagemap_(system_.base_page(), system_.arena_pages()),
        heap_(&SizeClasses::Default(), config_, &system_, &pagemap_) {}

  static AllocatorConfig MakeConfig() {
    return AllocatorConfig::Builder()
        .WithArena(uintptr_t{1} << 40, size_t{16} << 30)
        .Build();
  }

  AllocatorConfig config_;
  SystemAllocator system_;
  PageMap pagemap_;
  PageHeap heap_;
};

TEST_F(PageHeapTest, SmallSpanComesFromFillerAndIsMapped) {
  const SizeClasses& sc = SizeClasses::Default();
  int cls = sc.ClassFor(64);
  Span* span = heap_.NewSpan(cls);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->size_class(), cls);
  EXPECT_EQ(span->num_pages(), sc.pages_per_span(cls));
  EXPECT_EQ(pagemap_.LookupAddr(span->start_addr()), span);
  PageHeapStats stats = heap_.stats();
  EXPECT_EQ(stats.filler_used, LengthToBytes(span->num_pages()));
  heap_.ReturnSpan(span);
  EXPECT_EQ(heap_.stats().filler_used, 0u);
}

TEST_F(PageHeapTest, SpanIdsAreUnique) {
  Span* a = heap_.NewSpan(0);
  Span* b = heap_.NewSpan(0);
  EXPECT_NE(a->span_id, b->span_id);
  heap_.ReturnSpan(a);
  heap_.ReturnSpan(b);
}

TEST_F(PageHeapTest, SubHugepageLargeSpanUsesFiller) {
  // 1 MiB = 128 pages < 256: filler, registered as capacity-1.
  Span* span = heap_.NewLargeSpan(128);
  EXPECT_TRUE(span->is_large());
  EXPECT_GT(heap_.stats().filler_used, 0u);
  heap_.FreeLargeSpan(span);
  EXPECT_EQ(heap_.stats().filler_used, 0u);
}

TEST_F(PageHeapTest, SlightlyOverHugepageUsesRegion) {
  // 300 pages = 2.34 MiB ("slightly exceeds a hugepage").
  Span* span = heap_.NewLargeSpan(300);
  PageHeapStats stats = heap_.stats();
  EXPECT_EQ(stats.region_used, LengthToBytes(300));
  EXPECT_EQ(stats.cache_used, 0u);
  heap_.FreeLargeSpan(span);
  EXPECT_EQ(heap_.stats().region_used, 0u);
}

TEST_F(PageHeapTest, BigAllocationUsesCacheAndDonatesSlack) {
  // 1100 pages = 8.6 MiB -> 5 hugepages with 180 pages of slack donated.
  Span* span = heap_.NewLargeSpan(1100);
  PageHeapStats stats = heap_.stats();
  EXPECT_GT(stats.cache_used, 0u);
  FillerStats filler = heap_.filler_stats();
  EXPECT_EQ(filler.donated_hugepages, 1u);
  // The donated tail can serve small spans.
  Span* small = heap_.NewSpan(0);
  EXPECT_EQ(HugePageContainingAddr(small->start_addr()).index,
            HugePageContainingAddr(span->start_addr()).index + 4);
  heap_.ReturnSpan(small);
  heap_.FreeLargeSpan(span);
  EXPECT_EQ(heap_.stats().cache_used, 0u);
  EXPECT_EQ(heap_.filler_stats().used_pages, 0u);
}

TEST_F(PageHeapTest, ExactHugepageMultipleHasNoDonation) {
  Span* span = heap_.NewLargeSpan(4 * kPagesPerHugePage);
  EXPECT_EQ(heap_.filler_stats().donated_hugepages, 0u);
  heap_.FreeLargeSpan(span);
  PageHeapStats stats = heap_.stats();
  EXPECT_EQ(stats.cache_used, 0u);
  EXPECT_GT(stats.cache_free + stats.cache_released, 0u);
}

TEST_F(PageHeapTest, CoverageIsFullWithoutSubrelease) {
  Span* span = heap_.NewSpan(3);
  EXPECT_DOUBLE_EQ(heap_.HugepageCoverage(), 1.0);
  EXPECT_TRUE(heap_.IsHugepageBacked(config_.arena_base));
  heap_.ReturnSpan(span);
}

TEST_F(PageHeapTest, SubreleaseLowersCoverage) {
  const SizeClasses& sc = SizeClasses::Default();
  int cls = sc.ClassFor(8192);
  // Two dense hugepages, then free most spans of the second.
  std::vector<Span*> spans;
  for (int i = 0; i < 400; ++i) spans.push_back(heap_.NewSpan(cls));
  for (size_t i = 150; i < spans.size(); ++i) heap_.ReturnSpan(spans[i]);
  heap_.BackgroundRelease();
  EXPECT_LT(heap_.HugepageCoverage(), 1.0);
  FillerStats filler = heap_.filler_stats();
  EXPECT_GT(filler.released_hugepages, 0u);
  // Some live address now sits on a broken hugepage.
  bool any_broken = false;
  for (size_t i = 0; i < 150; ++i) {
    if (!heap_.IsHugepageBacked(spans[i]->start_addr())) any_broken = true;
  }
  EXPECT_TRUE(any_broken);
  for (size_t i = 0; i < 150; ++i) heap_.ReturnSpan(spans[i]);
}

TEST_F(PageHeapTest, Fig15StyleBreakdownCoversComponents) {
  Span* filler = heap_.NewSpan(0);
  Span* region = heap_.NewLargeSpan(300);
  Span* cache = heap_.NewLargeSpan(1024);  // 4 hugepages, no slack
  PageHeapStats stats = heap_.stats();
  EXPECT_GT(stats.filler_used, 0u);
  EXPECT_GT(stats.region_used, 0u);
  EXPECT_GT(stats.cache_used, 0u);
  EXPECT_EQ(stats.TotalInUse(),
            stats.filler_used + stats.region_used + stats.cache_used);
  heap_.ReturnSpan(filler);
  heap_.FreeLargeSpan(region);
  heap_.FreeLargeSpan(cache);
}

TEST_F(PageHeapTest, MmapChargedOnlyOnSystemGrowth) {
  uint64_t calls = system_.stats().mmap_calls;
  Span* a = heap_.NewLargeSpan(1024);
  EXPECT_GT(system_.stats().mmap_calls, calls);
  heap_.FreeLargeSpan(a);
  calls = system_.stats().mmap_calls;
  Span* b = heap_.NewLargeSpan(1024);  // reuses the cached run
  EXPECT_EQ(system_.stats().mmap_calls, calls);
  heap_.FreeLargeSpan(b);
}

}  // namespace
}  // namespace wsc::tcmalloc
