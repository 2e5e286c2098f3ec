// Tests for the virtual-arena system allocator.

#include "tcmalloc/system_alloc.h"

#include <gtest/gtest.h>

namespace wsc::tcmalloc {
namespace {

constexpr uintptr_t kBase = uintptr_t{1} << 40;

TEST(SystemAllocator, ReturnsAlignedDisjointRuns) {
  SystemAllocator sys(kBase, 64 * kHugePageSize);
  HugePageId a = sys.AllocateHugePages(1);
  HugePageId b = sys.AllocateHugePages(3);
  HugePageId c = sys.AllocateHugePages(2);
  EXPECT_EQ(a.Addr() % kHugePageSize, 0u);
  EXPECT_EQ(b.Addr(), a.Addr() + kHugePageSize);
  EXPECT_EQ(c.Addr(), b.Addr() + 3 * kHugePageSize);
}

TEST(SystemAllocator, StatsTrackCallsAndBytes) {
  SystemAllocator sys(kBase, 64 * kHugePageSize, /*mmap_latency_ns=*/5000);
  sys.AllocateHugePages(2);
  sys.AllocateHugePages(1);
  EXPECT_EQ(sys.stats().mmap_calls, 2u);
  EXPECT_EQ(sys.stats().mapped_bytes, 3 * kHugePageSize);
  EXPECT_DOUBLE_EQ(sys.stats().mmap_ns, 10000.0);
}

TEST(SystemAllocator, ExhaustionReturnsInvalidAndCounts) {
  // Arena exhaustion is a surfaced failure, not a crash: callers get the
  // invalid sentinel and retry smaller / reclaim / fail the allocation.
  SystemAllocator sys(kBase, 2 * kHugePageSize);
  EXPECT_TRUE(IsValid(sys.AllocateHugePages(2)));
  HugePageId hp = sys.AllocateHugePages(1);
  EXPECT_FALSE(IsValid(hp));
  EXPECT_EQ(hp, kInvalidHugePage);
  EXPECT_EQ(sys.stats().mmap_failures, 1u);
  // Failed calls map nothing.
  EXPECT_EQ(sys.stats().mapped_bytes, 2 * kHugePageSize);
}

// The dedupe that keeps release accounting honest.
TEST(ReleasedRangeSetTest, AddDedupesOverlaps) {
  ReleasedRangeSet set;
  EXPECT_EQ(set.Add(0x1000, 0x1000), 0x1000u);
  // Re-releasing the same range is not new.
  EXPECT_EQ(set.Add(0x1000, 0x1000), 0u);
  // Partial overlap counts only the fresh part.
  EXPECT_EQ(set.Add(0x1800, 0x1000), 0x800u);
  EXPECT_EQ(set.total_bytes(), 0x1800u);
}

TEST(ReleasedRangeSetTest, RemoveSplitsRuns) {
  ReleasedRangeSet set;
  set.Add(0x1000, 0x3000);
  // Carve the middle out: the run splits in two.
  EXPECT_EQ(set.Remove(0x2000, 0x1000), 0x1000u);
  EXPECT_EQ(set.total_bytes(), 0x2000u);
  // Removing an uncovered range is a no-op.
  EXPECT_EQ(set.Remove(0x2000, 0x1000), 0u);
  // The two halves are still marked.
  EXPECT_EQ(set.Add(0x1000, 0x1000), 0u);
  EXPECT_EQ(set.Add(0x3000, 0x1000), 0u);
}

TEST(SystemAllocatorDeathTest, MisalignedBaseIsFatal) {
  EXPECT_DEATH(SystemAllocator(kBase + 4096, kHugePageSize), "CHECK failed");
}

TEST(SystemAllocator, PageAccessors) {
  SystemAllocator sys(kBase, 8 * kHugePageSize);
  EXPECT_EQ(sys.base(), kBase);
  EXPECT_EQ(sys.base_page().Addr(), kBase);
  EXPECT_EQ(sys.arena_pages(), 8 * kPagesPerHugePage);
}

}  // namespace
}  // namespace wsc::tcmalloc
