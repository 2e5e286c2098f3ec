// White-box tests for the real-memory backing and the real-threads
// allocator's use of it: here the addresses are dereferenceable, so the
// tests write through every object they get, the freelists thread through
// the object storage they exercise, the page directory answers unsized
// frees and UsableSize, and ReleaseMemoryToSystem performs a real madvise.
// The multi-thread storm and the sharded refill path live in
// real_threads_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "tcmalloc/config.h"
#include "tcmalloc/memory_backing.h"
#include "tcmalloc/pages.h"
#include "tcmalloc/real_threads.h"
#include "tcmalloc/size_classes.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {
namespace {

AllocatorConfig RealConfig() {
  return AllocatorConfig::Builder().WithVcpus(4).WithRealMemory().Build();
}

double Metric(const telemetry::Snapshot& snap, const char* component,
              const char* name) {
  const telemetry::MetricSample* sample = snap.Find(component, name);
  return sample != nullptr ? sample->ScalarValue() : -1.0;
}

// ---- RealMemoryBacking: a real mmap reservation.

TEST(RealMemoryBackingTest, ReservesWritableHugepageAlignedMemory) {
  RealMemoryBacking backing(RealMemoryBacking::kMinReserveBytes);
  ASSERT_TRUE(backing.ok());
  EXPECT_EQ(backing.base() % kHugePageSize, 0u);
  EXPECT_GE(backing.reserved_bytes(), RealMemoryBacking::kMinReserveBytes);

  // The point of the real backing: this memory is real.
  std::memset(reinterpret_cast<void*>(backing.base()), 0xAB,
              2 * kHugePageSize);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(backing.base())[kHugePageSize],
            0xAB);
}

TEST(RealMemoryBackingTest, ReleaseZeroesAndCounts) {
  RealMemoryBacking backing(RealMemoryBacking::kMinReserveBytes);
  ASSERT_TRUE(backing.ok());
  uintptr_t hp = backing.base();
  unsigned char* mem = reinterpret_cast<unsigned char*>(hp);
  std::memset(mem, 0xCD, kHugePageSize);

  EXPECT_EQ(backing.Release(hp, kHugePageSize), kHugePageSize);
  // MADV_DONTNEED refaults as zero.
  EXPECT_EQ(mem[0], 0);
  EXPECT_EQ(mem[kHugePageSize - 1], 0);
  // A failed madvise (nothing is mapped at page 1) releases nothing.
  EXPECT_EQ(backing.Release(4096, 4096), 0u);

  backing.Commit(kHugePageSize);
  EXPECT_EQ(backing.stats().release_calls, 2u);
  EXPECT_EQ(backing.stats().released_bytes, kHugePageSize);
  EXPECT_EQ(backing.stats().recommitted_bytes, kHugePageSize);
}

// ---- The real-threads allocator on real memory.

TEST(RealMemoryModeTest, SmallRoundTripIsWritable) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();

  uintptr_t p = alloc.Allocate(tc, 48);
  ASSERT_NE(p, 0u);
  EXPECT_TRUE(alloc.Owns(p));
  // Writable, and UsableSize reports the full class capacity.
  std::memset(reinterpret_cast<void*>(p), 0x5A, 48);
  size_t usable = alloc.UsableSize(p);
  EXPECT_GE(usable, 48u);
  EXPECT_EQ(usable, SizeClasses::Default().class_size(
                        SizeClasses::Default().ClassFor(48)));
  alloc.Free(tc, p, 48);
  // The freed object comes straight back off the intrusive list.
  EXPECT_EQ(alloc.Allocate(tc, 48), p);
  alloc.Free(tc, p, 48);
}

TEST(RealMemoryModeTest, FreeAddrRecoversSizeFromDirectory) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();

  // Small: unsized free must route to the same class list as a sized one.
  uintptr_t small = alloc.Allocate(tc, 128);
  ASSERT_NE(small, 0u);
  alloc.FreeAddr(tc, small);
  EXPECT_EQ(alloc.Allocate(tc, 128), small);

  // Large: the directory holds the page count.
  constexpr size_t kLargeBytes = 1 << 20;
  uintptr_t large = alloc.Allocate(tc, kLargeBytes);
  ASSERT_NE(large, 0u);
  EXPECT_EQ(alloc.UsableSize(large), kLargeBytes);
  std::memset(reinterpret_cast<void*>(large), 0x77, kLargeBytes);
  alloc.FreeAddr(tc, large);
  EXPECT_EQ(alloc.UsableSize(large), 0u);
  // Unknown/middle-of-range addresses are ignored, not fatal.
  alloc.FreeAddr(tc, large + 3 * kPageSize);

  alloc.Free(tc, small, 128);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
}

TEST(RealMemoryModeTest, LargeRangesAreReused) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  constexpr size_t kBytes = 4 << 20;

  uintptr_t a = alloc.Allocate(tc, kBytes);
  ASSERT_NE(a, 0u);
  alloc.Free(tc, a, kBytes);
  // Same size comes back from the pending list, not a fresh carve.
  EXPECT_EQ(alloc.Allocate(tc, kBytes), a);
  alloc.Free(tc, a, kBytes);
  // A smaller request splits the range from the front.
  uintptr_t b = alloc.Allocate(tc, kBytes / 2);
  EXPECT_EQ(b, a);
  uintptr_t c = alloc.Allocate(tc, kBytes / 2);
  EXPECT_EQ(c, a + kBytes / 2);
  alloc.Free(tc, b, kBytes / 2);
  alloc.Free(tc, c, kBytes / 2);
}

TEST(RealMemoryModeTest, AlignedAllocationSweep) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  std::vector<std::pair<uintptr_t, size_t>> live;
  for (size_t align = 8; align <= (size_t{4} << 20); align <<= 1) {
    for (size_t size : {size_t{1}, size_t{64}, size_t{4096},
                        size_t{300000}}) {
      uintptr_t p = alloc.AllocateAligned(tc, size, align);
      ASSERT_NE(p, 0u) << "align=" << align << " size=" << size;
      EXPECT_EQ(p % align, 0u) << "align=" << align << " size=" << size;
      EXPECT_GE(alloc.UsableSize(p), size);
      std::memset(reinterpret_cast<void*>(p), 0x11, size);
      live.push_back({p, size});
    }
  }
  for (auto [p, size] : live) alloc.FreeAddr(tc, p);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
}

// A sized free of a hugepage-aligned large block takes its length from
// the page directory, so the accounting and the directory both clear.
TEST(RealMemoryModeTest, SizedFreeOfAlignedLargeBlock) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  constexpr size_t kBytes = kMaxSmallSize + 1;
  uintptr_t p = alloc.AllocateAligned(tc, kBytes, kHugePageSize);
  ASSERT_NE(p, 0u);
  EXPECT_EQ(p % kHugePageSize, 0u);
  EXPECT_EQ(alloc.UsableSize(p), LengthToBytes(BytesToLengthCeil(kBytes)));
  std::memset(reinterpret_cast<void*>(p), 0x3C, kBytes);

  alloc.Free(tc, p, kBytes);
  EXPECT_EQ(alloc.UsableSize(p), 0u);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
  EXPECT_EQ(Metric(snap, "allocator", "large_frees"), 1);
}

TEST(RealMemoryModeTest, ReleaseMemoryToSystemMadvisesPendingRanges) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  constexpr size_t kBytes = 8 << 20;

  uintptr_t p = alloc.Allocate(tc, kBytes);
  ASSERT_NE(p, 0u);
  unsigned char* mem = reinterpret_cast<unsigned char*>(p);
  std::memset(mem, 0xEE, kBytes);
  alloc.Free(tc, p, kBytes);

  size_t released = alloc.ReleaseMemoryToSystem(kBytes);
  EXPECT_GT(released, 0u);
  // All but the header page (which carries the pending-list node).
  EXPECT_EQ(released, kBytes - kPageSize);
  // Really gone: refaults zero.
  EXPECT_EQ(mem[kPageSize], 0);
  EXPECT_EQ(mem[kBytes - 1], 0);
  // Releasing again finds nothing new.
  EXPECT_EQ(alloc.ReleaseMemoryToSystem(kBytes), 0u);

  // The released range is still reusable.
  uintptr_t q = alloc.Allocate(tc, kBytes);
  EXPECT_EQ(q, p);
  std::memset(mem, 0xEF, kBytes);
  alloc.Free(tc, q, kBytes);
}

// Reusing a released range recommits everything past its header page,
// which never left; a split also recommits the tail's new header page.
TEST(RealMemoryModeTest, ReusingReleasedRangesRecommits) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  constexpr size_t kBytes = 4 << 20;
  auto system_metric = [&alloc](const char* name) {
    return Metric(alloc.TelemetrySnapshot(), "system", name);
  };

  uintptr_t p = alloc.Allocate(tc, kBytes);
  ASSERT_NE(p, 0u);
  alloc.Free(tc, p, kBytes);
  ASSERT_EQ(alloc.ReleaseMemoryToSystem(kBytes), kBytes - kPageSize);

  // Exact fit.
  ASSERT_EQ(alloc.Allocate(tc, kBytes), p);
  EXPECT_EQ(system_metric("released_bytes"), 4186112);
  EXPECT_EQ(system_metric("recommitted_bytes"), 4186112);
  alloc.Free(tc, p, kBytes);
  ASSERT_EQ(alloc.ReleaseMemoryToSystem(kBytes), kBytes - kPageSize);

  // Split: a quarter from the front; the tail stays released.
  ASSERT_EQ(alloc.Allocate(tc, kBytes / 4), p);
  EXPECT_EQ(system_metric("released_bytes"), 8372224);
  EXPECT_EQ(system_metric("recommitted_bytes"), 4186112 + 1048576);
  EXPECT_EQ(alloc.ReleaseMemoryToSystem(kBytes), 0u);

  // The tail, exact fit: every released byte is back in use.
  ASSERT_EQ(alloc.Allocate(tc, kBytes * 3 / 4), p + kBytes / 4);
  EXPECT_EQ(system_metric("recommitted_bytes"), 8372224);
  EXPECT_EQ(system_metric("release_calls"), 2);
}

}  // namespace
}  // namespace wsc::tcmalloc
