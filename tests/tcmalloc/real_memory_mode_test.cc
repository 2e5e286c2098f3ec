// White-box tests for the real-memory backing and the real-threads
// allocator's use of it: here the addresses are dereferenceable, so the
// tests write through every object they get, the freelists thread through
// the object storage they exercise, the page directory answers unsized
// frees and UsableSize, spans go back to the page heap and coalesce there,
// and ReleaseMemoryToSystem performs a real madvise. The multi-thread
// storms live in real_threads_test.cc.

#include <gtest/gtest.h>

#include <algorithm>
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
  // Same size comes back from the page heap's free run, not fresh pages.
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

// Requests near SIZE_MAX fail instead of wrapping in the page round-up or
// the bump carve, and leave the allocator serviceable: the next block
// comes from fresh address space and is fully usable.
TEST(RealMemoryModeTest, SizesNearSizeMaxFail) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  const size_t reserved = static_cast<size_t>(
      Metric(alloc.TelemetrySnapshot(), "system", "reserved_bytes"));
  for (size_t size : {SIZE_MAX, SIZE_MAX - kPageSize, SIZE_MAX - 100,
                      reserved + 1}) {
    EXPECT_EQ(alloc.Allocate(tc, size), 0u) << size;
    EXPECT_EQ(alloc.AllocateAligned(tc, size, size_t{1} << 20), 0u) << size;
  }
  // An alignment so large that rounding the bump pointer up wraps it.
  EXPECT_EQ(alloc.AllocateAligned(tc, 64, size_t{1} << 63), 0u);
  EXPECT_EQ(alloc.ArenaUsedBytes(), 0u);

  uintptr_t p = alloc.Allocate(tc, kMaxSmallSize + 1);
  ASSERT_NE(p, 0u);
  EXPECT_EQ(alloc.UsableSize(p), LengthToBytes(BytesToLengthCeil(
                                     kMaxSmallSize + 1)));
  std::memset(reinterpret_cast<void*>(p), 0x5A, kMaxSmallSize + 1);
  alloc.FreeAddr(tc, p);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"), 1);
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
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
  // The whole run: its bookkeeping lives out of band, and it covers four
  // whole hugepages.
  EXPECT_EQ(released, kBytes);
  // Really gone: refaults zero.
  EXPECT_EQ(mem[0], 0);
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

// Reusing a released run recommits exactly the pages taken from it; a
// split leaves the rest released.
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
  ASSERT_EQ(alloc.ReleaseMemoryToSystem(kBytes), kBytes);

  // Exact fit.
  ASSERT_EQ(alloc.Allocate(tc, kBytes), p);
  EXPECT_EQ(system_metric("released_bytes"), 4194304);
  EXPECT_EQ(system_metric("recommitted_bytes"), 4194304);
  alloc.Free(tc, p, kBytes);
  ASSERT_EQ(alloc.ReleaseMemoryToSystem(kBytes), kBytes);

  // Split: a quarter from the front; the tail stays released.
  ASSERT_EQ(alloc.Allocate(tc, kBytes / 4), p);
  EXPECT_EQ(system_metric("released_bytes"), 8388608);
  EXPECT_EQ(system_metric("recommitted_bytes"), 4194304 + 1048576);
  EXPECT_EQ(alloc.ReleaseMemoryToSystem(kBytes), 0u);

  // The tail, exact fit: every released byte is back in use.
  ASSERT_EQ(alloc.Allocate(tc, kBytes * 3 / 4), p + kBytes / 4);
  EXPECT_EQ(system_metric("recommitted_bytes"), 8388608);
  EXPECT_EQ(system_metric("release_calls"), 2);
}

// ---- Span lifecycle: spans go back to the page heap when empty.

// Allocates `n` objects of `size`, writing each one, then frees them all
// and pushes every cached copy down: the thread cache by a flush, the
// transfer caches by a zero-byte release, which moves their objects into
// the central free lists and releases nothing.
std::vector<uintptr_t> ChurnAndDrain(RealThreadsAllocator& alloc,
                                     RealThreadCache* tc, size_t size,
                                     int n) {
  std::vector<uintptr_t> objs;
  for (int i = 0; i < n; ++i) {
    uintptr_t p = alloc.Allocate(tc, size);
    EXPECT_NE(p, 0u);
    std::memset(reinterpret_cast<void*>(p), 0x42, size);
    objs.push_back(p);
  }
  for (uintptr_t p : objs) alloc.FreeAddr(tc, p);
  alloc.FlushThreadCache(tc);
  EXPECT_EQ(alloc.ReleaseMemoryToSystem(0), 0u);
  return objs;
}

TEST(RealMemoryModeTest, FreedClassReturnsEverySpan) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  ChurnAndDrain(alloc, tc, 48, 20000);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_GT(Metric(snap, "central_free_list", "fetched_spans"), 100);
  EXPECT_EQ(Metric(snap, "central_free_list", "returned_spans"),
            Metric(snap, "central_free_list", "fetched_spans"));
  EXPECT_EQ(Metric(snap, "central_free_list", "spans"), 0);
  EXPECT_EQ(Metric(snap, "central_free_list", "free_object_bytes"), 0);
  // The spans' pages are free in the page heap, still resident.
  EXPECT_EQ(Metric(snap, "page_heap", "free_bytes"),
            static_cast<double>(alloc.ArenaUsedBytes()));
}

TEST(RealMemoryModeTest, AnotherClassReusesReturnedSpans) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  ChurnAndDrain(alloc, tc, 48, 20000);
  const size_t arena = alloc.ArenaUsedBytes();
  ASSERT_GT(arena, 0u);

  // A class with two-page spans, holding most of the freed pages.
  const SizeClasses& sc = SizeClasses::Default();
  const int cls = sc.ClassFor(5000);
  ASSERT_GT(sc.pages_per_span(cls), 1u);
  const size_t objects = arena * 3 / 4 / sc.class_size(cls);
  std::vector<uintptr_t> objs;
  for (size_t i = 0; i < objects; ++i) {
    uintptr_t p = alloc.Allocate(tc, 5000);
    ASSERT_NE(p, 0u);
    std::memset(reinterpret_cast<void*>(p), 0x24, 5000);
    objs.push_back(p);
  }
  EXPECT_EQ(alloc.ArenaUsedBytes(), arena);
  for (uintptr_t p : objs) alloc.FreeAddr(tc, p);
}

TEST(RealMemoryModeTest, ReturnedSpansCoalesceForALargeBlock) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  std::vector<uintptr_t> objs = ChurnAndDrain(alloc, tc, 64, 16384);
  const size_t arena = alloc.ArenaUsedBytes();
  const uintptr_t lowest = *std::min_element(objs.begin(), objs.end());

  // Every page the spans held, as one block: it fits only if the freed
  // one-page spans merged into one run.
  uintptr_t block = alloc.Allocate(tc, arena);
  ASSERT_NE(block, 0u);
  EXPECT_EQ(block, lowest);
  EXPECT_EQ(alloc.ArenaUsedBytes(), arena);
  std::memset(reinterpret_cast<void*>(block), 0x66, arena);
  alloc.FreeAddr(tc, block);
}

TEST(RealMemoryModeTest, AddressesInsideReturnedSpansAreUnknown) {
  RealThreadsAllocator alloc(RealConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  std::vector<uintptr_t> objs = ChurnAndDrain(alloc, tc, 256, 1000);
  const double frees =
      Metric(alloc.TelemetrySnapshot(), "allocator", "frees");

  for (uintptr_t p : {objs.front(), objs[objs.size() / 2] + 8, objs.back()}) {
    EXPECT_EQ(alloc.UsableSize(p), 0u);
    // A stale free is ignored: nothing is counted or cached.
    alloc.FreeAddr(tc, p);
  }
  EXPECT_EQ(tc->CachedObjects(), 0u);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "frees"), frees);
  EXPECT_EQ(Metric(snap, "central_free_list", "spans"), 0);
}

}  // namespace
}  // namespace wsc::tcmalloc
