// API-semantics tests for libwscmalloc.so, run with the shim linked into
// the test binary itself: the executable defines no malloc, and
// libwscmalloc precedes libc in link order, so every allocation in this
// process — including gtest's own — routes through the shim exactly as
// under LD_PRELOAD. wscmalloc_is_active() proves it.
//
// These tests pin the POSIX/glibc contract of each entry point (realloc
// grow/shrink, posix_memalign error codes, calloc overflow, zero sizes,
// usable size) rather than allocator internals, which
// tests/tcmalloc/real_threads_test.cc covers.

#include <malloc.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "gtest/gtest.h"

extern "C" {
int wscmalloc_is_active();
size_t wscmalloc_release_memory(size_t bytes);
size_t wscmalloc_stats_json(char* buf, size_t cap);
}

namespace {

// The stats JSON's "bootstrap_bytes": how much of the bootstrap arena,
// whose frees are no-ops, has been handed out so far.
size_t BootstrapBytes() {
  char buf[2048];
  wscmalloc_stats_json(buf, sizeof(buf));
  const char* field = std::strstr(buf, "\"bootstrap_bytes\":");
  if (field == nullptr) return 0;
  return std::strtoull(field + std::strlen("\"bootstrap_bytes\":"), nullptr,
                       10);
}

TEST(ShimApi, ShimIsInterposed) { EXPECT_EQ(wscmalloc_is_active(), 1); }

TEST(ShimApi, MallocZeroIsUniqueAndFreeable) {
  void* a = malloc(0);
  void* b = malloc(0);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_NE(a, b);
  free(a);
  free(b);
}

TEST(ShimApi, UsableSizeCoversRequest) {
  for (size_t size : {1ul, 7ul, 16ul, 57ul, 1024ul, 300000ul, 1048576ul}) {
    void* p = malloc(size);
    ASSERT_NE(p, nullptr) << size;
    EXPECT_GE(malloc_usable_size(p), size);
    // The full usable extent must actually be writable.
    std::memset(p, 0xAB, malloc_usable_size(p));
    free(p);
  }
  EXPECT_EQ(malloc_usable_size(nullptr), 0u);
}

TEST(ShimApi, CallocZeroesAndRejectsOverflow) {
  constexpr size_t kN = 1000;
  unsigned char* p = static_cast<unsigned char*>(calloc(kN, 7));
  ASSERT_NE(p, nullptr);
  for (size_t i = 0; i < kN * 7; ++i) ASSERT_EQ(p[i], 0) << i;
  free(p);

  errno = 0;
  volatile size_t overflow_n = SIZE_MAX / 2;  // opaque to -Walloc-size
  EXPECT_EQ(calloc(overflow_n, 3), nullptr);
  EXPECT_EQ(errno, ENOMEM);
}

TEST(ShimApi, ReallocGrowsPreservingContents) {
  char* p = static_cast<char*>(malloc(64));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x5C, 64);
  // Grow through several classes and into the large path.
  for (size_t size : {128ul, 4096ul, 300000ul}) {
    p = static_cast<char*>(realloc(p, size));
    ASSERT_NE(p, nullptr) << size;
    for (size_t i = 0; i < 64; ++i) ASSERT_EQ(p[i], 0x5C) << size << ":" << i;
    EXPECT_GE(malloc_usable_size(p), size);
  }
  free(p);
}

TEST(ShimApi, ReallocShrinkInPlaceWhenClose) {
  char* p = static_cast<char*>(malloc(1024));
  ASSERT_NE(p, nullptr);
  std::memset(p, 0x11, 1024);
  const size_t usable = malloc_usable_size(p);
  // A shrink that still fits the same class must not move the block.
  char* q = static_cast<char*>(realloc(p, usable - 8));
  EXPECT_EQ(q, p);
  free(q);
}

TEST(ShimApi, ReallocNullAndZeroEdges) {
  // realloc(nullptr, n) == malloc(n).
  void* p = realloc(nullptr, 48);
  ASSERT_NE(p, nullptr);
  // realloc(p, 0) frees and returns nullptr (glibc behaviour).
  EXPECT_EQ(realloc(p, 0), nullptr);
}

TEST(ShimApi, ReallocArrayRejectsOverflow) {
  errno = 0;
  volatile size_t overflow_n = SIZE_MAX / 4;  // opaque to -Walloc-size
  EXPECT_EQ(reallocarray(nullptr, overflow_n, 8), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  void* p = reallocarray(nullptr, 16, 32);
  ASSERT_NE(p, nullptr);
  EXPECT_GE(malloc_usable_size(p), 512u);
  free(p);
}

TEST(ShimApi, PosixMemalignSweep) {
  for (size_t align = sizeof(void*); align <= (size_t{4} << 20); align *= 2) {
    for (size_t size : {1ul, 64ul, 4096ul, 300000ul}) {
      void* p = nullptr;
      ASSERT_EQ(posix_memalign(&p, align, size), 0)
          << "align=" << align << " size=" << size;
      ASSERT_NE(p, nullptr);
      EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % align, 0u)
          << "align=" << align << " size=" << size;
      std::memset(p, 0x77, size);
      free(p);
    }
  }
}

TEST(ShimApi, PosixMemalignErrorCodes) {
  void* p = reinterpret_cast<void*>(0x1);
  // Non-power-of-two and sub-pointer alignments are EINVAL, p untouched.
  EXPECT_EQ(posix_memalign(&p, 3, 64), EINVAL);
  EXPECT_EQ(posix_memalign(&p, sizeof(void*) / 2, 64), EINVAL);
  EXPECT_EQ(p, reinterpret_cast<void*>(0x1));
}

TEST(ShimApi, AlignedAllocAndValloc) {
  void* p = aligned_alloc(256, 512);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 256, 0u);
  free(p);

  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  p = valloc(100);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % page, 0u);
  free(p);

  // pvalloc rounds the size up to a whole page.
  p = pvalloc(1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % page, 0u);
  EXPECT_GE(malloc_usable_size(p), page);
  free(p);
}

TEST(ShimApi, AbsurdSizeFailsWithEnomem) {
  errno = 0;
  EXPECT_EQ(malloc(size_t{1} << 60), nullptr);
  EXPECT_EQ(errno, ENOMEM);
  // The allocator must remain serviceable after an OOM refusal.
  void* p = malloc(64);
  ASSERT_NE(p, nullptr);
  free(p);
}

TEST(ShimApi, StatsJsonIsWellFormedAndBalances) {
  char buf[2048];
  const size_t n = wscmalloc_stats_json(buf, sizeof(buf));
  ASSERT_GT(n, 0u);
  ASSERT_LT(n, sizeof(buf));
  EXPECT_EQ(buf[0], '{');
  EXPECT_EQ(buf[n - 1], '}');
  EXPECT_NE(std::strstr(buf, "\"active\":true"), nullptr) << buf;
  EXPECT_NE(std::strstr(buf, "\"allocations\":"), nullptr) << buf;
}

// The stats snapshot allocates through the allocator itself, so a caller
// polling it never grows the bootstrap arena.
TEST(ShimApi, StatsJsonDoesNotGrowBootstrapArena) {
  const size_t before = BootstrapBytes();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 100000; ++i) BootstrapBytes();
  EXPECT_EQ(BootstrapBytes(), before);
}

// The large path and its madvise release keep their bookkeeping in the
// freed ranges themselves: churning them allocates no metadata.
TEST(ShimApi, LargeChurnAndReleaseDoNotGrowBootstrapArena) {
  constexpr size_t kBlock = 1 << 20;
  constexpr int kBlocks = 64;
  void* blocks[kBlocks];
  const size_t before = BootstrapBytes();
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < kBlocks; ++i) {
      // Vary the sizes so reuse both splits and exactly fits ranges.
      blocks[i] = malloc(kBlock + (i % 4) * 8192);
      ASSERT_NE(blocks[i], nullptr);
    }
    for (int i = 0; i < kBlocks; ++i) free(blocks[i]);
    wscmalloc_release_memory(~size_t{0});
  }
  EXPECT_EQ(BootstrapBytes(), before);
}

TEST(ShimApi, ReleaseMemoryReturnsConfirmedBytes) {
  // Build a releasable large population, free it, then release: the
  // confirmed count must be page-granular and not exceed what was freed.
  constexpr size_t kBlock = 1 << 20;
  constexpr int kBlocks = 32;
  void* blocks[kBlocks];
  for (int i = 0; i < kBlocks; ++i) {
    blocks[i] = malloc(kBlock);
    ASSERT_NE(blocks[i], nullptr);
    std::memset(blocks[i], 0xEF, kBlock);
  }
  for (int i = 0; i < kBlocks; ++i) free(blocks[i]);
  const size_t released = wscmalloc_release_memory(~size_t{0});
  EXPECT_GT(released, 0u);
  EXPECT_EQ(released % 4096, 0u);
  // A second sweep with nothing new freed confirms nothing twice.
  EXPECT_EQ(wscmalloc_release_memory(~size_t{0}), 0u);
}

}  // namespace
