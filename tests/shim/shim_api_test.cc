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
#include <pthread.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

extern "C" {
int wscmalloc_is_active();
size_t wscmalloc_release_memory(size_t bytes);
size_t wscmalloc_stats_json(char* buf, size_t cap);
}

namespace {

// One integer field of the stats JSON.
size_t StatsField(const char* name) {
  char buf[2048];
  char key[64];
  wscmalloc_stats_json(buf, sizeof(buf));
  std::snprintf(key, sizeof(key), "\"%s\":", name);
  const char* field = std::strstr(buf, key);
  if (field == nullptr) return 0;
  return std::strtoull(field + std::strlen(key), nullptr, 10);
}

// How much of the bootstrap arena, whose frees are no-ops, has been
// handed out so far.
size_t BootstrapBytes() { return StatsField("bootstrap_bytes"); }

// Thread caches in use: one per live thread that has called malloc.
size_t Threads() { return StatsField("threads"); }

// This process's resident set, in KiB.
long VmRssKb() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  long kb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmRSS: %ld kB", &kb) == 1) break;
  }
  std::fclose(f);
  return kb;
}

// Hides a size from the compiler, which warns about allocation calls it
// can prove too large.
size_t Opaque(size_t size) {
  volatile size_t v = size;
  return v;
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

// Sizes near SIZE_MAX fail with ENOMEM through every entry point rather
// than wrapping into an undersized block or one that aliases the next.
TEST(ShimApi, AbsurdSizeFailsWithEnomem) {
  char* keep = static_cast<char*>(malloc(64));
  ASSERT_NE(keep, nullptr);
  std::memset(keep, 0x6B, 64);
  std::vector<void*> returned;
  auto expect_enomem = [&returned](const char* call, auto allocate) {
    errno = 0;
    void* p = allocate();
    EXPECT_EQ(p, nullptr) << call;
    EXPECT_EQ(errno, ENOMEM) << call;
    if (p != nullptr) returned.push_back(p);
  };
  expect_enomem("malloc(2^60)", [] { return malloc(Opaque(size_t{1} << 60)); });
  expect_enomem("malloc(SIZE_MAX)", [] { return malloc(Opaque(SIZE_MAX)); });
  expect_enomem("malloc(SIZE_MAX - 8192)",
                [] { return malloc(Opaque(SIZE_MAX - 8192)); });
  expect_enomem("pvalloc(SIZE_MAX - 100)",
                [] { return pvalloc(Opaque(SIZE_MAX - 100)); });
  expect_enomem("aligned_alloc(64, SIZE_MAX - 10)",
                [] { return aligned_alloc(64, Opaque(SIZE_MAX - 10)); });
  expect_enomem("posix_memalign(1 MiB, SIZE_MAX - 100)", [] {
    void* p = nullptr;
    errno = posix_memalign(&p, size_t{1} << 20, Opaque(SIZE_MAX - 100));
    return p;
  });
  expect_enomem("realloc(keep, SIZE_MAX)",
                [keep] { return realloc(keep, Opaque(SIZE_MAX)); });
  expect_enomem("calloc(1, SIZE_MAX)",
                [] { return calloc(1, Opaque(SIZE_MAX)); });

  // The allocator stays serviceable, the failed realloc left its block
  // alone, and nothing handed out above aliases the next block.
  char* next = static_cast<char*>(malloc(64));
  ASSERT_NE(next, nullptr);
  returned.push_back(keep);
  for (void* p : returned) {
    char* begin = static_cast<char*>(p);
    EXPECT_FALSE(next + 64 > begin && next < begin + 64) << p;
  }
  for (int i = 0; i < 64; ++i) ASSERT_EQ(keep[i], 0x6B) << i;
  free(next);
  free(keep);
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

// A thread's exit returns its cache and the next thread reuses it, so
// churning threads one at a time grows neither RSS nor the registry, and
// a reused cache allocates no bootstrap metadata.
TEST(ShimApi, ThreadChurnKeepsMemoryBounded) {
  constexpr int kThreads = 2000;
  constexpr int kWarmThreads = 200;
  const size_t threads_before = Threads();
  long rss_warm_kb = 0;
  size_t boot_warm = 0;
  for (int i = 0; i < kThreads; ++i) {
    std::thread([i] {
      void* blocks[64];
      for (int j = 0; j < 64; ++j) {
        const size_t size = 16 + (j * 997 + i * 31) % 2033;  // 16 B-2 KiB
        blocks[j] = malloc(size);
        ASSERT_NE(blocks[j], nullptr);
        std::memset(blocks[j], j, size);
      }
      for (void* p : blocks) free(p);
    }).join();
    if (i + 1 == kWarmThreads) {
      rss_warm_kb = VmRssKb();
      boot_warm = BootstrapBytes();
    }
  }
  ASSERT_GT(rss_warm_kb, 0);
  EXPECT_LT(VmRssKb() - rss_warm_kb, 8 * 1024);
  EXPECT_EQ(BootstrapBytes(), boot_warm);
  EXPECT_EQ(Threads(), threads_before);
}

// A thread can still malloc and free after the shim's key destructor has
// returned its cache: a later key's destructor does, and so does glibc
// when __libc_thread_freeres frees the thread's strerror buffer. Those
// calls borrow a cache and give it back.
pthread_key_t g_late_key;

TEST(ShimApi, CallsAfterThreadExitDoNotGrowRegistry) {
  // The shim creates its key with the allocator, before main, so this key
  // comes later and its destructor runs after the shim's.
  ASSERT_EQ(pthread_key_create(&g_late_key,
                               [](void* block) {
                                 void* p = malloc(200);
                                 std::memset(p, 1, 200);
                                 free(p);
                                 free(block);
                               }),
            0);
  auto body = [] {
    pthread_setspecific(g_late_key, malloc(64));
    // An unknown errno: glibc formats the message into a per-thread
    // buffer it mallocs, and frees it only after the key destructors.
    EXPECT_NE(strerror(Opaque(123456)), nullptr);
  };
  std::thread(body).join();  // one-time glibc allocations happen here
  const size_t threads_before = Threads();
  const size_t boot_before = BootstrapBytes();
  for (int i = 0; i < 500; ++i) std::thread(body).join();
  EXPECT_EQ(Threads(), threads_before);
  EXPECT_EQ(BootstrapBytes(), boot_before);
  pthread_key_delete(g_late_key);
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
