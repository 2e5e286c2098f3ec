// Tests for the real-threads allocator on its real-memory backing: the
// one-mode contract, object conservation under a genuine multi-thread
// alloc/free storm with cross-thread frees, the sharded refill path
// (including cross-shard work stealing), the LUT size-class lookup, the
// large path's footprint and its release under concurrent frees, and
// telemetry. The backing, the page directory and madvise release are
// covered in real_memory_mode_test.cc. The storm tests are the ones the
// CI sanitizer jobs (TSan/ASan) run to prove the lock-free fast path
// race-free rather than assuming it.

#include "tcmalloc/real_threads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tcmalloc/config.h"
#include "tcmalloc/memory_backing.h"
#include "tcmalloc/pages.h"
#include "tcmalloc/size_classes.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {
namespace {

AllocatorConfig TestConfig() {
  return AllocatorConfig::Builder().WithVcpus(4).WithRealMemory().Build();
}

double Metric(const telemetry::Snapshot& snap, const char* component,
              const char* name) {
  const telemetry::MetricSample* sample = snap.Find(component, name);
  return sample != nullptr ? sample->ScalarValue() : -1.0;
}

// ---- The one-mode contract: this allocator runs only on real memory.

TEST(RealThreadsAllocatorDeathTest, ConfigWithoutRealMemoryIsFatal) {
  AllocatorConfig config = AllocatorConfig::Builder().WithVcpus(4).Build();
  EXPECT_DEATH(RealThreadsAllocator(config, 1), "real_memory");
}

// The flat LUT must agree with a straight linear scan of the class table
// for every size in the small range, and reject 0 and > kMaxSmallSize.
TEST(RealThreadsSizeLut, MatchesReferenceLookupEverywhere) {
  const SizeClasses& sc = SizeClasses::Default();
  EXPECT_EQ(sc.ClassFor(0), -1);
  EXPECT_EQ(sc.ClassFor(kMaxSmallSize + 1), -1);
  EXPECT_EQ(sc.ClassFor(~size_t{0}), -1);
  int reference = 0;
  for (size_t size = 1; size <= kMaxSmallSize; ++size) {
    while (sc.class_size(reference) < size) ++reference;
    ASSERT_EQ(sc.ClassFor(size), reference) << "size=" << size;
  }
  EXPECT_EQ(sc.ClassFor(kMaxSmallSize), sc.num_classes() - 1);
}

TEST(RealThreadsAllocatorTest, SingleThreadRoundTrip) {
  AllocatorConfig config = TestConfig();
  RealThreadsAllocator alloc(config, 1);
  RealThreadCache* tc = alloc.RegisterThread();

  std::vector<uintptr_t> objs;
  for (int i = 0; i < 1000; ++i) {
    objs.push_back(alloc.Allocate(tc, 64));
  }
  // Addresses are distinct while live.
  std::vector<uintptr_t> sorted = objs;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  for (uintptr_t obj : objs) alloc.Free(tc, obj, 64);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"), 1000);
  EXPECT_EQ(Metric(snap, "allocator", "frees"), 1000);
  EXPECT_EQ(Metric(snap, "allocator", "live_objects"), 0);
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
}

// allocated == freed + live, and every carved object is accounted for in
// some cache tier — nothing leaks, nothing is double-tracked. Every object
// carries a tag in its first and last aligned word from allocation to
// free, so two live blocks that overlapped, or a freelist link written
// into a live block, would show up as a clobbered tag.
TEST(RealThreadsAllocatorTest, ConservationAfterStorm) {
  constexpr int kThreads = 4;
  constexpr uint64_t kOpsPerThread = 20000;
  AllocatorConfig config = TestConfig();
  RealThreadsAllocator alloc(config, kThreads);
  std::atomic<uint64_t> clobbered{0};

  auto tag = [](uintptr_t addr) { return addr ^ 0x5eed5eed5eed5eedull; };
  auto last_word = [](uintptr_t addr, uint32_t size) {
    return reinterpret_cast<uint64_t*>(
        addr + ((size - sizeof(uint64_t)) & ~(sizeof(uint64_t) - 1)));
  };
  auto write_tags = [&](uintptr_t addr, uint32_t size) {
    *reinterpret_cast<uint64_t*>(addr) = tag(addr);
    *last_word(addr, size) = tag(addr);
  };
  auto checked_free = [&](RealThreadCache* tc, uintptr_t addr,
                          uint32_t size) {
    if (*reinterpret_cast<uint64_t*>(addr) != tag(addr) ||
        *last_word(addr, size) != tag(addr)) {
      clobbered.fetch_add(1, std::memory_order_relaxed);
    }
    alloc.Free(tc, addr, size);
  };

  // Cross-thread frees via mutex-guarded mailboxes: thread t posts every
  // 8th object to thread (t+1) % N, and drains its own mailbox as it
  // goes. The mutex is test scaffolding, not the allocator under test.
  struct Mailbox {
    std::mutex mu;
    std::vector<std::pair<uintptr_t, uint32_t>> objects;
  };
  std::vector<Mailbox> mailboxes(kThreads);

  auto worker = [&](int tid) {
    RealThreadCache* tc = alloc.RegisterThread();
    Rng rng(1234 + tid);
    std::vector<std::pair<uintptr_t, uint32_t>> local;
    for (uint64_t op = 0; op < kOpsPerThread; ++op) {
      uint32_t size = static_cast<uint32_t>(8 + rng.UniformInt(8192));
      uintptr_t obj = alloc.Allocate(tc, size);
      ASSERT_NE(obj, 0u);
      write_tags(obj, size);
      if (op % 8 == 0) {
        std::lock_guard<std::mutex> guard(mailboxes[(tid + 1) % kThreads].mu);
        mailboxes[(tid + 1) % kThreads].objects.emplace_back(obj, size);
      } else {
        local.emplace_back(obj, size);
        if (local.size() > 256) {
          size_t victim = rng.UniformInt(local.size());
          checked_free(tc, local[victim].first, local[victim].second);
          local[victim] = local.back();
          local.pop_back();
        }
      }
      if (op % 32 == 0) {
        std::vector<std::pair<uintptr_t, uint32_t>> inbox;
        {
          std::lock_guard<std::mutex> guard(mailboxes[tid].mu);
          inbox.swap(mailboxes[tid].objects);
        }
        for (const auto& [addr, sz] : inbox) checked_free(tc, addr, sz);
      }
    }
    for (const auto& [addr, sz] : local) checked_free(tc, addr, sz);
  };

  std::vector<std::thread> pool;
  for (int tid = 0; tid < kThreads; ++tid) pool.emplace_back(worker, tid);
  for (std::thread& t : pool) t.join();

  // Objects still in mailboxes when their owner finished: freed here.
  RealThreadCache* main_tc = alloc.RegisterThread();
  for (Mailbox& mailbox : mailboxes) {
    for (const auto& [addr, sz] : mailbox.objects) {
      checked_free(main_tc, addr, sz);
    }
  }

  EXPECT_EQ(clobbered.load(), 0u);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  double allocations = Metric(snap, "allocator", "allocations");
  double frees = Metric(snap, "allocator", "frees");
  EXPECT_EQ(allocations, kThreads * kOpsPerThread);
  EXPECT_EQ(allocations, frees);
  EXPECT_EQ(Metric(snap, "allocator", "live_objects"), 0);
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
  // Every carved small object is cached somewhere (thread caches were
  // not flushed, so objects sit across all three tiers).
  EXPECT_EQ(Metric(snap, "allocator", "carved_objects"),
            Metric(snap, "allocator", "cached_objects"));
  // Footprint sanity: the heap is fully freed, so the footprint is the
  // carved spans only, bounded far below the bytes churned.
  double footprint = Metric(snap, "allocator", "footprint_bytes");
  EXPECT_GT(footprint, 0);
  EXPECT_LT(footprint, 256.0 * 1024 * 1024);
  EXPECT_EQ(Metric(snap, "thread_cache", "registered_threads"),
            kThreads + 1);
}

// Two caches on different shards, single OS thread (deterministic): when
// shard B runs dry it must steal shard A's free objects instead of
// carving fresh spans — the Snippet 1 regression this design exists to
// avoid.
TEST(RealThreadsAllocatorTest, CrossShardWorkStealing) {
  AllocatorConfig config = TestConfig();
  RealThreadsAllocator alloc(config, /*expected_threads=*/2);
  ASSERT_EQ(alloc.num_shards(), 2);
  RealThreadCache* a = alloc.RegisterThread();  // shard 0
  RealThreadCache* b = alloc.RegisterThread();  // shard 1
  ASSERT_NE(a->shard, b->shard);

  constexpr int kObjects = 10000;
  std::vector<uintptr_t> objs;
  objs.reserve(kObjects);
  for (int i = 0; i < kObjects; ++i) objs.push_back(alloc.Allocate(a, 96));
  for (uintptr_t obj : objs) alloc.Free(a, obj, 96);
  alloc.FlushThreadCache(a);  // push A's cache down to shard 0's stores
  size_t carved_before = alloc.ArenaUsedBytes();

  objs.clear();
  for (int i = 0; i < kObjects; ++i) objs.push_back(alloc.Allocate(b, 96));
  for (uintptr_t obj : objs) alloc.Free(b, obj, 96);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_GT(Metric(snap, "contention", "work_steals"), 0);
  EXPECT_GT(Metric(snap, "contention", "stolen_objects"), 0);
  // B's run was served mostly by stealing A's freed objects: the arena
  // grew by at most a quarter of the first phase's carving.
  size_t grown = alloc.ArenaUsedBytes() - carved_before;
  EXPECT_LT(grown, carved_before / 4);
}

TEST(RealThreadsAllocatorTest, LargeObjectsBypassClassesAndComeBack) {
  AllocatorConfig config = TestConfig();
  RealThreadsAllocator alloc(config, 1);
  RealThreadCache* tc = alloc.RegisterThread();

  size_t small_footprint = alloc.FootprintBytes();
  std::vector<std::pair<uintptr_t, size_t>> objs;
  for (int i = 0; i < 64; ++i) {
    size_t size = kMaxSmallSize + 1 + static_cast<size_t>(i) * 4096;
    objs.emplace_back(alloc.Allocate(tc, size), size);
  }
  EXPECT_GT(alloc.FootprintBytes(), small_footprint);
  for (const auto& [addr, size] : objs) alloc.Free(tc, addr, size);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "large_allocations"), 64);
  EXPECT_EQ(Metric(snap, "allocator", "large_frees"), 64);
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
  // Freed large ranges stay resident on the pending list until released.
  EXPECT_GT(alloc.FootprintBytes(), small_footprint);
  EXPECT_GT(alloc.ReleaseMemoryToSystem(~size_t{0}), 0u);
  EXPECT_EQ(alloc.FootprintBytes(), small_footprint);
}

// Large blocks churned by several threads while their frees trigger eager
// releases and another thread forces more. Each pending range's released
// flag, under the large-pool lock, is the only record of what is
// released: a live block must never be madvised (its tags would read
// zero), and every recommitted byte must have been released first.
TEST(RealThreadsAllocatorTest, ConcurrentLargeChurnWithRelease) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 200;
  RealThreadsAllocator alloc(TestConfig(), kThreads);
  alloc.SetLargeReleaseThreshold(size_t{2} << 20);
  std::atomic<uint64_t> clobbered{0};
  std::atomic<bool> done{false};

  auto last_word = [](uintptr_t addr, size_t size) {
    return reinterpret_cast<uint64_t*>(addr + ((size - 8) & ~size_t{7}));
  };
  auto worker = [&](int tid) {
    RealThreadCache* tc = alloc.RegisterThread();
    Rng rng(99 + tid);
    std::vector<std::pair<uintptr_t, size_t>> live;
    auto checked_free = [&](uintptr_t addr, size_t size) {
      if (*reinterpret_cast<uint64_t*>(addr) != addr ||
          *last_word(addr, size) != addr) {
        clobbered.fetch_add(1, std::memory_order_relaxed);
      }
      alloc.Free(tc, addr, size);
    };
    for (int round = 0; round < kRounds; ++round) {
      size_t size = kMaxSmallSize + 1 + rng.UniformInt(size_t{1} << 20);
      uintptr_t addr = alloc.Allocate(tc, size);
      ASSERT_NE(addr, 0u);
      *reinterpret_cast<uint64_t*>(addr) = addr;
      *last_word(addr, size) = addr;
      live.emplace_back(addr, size);
      if (live.size() > 4) {
        size_t victim = rng.UniformInt(live.size());
        checked_free(live[victim].first, live[victim].second);
        live[victim] = live.back();
        live.pop_back();
      }
    }
    for (const auto& [addr, size] : live) checked_free(addr, size);
  };
  std::thread releaser([&] {
    while (!done.load(std::memory_order_relaxed)) {
      alloc.ReleaseMemoryToSystem(size_t{1} << 20);
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> pool;
  for (int tid = 0; tid < kThreads; ++tid) pool.emplace_back(worker, tid);
  for (std::thread& t : pool) t.join();
  done.store(true, std::memory_order_relaxed);
  releaser.join();

  EXPECT_EQ(clobbered.load(), 0u);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "large_allocations"),
            kThreads * kRounds);
  EXPECT_EQ(Metric(snap, "allocator", "large_frees"), kThreads * kRounds);
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
  EXPECT_GT(Metric(snap, "system", "released_bytes"), 0);
  EXPECT_LE(Metric(snap, "system", "recommitted_bytes"),
            Metric(snap, "system", "released_bytes"));
}

TEST(RealThreadsAllocatorTest, FlushReturnsEverythingToMiddleEnd) {
  AllocatorConfig config = TestConfig();
  RealThreadsAllocator alloc(config, 1);
  RealThreadCache* tc = alloc.RegisterThread();
  for (int i = 0; i < 500; ++i) {
    alloc.Free(tc, alloc.Allocate(tc, 128), 128);
  }
  EXPECT_GT(tc->CachedObjects(), 0u);
  alloc.FlushThreadCache(tc);
  EXPECT_EQ(tc->CachedObjects(), 0u);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "thread_cache", "cached_objects"), 0);
  // Conservation still holds with everything pushed down.
  EXPECT_EQ(Metric(snap, "allocator", "carved_objects"),
            Metric(snap, "allocator", "cached_objects"));
}

TEST(RealThreadsAllocatorTest, TelemetryExportsContentionComponent) {
  AllocatorConfig config = TestConfig();
  RealThreadsAllocator alloc(config, 2, &SizeClasses::Default(),
                             /*num_shards=*/2);
  RealThreadCache* tc = alloc.RegisterThread();
  for (int i = 0; i < 2000; ++i) {
    alloc.Free(tc, alloc.Allocate(tc, 4096), 4096);
  }
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  // The components check_bench_json.py requires for real-threads lines.
  EXPECT_GT(snap.ComponentTotal("contention"), 0);
  EXPECT_GT(Metric(snap, "contention", "cfl_lock_acquisitions"), 0);
  EXPECT_GE(Metric(snap, "contention", "refill_stalls"), 0);
  EXPECT_GT(snap.ComponentTotal("thread_cache"), 0);
  EXPECT_GT(snap.ComponentTotal("sharded_transfer"), 0);
  EXPECT_GT(snap.ComponentTotal("sharded_cfl"), 0);
  // The fast path dominates a tight reuse loop.
  EXPECT_GT(Metric(snap, "thread_cache", "fast_alloc_hits"), 1900);
  EXPECT_GE(Metric(snap, "system", "reserved_bytes"),
            static_cast<double>(RealMemoryBacking::kMinReserveBytes));
}

}  // namespace
}  // namespace wsc::tcmalloc
