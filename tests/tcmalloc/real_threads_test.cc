// Tests for the real-threads allocator on its real-memory backing: the
// one-mode contract, object conservation under a genuine multi-thread
// alloc/free storm with cross-thread frees, refills through the one
// transfer cache and central free list per class, the transfer cache's
// capacity, the LUT size-class lookup, the large path's footprint and its
// release under concurrent frees, the reuse of unregistered caches across
// thread churn, spans coming back after a storm, and telemetry. The
// backing, the page directory, single-thread span lifecycles and madvise
// release are covered in real_memory_mode_test.cc. The storm tests are
// the ones the CI sanitizer jobs (TSan/ASan) run to prove the lock-free
// fast path race-free rather than assuming it.

#include "tcmalloc/real_threads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iterator>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "tcmalloc/config.h"
#include "tcmalloc/memory_backing.h"
#include "tcmalloc/pages.h"
#include "tcmalloc/size_classes.h"
#include "tcmalloc/transfer_cache.h"
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

// Two caches, single OS thread (deterministic): the objects A freed must
// refill B before the heap grows — through the class's transfer cache,
// its one central free list and the spans that list gives back to the
// page heap — not strand where B cannot reach them while B grows the heap
// (the Snippet 1 regression). Nothing steals any more.
TEST(RealThreadsAllocatorTest, ObjectsFreedByOneCacheRefillAnother) {
  AllocatorConfig config = TestConfig();
  RealThreadsAllocator alloc(config, /*expected_threads=*/2);
  RealThreadCache* a = alloc.RegisterThread();
  RealThreadCache* b = alloc.RegisterThread();

  constexpr int kObjects = 10000;
  std::vector<uintptr_t> objs;
  objs.reserve(kObjects);
  for (int i = 0; i < kObjects; ++i) objs.push_back(alloc.Allocate(a, 96));
  for (uintptr_t obj : objs) alloc.Free(a, obj, 96);
  alloc.FlushThreadCache(a);  // push A's cache down to the central list
  size_t carved_before = alloc.ArenaUsedBytes();

  objs.clear();
  for (int i = 0; i < kObjects; ++i) objs.push_back(alloc.Allocate(b, 96));
  for (uintptr_t obj : objs) alloc.Free(b, obj, 96);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "contention", "work_steals"), 0);
  EXPECT_EQ(Metric(snap, "contention", "stolen_objects"), 0);
  EXPECT_GT(Metric(snap, "central_free_list", "returned_spans"), 0);
  // B's run was served mostly by what A freed: the arena grew by at most
  // a quarter of the first phase's carving.
  size_t grown = alloc.ArenaUsedBytes() - carved_before;
  EXPECT_LT(grown, carved_before / 4);
}

// One OS thread, two caches: the batch A pushes down when its list
// overflows is exactly what B's next refill receives. Every thread
// shares the class's one transfer cache, so no cache's refill misses
// objects another cache left there.
TEST(RealThreadsAllocatorTest, BatchOneCachePushesDownRefillsAnother) {
  RealThreadsAllocator alloc(TestConfig(), /*expected_threads=*/2);
  RealThreadCache* a = alloc.RegisterThread();
  RealThreadCache* b = alloc.RegisterThread();
  const SizeClasses& sc = SizeClasses::Default();
  const int cls = sc.ClassFor(96);
  const int batch = sc.batch_size(cls);

  // A frees one batch more than its list holds: exactly one overflow,
  // which pushes one batch down.
  std::vector<uintptr_t> objs;
  for (uint32_t i = 0; i < a->lists[cls].cap + batch; ++i) {
    objs.push_back(alloc.Allocate(a, 96));
  }
  for (uintptr_t obj : objs) alloc.Free(a, obj, 96);
  std::vector<uintptr_t> kept;
  for (uintptr_t obj = a->lists[cls].head; obj != 0;
       obj = *reinterpret_cast<uintptr_t*>(obj)) {
    kept.push_back(obj);
  }
  std::sort(objs.begin(), objs.end());
  std::sort(kept.begin(), kept.end());
  std::vector<uintptr_t> pushed;
  std::set_difference(objs.begin(), objs.end(), kept.begin(), kept.end(),
                      std::back_inserter(pushed));
  ASSERT_EQ(pushed.size(), static_cast<size_t>(batch));
  const size_t arena = alloc.ArenaUsedBytes();

  std::vector<uintptr_t> refilled;
  for (int i = 0; i < batch; ++i) refilled.push_back(alloc.Allocate(b, 96));
  std::sort(refilled.begin(), refilled.end());
  EXPECT_EQ(refilled, pushed);
  EXPECT_EQ(alloc.ArenaUsedBytes(), arena);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "transfer_cache", "inserts_accepted"), batch);
  EXPECT_EQ(Metric(snap, "sharded_transfer", "removed_objects"), batch);
  EXPECT_EQ(Metric(snap, "transfer_cache", "cached_bytes"), 0);
}

// The 70 KiB class's transfer cache holds at most the simulator's rule,
// min(64 batches, max(2 batches, 512 KiB / 70 KiB)) = 7 objects, however
// many objects are freed; the rest go back to the central free list.
TEST(RealThreadsAllocatorTest, TransferCacheHoldsAtMostTheOraclesCapacity) {
  constexpr size_t kSize = 70 * 1024;
  const AllocatorConfig config = TestConfig();
  const SizeClasses& sc = SizeClasses::Default();
  const int cls = sc.ClassFor(kSize);
  ASSERT_EQ(sc.class_size(cls), kSize);
  ASSERT_EQ(TransferCacheCapacity(sc, config, cls), 7u);
  RealThreadsAllocator alloc(config, /*expected_threads=*/4);
  RealThreadCache* tc = alloc.RegisterThread();

  std::vector<uintptr_t> objs;
  for (int i = 0; i < 64; ++i) objs.push_back(alloc.Allocate(tc, kSize));
  double most = 0;
  for (uintptr_t obj : objs) {
    alloc.Free(tc, obj, kSize);
    telemetry::Snapshot snap = alloc.TelemetrySnapshot();
    most = std::max(most, Metric(snap, "transfer_cache", "cached_bytes"));
  }
  EXPECT_EQ(most, 7.0 * kSize);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "transfer_cache", "cached_bytes"), 7.0 * kSize);
  // Every object the thread cache pushed down was accepted or spilled.
  EXPECT_EQ(Metric(snap, "transfer_cache", "inserts_accepted") +
                Metric(snap, "transfer_cache", "inserts_overflowed"),
            64 - static_cast<double>(tc->lists[cls].count));
  EXPECT_GT(Metric(snap, "transfer_cache", "inserts_overflowed"), 0);
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
  // Freed large blocks stay resident in the page heap until released.
  EXPECT_GT(alloc.FootprintBytes(), small_footprint);
  EXPECT_GT(alloc.ReleaseMemoryToSystem(~size_t{0}), 0u);
  EXPECT_EQ(alloc.FootprintBytes(), small_footprint);
}

// Large blocks churned by several threads while their frees trigger eager
// releases and another thread forces more. Each free run's released
// state, under the page-heap lock, is the only record of what is
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

// Thread churn: waves of threads that each register, churn mixed sizes
// while handing every 8th object to the next thread, and unregister. An
// unregistered cache is flushed and parked, and the next wave reuses it,
// so the registry stays at one wave's width and later waves refill from
// what earlier ones flushed instead of carving. A wave's threads hold
// their peak live sets at the same time, so every wave, the first
// included, needs the same memory at its peak.
TEST(RealThreadsAllocatorTest, UnregisteredCachesAreReused) {
  constexpr int kThreads = 4;
  constexpr int kWaves = 8;
  constexpr int kOpsPerThread = 10000;
  // Live objects a thread keeps. Large enough that a wave's memory is
  // set by its live sets, not by which caches happen to hold free
  // objects when another thread refills.
  constexpr size_t kLiveObjects = 2048;
  RealThreadsAllocator alloc(TestConfig(), kThreads);

  // Objects handed to thread slot t. Its thread drains them as it goes;
  // what is left goes to the next wave's thread in that slot, and the
  // main thread frees what the last wave left.
  struct Mailbox {
    std::mutex mu;
    std::vector<std::pair<uintptr_t, uint32_t>> objects;
  };
  std::vector<Mailbox> mailboxes(kThreads);
  std::mutex seen_mu;
  std::vector<RealThreadCache*> seen;  // every cache a thread was given

  auto worker = [&](int tid, std::barrier<>& peak) {
    RealThreadCache* tc = alloc.RegisterThread();
    {
      std::lock_guard<std::mutex> guard(seen_mu);
      if (std::find(seen.begin(), seen.end(), tc) == seen.end()) {
        seen.push_back(tc);
      }
    }
    Rng rng(4321 + tid);  // every wave replays the same streams
    std::vector<std::pair<uintptr_t, uint32_t>> local;
    auto drain = [&] {
      std::vector<std::pair<uintptr_t, uint32_t>> inbox;
      {
        std::lock_guard<std::mutex> guard(mailboxes[tid].mu);
        inbox.swap(mailboxes[tid].objects);
      }
      for (const auto& [addr, size] : inbox) alloc.Free(tc, addr, size);
    };
    for (int op = 0; op < kOpsPerThread; ++op) {
      uint32_t size = static_cast<uint32_t>(8 + rng.UniformInt(4096));
      uintptr_t obj = alloc.Allocate(tc, size);
      if (obj == 0) {
        ADD_FAILURE() << "allocation failed";
        break;  // still reach the barrier, which the others wait on
      }
      if (op % 8 == 0) {
        Mailbox& next = mailboxes[(tid + 1) % kThreads];
        std::lock_guard<std::mutex> guard(next.mu);
        next.objects.emplace_back(obj, size);
      } else {
        local.emplace_back(obj, size);
        if (local.size() > kLiveObjects) {
          size_t victim = rng.UniformInt(local.size());
          alloc.Free(tc, local[victim].first, local[victim].second);
          local[victim] = local.back();
          local.pop_back();
        }
      }
      if (op % 32 == 0) drain();
    }
    peak.arrive_and_wait();
    for (const auto& [addr, size] : local) alloc.Free(tc, addr, size);
    drain();
    alloc.UnregisterThread(tc);
  };

  size_t wave1_arena = 0;
  for (int wave = 0; wave < kWaves; ++wave) {
    std::barrier peak(kThreads);
    std::vector<std::thread> pool;
    for (int tid = 0; tid < kThreads; ++tid) {
      pool.emplace_back(worker, tid, std::ref(peak));
    }
    for (std::thread& t : pool) t.join();
    if (wave == 0) wave1_arena = alloc.ArenaUsedBytes();
    EXPECT_EQ(alloc.registered_threads(), 0) << "wave " << wave;
  }
  RealThreadCache* main_tc = alloc.RegisterThread();
  for (Mailbox& mailbox : mailboxes) {
    for (const auto& [addr, size] : mailbox.objects) {
      alloc.Free(main_tc, addr, size);
    }
  }
  alloc.UnregisterThread(main_tc);

  EXPECT_LE(seen.size(), static_cast<size_t>(kThreads));
  // Later waves refilled from what earlier waves flushed.
  EXPECT_LT(alloc.ArenaUsedBytes() - wave1_arena, wave1_arena / 4);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            kWaves * kThreads * kOpsPerThread);
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            Metric(snap, "allocator", "frees"));
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
  EXPECT_EQ(Metric(snap, "allocator", "carved_objects"),
            Metric(snap, "allocator", "cached_objects"));
  EXPECT_EQ(Metric(snap, "thread_cache", "cached_objects"), 0);
  EXPECT_EQ(Metric(snap, "thread_cache", "registered_threads"), 0);
  EXPECT_LE(Metric(snap, "thread_cache", "idle_caches"), kThreads);
  EXPECT_GT(Metric(snap, "thread_cache", "idle_caches"), 0);
}

// Four threads churn mixed sizes with cross-thread frees and then leave
// through `unregister`; the main thread registers and frees what was
// still in flight. Returns the main thread's cache.
RealThreadCache* StormThenFreeInFlight(
    RealThreadsAllocator& alloc,
    const std::function<void(RealThreadCache*)>& unregister) {
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 20000;
  struct Mailbox {
    std::mutex mu;
    std::vector<std::pair<uintptr_t, uint32_t>> objects;
  };
  std::vector<Mailbox> mailboxes(kThreads);
  auto worker = [&](int tid) {
    RealThreadCache* tc = alloc.RegisterThread();
    Rng rng(777 + tid);
    std::vector<std::pair<uintptr_t, uint32_t>> local;
    for (int op = 0; op < kOpsPerThread; ++op) {
      uint32_t size = static_cast<uint32_t>(8 + rng.UniformInt(8192));
      uintptr_t obj = alloc.Allocate(tc, size);
      ASSERT_NE(obj, 0u);
      if (op % 8 == 0) {
        Mailbox& next = mailboxes[(tid + 1) % kThreads];
        std::lock_guard<std::mutex> guard(next.mu);
        next.objects.emplace_back(obj, size);
      } else {
        local.emplace_back(obj, size);
        if (local.size() > 512) {
          size_t victim = rng.UniformInt(local.size());
          alloc.Free(tc, local[victim].first, local[victim].second);
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
        for (const auto& [addr, size] : inbox) alloc.Free(tc, addr, size);
      }
    }
    for (const auto& [addr, size] : local) alloc.Free(tc, addr, size);
    unregister(tc);
  };
  std::vector<std::thread> pool;
  for (int tid = 0; tid < kThreads; ++tid) pool.emplace_back(worker, tid);
  for (std::thread& t : pool) t.join();

  RealThreadCache* main_tc = alloc.RegisterThread();
  for (Mailbox& mailbox : mailboxes) {
    for (const auto& [addr, size] : mailbox.objects) {
      alloc.Free(main_tc, addr, size);
    }
  }
  return main_tc;
}

// The hugepages a cache's objects can pin: each object's own, and the
// neighbours its span may reach into.
std::vector<uintptr_t> HugepagesPinnedBy(const RealThreadCache& tc) {
  const SizeClasses& sc = SizeClasses::Default();
  std::vector<uintptr_t> pinned;
  for (int cls = 0; cls < sc.num_classes(); ++cls) {
    const size_t span_bytes = LengthToBytes(sc.pages_per_span(cls));
    uintptr_t obj = tc.lists[cls].head;
    for (uint32_t i = 0; i < tc.lists[cls].count; ++i) {
      for (uintptr_t addr : {obj - span_bytes + 1, obj, obj + span_bytes - 1}) {
        pinned.push_back(addr >> kHugePageShift);
      }
      obj = *reinterpret_cast<uintptr_t*>(obj);
    }
  }
  std::sort(pinned.begin(), pinned.end());
  pinned.erase(std::unique(pinned.begin(), pinned.end()), pinned.end());
  return pinned;
}

// Spans come back after a storm: four threads churn mixed sizes with
// cross-thread frees and unregister, the main thread frees what was still
// in flight, and a full release leaves the heap holding only what the
// main thread's own cache pins. Release keeps a hugepage whole while it
// is more than an eighth live, so the cache pins the hugepages its
// objects' spans lie in; once it is flushed too, nothing is left.
TEST(RealThreadsAllocatorTest, StormThenReleaseKeepsOnlyCallerPinnedSpans) {
  RealThreadsAllocator alloc(TestConfig(), 4);
  RealThreadCache* main_tc = StormThenFreeInFlight(
      alloc, [&](RealThreadCache* tc) { alloc.UnregisterThread(tc); });
  alloc.ReleaseMemoryToSystem(~size_t{0});
  EXPECT_LE(alloc.FootprintBytes(),
            HugepagesPinnedBy(*main_tc).size() * kHugePageSize);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
  EXPECT_GT(Metric(snap, "central_free_list", "returned_spans"), 0);
  EXPECT_EQ(Metric(snap, "sharded_transfer", "cached_objects"), 0);

  // With the caller's cache flushed, every span comes back and every page
  // goes to the OS.
  alloc.FlushThreadCache(main_tc);
  alloc.ReleaseMemoryToSystem(~size_t{0});
  EXPECT_EQ(alloc.FootprintBytes(), 0u);
  snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "central_free_list", "spans"), 0);
  EXPECT_EQ(Metric(snap, "central_free_list", "returned_spans"),
            Metric(snap, "central_free_list", "fetched_spans"));
  EXPECT_EQ(Metric(snap, "page_heap", "free_bytes"), 0);
  EXPECT_EQ(Metric(snap, "page_heap", "released_bytes"),
            static_cast<double>(alloc.ArenaUsedBytes()));
}

// Whole populations die while another thread keeps asking for a full
// release: each worker allocates a population of mixed small objects,
// frees it in a shuffled order and flushes its cache, so its spans go
// back to the page heap, coalesce, get released, and are fetched again
// by every thread's next population. A live page released under an
// object would zero its tags; a span handed out twice would overlap two
// live objects.
TEST(RealThreadsAllocatorTest, PopulationsDieWhileReleaseRuns) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  constexpr int kPopulation = 4096;
  RealThreadsAllocator alloc(TestConfig(), kThreads);
  std::atomic<uint64_t> clobbered{0};
  std::atomic<bool> done{false};

  auto last_word = [](uintptr_t addr, uint32_t size) {
    return reinterpret_cast<uint64_t*>(addr + ((size - 8) & ~uint32_t{7}));
  };
  auto worker = [&](int tid) {
    RealThreadCache* tc = alloc.RegisterThread();
    Rng rng(555 + tid);
    std::vector<std::pair<uintptr_t, uint32_t>> population;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kPopulation; ++i) {
        uint32_t size = static_cast<uint32_t>(8 + rng.UniformInt(8192));
        uintptr_t addr = alloc.Allocate(tc, size);
        ASSERT_NE(addr, 0u);
        *reinterpret_cast<uint64_t*>(addr) = addr;
        *last_word(addr, size) = addr;
        population.emplace_back(addr, size);
      }
      for (size_t i = population.size(); i > 1; --i) {
        std::swap(population[i - 1], population[rng.UniformInt(i)]);
      }
      for (const auto& [addr, size] : population) {
        if (*reinterpret_cast<uint64_t*>(addr) != addr ||
            *last_word(addr, size) != addr) {
          clobbered.fetch_add(1, std::memory_order_relaxed);
        }
        alloc.Free(tc, addr, size);
      }
      population.clear();
      alloc.FlushThreadCache(tc);
    }
    alloc.UnregisterThread(tc);
  };
  std::thread releaser([&] {
    while (!done.load(std::memory_order_relaxed)) {
      alloc.ReleaseMemoryToSystem(~size_t{0});
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> pool;
  for (int tid = 0; tid < kThreads; ++tid) pool.emplace_back(worker, tid);
  for (std::thread& t : pool) t.join();
  done.store(true, std::memory_order_relaxed);
  releaser.join();

  EXPECT_EQ(clobbered.load(), 0u);
  alloc.ReleaseMemoryToSystem(~size_t{0});
  EXPECT_EQ(alloc.FootprintBytes(), 0u);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
  EXPECT_EQ(Metric(snap, "central_free_list", "spans"), 0);
  EXPECT_EQ(Metric(snap, "central_free_list", "returned_spans"),
            Metric(snap, "central_free_list", "fetched_spans"));
  EXPECT_GT(Metric(snap, "system", "released_bytes"), 0);
}

// A thread that allocates a population of every small class (fewer
// objects than its cache holds, so nothing reaches the transfer caches)
// and 16 MiB of large blocks, writes them, frees them all and exits
// through `exit`. Returns what the exit released.
size_t RunPopulationThenExit(
    RealThreadsAllocator& alloc,
    const std::function<size_t(RealThreadCache*)>& exit) {
  size_t released = 0;
  std::thread([&] {
    RealThreadCache* tc = alloc.RegisterThread();
    const SizeClasses& sc = SizeClasses::Default();
    std::vector<std::pair<uintptr_t, size_t>> blocks;
    for (int cls = 0; cls < sc.num_classes(); ++cls) {
      for (int i = 0; i < sc.batch_size(cls); ++i) {
        blocks.emplace_back(alloc.Allocate(tc, sc.class_size(cls)),
                            sc.class_size(cls));
      }
    }
    for (int i = 0; i < 16; ++i) {
      blocks.emplace_back(alloc.Allocate(tc, size_t{1} << 20), size_t{1} << 20);
    }
    for (const auto& [addr, size] : blocks) {
      ASSERT_NE(addr, 0u);
      std::memset(reinterpret_cast<void*>(addr), 0x5a, size);
    }
    for (const auto& [addr, size] : blocks) alloc.Free(tc, addr, size);
    released = exit(tc);
  }).join();
  return released;
}

// A thread's exit releases what the thread's cache pinned, with no demand
// guard, so what stays resident is only what the remaining caches pin:
// the bound StormThenReleaseKeepsOnlyCallerPinnedSpans uses. Storm
// threads exit the same way while others still churn.
TEST(RealThreadsAllocatorTest, ThreadExitLeavesOnlyWhatRemainingCachesPin) {
  RealThreadsAllocator alloc(TestConfig(), 4);
  RealThreadCache* main_tc = StormThenFreeInFlight(
      alloc,
      [&](RealThreadCache* tc) { alloc.UnregisterExitingThread(tc); });
  // A zero-byte release moves the transfer caches' objects to the
  // central lists and releases nothing, so the only cache left holding
  // objects is the main thread's.
  EXPECT_EQ(alloc.ReleaseMemoryToSystem(0), 0u);

  const size_t released = RunPopulationThenExit(
      alloc, [&](RealThreadCache* tc) {
        return alloc.UnregisterExitingThread(tc);
      });
  EXPECT_GE(released, size_t{16} << 20);
  EXPECT_LE(alloc.FootprintBytes(),
            HugepagesPinnedBy(*main_tc).size() * kHugePageSize);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
  EXPECT_EQ(Metric(snap, "transfer_cache", "cached_bytes"), 0);
  // Every released byte was an exit's.
  EXPECT_EQ(Metric(snap, "page_heap", "explicit_release_bytes"), 0);
  EXPECT_EQ(Metric(snap, "page_heap", "pacer_release_bytes"), 0);
  EXPECT_EQ(Metric(snap, "page_heap", "eager_release_bytes"), 0);
  EXPECT_EQ(Metric(snap, "page_heap", "exit_release_bytes"),
            Metric(snap, "system", "released_bytes"));
}

// The shim gives a borrowed cache back (a call a thread makes after its
// exit hook ran) with a plain UnregisterThread: the flush happens, but
// nothing is released, so a late free in an exiting thread does not pay
// for a release.
TEST(RealThreadsAllocatorTest, BorrowedCacheReturnReleasesNothing) {
  RealThreadsAllocator alloc(TestConfig(), 1);
  const size_t released = RunPopulationThenExit(
      alloc, [&](RealThreadCache* tc) {
        const size_t footprint = alloc.FootprintBytes();
        alloc.UnregisterThread(tc);
        EXPECT_EQ(alloc.FootprintBytes(), footprint);
        return size_t{0};
      });
  EXPECT_EQ(released, 0u);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "thread_cache", "cached_objects"), 0);
  EXPECT_GE(Metric(snap, "page_heap", "free_bytes"), 16.0 * (1 << 20));
  EXPECT_EQ(Metric(snap, "system", "released_bytes"), 0);
}

// The demand guard keeps a peak that came and went between two ticks:
// it is a high-water mark the page heap raises on every allocation, not
// a sample taken at the ticks (a guard sampled at the ticks sees only
// the trough and releases everything at once). Once the peak has left
// the window, the next tick releases the rest.
TEST(RealThreadsAllocatorTest, TickKeepsAPeakBetweenTicksForTheWindow) {
  constexpr size_t kBlock = size_t{1} << 20;
  constexpr int kBlocks = 64;
  RealThreadsAllocator alloc(TestConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  // A small standing heap, and a first tick that closes its demand.
  std::vector<uintptr_t> standing;
  for (int i = 0; i < 1000; ++i) standing.push_back(alloc.Allocate(tc, 256));
  alloc.BackgroundTick();

  // Between this tick and the next, demand peaks at 64 MiB more and
  // falls back.
  std::vector<uintptr_t> blocks;
  for (int i = 0; i < kBlocks; ++i) {
    blocks.push_back(alloc.Allocate(tc, kBlock));
    std::memset(reinterpret_cast<void*>(blocks.back()), 1, kBlock);
  }
  for (uintptr_t addr : blocks) alloc.Free(tc, addr, kBlock);
  const size_t footprint = alloc.FootprintBytes();
  ASSERT_GE(footprint, kBlocks * kBlock);

  // For the window's ticks a return to the peak needs those pages.
  for (int i = 0; i < RealPageHeap::kDemandWindowTicks; ++i) {
    EXPECT_EQ(alloc.BackgroundTick(), 0u) << "tick " << i;
    EXPECT_EQ(alloc.FootprintBytes(), footprint) << "tick " << i;
  }
  // Then the peak leaves the window and the pages go.
  EXPECT_GE(alloc.BackgroundTick(), kBlocks * kBlock);
  EXPECT_LE(alloc.FootprintBytes(), footprint - kBlocks * kBlock);

  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "page_heap", "pacer_ticks"),
            RealPageHeap::kDemandWindowTicks + 2);
  EXPECT_GE(Metric(snap, "page_heap", "pacer_release_bytes"),
            static_cast<double>(kBlocks * kBlock));
  EXPECT_EQ(Metric(snap, "page_heap", "pacer_release_bytes"),
            Metric(snap, "system", "released_bytes"));
  for (uintptr_t addr : standing) alloc.Free(tc, addr, 256);
}

// A tick drains from each transfer cache exactly the objects that stayed
// below its low-water mark since the previous tick, the bottom of the
// stack (TransferCache::DrainCold's rule), and leaves the rest.
TEST(RealThreadsAllocatorTest, TickDrainsExactlyTheLowWaterObjects) {
  RealThreadsAllocator alloc(TestConfig(), /*expected_threads=*/2);
  RealThreadCache* a = alloc.RegisterThread();
  RealThreadCache* b = alloc.RegisterThread();
  const SizeClasses& sc = SizeClasses::Default();
  const int cls = sc.ClassFor(96);
  const int batch = sc.batch_size(cls);
  // The batch A's next overflow pushes down: the top of its list.
  auto top_batch = [&] {
    std::vector<uintptr_t> top;
    uintptr_t obj = a->lists[cls].head;
    for (int i = 0; i < batch; ++i) {
      top.push_back(obj);
      obj = *reinterpret_cast<uintptr_t*>(obj);
    }
    std::sort(top.begin(), top.end());
    return top;
  };
  auto transfer_objects = [&] {
    return Metric(alloc.TelemetrySnapshot(), "transfer_cache",
                  "cached_bytes") /
           96;
  };

  // A frees three batches more than its list holds: three batches go
  // down to the transfer cache.
  std::vector<uintptr_t> objs;
  for (uint32_t i = 0; i < a->lists[cls].cap + 3 * batch; ++i) {
    objs.push_back(alloc.Allocate(a, 96));
  }
  for (uintptr_t obj : objs) alloc.Free(a, obj, 96);
  ASSERT_EQ(transfer_objects(), 3 * batch);
  // Nothing has been cold for a whole tick yet.
  alloc.BackgroundTick();
  ASSERT_EQ(transfer_objects(), 3 * batch);

  // B takes one batch (the low-water mark falls to two batches), then A
  // pushes one batch down again, above the mark.
  const uintptr_t one = alloc.Allocate(b, 96);
  const std::vector<uintptr_t> pushed = top_batch();
  alloc.Free(a, one, 96);
  ASSERT_EQ(transfer_objects(), 3 * batch);

  alloc.BackgroundTick();
  EXPECT_EQ(transfer_objects(), batch);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "transfer_cache", "plundered_objects"), 2 * batch);

  // What stayed is exactly the batch pushed after the mark.
  RealThreadCache* c = alloc.RegisterThread();
  std::vector<uintptr_t> refilled;
  for (int i = 0; i < batch; ++i) refilled.push_back(alloc.Allocate(c, 96));
  std::sort(refilled.begin(), refilled.end());
  EXPECT_EQ(refilled, pushed);
  for (uintptr_t obj : refilled) alloc.Free(c, obj, 96);

  // The drained objects went to the central list: nothing was lost.
  snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "live_objects"), 0);
  EXPECT_EQ(Metric(snap, "allocator", "carved_objects"),
            Metric(snap, "allocator", "cached_objects"));
}

// Background ticks race whole populations dying, as in
// PopulationsDieWhileReleaseRuns, with workers exiting through the exit
// release. A live page released under an object would zero its tags.
// Once the threads are gone, the window's ticks give every page back.
TEST(RealThreadsAllocatorTest, TicksRaceDyingPopulations) {
  constexpr int kThreads = 4;
  constexpr int kRounds = 8;
  constexpr int kPopulation = 4096;
  RealThreadsAllocator alloc(TestConfig(), kThreads);
  std::atomic<uint64_t> clobbered{0};
  std::atomic<bool> done{false};

  auto last_word = [](uintptr_t addr, uint32_t size) {
    return reinterpret_cast<uint64_t*>(addr + ((size - 8) & ~uint32_t{7}));
  };
  auto worker = [&](int tid) {
    RealThreadCache* tc = alloc.RegisterThread();
    Rng rng(555 + tid);
    std::vector<std::pair<uintptr_t, uint32_t>> population;
    for (int round = 0; round < kRounds; ++round) {
      for (int i = 0; i < kPopulation; ++i) {
        uint32_t size = static_cast<uint32_t>(8 + rng.UniformInt(8192));
        uintptr_t addr = alloc.Allocate(tc, size);
        ASSERT_NE(addr, 0u);
        *reinterpret_cast<uint64_t*>(addr) = addr;
        *last_word(addr, size) = addr;
        population.emplace_back(addr, size);
      }
      for (size_t i = population.size(); i > 1; --i) {
        std::swap(population[i - 1], population[rng.UniformInt(i)]);
      }
      for (const auto& [addr, size] : population) {
        if (*reinterpret_cast<uint64_t*>(addr) != addr ||
            *last_word(addr, size) != addr) {
          clobbered.fetch_add(1, std::memory_order_relaxed);
        }
        alloc.Free(tc, addr, size);
      }
      population.clear();
    }
    alloc.UnregisterExitingThread(tc);
  };
  std::thread pacer([&] {
    while (!done.load(std::memory_order_relaxed)) {
      alloc.BackgroundTick();
      std::this_thread::yield();
    }
  });
  std::vector<std::thread> pool;
  for (int tid = 0; tid < kThreads; ++tid) pool.emplace_back(worker, tid);
  for (std::thread& t : pool) t.join();
  done.store(true, std::memory_order_relaxed);
  pacer.join();

  EXPECT_EQ(clobbered.load(), 0u);
  // Two ticks drain the transfer caches (the first sets their low-water
  // marks); the window's ticks after that let the last peak go.
  for (int i = 0; i < RealPageHeap::kDemandWindowTicks + 2; ++i) {
    alloc.BackgroundTick();
  }
  EXPECT_EQ(alloc.FootprintBytes(), 0u);
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0);
  EXPECT_EQ(Metric(snap, "central_free_list", "spans"), 0);
  EXPECT_EQ(Metric(snap, "central_free_list", "returned_spans"),
            Metric(snap, "central_free_list", "fetched_spans"));
  EXPECT_GT(Metric(snap, "transfer_cache", "plundered_objects"), 0);
  EXPECT_GT(Metric(snap, "page_heap", "pacer_release_bytes"), 0);
}

// In the shim the pacer ticks while any thread may take a snapshot
// (wscmalloc_stats_json, the statsz thread), so a snapshot reads the
// tiers a tick writes, the transfer caches, the central lists and the
// page heap, under their locks.
TEST(RealThreadsAllocatorTest, SnapshotsRaceTicks) {
  RealThreadsAllocator alloc(TestConfig(), 1);
  RealThreadCache* tc = alloc.RegisterThread();
  std::vector<uintptr_t> objs;
  for (int i = 0; i < 20000; ++i) objs.push_back(alloc.Allocate(tc, 96));
  for (uintptr_t obj : objs) alloc.Free(tc, obj, 96);
  std::thread pacer([&] {
    for (int i = 0; i < 200; ++i) alloc.BackgroundTick();
  });
  double plundered = 0;
  for (int i = 0; i < 200; ++i) {
    plundered = Metric(alloc.TelemetrySnapshot(), "transfer_cache",
                       "plundered_objects");
  }
  pacer.join();
  EXPECT_LE(plundered, Metric(alloc.TelemetrySnapshot(), "transfer_cache",
                              "plundered_objects"));
}

// The shim's statsz thread, or any wscmalloc_stats_json call, takes a
// snapshot while other threads allocate: the snapshot reads each thread
// cache's counters and list counts while their owner writes them. One
// writer per counter, so a counter never reads lower than it did before,
// and the totals balance once the owner joined.
TEST(RealThreadsAllocatorTest, SnapshotsRaceTheCacheOwner) {
  RealThreadsAllocator alloc(TestConfig(), 2);
  constexpr int kSnapshots = 100;
  std::atomic<int> snapshots{0};
  uint64_t ops = 0;  // the owner's; read after the join
  std::thread owner([&] {
    RealThreadCache* tc = alloc.RegisterThread();
    std::vector<uintptr_t> objs(64);
    for (int round = 0; snapshots.load(std::memory_order_relaxed) < kSnapshots;
         ++round) {
      // Bursts of 64 overflow and underflow the list (the slow paths);
      // every 16th round takes the large path.
      size_t size = round % 16 == 0 ? size_t{300} << 10
                                    : 48 + 64 * static_cast<size_t>(round % 7);
      for (uintptr_t& obj : objs) obj = alloc.Allocate(tc, size);
      for (uintptr_t obj : objs) alloc.Free(tc, obj, size);
      ops += objs.size();
    }
  });
  double last = 0;
  for (int i = 0; i < kSnapshots; ++i) {
    double allocations =
        Metric(alloc.TelemetrySnapshot(), "allocator", "allocations");
    EXPECT_GE(allocations, last);
    last = allocations;
    snapshots.fetch_add(1, std::memory_order_relaxed);
  }
  owner.join();
  telemetry::Snapshot snap = alloc.TelemetrySnapshot();
  EXPECT_EQ(Metric(snap, "allocator", "allocations"),
            static_cast<double>(ops));
  EXPECT_EQ(Metric(snap, "allocator", "frees"), static_cast<double>(ops));
  EXPECT_EQ(Metric(snap, "allocator", "live_bytes"), 0.0);
  EXPECT_EQ(Metric(snap, "allocator", "live_objects"), 0.0);
}

TEST(RealThreadsAllocatorTest, TelemetryExportsContentionComponent) {
  AllocatorConfig config = TestConfig();
  RealThreadsAllocator alloc(config, 2);
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
  // The simulator's names for the tiers both allocators have.
  EXPECT_GT(Metric(snap, "central_free_list", "fetched_spans"), 0);
  EXPECT_GE(Metric(snap, "central_free_list", "returned_spans"), 0);
  EXPECT_GT(Metric(snap, "central_free_list", "spans"), 0);
  EXPECT_GE(Metric(snap, "central_free_list", "free_object_bytes"), 0);
  EXPECT_GE(Metric(snap, "page_heap", "free_bytes"), 0);
  EXPECT_GE(Metric(snap, "page_heap", "released_bytes"), 0);
  EXPECT_GE(Metric(snap, "page_heap", "free_runs"), 0);
  EXPECT_GE(Metric(snap, "transfer_cache", "inserts_accepted"), 0);
  EXPECT_GE(Metric(snap, "transfer_cache", "inserts_overflowed"), 0);
  EXPECT_GT(Metric(snap, "transfer_cache", "misses"), 0);
  EXPECT_GE(Metric(snap, "transfer_cache", "cached_bytes"), 0);
  EXPECT_GT(Metric(snap, "contention", "page_heap_lock_acquisitions"), 0);
  // The fast path dominates a tight reuse loop.
  EXPECT_GT(Metric(snap, "thread_cache", "fast_alloc_hits"), 1900);
  EXPECT_GE(Metric(snap, "system", "reserved_bytes"),
            static_cast<double>(RealMemoryBacking::kMinReserveBytes));
}

}  // namespace
}  // namespace wsc::tcmalloc
