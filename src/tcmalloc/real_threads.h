// The real-threads allocator: the malloc behind libwscmalloc.so.
//
// The simulator's Allocator models concurrency with discrete-event virtual
// threads on a virtual arena so every result is bit-identical; this file is
// the other half of the story: a real allocator that OS threads hammer
// concurrently on real memory, so contention, cache-line traffic, and
// refill scalability are measured instead of modeled. It shares the
// size-class table and AllocatorConfig with the simulator but deliberately
// does NOT touch the simulated Allocator — the deterministic oracle stays
// byte-for-byte untouched (tools/check_determinism.sh enforces this).
//
// Design, shaped by two results from the literature (see DESIGN.md):
//
//  * The per-thread fast path is genuinely lock-free: each registered
//    thread owns a ThreadCache whose per-class freelists are plain
//    push/pop — no atomics, no fences on the hit path — and size-class
//    lookup is the branch-free flat LUT in SizeClasses::ClassFor.
//
//  * Replenishment is sharded end to end. SNIPPETS.md Snippet 1
//    (AllocatorBench) documents the trap where sharding only the
//    size-class freelist locks moves the bottleneck to a global refill
//    lock and scaling stays flat. Here BOTH the transfer cache and the
//    CFL-equivalent free store are sharded by (size class x shard), a
//    miss on the home shard work-steals from sibling shards before
//    carving fresh address space, and the final carve is a lock-free
//    CAS on the arena bump pointer — there is no global lock anywhere
//    on the refill path.
//
//  * Every hot per-thread / per-shard structure is alignas(64) so two
//    threads' hot state never share a cache line; static_asserts at the
//    end of this header pin the layout in every build.
//
// Memory: one contiguous MAP_NORESERVE reservation (RealMemoryBacking in
// tcmalloc/memory_backing.h), hinted MADV_HUGEPAGE. It costs nothing until
// touched, so tests and sanitizer runs use the same memory as the shim.
// Freelists thread through the objects themselves (the link is the
// object's first word), a per-page atomic directory recovers size classes
// for the malloc shim's unsized free/usable_size, freed large ranges keep
// their bookkeeping in their own first page, and ReleaseMemoryToSystem()
// madvises pending large ranges back to the OS. Exhaustion returns 0 (the
// shim turns that into ENOMEM). The config must be built with
// AllocatorConfig::Builder::WithRealMemory().
//
// Telemetry: TelemetrySnapshot() exports "allocator", "thread_cache", and
// "contention" components (per-shard lock acquisitions, contended
// acquisitions, refill stalls, work steals, arena carves). It requires
// quiescence — call it after worker threads joined; the join gives the
// happens-before edge that makes the plain counter reads race-free.
// thread_cache/registered_threads counts the caches in use (the live
// threads), thread_cache/idle_caches the ones UnregisterThread() parked.

#ifndef WSC_TCMALLOC_REAL_THREADS_H_
#define WSC_TCMALLOC_REAL_THREADS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "tcmalloc/config.h"
#include "tcmalloc/memory_backing.h"
#include "tcmalloc/pages.h"
#include "tcmalloc/size_classes.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {

// Cache-line size the false-sharing audit pins. 64 bytes on every x86 and
// most AArch64 parts; hot structs are aligned to it so concurrent writers
// never invalidate each other's lines.
inline constexpr size_t kCacheLineSize = 64;

// Test-and-test-and-set spinlock that counts its own traffic. The counters
// are written only while the lock is held (single writer at a time), so
// they need no atomics; reading them requires quiescence. Spins are
// bounded before yielding so oversubscribed runs (more threads than
// cores — e.g. a 1-core CI box) degrade to scheduling instead of burning
// a full quantum per acquisition.
class ContendedLock {
 public:
  void Lock() {
    bool contended = false;
    while (locked_.exchange(true, std::memory_order_acquire)) {
      contended = true;
      int spins = 0;
      while (locked_.load(std::memory_order_relaxed)) {
        if (++spins >= kSpinsBeforeYield) {
          std::this_thread::yield();
          spins = 0;
        }
      }
    }
    ++acquisitions_;
    if (contended) ++contended_;
  }

  // Single attempt; used by the work-stealing probe so a busy sibling
  // shard is skipped instead of waited on.
  bool TryLock() {
    if (locked_.exchange(true, std::memory_order_acquire)) return false;
    ++acquisitions_;
    return true;
  }

  void Unlock() { locked_.store(false, std::memory_order_release); }

  // Quiescent reads (no concurrent holders).
  uint64_t acquisitions() const { return acquisitions_; }
  uint64_t contended() const { return contended_; }

 private:
  static constexpr int kSpinsBeforeYield = 64;

  std::atomic<bool> locked_{false};
  uint64_t acquisitions_ = 0;  // written under the lock
  uint64_t contended_ = 0;     // acquisitions that found the lock held
};

// One (size class x shard) slice of the transfer cache: a bounded stack of
// free objects batches move through between thread caches and the CFL
// store. All fields behind `lock`.
struct alignas(kCacheLineSize) TransferShard {
  ContendedLock lock;
  uint32_t capacity = 0;  // max cached objects; set at construction
  // Intrusive freelist threaded through object storage (the link is the
  // object's first word).
  uintptr_t head = 0;
  uint32_t count = 0;

  uint64_t inserts = 0;
  uint64_t inserted_objects = 0;
  uint64_t insert_overflows = 0;  // inserts that spilled to the CFL shard
  uint64_t removes = 0;
  uint64_t removed_objects = 0;
  uint64_t remove_misses = 0;  // removes that found the shard empty
};

// One (size class x shard) slice of the central free store (the
// CFL-equivalent): the free objects of spans carved for this shard, plus
// the refill/steal/carve counters the "contention" component reports.
// All fields behind `lock` (stolen objects move victim->thief while both
// locks are held).
struct alignas(kCacheLineSize) CflShard {
  ContendedLock lock;
  // Intrusive freelist (see TransferShard).
  uintptr_t head = 0;
  uint32_t count = 0;

  uint64_t refills = 0;         // batch requests served
  uint64_t refill_stalls = 0;   // home shard could not cover the batch
  uint64_t steals = 0;          // successful cross-shard grabs
  uint64_t stolen_objects = 0;
  uint64_t steal_probes = 0;    // sibling shards probed (incl. failures)
  uint64_t carves = 0;          // fresh spans carved from the arena
  uint64_t carved_objects = 0;
};

// Per-thread cache: the lock-free fast path. Owned and written by exactly
// one thread between RegisterThread() and UnregisterThread() (or the
// thread's join, for a thread that never unregisters); only the owner
// touches `lists` and the counters, so the hit path has no atomics at
// all. alignas keeps neighbouring caches off each other's lines.
class alignas(kCacheLineSize) RealThreadCache {
 public:
  struct ClassList {
    // Intrusive freelist threaded through the cached objects.
    uintptr_t head = 0;
    uint32_t count = 0;
    uint32_t cap = 0;  // per-class object cap (size_classes max_per_cpu)
  };

  int shard = 0;  // home (transfer, CFL) shard, assigned round-robin

  // Single-writer counters; read at quiescence by TelemetrySnapshot().
  uint64_t allocations = 0;
  uint64_t frees = 0;
  uint64_t fast_alloc_hits = 0;
  uint64_t fast_free_hits = 0;
  uint64_t underflows = 0;  // allocs that took the slow path
  uint64_t overflows = 0;   // frees that took the slow path
  uint64_t large_allocations = 0;
  uint64_t large_frees = 0;
  // Net bytes this thread allocated minus bytes it freed; negative for
  // threads that mostly free others' objects. The fleet-wide sum is the
  // live heap.
  int64_t live_bytes = 0;

  std::vector<ClassList> lists;

  // Next cache on the allocator's idle list while this one is parked.
  RealThreadCache* next_idle = nullptr;

  size_t CachedObjects() const {
    size_t n = 0;
    for (const ClassList& list : lists) n += list.count;
    return n;
  }
};

// The real-threads allocator: one shared instance, N OS threads.
//
// Usage:
//   auto config = AllocatorConfig::Builder().WithRealMemory().Build();
//   RealThreadsAllocator alloc(config, /*expected_threads=*/8);
//   // per thread:
//   RealThreadCache* tc = alloc.RegisterThread();
//   uintptr_t p = alloc.Allocate(tc, 48);
//   alloc.Free(tc, p, 48);           // sized free; any thread may free
//   // after joining all threads:
//   telemetry::Snapshot snap = alloc.TelemetrySnapshot();
//
// Sized frees (the caller passes the request size back, as with C++
// sized-delete) find a small object's class without touching the page
// directory; FreeAddr() serves callers that only have the pointer.
class RealThreadsAllocator {
 public:
  // `config` must have real_memory set (CHECKed). `expected_threads`
  // sizes the shard count (min(expected, kMaxShards), overridable via
  // `num_shards` for tests). More shards than threads buys nothing; fewer
  // concentrates contention — which the telemetry then shows.
  explicit RealThreadsAllocator(
      const AllocatorConfig& config, int expected_threads,
      const SizeClasses* size_classes = &SizeClasses::Default(),
      int num_shards = 0);

  ~RealThreadsAllocator();

  RealThreadsAllocator(const RealThreadsAllocator&) = delete;
  RealThreadsAllocator& operator=(const RealThreadsAllocator&) = delete;

  // Registers the calling thread and returns its cache: a parked cache
  // when one is idle (it keeps its home shard and its cumulative
  // counters), else a new one. Cold path (global mutex); call once per
  // thread. The returned pointer stays valid for the allocator's lifetime
  // and must only be used by one thread at a time.
  RealThreadCache* RegisterThread();

  // The thread is done with `tc`: flushes it to its home shard and parks
  // it for the next RegisterThread(). Call from the owning thread (or
  // after it joined); the caller must not touch `tc` afterwards.
  void UnregisterThread(RealThreadCache* tc);

  // Returns every object cached by `tc` to the middle end. Must be called
  // by the owning thread or after it joined.
  void FlushThreadCache(RealThreadCache* tc);

  // Lock-free on the fast path: per-thread list hit costs a LUT load and
  // one pointer chase. `size` must be > 0. Returns 0 when the reservation
  // is exhausted.
  uintptr_t Allocate(RealThreadCache* tc, size_t size) {
    WSC_DCHECK_GT(size, size_t{0});
    int cls = size_classes_->ClassFor(size);
    if (cls >= 0) return AllocateClass(tc, cls);
    return AllocateLarge(tc, size);
  }

  // Allocates one object of exactly size class `cls` (the Allocate fast
  // path with the class lookup already done). The aligned-allocation path
  // uses this to request a class whose size is a multiple of the
  // alignment.
  uintptr_t AllocateClass(RealThreadCache* tc, int cls) {
    ++tc->allocations;
    tc->live_bytes += static_cast<int64_t>(size_classes_->class_size(cls));
    RealThreadCache::ClassList& list = tc->lists[cls];
    if (list.head != 0) {
      ++tc->fast_alloc_hits;
      uintptr_t obj = list.head;
      list.head = *reinterpret_cast<uintptr_t*>(obj);
      --list.count;
      return obj;
    }
    ++tc->underflows;
    uintptr_t obj = SlowAllocate(tc, cls);
    if (obj == 0) {
      // Exhaustion: undo the optimistic accounting so the caller can fail
      // the allocation cleanly (ENOMEM in the shim).
      --tc->allocations;
      --tc->underflows;
      tc->live_bytes -= static_cast<int64_t>(size_classes_->class_size(cls));
    }
    return obj;
  }

  // Sized free; `size` must match the Allocate request. Cross-thread
  // frees are the norm (the bench hands objects between threads): the
  // object lands in the FREEING thread's cache, exactly like production
  // TCMalloc. A large block's length comes from the page directory.
  void Free(RealThreadCache* tc, uintptr_t addr, size_t size) {
    int cls = size_classes_->ClassFor(size);
    if (cls >= 0) {
      FreeClass(tc, cls, addr);
      return;
    }
    FreeLarge(tc, addr);
  }

  // The small-object free fast path with the class already known.
  void FreeClass(RealThreadCache* tc, int cls, uintptr_t addr) {
    ++tc->frees;
    tc->live_bytes -= static_cast<int64_t>(size_classes_->class_size(cls));
    RealThreadCache::ClassList& list = tc->lists[cls];
    if (list.count < list.cap) {
      ++tc->fast_free_hits;
      *reinterpret_cast<uintptr_t*>(addr) = list.head;
      list.head = addr;
      ++list.count;
      return;
    }
    ++tc->overflows;
    SlowFree(tc, cls, addr);
  }

  // ---- The malloc shim's contract ----

  // Unsized free: the page directory recovers the size class (or large
  // range length) from the address alone. Unknown addresses inside the
  // reservation are ignored (defensive: a double free of a large range
  // whose directory entry was already cleared must not corrupt the
  // allocator).
  void FreeAddr(RealThreadCache* tc, uintptr_t addr);

  // malloc_usable_size: the full capacity of the block `addr` points at,
  // or 0 when the address is not a live allocation of this allocator.
  size_t UsableSize(uintptr_t addr) const;

  // Whether `addr` falls inside this allocator's reservation. An Owns()
  // address may still be unknown to the directory — pair with
  // UsableSize() for liveness.
  bool Owns(uintptr_t addr) const {
    return addr >= arena_base_ && addr < arena_end_;
  }

  // Aligned allocation (posix_memalign / aligned_alloc). `align` must be
  // a power of two. Small requests are served from the smallest size
  // class whose size is a multiple of `align` (spans are page-aligned, so
  // every object of such a class is aligned for align <= page size);
  // everything else takes an aligned large carve. Returns 0 on
  // exhaustion.
  uintptr_t AllocateAligned(RealThreadCache* tc, size_t size, size_t align);

  // madvises up to `bytes` of pending (freed, not yet released) large
  // ranges back to the OS; returns the bytes newly released as confirmed
  // by the backing.
  size_t ReleaseMemoryToSystem(size_t bytes);

  // Pending large bytes above this watermark trigger an eager release on
  // the free path; 0 disables eager release. Set before worker threads
  // start (plain write).
  void SetLargeReleaseThreshold(size_t bytes) {
    large_release_threshold_bytes_ = bytes;
  }

  // fork() support for the malloc shim: ForkPrepare() (in
  // pthread_atfork's prepare hook) acquires every lock in a fixed order —
  // the registry, the large pool, every transfer shard, then every CFL
  // shard — so the child inherits them all in a known, consistent state;
  // ForkRelease() (parent and child hooks) drops them again. Without
  // this, a fork racing another thread's refill leaves a shard lock held
  // forever in the child.
  void ForkPrepare();
  void ForkRelease();

  int num_shards() const { return num_shards_; }
  // Caches in use: registered and not unregistered since.
  int registered_threads() const;

  size_t ArenaUsedBytes() const {
    return arena_next_.load(std::memory_order_relaxed) - arena_base_;
  }

  // Bytes held from the OS: small-object spans ever carved (spans are
  // never returned, like a cache-everything TCMalloc), live large objects,
  // and freed large ranges not yet released. Quiescent.
  size_t FootprintBytes() const;

  // Quiescent: call only after all worker threads joined (the join is the
  // synchronization point for the plain per-thread/per-shard counters).
  telemetry::Snapshot TelemetrySnapshot() const;

 private:
  TransferShard& transfer_shard(int cls, int shard) {
    return transfer_[static_cast<size_t>(cls) * num_shards_ + shard];
  }
  CflShard& cfl_shard(int cls, int shard) {
    return cfl_[static_cast<size_t>(cls) * num_shards_ + shard];
  }

  uintptr_t SlowAllocate(RealThreadCache* tc, int cls);
  void SlowFree(RealThreadCache* tc, int cls, uintptr_t obj);

  // The large path: first-fit over the pending (freed) range list, else
  // an aligned bump carve. `align` >= kPageSize, power of two. Returns 0
  // on exhaustion.
  uintptr_t AllocateLarge(RealThreadCache* tc, size_t size,
                          size_t align = kPageSize);
  // Frees the large range starting at `addr`; its page count comes from
  // the directory.
  void FreeLarge(RealThreadCache* tc, uintptr_t addr);
  // Releases tails of pending large ranges until `want_bytes` confirmed
  // or the list is dry. Caller holds large_mu_.
  size_t ReleasePendingLocked(size_t want_bytes);

  // Fills out[0..want) from the CFL layer: home shard first, then
  // work-stealing probes of the siblings, then fresh carves. Returns the
  // number filled, short (including 0) only when the reservation is
  // exhausted.
  int RefillFromCfl(int cls, int shard, uintptr_t* out, int want);

  // Returns objects to a CFL shard's free store (transfer overflow or
  // cache flush).
  void ReturnToCfl(int cls, int shard, const uintptr_t* objs, int count);

  // Carves one span of `cls` from the arena bump pointer and pushes its
  // objects onto `shard`'s free store. Caller holds shard.lock; the bump
  // itself is lock-free. Returns false when the reservation is exhausted.
  bool CarveSpan(int cls, CflShard& shard);

  // The per-page directory entry for `addr`'s page.
  std::atomic<uint32_t>& dir_entry(uintptr_t addr) const {
    WSC_DCHECK(addr >= arena_base_ && addr < arena_end_);
    return dir_[(addr - arena_base_) >> kPageShift];
  }

  const SizeClasses* size_classes_;
  int num_classes_;
  int num_shards_;

  // Per-class caps, derived once from SizeClassInfo / config.
  std::vector<uint32_t> thread_cap_;     // objects per thread cache
  std::vector<uint32_t> transfer_cap_;   // objects per transfer shard

  // Flat [cls * num_shards_ + shard] grids. Each element is 64-byte
  // aligned, so neighbouring shards never share a line. Plain arrays
  // (not vectors): the atomics inside ContendedLock make shards
  // immovable by design — a shard's address is its identity.
  size_t grid_size_ = 0;
  std::unique_ptr<TransferShard[]> transfer_;
  std::unique_ptr<CflShard[]> cfl_;

  // Address space: the backing's mmap reservation. The CAS on arena_next_
  // is the only cross-shard hot-path synchronization in the whole refill
  // chain.
  RealMemoryBacking backing_;
  uintptr_t arena_base_ = 0;
  uintptr_t arena_end_ = 0;
  std::atomic<uintptr_t> arena_next_{0};
  std::atomic<uint64_t> small_carved_bytes_{0};
  std::atomic<int64_t> large_live_bytes_{0};
  std::atomic<uint64_t> large_carves_{0};

  // Page directory entry encoding: 0 = unknown; cls+1 = small page of
  // size class cls; kDirLargeFlag|pages = first page of a live large
  // range of `pages` pages. Interior large pages stay 0, which is safe:
  // starts never become interior (pending ranges are reused from the
  // front and never coalesced), so a stale entry cannot alias a live one.
  static constexpr uint32_t kDirLargeFlag = 0x80000000u;

  std::atomic<uint32_t>* dir_ = nullptr;  // one entry per reservation page
  size_t dir_entries_ = 0;

  // Freed large ranges, singly linked through their own first page (a
  // LargeRange header lives in the freed memory). Guarded by large_mu_,
  // which also serializes every backing_ Release/Commit; the page
  // counters are atomic only so FootprintBytes/telemetry can read them
  // without the mutex.
  struct LargeRange {
    uintptr_t next;
    size_t pages;
    // The tail (everything past the header page) is madvised away. The
    // one record of what is released: the backing keeps none.
    bool released;
  };
  std::mutex large_mu_;
  uintptr_t large_free_head_ = 0;
  std::atomic<size_t> large_free_pages_{0};
  std::atomic<size_t> large_unreleased_pages_{0};
  // Pending large bytes above this watermark trigger an eager release on
  // the free path (0 disables). ReleaseMemoryToSystem works regardless.
  size_t large_release_threshold_bytes_ = size_t{256} << 20;

  // Thread registry (cold path only): every cache ever created, and the
  // parked ones on an idle list linked through next_idle, so parking
  // never allocates.
  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<RealThreadCache>> threads_;
  RealThreadCache* idle_head_ = nullptr;
  int idle_caches_ = 0;
  int next_shard_rr_ = 0;
};

// False-sharing audit: the layout contract the real-threads allocator
// depends on. Every build (and the shim) compiles this header, so a
// refactor that drops an alignas fails to compile.
static_assert(sizeof(ContendedLock) <= kCacheLineSize,
              "ContendedLock must fit in one cache line");
static_assert(alignof(TransferShard) == kCacheLineSize,
              "TransferShard lost its cache-line alignment");
static_assert(sizeof(TransferShard) % kCacheLineSize == 0,
              "adjacent TransferShards would share a cache line");
static_assert(alignof(CflShard) == kCacheLineSize,
              "CflShard lost its cache-line alignment");
static_assert(sizeof(CflShard) % kCacheLineSize == 0,
              "adjacent CflShards would share a cache line");
static_assert(alignof(RealThreadCache) == kCacheLineSize,
              "RealThreadCache lost its cache-line alignment");
// The spinlock flag and the arena bump pointer must be plain lock-free
// atomics; a locked fallback would put a hidden mutex on the hot path.
static_assert(std::atomic<bool>::is_always_lock_free,
              "std::atomic<bool> is not lock-free on this target");
static_assert(std::atomic<uintptr_t>::is_always_lock_free,
              "arena bump pointer would take a lock on this target");

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_REAL_THREADS_H_
