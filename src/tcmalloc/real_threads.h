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
// Tiers, front to back (see DESIGN.md):
//
//  * Per-thread caches: the lock-free fast path. Each registered thread
//    owns a RealThreadCache whose per-class freelists are plain push/pop —
//    no atomics, no fences on the hit path — and size-class lookup is the
//    branch-free flat LUT in SizeClasses::ClassFor.
//
//  * One transfer cache per size class (the paper's §4.2): a bounded
//    stack that moves whole batches between thread caches, so most misses
//    never reach a span. Every thread shares it, so the batch one thread
//    pushes down is the batch the next refill on any thread takes. It is
//    sized by the simulator's rule, TransferCacheCapacity().
//
//  * One central free list per size class (the paper's §4.3). It owns
//    the class's spans and tracks each span's free objects in a bitmap in
//    the span's metadata record, so a refill reads no object memory. A
//    refill allocates from the fullest span first (L=8 occupancy lists,
//    the rule CentralFreeList::ListIndexFor implements in the simulator),
//    and a span whose last object comes back goes to the page heap at
//    once.
//
//  * One page heap (RealPageHeap). It serves span fetches and large or
//    aligned blocks. Free page runs coalesce with free neighbours of the
//    same state (resident or released), allocation is best fit, and the
//    heap grows by its bump pointer only when no run fits. Release
//    madvises whole free 2 MiB hugepages first (§4.4: keep hugepages
//    intact where possible), and splits a hugepage that still holds a
//    live run only for the rest of an explicit request, and only where
//    the split pays: for a free run of at least an eighth of a hugepage,
//    or inside a hugepage that is at most an eighth live.
//
// Every hot per-thread / per-class structure is alignas(64) so two
// threads' hot state never share a cache line; static_asserts at the end
// of this header pin the layout in every build.
//
// Memory: one contiguous MAP_NORESERVE reservation (RealMemoryBacking in
// tcmalloc/memory_backing.h), hinted MADV_HUGEPAGE. It costs nothing until
// touched, so tests and sanitizer runs use the same memory as the shim.
// Cached objects thread a freelist through their first word; everything
// else the allocator knows lives out of band, in MapMetadata mappings:
// the page directory (size class or large length per page, read lock-free
// by unsized free), the pagemap (page -> span record), and the span
// records. Exhaustion returns 0 (the shim turns that into ENOMEM). The
// config must be built with AllocatorConfig::Builder::WithRealMemory().
//
// Telemetry: TelemetrySnapshot() exports "allocator", "thread_cache",
// "transfer_cache", "central_free_list" and "page_heap" components (the
// last three with the simulator's metric names where the concept is
// shared), plus "contention" (lock acquisitions and contended
// acquisitions per tier, refill stalls, arena carves) and "system"
// (madvise traffic). The "sharded_transfer" and "sharded_cfl" components
// and the contention component's steal counters keep the names the
// benchmark reads; nothing is sharded any more, so the steal counters
// read 0. A snapshot requires quiescence — call it after worker threads
// joined; the join gives the happens-before edge that makes the plain
// counter reads race-free. thread_cache/registered_threads counts the
// caches in use (the live threads), thread_cache/idle_caches the ones
// UnregisterThread() parked.

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

// The transfer cache of one size class: a bounded stack of free objects
// that batches move through between thread caches and the central free
// list. All fields behind `lock`.
struct alignas(kCacheLineSize) RealTransferCache {
  ContendedLock lock;
  uint32_t capacity = 0;  // max cached objects; set at construction
  // Intrusive freelist threaded through object storage (the link is the
  // object's first word).
  uintptr_t head = 0;
  uint32_t count = 0;

  uint64_t inserts = 0;
  uint64_t inserted_objects = 0;
  uint64_t insert_overflows = 0;    // inserts that spilled to the central list
  uint64_t overflowed_objects = 0;  // objects those inserts spilled
  uint64_t removes = 0;
  uint64_t removed_objects = 0;
  uint64_t remove_misses = 0;  // removes that found the cache empty
  uint64_t short_removes = 0;  // removes the central list had to top up
};

// Metadata for one run of pages: a span of small objects that a central
// free list owns, a large block, or a free run in the page heap. Records
// live in a MapMetadata slab, never in the heap; the page heap's pagemap
// maps a page to its record. The page heap writes first_page, pages,
// state and released under its lock. While a span belongs to a central
// free list, that list's lock guards the rest.
struct alignas(kCacheLineSize) RealSpan {
  enum State : uint8_t { kFree, kSmall, kLarge };
  // The 8-byte class packs 1024 objects into its one-page span; no class
  // has more.
  static constexpr int kBitmapWords = 16;
  static constexpr uint8_t kUnlisted = 0xff;

  uintptr_t first_page = 0;  // page number: address >> kPageShift
  // Links of the one list the record is on: a page-heap free bin, a
  // central free list's occupancy list, or the record slab's free list.
  RealSpan* prev = nullptr;
  RealSpan* next = nullptr;
  uint32_t pages = 0;
  uint16_t allocated = 0;  // small: objects out of the span
  State state = kFree;
  bool released = false;    // free: madvised away
  uint8_t list = kUnlisted;  // small: occupancy list, kUnlisted when full
  // small: bit i set = object i is free in the span.
  uint64_t free_bits[kBitmapWords] = {};

  uintptr_t base() const { return first_page << kPageShift; }
};

// The central free list of one size class (§4.3). All fields behind
// `lock`; the class shape is fixed at construction.
struct alignas(kCacheLineSize) RealCentralFreeList {
  // The paper's L: spans with free objects sit on one of kNumLists lists
  // by occupancy, index 0 the fullest.
  static constexpr int kNumLists = 8;

  ContendedLock lock;
  RealSpan* lists[kNumLists] = {};

  uint32_t object_size = 0;
  uint32_t objects_per_span = 0;
  uint32_t bitmap_words = 0;
  uint32_t pages_per_span = 0;
  // ceil(2^32 / object_size): (offset * reciprocal) >> 32 is an object's
  // index from its offset in the span, exact for every class.
  uint64_t reciprocal = 0;

  uint64_t spans = 0;           // spans this list owns
  uint64_t free_objects = 0;    // free objects in those spans
  uint64_t refills = 0;         // batch requests served
  uint64_t refill_stalls = 0;   // refills that had to fetch a span
  uint64_t fetched_spans = 0;   // spans taken from the page heap
  uint64_t returned_spans = 0;  // spans given back, fully free
};

// The page heap: every page between the reservation's base and the bump
// pointer belongs to exactly one run (a RealSpan record) — a span, a large
// block, or a free run. Free runs keep their bookkeeping out of band, so a
// released run stays released, and coalesce with free neighbours of the
// same state. All methods take the heap's lock unless noted; the lock
// also serializes every backing Release/Commit. A central free list calls
// in while it holds its own lock, so the page-heap lock nests inside
// every class lock.
//
// Invariants, under the lock:
//  * The pagemap entry of a run's first and last page names the run's
//    record; a span's every page does. Interior entries of free runs and
//    large blocks may be stale, and nothing reads them.
//  * The directory entry of a page is cls+1 on every page of a span of
//    size class cls, kDirLargeFlag|pages on a large block's first page,
//    and 0 on every other page (free runs and large interiors), so an
//    address inside a returned span reads 0.
//  * No two free runs of the same state are adjacent.
//  * live_pages_[h] counts the pages of hugepage h that spans and large
//    blocks hold.
class RealPageHeap {
 public:
  static constexpr uint32_t kDirLargeFlag = 0x80000000u;

  explicit RealPageHeap(size_t reserve_bytes);
  ~RealPageHeap();

  RealPageHeap(const RealPageHeap&) = delete;
  RealPageHeap& operator=(const RealPageHeap&) = delete;

  // A span of `pages` pages for size class `cls`, its pagemap and
  // directory entries published. nullptr when the reservation is
  // exhausted.
  RealSpan* NewSpan(int cls, Length pages);

  // A large block of `pages` pages whose address is a multiple of
  // `align_pages` pages. nullptr when nothing fits in the reservation.
  RealSpan* NewLarge(Length pages, Length align_pages);

  // Frees `n` spans or large blocks: each coalesces with its free
  // neighbours, and then, if free resident bytes exceed the eager
  // threshold, whole free hugepages are released.
  void Delete(RealSpan* const* runs, int n);

  // Releases free pages until `bytes` are confirmed: whole free
  // hugepages first, then, for the rest, free runs in hugepages that
  // still hold a live run — those of at least kMinSubreleasePages pages,
  // and any inside hugepages with at most kMinSubreleasePages live pages.
  // Returns the bytes madvised.
  size_t Release(size_t bytes);

  // Releasing part of a hugepage splits its transparent huge page for
  // good: the live data left in it is mapped with 4 KiB pages, and
  // reusing the released pages refaults them one 4 KiB page at a time.
  // An explicit release only splits a hugepage for a free run of at
  // least this many pages, or when the hugepage holds at most this many
  // live pages.
  static constexpr Length kMinSubreleasePages = kPagesPerHugePage / 8;

  // Free resident bytes above `bytes` trigger a whole-hugepage release
  // down to half of it on Delete; 0 disables. Set before other threads
  // use the heap (plain write).
  void SetReleaseThreshold(size_t bytes) { release_threshold_bytes_ = bytes; }

  // The directory entry for `addr`'s page. Lock-free; `addr` must lie in
  // the reservation.
  std::atomic<uint32_t>& dir_entry(uintptr_t addr) const {
    WSC_DCHECK(addr >= base_ && addr < end_);
    return dir_[(addr - base_) >> kPageShift];
  }

  // The record of the run holding `addr`. Lock-free and valid only while
  // the caller keeps the run alive: the owning central list's lock for a
  // span, a live block for a large one.
  RealSpan* SpanOf(uintptr_t addr) const {
    return &records_[pagemap_[(addr - base_) >> kPageShift]];
  }

  uintptr_t base() const { return base_; }
  uintptr_t end() const { return end_; }
  size_t reserved_bytes() const { return end_ - base_; }

  // Lock-free reads of the heap's extent and its released pages.
  size_t used_bytes() const {
    return used_pages_.load(std::memory_order_relaxed) << kPageShift;
  }
  size_t released_bytes() const {
    return released_pages_.load(std::memory_order_relaxed) << kPageShift;
  }

  struct Stats {
    size_t free_bytes = 0;      // free and resident
    size_t released_bytes = 0;  // free and madvised away
    size_t free_runs = 0;
    size_t released_runs = 0;
    uint64_t large_fresh = 0;  // large blocks that grew the heap
    uint64_t lock_acquisitions = 0;
    uint64_t lock_contended = 0;
    MemoryBackingStats backing;
  };
  Stats GetStats() const;

  // fork() support: the owner's ForkPrepare takes this lock last.
  void Lock() { lock_.Lock(); }
  void Unlock() { lock_.Unlock(); }

 private:
  // Runs of up to kMaxBinPages pages sit in exact-length bins; longer ones
  // on one list sorted by (pages, address), so the first fit is the best.
  static constexpr Length kMaxBinPages = kPagesPerHugePage;
  static constexpr size_t kBinWords = (kMaxBinPages + 64) / 64;

  // The free runs of one state.
  struct FreeSet {
    RealSpan* bins[kMaxBinPages + 1] = {};
    uint64_t nonempty[kBinWords] = {};  // bit n: bins[n] is not empty
    RealSpan* large = nullptr;
    size_t pages = 0;
    size_t runs = 0;
  };

  RealSpan* record(uintptr_t page) const {
    return &records_[pagemap_[page - base_page_]];
  }
  uint32_t index_of(const RealSpan* span) const {
    return static_cast<uint32_t>(span - records_);
  }
  RealSpan* NewRecord();
  void FreeRecord(RealSpan* span);
  void MapBoundaries(RealSpan* span);
  // Adds `delta` (+1 or -1) times the pages of `run` to live_pages_.
  void CountLive(const RealSpan* run, int delta);
  // Whether the hugepage holding `page` has at most kMinSubreleasePages
  // live pages.
  bool NearlyEmpty(uintptr_t page) const;

  void InsertFree(RealSpan* run);
  void RemoveFree(RealSpan* run);
  // Merges `run` (free, not on a free list) with same-state free
  // neighbours and files the result.
  void MergeAndInsert(RealSpan* run);
  RealSpan* BestFit(FreeSet& set, Length pages);
  // Shrinks free run `run`, off its free list, to the `pages` pages at
  // `offset`, filing what lies either side as free runs in its state.
  void Trim(RealSpan* run, Length offset, Length pages);
  // Takes `pages` pages at `offset` out of free run `run`; what is left
  // on either side stays free in the run's state. Returns the record of
  // the taken pages.
  RealSpan* Carve(RealSpan* run, Length offset, Length pages);
  RealSpan* AllocateLocked(Length pages, Length align_pages);
  // Takes [offset, offset + pages) of resident free run `run` (already
  // off its free list) out, madvises it and files it as released; the
  // rest stays resident. Returns the bytes released (0 on a failed
  // madvise, which leaves `run` filed as it was).
  size_t ReleaseRun(RealSpan* run, Length offset, Length pages);
  size_t ReleaseLocked(size_t want_bytes, bool split_hugepages);

  RealMemoryBacking backing_;
  uintptr_t base_ = 0;
  uintptr_t end_ = 0;
  uintptr_t base_page_ = 0;
  size_t total_pages_ = 0;

  // Out-of-band metadata, one MapMetadata mapping each: the directory
  // and the pagemap (one entry per reservation page), the live-page
  // count of every hugepage, and the record slab (record 0 is the unused
  // null index).
  std::atomic<uint32_t>* dir_ = nullptr;
  uint32_t* pagemap_ = nullptr;
  uint16_t* live_pages_ = nullptr;
  size_t total_hugepages_ = 0;
  RealSpan* records_ = nullptr;
  size_t max_records_ = 0;

  mutable ContendedLock lock_;
  uintptr_t top_page_ = 0;  // the bump pointer, as a page number
  size_t next_record_ = 1;
  RealSpan* free_records_ = nullptr;
  FreeSet free_[2];  // [0] resident, [1] released
  std::atomic<size_t> used_pages_{0};
  std::atomic<size_t> released_pages_{0};
  uint64_t large_fresh_ = 0;
  size_t release_threshold_bytes_ = size_t{256} << 20;
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
  // `config` must have real_memory set (CHECKed). `expected_threads` is
  // unused: nothing is sized by the thread count. It stays only because
  // the benchmark's direct arm passes it, until the per-CPU front end's
  // benchmark change drops it.
  explicit RealThreadsAllocator(
      const AllocatorConfig& config, int expected_threads,
      const SizeClasses* size_classes = &SizeClasses::Default());

  RealThreadsAllocator(const RealThreadsAllocator&) = delete;
  RealThreadsAllocator& operator=(const RealThreadsAllocator&) = delete;

  // Registers the calling thread and returns its cache: a parked cache
  // when one is idle (it keeps its cumulative counters), else a new one. Cold path (global mutex); call once per
  // thread. The returned pointer stays valid for the allocator's lifetime
  // and must only be used by one thread at a time.
  RealThreadCache* RegisterThread();

  // The thread is done with `tc`: flushes it to the central free lists
  // and parks it for the next RegisterThread(). Call from the owning
  // thread (or after it joined); the caller must not touch `tc`
  // afterwards.
  void UnregisterThread(RealThreadCache* tc);

  // Returns every object cached by `tc` to the central free lists, which
  // hand spans that become fully free back to the page heap. Must be
  // called by the owning thread or after it joined.
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

  // Unsized free: one page-directory load recovers the size class (or
  // large length) from the address alone. Addresses the directory does
  // not know — a free page, the inside of a returned span, the interior
  // of a large block — are ignored (defensive: a double free must not
  // corrupt the allocator).
  void FreeAddr(RealThreadCache* tc, uintptr_t addr);

  // malloc_usable_size: the full capacity of the block `addr` points at,
  // or 0 when the address is not inside a live span or at a live large
  // block's start.
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
  // everything else takes an aligned page-heap block. Returns 0 on
  // exhaustion.
  uintptr_t AllocateAligned(RealThreadCache* tc, size_t size, size_t align);

  // Returns memory to the OS, following the simulator's reclaim order:
  // moves every transfer cache's objects into the central free lists (so
  // spans they pinned can come back), then releases free page-heap pages
  // — whole free hugepages first, then free pages inside hugepages that
  // still hold a live run — until `bytes` are confirmed. Returns the
  // bytes newly released, as confirmed by the backing. Objects in thread
  // caches stay where they are.
  size_t ReleaseMemoryToSystem(size_t bytes);

  // Free, unreleased page-heap bytes above this watermark trigger an
  // eager release of whole free hugepages on the free path; 0 disables
  // eager release. Set before worker threads start (plain write).
  void SetLargeReleaseThreshold(size_t bytes) {
    page_heap_.SetReleaseThreshold(bytes);
  }

  // fork() support for the malloc shim: ForkPrepare() (in
  // pthread_atfork's prepare hook) acquires every lock in one fixed order
  // — the registry, then each class's transfer cache and central free
  // list in class order, and the page heap last, because a refill holds
  // its class lock while it fetches a span — so the child inherits them
  // all in a known, consistent state; ForkRelease() (parent and child
  // hooks) drops them again in reverse. Without this, a fork racing
  // another thread's refill leaves a lock held forever in the child.
  void ForkPrepare();
  void ForkRelease();

  // Caches in use: registered and not unregistered since.
  int registered_threads() const;

  // Address space the page heap has grown into (its bump pointer).
  size_t ArenaUsedBytes() const { return page_heap_.used_bytes(); }

  // Bytes held from the OS: every page the heap has grown into except
  // the free pages it released — spans (with whatever they cache), live
  // large blocks, and free runs not yet released.
  size_t FootprintBytes() const {
    // Released first: pages are released only after the heap grew into
    // them, so this order never reads more released than used.
    size_t released = page_heap_.released_bytes();
    size_t used = page_heap_.used_bytes();
    return used > released ? used - released : 0;
  }

  // Quiescent: call only after all worker threads joined (the join is the
  // synchronization point for the plain per-thread/per-class counters).
  telemetry::Snapshot TelemetrySnapshot() const;

 private:
  uintptr_t SlowAllocate(RealThreadCache* tc, int cls);
  void SlowFree(RealThreadCache* tc, int cls, uintptr_t obj);

  // The large path: an aligned page-heap block. `align` >= kPageSize,
  // power of two. Returns 0 on exhaustion.
  uintptr_t AllocateLarge(RealThreadCache* tc, size_t size,
                          size_t align = kPageSize);
  // Frees the large block starting at `addr`; its page count comes from
  // the directory.
  void FreeLarge(RealThreadCache* tc, uintptr_t addr);

  // Fills out[0..want) from class `cls`'s central free list, fetching
  // spans from the page heap when its spans run out. Returns the number
  // filled, short (including 0) only when the reservation is exhausted.
  int RemoveFromCentral(int cls, uintptr_t* out, int want);

  // Returns `count` (<= kMaxBatch) objects of class `cls` to their spans;
  // spans that become fully free go back to the page heap.
  void InsertToCentral(int cls, const uintptr_t* objs, int count);

  const SizeClasses* size_classes_;
  int num_classes_;

  // Per-class object cap of a thread cache (size_classes max_per_cpu).
  std::vector<uint32_t> thread_cap_;

  // The transfer caches and the central lists, indexed by class. Each
  // element is 64-byte aligned, so neighbours never share a line. Plain
  // arrays (not vectors): the atomics inside ContendedLock make them
  // immovable by design — an element's address is its identity.
  std::unique_ptr<RealTransferCache[]> transfer_;
  std::unique_ptr<RealCentralFreeList[]> central_;

  RealPageHeap page_heap_;
  uintptr_t arena_base_ = 0;
  uintptr_t arena_end_ = 0;
  std::atomic<int64_t> large_live_bytes_{0};

  // Thread registry (cold path only): every cache ever created, and the
  // parked ones on an idle list linked through next_idle, so parking
  // never allocates.
  mutable std::mutex threads_mu_;
  std::vector<std::unique_ptr<RealThreadCache>> threads_;
  RealThreadCache* idle_head_ = nullptr;
  int idle_caches_ = 0;
};

// False-sharing audit: the layout contract the real-threads allocator
// depends on. Every build (and the shim) compiles this header, so a
// refactor that drops an alignas fails to compile.
static_assert(sizeof(ContendedLock) <= kCacheLineSize,
              "ContendedLock must fit in one cache line");
static_assert(alignof(RealTransferCache) == kCacheLineSize,
              "RealTransferCache lost its cache-line alignment");
static_assert(sizeof(RealTransferCache) % kCacheLineSize == 0,
              "adjacent transfer caches would share a cache line");
static_assert(alignof(RealCentralFreeList) == kCacheLineSize,
              "RealCentralFreeList lost its cache-line alignment");
static_assert(sizeof(RealCentralFreeList) % kCacheLineSize == 0,
              "adjacent central free lists would share a cache line");
static_assert(alignof(RealThreadCache) == kCacheLineSize,
              "RealThreadCache lost its cache-line alignment");
// A span record's header and the first words of its bitmap share one
// line, so a refill from a span of up to 192 objects touches one line.
static_assert(offsetof(RealSpan, free_bits) + 3 * sizeof(uint64_t) <=
                  kCacheLineSize,
              "span record header spills past its first cache line");
// The spinlock flag must be a plain lock-free atomic; a locked fallback
// would put a hidden mutex on the hot path.
static_assert(std::atomic<bool>::is_always_lock_free,
              "std::atomic<bool> is not lock-free on this target");

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_REAL_THREADS_H_
