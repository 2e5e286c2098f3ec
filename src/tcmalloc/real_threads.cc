#include "tcmalloc/real_threads.h"

#include <algorithm>

namespace wsc::tcmalloc {

namespace {

// Shards beyond the thread count add footprint without reducing
// contention; 16 covers every core count this repo's benches target.
constexpr int kMaxShards = 16;

// Stack-buffer bound for batch moves; size-class batch sizes top out at 32.
constexpr int kMaxBatch = 64;

// Pop / push over an intrusive freelist whose link is the object's first
// word. TakeIntrusive pops up to `want` objects into `out`.
int TakeIntrusive(uintptr_t& head, uint32_t& count, uintptr_t* out,
                  int want) {
  int take = std::min(want, static_cast<int>(count));
  for (int i = 0; i < take; ++i) {
    out[i] = head;
    head = *reinterpret_cast<uintptr_t*>(head);
  }
  count -= static_cast<uint32_t>(take);
  return take;
}

void PutIntrusive(uintptr_t& head, uint32_t& count, const uintptr_t* objs,
                  int n) {
  for (int i = 0; i < n; ++i) {
    *reinterpret_cast<uintptr_t*>(objs[i]) = head;
    head = objs[i];
  }
  count += static_cast<uint32_t>(n);
}

// Default reservation. Untouched address space is nearly free, but the
// page directory costs 4 bytes per 8 KiB page of reservation.
constexpr size_t kDefaultReserveBytes = size_t{256} << 30;  // 256 GiB

// The reservation size for `config`. A config without real_memory is the
// simulated Allocator's, so reaching here with one is a caller bug.
size_t ReserveBytes(const AllocatorConfig& config) {
  WSC_CHECK(config.real_memory);
  return config.real_memory_reserve_bytes != 0
             ? config.real_memory_reserve_bytes
             : kDefaultReserveBytes;
}

}  // namespace

RealThreadsAllocator::RealThreadsAllocator(const AllocatorConfig& config,
                                           int expected_threads,
                                           const SizeClasses* size_classes,
                                           int num_shards)
    : size_classes_(size_classes),
      num_classes_(size_classes->num_classes()),
      backing_(ReserveBytes(config)) {
  num_shards_ = num_shards > 0 ? std::min(num_shards, kMaxShards)
                               : std::clamp(expected_threads, 1, kMaxShards);

  thread_cap_.resize(num_classes_);
  transfer_cap_.resize(num_classes_);
  for (int cls = 0; cls < num_classes_; ++cls) {
    const SizeClassInfo& info = size_classes_->info(cls);
    WSC_CHECK_LE(info.batch_size, kMaxBatch);
    thread_cap_[cls] = static_cast<uint32_t>(info.max_per_cpu_objects);
    // The simulator's transfer cache budgets transfer_cache_batches
    // batches per class; split that budget across the shards, with a
    // two-batch floor so every shard can absorb an insert and still
    // serve a remove.
    int batches = std::max(2, config.transfer_cache_batches / num_shards_);
    transfer_cap_[cls] = static_cast<uint32_t>(batches * info.batch_size);
  }

  grid_size_ = static_cast<size_t>(num_classes_) * num_shards_;
  transfer_ = std::make_unique<TransferShard[]>(grid_size_);
  cfl_ = std::make_unique<CflShard[]>(grid_size_);
  for (int cls = 0; cls < num_classes_; ++cls) {
    for (int shard = 0; shard < num_shards_; ++shard) {
      transfer_shard(cls, shard).capacity = transfer_cap_[cls];
    }
  }

  WSC_CHECK(backing_.ok());
  arena_base_ = backing_.base();
  arena_end_ = backing_.end();
  arena_next_.store(arena_base_, std::memory_order_relaxed);
  dir_entries_ = backing_.reserved_bytes() >> kPageShift;
  dir_ = reinterpret_cast<std::atomic<uint32_t>*>(
      RealMemoryBacking::MapMetadata(dir_entries_ * sizeof(uint32_t)));
  WSC_CHECK(dir_ != nullptr);
  static_assert(sizeof(LargeRange) <= kPageSize,
                "large-range header must fit in its own first page");
  // The object's first word doubles as the freelist link, so every class
  // must hold one.
  WSC_CHECK_GE(size_classes_->class_size(0), sizeof(uintptr_t));
}

RealThreadsAllocator::~RealThreadsAllocator() {
  RealMemoryBacking::UnmapMetadata(reinterpret_cast<uintptr_t>(dir_),
                                   dir_entries_ * sizeof(uint32_t));
}

RealThreadCache* RealThreadsAllocator::RegisterThread() {
  std::lock_guard<std::mutex> guard(threads_mu_);
  if (RealThreadCache* parked = idle_head_; parked != nullptr) {
    idle_head_ = parked->next_idle;
    parked->next_idle = nullptr;
    --idle_caches_;
    return parked;
  }
  auto tc = std::make_unique<RealThreadCache>();
  tc->shard = next_shard_rr_;
  next_shard_rr_ = (next_shard_rr_ + 1) % num_shards_;
  tc->lists.resize(num_classes_);
  for (int cls = 0; cls < num_classes_; ++cls) {
    tc->lists[cls].cap = thread_cap_[cls];
  }
  RealThreadCache* raw = tc.get();
  threads_.push_back(std::move(tc));
  return raw;
}

void RealThreadsAllocator::UnregisterThread(RealThreadCache* tc) {
  // The flush drops each shard lock before the registry lock is taken, so
  // the lock order stays ForkPrepare's (registry before shards).
  FlushThreadCache(tc);
  std::lock_guard<std::mutex> guard(threads_mu_);
  tc->next_idle = idle_head_;
  idle_head_ = tc;
  ++idle_caches_;
}

int RealThreadsAllocator::registered_threads() const {
  std::lock_guard<std::mutex> guard(threads_mu_);
  return static_cast<int>(threads_.size()) - idle_caches_;
}

void RealThreadsAllocator::FlushThreadCache(RealThreadCache* tc) {
  uintptr_t buf[kMaxBatch];
  for (int cls = 0; cls < num_classes_; ++cls) {
    RealThreadCache::ClassList& list = tc->lists[cls];
    while (list.count > 0) {
      int moved = TakeIntrusive(list.head, list.count, buf, kMaxBatch);
      ReturnToCfl(cls, tc->shard, buf, moved);
    }
  }
}

uintptr_t RealThreadsAllocator::SlowAllocate(RealThreadCache* tc, int cls) {
  const int batch = size_classes_->batch_size(cls);
  uintptr_t buf[kMaxBatch];

  // One lock on the home transfer shard for the whole batch.
  TransferShard& ts = transfer_shard(cls, tc->shard);
  ts.lock.Lock();
  ++ts.removes;
  int got = TakeIntrusive(ts.head, ts.count, buf, batch);
  ts.removed_objects += static_cast<uint64_t>(got);
  if (got == 0) ++ts.remove_misses;
  ts.lock.Unlock();

  if (got < batch) {
    got += RefillFromCfl(cls, tc->shard, buf + got, batch - got);
  }
  if (got == 0) return 0;  // reservation exhausted

  // Keep one, cache the rest. The slow path only runs when the list is
  // empty and caps are >= two batches, so the remainder always fits.
  RealThreadCache::ClassList& list = tc->lists[cls];
  PutIntrusive(list.head, list.count, buf + 1, got - 1);
  return buf[0];
}

void RealThreadsAllocator::SlowFree(RealThreadCache* tc, int cls,
                                    uintptr_t obj) {
  // The list is at cap: push one batch down to the middle end, then cache
  // the object being freed.
  const int batch = size_classes_->batch_size(cls);
  uintptr_t buf[kMaxBatch];
  RealThreadCache::ClassList& list = tc->lists[cls];
  int moved = TakeIntrusive(list.head, list.count, buf, batch);

  TransferShard& ts = transfer_shard(cls, tc->shard);
  ts.lock.Lock();
  ++ts.inserts;
  int room = static_cast<int>(ts.capacity) - static_cast<int>(ts.count);
  int put = std::clamp(room, 0, moved);
  PutIntrusive(ts.head, ts.count, buf, put);
  ts.inserted_objects += static_cast<uint64_t>(put);
  if (put < moved) ++ts.insert_overflows;
  ts.lock.Unlock();

  if (put < moved) {
    ReturnToCfl(cls, tc->shard, buf + put, moved - put);
  }
  PutIntrusive(list.head, list.count, &obj, 1);
}

int RealThreadsAllocator::RefillFromCfl(int cls, int shard, uintptr_t* out,
                                        int want) {
  CflShard& home = cfl_shard(cls, shard);
  home.lock.Lock();
  ++home.refills;
  int got = TakeIntrusive(home.head, home.count, out, want);
  if (got < want) {
    ++home.refill_stalls;
    // Work-steal from sibling shards before carving fresh address space:
    // this is the piece Snippet 1's sharded allocator was missing — a
    // shard whose home store runs dry must not serialize on (or bloat)
    // the backing store while siblings sit on free objects. TryLock only:
    // a busy sibling is skipped, never waited on (also rules out
    // lock-order deadlock, since the only blocking acquisition held here
    // is the home shard's).
    for (int probe = 1; probe < num_shards_ && got < want; ++probe) {
      CflShard& victim = cfl_shard(cls, (shard + probe) % num_shards_);
      ++home.steal_probes;
      if (!victim.lock.TryLock()) continue;
      size_t avail = victim.count;
      if (avail > 0) {
        // Take what the batch still needs plus half the surplus, so one
        // steal rebalances the pair instead of ping-ponging per object.
        size_t need = static_cast<size_t>(want - got);
        size_t take = std::min(avail, need + (avail - std::min(avail, need)) / 2);
        ++home.steals;
        home.stolen_objects += take;
        for (size_t i = 0; i < take; ++i) {
          uintptr_t obj = 0;
          TakeIntrusive(victim.head, victim.count, &obj, 1);
          if (got < want) {
            out[got++] = obj;
          } else {
            PutIntrusive(home.head, home.count, &obj, 1);
          }
        }
      }
      victim.lock.Unlock();
    }
    while (got < want) {
      if (!CarveSpan(cls, home)) break;  // reservation exhausted
      got += TakeIntrusive(home.head, home.count, out + got, want - got);
    }
  }
  home.lock.Unlock();
  return got;
}

void RealThreadsAllocator::ReturnToCfl(int cls, int shard,
                                       const uintptr_t* objs, int count) {
  CflShard& home = cfl_shard(cls, shard);
  home.lock.Lock();
  PutIntrusive(home.head, home.count, objs, count);
  home.lock.Unlock();
}

bool RealThreadsAllocator::CarveSpan(int cls, CflShard& shard) {
  const SizeClassInfo& info = size_classes_->info(cls);
  size_t span_bytes = LengthToBytes(info.pages_per_span);
  // CAS loop instead of fetch_add so a failed carve does not advance the
  // bump pointer past the reservation.
  uintptr_t base = arena_next_.load(std::memory_order_relaxed);
  do {
    if (base + span_bytes > arena_end_) return false;
  } while (!arena_next_.compare_exchange_weak(base, base + span_bytes,
                                              std::memory_order_relaxed));
  // Publish the size class for every page of the span before the objects
  // escape via the shard lock, so FreeAddr/UsableSize on any thread that
  // legitimately receives an object sees the entry.
  for (size_t p = 0; p < static_cast<size_t>(info.pages_per_span); ++p) {
    dir_entry(base + (p << kPageShift))
        .store(static_cast<uint32_t>(cls) + 1, std::memory_order_relaxed);
  }
  small_carved_bytes_.fetch_add(span_bytes, std::memory_order_relaxed);
  ++shard.carves;
  shard.carved_objects += static_cast<uint64_t>(info.objects_per_span);
  // Push in reverse so pops hand out ascending addresses.
  for (int i = info.objects_per_span - 1; i >= 0; --i) {
    uintptr_t obj = base + static_cast<size_t>(i) * info.size;
    PutIntrusive(shard.head, shard.count, &obj, 1);
  }
  return true;
}

uintptr_t RealThreadsAllocator::AllocateLarge(RealThreadCache* tc,
                                              size_t size, size_t align) {
  WSC_DCHECK((align & (align - 1)) == 0 && align >= kPageSize);
  // Refuse before rounding, which wraps near SIZE_MAX: nothing larger
  // than the reservation fits, nor more pages than a directory entry's
  // 31-bit count holds.
  if (size > arena_end_ - arena_base_ ||
      size > (static_cast<size_t>(~kDirLargeFlag) << kPageShift)) {
    return 0;
  }
  size_t pages = static_cast<size_t>(BytesToLengthCeil(size));
  size_t bytes = pages << kPageShift;
  uintptr_t addr = 0;
  {
    std::lock_guard<std::mutex> guard(large_mu_);
    // First fit over pending ranges, reused from the front; tails become
    // new pending ranges (never coalesced, so range starts keep their
    // identity — the invariant the page directory's "interior pages stay
    // 0" encoding relies on). Range starts are page-aligned, so any range
    // satisfies align == kPageSize; bigger alignments must line up.
    uintptr_t* prev = &large_free_head_;
    for (uintptr_t cur = large_free_head_; cur != 0;) {
      LargeRange* range = reinterpret_cast<LargeRange*>(cur);
      if (range->pages >= pages && (cur & (align - 1)) == 0) {
        uintptr_t next = range->next;
        bool released = range->released;
        bool split = range->pages > pages;
        if (split) {
          uintptr_t tail = cur + bytes;
          LargeRange* tail_range = reinterpret_cast<LargeRange*>(tail);
          tail_range->next = next;
          tail_range->pages = range->pages - pages;
          tail_range->released = released;
          *prev = tail;
        } else {
          *prev = next;
        }
        large_free_pages_.fetch_sub(pages, std::memory_order_relaxed);
        if (released) {
          // The header page stayed resident. A split also brings back
          // the tail's new header page, written just above.
          backing_.Commit(split ? bytes : bytes - kPageSize);
        } else {
          large_unreleased_pages_.fetch_sub(pages,
                                            std::memory_order_relaxed);
        }
        addr = cur;
        break;
      }
      prev = &range->next;
      cur = range->next;
    }
  }
  if (addr == 0) {
    // Bump-carve, aligning up. The skipped gap is never touched, so it
    // costs address space, not resident memory.
    uintptr_t base = arena_next_.load(std::memory_order_relaxed);
    uintptr_t aligned;
    do {
      aligned = (base + (align - 1)) & ~(align - 1);
      // Written so that no sum can wrap: a huge `align` wraps `aligned`
      // below `base`.
      if (aligned < base || aligned > arena_end_ ||
          bytes > arena_end_ - aligned) {
        return 0;
      }
    } while (!arena_next_.compare_exchange_weak(base, aligned + bytes,
                                                std::memory_order_relaxed));
    addr = aligned;
  }
  dir_entry(addr).store(kDirLargeFlag | static_cast<uint32_t>(pages),
                        std::memory_order_relaxed);
  ++tc->allocations;
  ++tc->large_allocations;
  large_live_bytes_.fetch_add(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
  large_carves_.fetch_add(1, std::memory_order_relaxed);
  tc->live_bytes += static_cast<int64_t>(bytes);
  return addr;
}

void RealThreadsAllocator::FreeLarge(RealThreadCache* tc, uintptr_t addr) {
  uint32_t entry = dir_entry(addr).load(std::memory_order_relaxed);
  WSC_CHECK(entry & kDirLargeFlag);
  size_t pages = entry & ~kDirLargeFlag;
  size_t bytes = pages << kPageShift;
  dir_entry(addr).store(0, std::memory_order_relaxed);
  ++tc->frees;
  ++tc->large_frees;
  large_live_bytes_.fetch_sub(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
  tc->live_bytes -= static_cast<int64_t>(bytes);

  std::lock_guard<std::mutex> guard(large_mu_);
  LargeRange* range = reinterpret_cast<LargeRange*>(addr);
  range->next = large_free_head_;
  range->pages = pages;
  range->released = false;
  large_free_head_ = addr;
  large_free_pages_.fetch_add(pages, std::memory_order_relaxed);
  size_t unreleased =
      large_unreleased_pages_.fetch_add(pages, std::memory_order_relaxed) +
      pages;
  if (large_release_threshold_bytes_ > 0 &&
      (unreleased << kPageShift) > large_release_threshold_bytes_) {
    ReleasePendingLocked((unreleased << kPageShift) -
                         large_release_threshold_bytes_ / 2);
  }
}

size_t RealThreadsAllocator::ReleasePendingLocked(size_t want_bytes) {
  size_t confirmed = 0;
  for (uintptr_t cur = large_free_head_; cur != 0 && confirmed < want_bytes;) {
    LargeRange* range = reinterpret_cast<LargeRange*>(cur);
    if (!range->released && range->pages > 1) {
      // Keep the header page resident — it holds the list node — and
      // return the tail to the OS. A failed madvise leaves the range
      // unreleased.
      size_t released = backing_.Release(cur + kPageSize,
                                         (range->pages - 1) << kPageShift);
      if (released > 0) {
        confirmed += released;
        range->released = true;
        large_unreleased_pages_.fetch_sub(range->pages,
                                          std::memory_order_relaxed);
      }
    }
    cur = range->next;
  }
  return confirmed;
}

size_t RealThreadsAllocator::ReleaseMemoryToSystem(size_t bytes) {
  std::lock_guard<std::mutex> guard(large_mu_);
  return ReleasePendingLocked(bytes);
}

void RealThreadsAllocator::ForkPrepare() {
  // Fixed order (the reverse of ForkRelease): registry, large pool, then
  // every shard. Holding them all across fork() means no lock in the
  // child's copy belongs to a thread that no longer exists.
  threads_mu_.lock();
  large_mu_.lock();
  for (size_t i = 0; i < grid_size_; ++i) transfer_[i].lock.Lock();
  for (size_t i = 0; i < grid_size_; ++i) cfl_[i].lock.Lock();
}

void RealThreadsAllocator::ForkRelease() {
  for (size_t i = 0; i < grid_size_; ++i) cfl_[i].lock.Unlock();
  for (size_t i = 0; i < grid_size_; ++i) transfer_[i].lock.Unlock();
  large_mu_.unlock();
  threads_mu_.unlock();
}

void RealThreadsAllocator::FreeAddr(RealThreadCache* tc, uintptr_t addr) {
  uint32_t entry = dir_entry(addr).load(std::memory_order_relaxed);
  if (entry == 0) return;  // unknown page: stale/foreign pointer, ignore
  if (entry & kDirLargeFlag) {
    // Only the exact range start is a valid large pointer.
    WSC_CHECK_EQ(addr & (kPageSize - 1), uintptr_t{0});
    FreeLarge(tc, addr);
    return;
  }
  FreeClass(tc, static_cast<int>(entry) - 1, addr);
}

size_t RealThreadsAllocator::UsableSize(uintptr_t addr) const {
  if (!Owns(addr)) return 0;
  uint32_t entry = dir_[(addr - arena_base_) >> kPageShift].load(
      std::memory_order_relaxed);
  if (entry == 0) return 0;
  if (entry & kDirLargeFlag) {
    return static_cast<size_t>(entry & ~kDirLargeFlag) << kPageShift;
  }
  return size_classes_->class_size(static_cast<int>(entry) - 1);
}

uintptr_t RealThreadsAllocator::AllocateAligned(RealThreadCache* tc,
                                                size_t size, size_t align) {
  WSC_CHECK((align & (align - 1)) == 0 && align > 0);
  if (size == 0) size = 1;
  if (align <= sizeof(void*)) {
    // Size classes are at least pointer-aligned already.
    return Allocate(tc, size);
  }
  if (align <= kPageSize) {
    int cls = size_classes_->ClassFor(size);
    if (cls >= 0) {
      // Spans are page-aligned and objects are laid out back to back, so
      // every object of a class whose size is a multiple of `align` is
      // itself aligned (align divides the page size here).
      while (cls < num_classes_ &&
             size_classes_->class_size(cls) % align != 0) {
        ++cls;
      }
      if (cls < num_classes_) return AllocateClass(tc, cls);
    }
  }
  return AllocateLarge(tc, size, std::max(align, kPageSize));
}

size_t RealThreadsAllocator::FootprintBytes() const {
  int64_t large = large_live_bytes_.load(std::memory_order_relaxed);
  // Pending large ranges are freed but still resident until released.
  return small_carved_bytes_.load(std::memory_order_relaxed) +
         static_cast<size_t>(std::max<int64_t>(0, large)) +
         (large_unreleased_pages_.load(std::memory_order_relaxed)
          << kPageShift);
}

telemetry::Snapshot RealThreadsAllocator::TelemetrySnapshot() const {
  // Thread-cache aggregates. Quiescence contract: every worker has joined
  // (or only the caller is running), so plain reads are race-free.
  uint64_t allocations = 0, frees = 0;
  uint64_t fast_alloc_hits = 0, fast_free_hits = 0;
  uint64_t underflows = 0, overflows = 0;
  uint64_t large_allocations = 0, large_frees = 0;
  int64_t live_bytes = 0;
  uint64_t thread_cached_objects = 0;
  double thread_cached_bytes = 0;
  size_t in_use = 0, idle = 0;
  {
    std::lock_guard<std::mutex> guard(threads_mu_);
    idle = static_cast<size_t>(idle_caches_);
    in_use = threads_.size() - idle;
    // Parked caches still count: their cumulative counters hold the
    // history of every thread that used them.
    for (const auto& tc : threads_) {
      allocations += tc->allocations;
      frees += tc->frees;
      fast_alloc_hits += tc->fast_alloc_hits;
      fast_free_hits += tc->fast_free_hits;
      underflows += tc->underflows;
      overflows += tc->overflows;
      large_allocations += tc->large_allocations;
      large_frees += tc->large_frees;
      live_bytes += tc->live_bytes;
      for (int cls = 0; cls < num_classes_; ++cls) {
        size_t n = tc->lists[cls].count;
        thread_cached_objects += n;
        thread_cached_bytes +=
            static_cast<double>(n) *
            static_cast<double>(size_classes_->class_size(cls));
      }
    }
  }

  // Shard aggregates.
  uint64_t transfer_acq = 0, transfer_contended = 0;
  uint64_t transfer_inserts = 0, transfer_inserted = 0;
  uint64_t transfer_overflows = 0;
  uint64_t transfer_removes = 0, transfer_removed = 0, transfer_misses = 0;
  uint64_t transfer_cached = 0;
  for (size_t i = 0; i < grid_size_; ++i) {
    const TransferShard& ts = transfer_[i];
    transfer_acq += ts.lock.acquisitions();
    transfer_contended += ts.lock.contended();
    transfer_inserts += ts.inserts;
    transfer_inserted += ts.inserted_objects;
    transfer_overflows += ts.insert_overflows;
    transfer_removes += ts.removes;
    transfer_removed += ts.removed_objects;
    transfer_misses += ts.remove_misses;
    transfer_cached += ts.count;
  }
  uint64_t cfl_acq = 0, cfl_contended = 0;
  uint64_t refills = 0, refill_stalls = 0;
  uint64_t steals = 0, stolen_objects = 0, steal_probes = 0;
  uint64_t carves = 0, carved_objects = 0;
  uint64_t cfl_free = 0;
  for (size_t i = 0; i < grid_size_; ++i) {
    const CflShard& cs = cfl_[i];
    cfl_acq += cs.lock.acquisitions();
    cfl_contended += cs.lock.contended();
    refills += cs.refills;
    refill_stalls += cs.refill_stalls;
    steals += cs.steals;
    stolen_objects += cs.stolen_objects;
    steal_probes += cs.steal_probes;
    carves += cs.carves;
    carved_objects += cs.carved_objects;
    cfl_free += cs.count;
  }

  telemetry::MetricRegistry registry;
  registry.BeginExport();
  registry.ExportCounter("allocator", "allocations", allocations);
  registry.ExportCounter("allocator", "frees", frees);
  registry.ExportCounter("allocator", "large_allocations", large_allocations);
  registry.ExportCounter("allocator", "large_frees", large_frees);
  registry.ExportCounter("allocator", "carved_objects", carved_objects);
  registry.ExportGauge("allocator", "live_objects",
                       static_cast<double>(allocations - frees));
  registry.ExportGauge("allocator", "live_bytes",
                       static_cast<double>(live_bytes));
  registry.ExportGauge("allocator", "cached_objects",
                       static_cast<double>(thread_cached_objects +
                                           transfer_cached + cfl_free));
  registry.ExportGauge("allocator", "footprint_bytes",
                       static_cast<double>(FootprintBytes()));
  registry.ExportGauge("allocator", "arena_used_bytes",
                       static_cast<double>(ArenaUsedBytes()));

  registry.ExportCounter("thread_cache", "fast_alloc_hits", fast_alloc_hits);
  registry.ExportCounter("thread_cache", "fast_free_hits", fast_free_hits);
  registry.ExportCounter("thread_cache", "underflows", underflows);
  registry.ExportCounter("thread_cache", "overflows", overflows);
  registry.ExportGauge("thread_cache", "registered_threads",
                       static_cast<double>(in_use));
  registry.ExportGauge("thread_cache", "idle_caches",
                       static_cast<double>(idle));
  registry.ExportGauge("thread_cache", "cached_objects",
                       static_cast<double>(thread_cached_objects));
  registry.ExportGauge("thread_cache", "cached_bytes", thread_cached_bytes);

  registry.ExportCounter("sharded_transfer", "inserts", transfer_inserts);
  registry.ExportCounter("sharded_transfer", "inserted_objects",
                         transfer_inserted);
  registry.ExportCounter("sharded_transfer", "insert_overflows",
                         transfer_overflows);
  registry.ExportCounter("sharded_transfer", "removes", transfer_removes);
  registry.ExportCounter("sharded_transfer", "removed_objects",
                         transfer_removed);
  registry.ExportCounter("sharded_transfer", "remove_misses",
                         transfer_misses);
  registry.ExportGauge("sharded_transfer", "cached_objects",
                       static_cast<double>(transfer_cached));

  registry.ExportCounter("sharded_cfl", "refills", refills);
  registry.ExportCounter("sharded_cfl", "carves", carves);
  registry.ExportCounter("sharded_cfl", "carved_objects", carved_objects);
  registry.ExportGauge("sharded_cfl", "free_objects",
                       static_cast<double>(cfl_free));
  registry.ExportGauge("sharded_cfl", "num_shards",
                       static_cast<double>(num_shards_));

  // The contention component the fig_mt_scaling bench and
  // check_bench_json.py key on: lock traffic, refill stalls, and how the
  // stalls were resolved (steal vs carve).
  registry.ExportCounter("contention", "transfer_lock_acquisitions",
                         transfer_acq);
  registry.ExportCounter("contention", "transfer_lock_contended",
                         transfer_contended);
  registry.ExportCounter("contention", "cfl_lock_acquisitions", cfl_acq);
  registry.ExportCounter("contention", "cfl_lock_contended", cfl_contended);
  registry.ExportCounter("contention", "refill_stalls", refill_stalls);
  registry.ExportCounter("contention", "work_steals", steals);
  registry.ExportCounter("contention", "stolen_objects", stolen_objects);
  registry.ExportCounter("contention", "steal_probes", steal_probes);
  registry.ExportCounter("contention", "arena_carves",
                         carves + large_carves_.load(
                                      std::memory_order_relaxed));

  // Backing release/commit traffic and the pending large pool.
  const MemoryBackingStats& bs = backing_.stats();
  registry.ExportCounter("system", "release_calls", bs.release_calls);
  registry.ExportCounter("system", "released_bytes", bs.released_bytes);
  registry.ExportCounter("system", "recommitted_bytes", bs.recommitted_bytes);
  registry.ExportGauge("system", "reserved_bytes",
                       static_cast<double>(backing_.reserved_bytes()));
  registry.ExportGauge(
      "allocator", "large_pending_bytes",
      static_cast<double>(large_free_pages_.load(std::memory_order_relaxed)
                          << kPageShift));
  return registry.TakeSnapshot();
}

}  // namespace wsc::tcmalloc
