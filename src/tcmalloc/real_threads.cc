#include "tcmalloc/real_threads.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "tcmalloc/transfer_cache.h"

namespace wsc::tcmalloc {

namespace {

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

// Pushes objs in reverse, so pops hand them out in array order.
void PutIntrusive(uintptr_t& head, uint32_t& count, const uintptr_t* objs,
                  int n) {
  for (int i = n - 1; i >= 0; --i) {
    *reinterpret_cast<uintptr_t*>(objs[i]) = head;
    head = objs[i];
  }
  count += static_cast<uint32_t>(n);
}

// Default reservation. Untouched address space is nearly free, but the
// directory and pagemap cost 8 bytes per 8 KiB page of reservation.
constexpr size_t kDefaultReserveBytes = size_t{256} << 30;  // 256 GiB

// The reservation size for `config`. A config without real_memory is the
// simulated Allocator's, so reaching here with one is a caller bug.
size_t ReserveBytes(const AllocatorConfig& config) {
  WSC_CHECK(config.real_memory);
  return config.real_memory_reserve_bytes != 0
             ? config.real_memory_reserve_bytes
             : kDefaultReserveBytes;
}

// The occupancy list of a span with `allocated` objects out: the paper's
// max(0, L - log2(allocated)), zero-based as in the simulator's
// CentralFreeList::ListIndexFor, so the fullest spans sit on list 0.
int ListIndexFor(int allocated) {
  constexpr int kLast = RealCentralFreeList::kNumLists - 1;
  if (allocated <= 0) return kLast;
  int idx = kLast - (std::bit_width(static_cast<unsigned>(allocated)) - 1);
  return idx < 0 ? 0 : idx;
}

// Doubly-linked list helpers over RealSpan::prev/next.
void PushFront(RealSpan*& head, RealSpan* span) {
  span->prev = nullptr;
  span->next = head;
  if (head != nullptr) head->prev = span;
  head = span;
}

void Unlink(RealSpan*& head, RealSpan* span) {
  if (span->prev != nullptr) {
    span->prev->next = span->next;
  } else {
    head = span->next;
  }
  if (span->next != nullptr) span->next->prev = span->prev;
  span->prev = span->next = nullptr;
}

// Moves `span` to the occupancy list its allocated count calls for, or
// off every list once it has no free object.
void Relist(RealCentralFreeList& cfl, RealSpan* span) {
  uint8_t target = span->allocated == cfl.objects_per_span
                       ? RealSpan::kUnlisted
                       : static_cast<uint8_t>(ListIndexFor(span->allocated));
  if (target == span->list) return;
  if (span->list != RealSpan::kUnlisted) Unlink(cfl.lists[span->list], span);
  if (target != RealSpan::kUnlisted) PushFront(cfl.lists[target], span);
  span->list = target;
}

uintptr_t RoundUp(uintptr_t n, uintptr_t align) {
  return (n + align - 1) / align * align;
}

}  // namespace

// ---- The page heap ------------------------------------------------------

RealPageHeap::RealPageHeap(size_t reserve_bytes) : backing_(reserve_bytes) {
  WSC_CHECK(backing_.ok());
  base_ = backing_.base();
  end_ = backing_.end();
  base_page_ = base_ >> kPageShift;
  top_page_ = base_page_;
  total_pages_ = backing_.reserved_bytes() >> kPageShift;
  // Every run holds at least one page, so there are never more runs than
  // pages.
  max_records_ = total_pages_ + 1;
  // The backing reserves whole, aligned hugepages.
  total_hugepages_ = total_pages_ / kPagesPerHugePage;
  dir_ = reinterpret_cast<std::atomic<uint32_t>*>(
      RealMemoryBacking::MapMetadata(total_pages_ * sizeof(uint32_t)));
  pagemap_ = reinterpret_cast<uint32_t*>(
      RealMemoryBacking::MapMetadata(total_pages_ * sizeof(uint32_t)));
  live_pages_ = reinterpret_cast<uint16_t*>(
      RealMemoryBacking::MapMetadata(total_hugepages_ * sizeof(uint16_t)));
  records_ = reinterpret_cast<RealSpan*>(
      RealMemoryBacking::MapMetadata(max_records_ * sizeof(RealSpan)));
  WSC_CHECK(dir_ != nullptr && pagemap_ != nullptr &&
            live_pages_ != nullptr && records_ != nullptr);
}

RealPageHeap::~RealPageHeap() {
  RealMemoryBacking::UnmapMetadata(reinterpret_cast<uintptr_t>(dir_),
                                   total_pages_ * sizeof(uint32_t));
  RealMemoryBacking::UnmapMetadata(reinterpret_cast<uintptr_t>(pagemap_),
                                   total_pages_ * sizeof(uint32_t));
  RealMemoryBacking::UnmapMetadata(reinterpret_cast<uintptr_t>(live_pages_),
                                   total_hugepages_ * sizeof(uint16_t));
  RealMemoryBacking::UnmapMetadata(reinterpret_cast<uintptr_t>(records_),
                                   max_records_ * sizeof(RealSpan));
}

RealSpan* RealPageHeap::NewRecord() {
  RealSpan* span = free_records_;
  if (span != nullptr) {
    free_records_ = span->next;
  } else {
    WSC_CHECK_LT(next_record_, max_records_);
    span = &records_[next_record_++];
  }
  *span = RealSpan();
  return span;
}

void RealPageHeap::FreeRecord(RealSpan* span) {
  span->next = free_records_;
  free_records_ = span;
}

void RealPageHeap::MapBoundaries(RealSpan* span) {
  uint32_t idx = index_of(span);
  pagemap_[span->first_page - base_page_] = idx;
  pagemap_[span->first_page + span->pages - 1 - base_page_] = idx;
}

void RealPageHeap::CountLive(const RealSpan* run, int delta) {
  uintptr_t page = run->first_page - base_page_;
  const uintptr_t end = page + run->pages;
  while (page < end) {
    const size_t hp = page / kPagesPerHugePage;
    const uintptr_t next = std::min<uintptr_t>(end, (hp + 1) * kPagesPerHugePage);
    live_pages_[hp] = static_cast<uint16_t>(
        live_pages_[hp] + delta * static_cast<int>(next - page));
    page = next;
  }
}

bool RealPageHeap::NearlyEmpty(uintptr_t page) const {
  return live_pages_[(page - base_page_) / kPagesPerHugePage] <=
         kMinSubreleasePages;
}

void RealPageHeap::InsertFree(RealSpan* run) {
  FreeSet& set = free_[run->released];
  set.pages += run->pages;
  ++set.runs;
  if (run->released) {
    released_pages_.fetch_add(run->pages, std::memory_order_relaxed);
  }
  if (run->pages <= kMaxBinPages) {
    PushFront(set.bins[run->pages], run);
    set.nonempty[run->pages / 64] |= uint64_t{1} << (run->pages % 64);
    return;
  }
  // Sorted by (pages, first_page): the first run that fits is the best.
  RealSpan* prev = nullptr;
  RealSpan* cur = set.large;
  while (cur != nullptr &&
         (cur->pages < run->pages ||
          (cur->pages == run->pages && cur->first_page < run->first_page))) {
    prev = cur;
    cur = cur->next;
  }
  run->prev = prev;
  run->next = cur;
  if (cur != nullptr) cur->prev = run;
  if (prev != nullptr) {
    prev->next = run;
  } else {
    set.large = run;
  }
}

void RealPageHeap::RemoveFree(RealSpan* run) {
  FreeSet& set = free_[run->released];
  set.pages -= run->pages;
  --set.runs;
  if (run->released) {
    released_pages_.fetch_sub(run->pages, std::memory_order_relaxed);
  }
  if (run->pages <= kMaxBinPages) {
    Unlink(set.bins[run->pages], run);
    if (set.bins[run->pages] == nullptr) {
      set.nonempty[run->pages / 64] &= ~(uint64_t{1} << (run->pages % 64));
    }
    return;
  }
  Unlink(set.large, run);
}

void RealPageHeap::MergeAndInsert(RealSpan* run) {
  if (run->first_page > base_page_) {
    RealSpan* prev = record(run->first_page - 1);
    if (prev->state == RealSpan::kFree && prev->released == run->released) {
      RemoveFree(prev);
      run->first_page = prev->first_page;
      run->pages += prev->pages;
      FreeRecord(prev);
    }
  }
  uintptr_t after = run->first_page + run->pages;
  if (after < top_page_) {
    RealSpan* next = record(after);
    if (next->state == RealSpan::kFree && next->released == run->released) {
      RemoveFree(next);
      run->pages += next->pages;
      FreeRecord(next);
    }
  }
  MapBoundaries(run);
  InsertFree(run);
}

RealSpan* RealPageHeap::BestFit(FreeSet& set, Length pages) {
  if (pages <= kMaxBinPages) {
    // The smallest non-empty exact bin of at least `pages`.
    for (size_t w = pages / 64; w < kBinWords; ++w) {
      uint64_t bits = set.nonempty[w];
      if (w == pages / 64) bits &= ~uint64_t{0} << (pages % 64);
      if (bits != 0) return set.bins[w * 64 + std::countr_zero(bits)];
    }
  }
  for (RealSpan* run = set.large; run != nullptr; run = run->next) {
    if (run->pages >= pages) return run;
  }
  return nullptr;
}

void RealPageHeap::Trim(RealSpan* run, Length offset, Length pages) {
  // The pieces either side keep the run's state. Their outer neighbours
  // were never free runs of that state, so they need no merge.
  if (offset > 0) {
    RealSpan* head = NewRecord();
    head->first_page = run->first_page;
    head->pages = static_cast<uint32_t>(offset);
    head->released = run->released;
    MapBoundaries(head);
    InsertFree(head);
  }
  if (offset + pages < run->pages) {
    RealSpan* tail = NewRecord();
    tail->first_page = run->first_page + offset + pages;
    tail->pages = static_cast<uint32_t>(run->pages - offset - pages);
    tail->released = run->released;
    MapBoundaries(tail);
    InsertFree(tail);
  }
  run->first_page += offset;
  run->pages = static_cast<uint32_t>(pages);
}

RealSpan* RealPageHeap::Carve(RealSpan* run, Length offset, Length pages) {
  RemoveFree(run);
  Trim(run, offset, pages);
  if (run->released) backing_.Commit(LengthToBytes(pages));
  run->released = false;
  return run;
}

RealSpan* RealPageHeap::AllocateLocked(Length pages, Length align_pages) {
  // Resident runs first, so a request reuses memory the process already
  // holds before refaulting released pages. A run of pages + align - 1
  // pages always holds an aligned block of `pages`.
  const Length need = pages + align_pages - 1;
  for (FreeSet& set : free_) {
    if (RealSpan* run = BestFit(set, need)) {
      return Carve(run, RoundUp(run->first_page, align_pages) -
                            run->first_page,
                   pages);
    }
  }
  // Grow. Written so that no sum can wrap: `pages` and `align_pages` are
  // at most the reservation's page count.
  const uintptr_t start = RoundUp(top_page_, align_pages);
  const uintptr_t limit = base_page_ + total_pages_;
  if (start > limit || pages > limit - start) return nullptr;
  if (start > top_page_) {
    // The alignment gap becomes a free run. It was never touched, so it
    // costs address space only, but it is accounted as resident until
    // it is reused or released.
    RealSpan* gap = NewRecord();
    gap->first_page = top_page_;
    gap->pages = static_cast<uint32_t>(start - top_page_);
    top_page_ = start;
    MergeAndInsert(gap);
  }
  top_page_ = start + pages;
  used_pages_.store(top_page_ - base_page_, std::memory_order_relaxed);
  RealSpan* run = NewRecord();
  run->first_page = start;
  run->pages = static_cast<uint32_t>(pages);
  return run;
}

RealSpan* RealPageHeap::NewSpan(int cls, Length pages) {
  lock_.Lock();
  RealSpan* span = AllocateLocked(pages, 1);
  if (span != nullptr) {
    CountLive(span, +1);
    span->state = RealSpan::kSmall;
    span->allocated = 0;
    span->list = RealSpan::kUnlisted;
    // Every page maps to the span (an object's page finds its record),
    // and the directory names the class on every page before any object
    // escapes through the caller's class lock.
    const uint32_t idx = index_of(span);
    for (Length p = 0; p < pages; ++p) {
      pagemap_[span->first_page + p - base_page_] = idx;
      dir_[span->first_page + p - base_page_].store(
          static_cast<uint32_t>(cls) + 1, std::memory_order_relaxed);
    }
  }
  lock_.Unlock();
  return span;
}

RealSpan* RealPageHeap::NewLarge(Length pages, Length align_pages) {
  lock_.Lock();
  const uintptr_t top_before = top_page_;
  RealSpan* span = AllocateLocked(pages, align_pages);
  if (span != nullptr) {
    CountLive(span, +1);
    if (top_page_ != top_before) ++large_fresh_;
    span->state = RealSpan::kLarge;
    MapBoundaries(span);
    dir_[span->first_page - base_page_].store(
        kDirLargeFlag | static_cast<uint32_t>(pages),
        std::memory_order_relaxed);
  }
  lock_.Unlock();
  return span;
}

void RealPageHeap::Delete(RealSpan* const* runs, int n) {
  lock_.Lock();
  for (int i = 0; i < n; ++i) {
    RealSpan* run = runs[i];
    // Free pages read 0 in the directory: a stale pointer into them is
    // unknown to FreeAddr and UsableSize.
    const Length cleared = run->state == RealSpan::kSmall ? run->pages : 1;
    for (Length p = 0; p < cleared; ++p) {
      dir_[run->first_page + p - base_page_].store(0,
                                                   std::memory_order_relaxed);
    }
    CountLive(run, -1);
    run->state = RealSpan::kFree;
    run->released = false;
    MergeAndInsert(run);
  }
  const size_t free_bytes = LengthToBytes(free_[0].pages);
  if (release_threshold_bytes_ > 0 && free_bytes > release_threshold_bytes_) {
    ReleaseLocked(free_bytes - release_threshold_bytes_ / 2,
                  /*split_hugepages=*/false);
  }
  lock_.Unlock();
}

size_t RealPageHeap::ReleaseRun(RealSpan* run, Length offset, Length pages) {
  const size_t released = backing_.Release(
      (run->first_page + offset) << kPageShift, LengthToBytes(pages));
  if (released == 0) {
    InsertFree(run);
    return 0;
  }
  Trim(run, offset, pages);
  run->released = true;
  MergeAndInsert(run);
  return released;
}

size_t RealPageHeap::ReleaseLocked(size_t want_bytes, bool split_hugepages) {
  FreeSet& resident = free_[0];
  size_t done = 0;
  // Pass 1: whole hugepages. Only a resident run of at least a hugepage's
  // pages can hold one; take them all off their lists first, so the
  // resident pieces this pass files are not visited again.
  RealSpan* pending = nullptr;
  auto take_all = [&](RealSpan* head) {
    while (head != nullptr) {
      RealSpan* run = head;
      head = run->next;
      RemoveFree(run);
      run->next = pending;
      pending = run;
    }
  };
  take_all(resident.large);
  take_all(resident.bins[kMaxBinPages]);
  while (pending != nullptr) {
    RealSpan* run = pending;
    pending = run->next;
    const uintptr_t lo = RoundUp(run->first_page, kPagesPerHugePage);
    const uintptr_t hi =
        (run->first_page + run->pages) / kPagesPerHugePage * kPagesPerHugePage;
    if (done >= want_bytes || lo >= hi) {
      InsertFree(run);
      continue;
    }
    done += ReleaseRun(run, lo - run->first_page, hi - lo);
  }
  if (!split_hugepages) return done;
  // Pass 2, for the rest of an explicit request: free runs in hugepages
  // that hold live runs, wherever splitting the hugepage pays — the long
  // runs first, then the bins from the longest.
  auto release_list = [&](RealSpan* run) {
    while (run != nullptr && done < want_bytes) {
      RealSpan* next = run->next;
      // A short run touches at most two hugepages and is judged by each:
      // the pieces in nearly empty ones go, the rest stays resident.
      Length begin = 0;
      Length end = run->pages;
      if (run->pages < kMinSubreleasePages) {
        const Length split = std::min<Length>(
            run->pages, RoundUp(run->first_page + 1, kPagesPerHugePage) -
                            run->first_page);
        if (!NearlyEmpty(run->first_page)) begin = split;
        if (split < run->pages && !NearlyEmpty(run->first_page + split)) {
          end = split;
        }
      }
      if (begin < end) {
        RemoveFree(run);
        done += ReleaseRun(run, begin, end - begin);
      }
      run = next;
    }
  };
  release_list(resident.large);
  for (Length n = kMaxBinPages; n > 0 && done < want_bytes; --n) {
    release_list(resident.bins[n]);
  }
  return done;
}

size_t RealPageHeap::Release(size_t bytes) {
  lock_.Lock();
  size_t released = ReleaseLocked(bytes, /*split_hugepages=*/true);
  lock_.Unlock();
  return released;
}

RealPageHeap::Stats RealPageHeap::GetStats() const {
  lock_.Lock();
  Stats stats;
  stats.free_bytes = LengthToBytes(free_[0].pages);
  stats.released_bytes = LengthToBytes(free_[1].pages);
  stats.free_runs = free_[0].runs;
  stats.released_runs = free_[1].runs;
  stats.large_fresh = large_fresh_;
  stats.lock_acquisitions = lock_.acquisitions();
  stats.lock_contended = lock_.contended();
  stats.backing = backing_.stats();
  lock_.Unlock();
  return stats;
}

// ---- The allocator ----------------------------------------------------

RealThreadsAllocator::RealThreadsAllocator(const AllocatorConfig& config,
                                           int /*expected_threads*/,
                                           const SizeClasses* size_classes)
    : size_classes_(size_classes),
      num_classes_(size_classes->num_classes()),
      page_heap_(ReserveBytes(config)) {
  thread_cap_.resize(num_classes_);
  transfer_ = std::make_unique<RealTransferCache[]>(num_classes_);
  central_ = std::make_unique<RealCentralFreeList[]>(num_classes_);
  for (int cls = 0; cls < num_classes_; ++cls) {
    const SizeClassInfo& info = size_classes_->info(cls);
    WSC_CHECK_LE(info.batch_size, kMaxBatch);
    WSC_CHECK_LE(info.objects_per_span, RealSpan::kBitmapWords * 64);
    thread_cap_[cls] = static_cast<uint32_t>(info.max_per_cpu_objects);
    transfer_[cls].capacity = static_cast<uint32_t>(
        TransferCacheCapacity(*size_classes_, config, cls));
    RealCentralFreeList& cfl = central_[cls];
    cfl.object_size = static_cast<uint32_t>(info.size);
    cfl.objects_per_span = static_cast<uint32_t>(info.objects_per_span);
    cfl.bitmap_words = (cfl.objects_per_span + 63) / 64;
    cfl.pages_per_span = static_cast<uint32_t>(info.pages_per_span);
    cfl.reciprocal = ((uint64_t{1} << 32) + info.size - 1) / info.size;
  }

  arena_base_ = page_heap_.base();
  arena_end_ = page_heap_.end();
  // The object's first word doubles as the freelist link, so every class
  // must hold one.
  WSC_CHECK_GE(size_classes_->class_size(0), sizeof(uintptr_t));
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
  tc->lists.resize(num_classes_);
  for (int cls = 0; cls < num_classes_; ++cls) {
    tc->lists[cls].cap = thread_cap_[cls];
  }
  RealThreadCache* raw = tc.get();
  threads_.push_back(std::move(tc));
  return raw;
}

void RealThreadsAllocator::UnregisterThread(RealThreadCache* tc) {
  // The flush drops every class and page-heap lock before the registry
  // lock is taken, so the lock order stays ForkPrepare's (registry
  // first).
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
      InsertToCentral(cls, buf, moved);
    }
  }
}

uintptr_t RealThreadsAllocator::SlowAllocate(RealThreadCache* tc, int cls) {
  const int batch = size_classes_->batch_size(cls);
  uintptr_t buf[kMaxBatch];

  // One lock on the class's transfer cache for the whole batch.
  RealTransferCache& tx = transfer_[cls];
  tx.lock.Lock();
  ++tx.removes;
  int got = TakeIntrusive(tx.head, tx.count, buf, batch);
  tx.removed_objects += static_cast<uint64_t>(got);
  if (got == 0) ++tx.remove_misses;
  if (got < batch) ++tx.short_removes;
  tx.lock.Unlock();

  if (got < batch) got += RemoveFromCentral(cls, buf + got, batch - got);
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

  RealTransferCache& tx = transfer_[cls];
  tx.lock.Lock();
  ++tx.inserts;
  int room = static_cast<int>(tx.capacity) - static_cast<int>(tx.count);
  int put = std::clamp(room, 0, moved);
  PutIntrusive(tx.head, tx.count, buf, put);
  tx.inserted_objects += static_cast<uint64_t>(put);
  tx.overflowed_objects += static_cast<uint64_t>(moved - put);
  if (put < moved) ++tx.insert_overflows;
  tx.lock.Unlock();

  if (put < moved) InsertToCentral(cls, buf + put, moved - put);
  PutIntrusive(list.head, list.count, &obj, 1);
}

int RealThreadsAllocator::RemoveFromCentral(int cls, uintptr_t* out,
                                            int want) {
  RealCentralFreeList& cfl = central_[cls];
  cfl.lock.Lock();
  ++cfl.refills;
  bool stalled = false;
  int got = 0;
  while (got < want) {
    // The fullest span with a free object: allocating there packs live
    // objects densely, so emptier spans get the chance to drain and go
    // back to the page heap.
    RealSpan* span = nullptr;
    for (RealSpan* head : cfl.lists) {
      if (head != nullptr) {
        span = head;
        break;
      }
    }
    if (span == nullptr) {
      if (!stalled) ++cfl.refill_stalls;
      stalled = true;
      span = page_heap_.NewSpan(cls, cfl.pages_per_span);
      if (span == nullptr) break;  // reservation exhausted
      for (uint32_t w = 0; w < cfl.bitmap_words; ++w) {
        uint32_t bits = std::min(64u, cfl.objects_per_span - 64 * w);
        span->free_bits[w] = bits == 64 ? ~uint64_t{0}
                                        : (uint64_t{1} << bits) - 1;
      }
      ++cfl.spans;
      ++cfl.fetched_spans;
      cfl.free_objects += cfl.objects_per_span;
    }
    // Lowest free index first: a fresh span hands out ascending
    // addresses.
    const uintptr_t base = span->base();
    int taken = 0;
    for (uint32_t w = 0; w < cfl.bitmap_words && got + taken < want; ++w) {
      uint64_t bits = span->free_bits[w];
      while (bits != 0 && got + taken < want) {
        const uint32_t idx = 64 * w + std::countr_zero(bits);
        bits &= bits - 1;
        out[got + taken++] = base + static_cast<uintptr_t>(idx) *
                                        cfl.object_size;
      }
      span->free_bits[w] = bits;
    }
    span->allocated = static_cast<uint16_t>(span->allocated + taken);
    cfl.free_objects -= static_cast<uint64_t>(taken);
    got += taken;
    Relist(cfl, span);
  }
  cfl.lock.Unlock();
  return got;
}

void RealThreadsAllocator::InsertToCentral(int cls, const uintptr_t* objs,
                                           int count) {
  RealCentralFreeList& cfl = central_[cls];
  RealSpan* empty[kMaxBatch];
  int num_empty = 0;
  cfl.lock.Lock();
  for (int i = 0; i < count; ++i) {
    RealSpan* span = page_heap_.SpanOf(objs[i]);
    const uint32_t idx = static_cast<uint32_t>(
        ((objs[i] - span->base()) * cfl.reciprocal) >> 32);
    span->free_bits[idx / 64] |= uint64_t{1} << (idx % 64);
    --span->allocated;
    ++cfl.free_objects;
    if (span->allocated == 0) {
      // The span's last object came back: it leaves the list for the page
      // heap.
      if (span->list != RealSpan::kUnlisted) {
        Unlink(cfl.lists[span->list], span);
      }
      --cfl.spans;
      ++cfl.returned_spans;
      cfl.free_objects -= cfl.objects_per_span;
      empty[num_empty++] = span;
    } else {
      Relist(cfl, span);
    }
  }
  cfl.lock.Unlock();
  // No object of an empty span is reachable, so it can wait for the page
  // heap outside the class lock; the heap takes the batch in one lock.
  if (num_empty > 0) page_heap_.Delete(empty, num_empty);
}

uintptr_t RealThreadsAllocator::AllocateLarge(RealThreadCache* tc,
                                              size_t size, size_t align) {
  WSC_DCHECK((align & (align - 1)) == 0 && align >= kPageSize);
  // Refuse before rounding, which wraps near SIZE_MAX: nothing larger
  // than the reservation fits, nor more pages than a directory entry's
  // 31-bit count holds.
  const size_t reserved = arena_end_ - arena_base_;
  if (size > reserved || align > reserved ||
      size > (static_cast<size_t>(~RealPageHeap::kDirLargeFlag)
              << kPageShift)) {
    return 0;
  }
  const Length pages = BytesToLengthCeil(size);
  RealSpan* span = page_heap_.NewLarge(pages, align >> kPageShift);
  if (span == nullptr) return 0;
  const size_t bytes = LengthToBytes(pages);
  ++tc->allocations;
  ++tc->large_allocations;
  large_live_bytes_.fetch_add(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
  tc->live_bytes += static_cast<int64_t>(bytes);
  return span->base();
}

void RealThreadsAllocator::FreeLarge(RealThreadCache* tc, uintptr_t addr) {
  uint32_t entry = page_heap_.dir_entry(addr).load(std::memory_order_relaxed);
  WSC_CHECK(entry & RealPageHeap::kDirLargeFlag);
  const size_t bytes =
      static_cast<size_t>(entry & ~RealPageHeap::kDirLargeFlag) << kPageShift;
  ++tc->frees;
  ++tc->large_frees;
  large_live_bytes_.fetch_sub(static_cast<int64_t>(bytes),
                              std::memory_order_relaxed);
  tc->live_bytes -= static_cast<int64_t>(bytes);
  RealSpan* span = page_heap_.SpanOf(addr);
  page_heap_.Delete(&span, 1);
}

size_t RealThreadsAllocator::ReleaseMemoryToSystem(size_t bytes) {
  // Transfer caches first: their objects may be the last ones out of
  // spans that can then come back.
  uintptr_t buf[kMaxBatch];
  for (int cls = 0; cls < num_classes_; ++cls) {
    RealTransferCache& tx = transfer_[cls];
    tx.lock.Lock();
    uintptr_t head = std::exchange(tx.head, 0);
    uint32_t count = std::exchange(tx.count, 0);
    tx.lock.Unlock();
    while (count > 0) {
      int moved = TakeIntrusive(head, count, buf, kMaxBatch);
      InsertToCentral(cls, buf, moved);
    }
  }
  return page_heap_.Release(bytes);
}

void RealThreadsAllocator::ForkPrepare() {
  // Fixed order (the reverse of ForkRelease). Holding them all across
  // fork() means no lock in the child's copy belongs to a thread that no
  // longer exists.
  threads_mu_.lock();
  for (int cls = 0; cls < num_classes_; ++cls) {
    transfer_[cls].lock.Lock();
    central_[cls].lock.Lock();
  }
  page_heap_.Lock();
}

void RealThreadsAllocator::ForkRelease() {
  page_heap_.Unlock();
  for (int cls = num_classes_ - 1; cls >= 0; --cls) {
    central_[cls].lock.Unlock();
    transfer_[cls].lock.Unlock();
  }
  threads_mu_.unlock();
}

void RealThreadsAllocator::FreeAddr(RealThreadCache* tc, uintptr_t addr) {
  uint32_t entry = page_heap_.dir_entry(addr).load(std::memory_order_relaxed);
  if (entry == 0) return;  // unknown page: stale/foreign pointer, ignore
  if (entry & RealPageHeap::kDirLargeFlag) {
    // Only the exact block start is a valid large pointer.
    WSC_CHECK_EQ(addr & (kPageSize - 1), uintptr_t{0});
    FreeLarge(tc, addr);
    return;
  }
  FreeClass(tc, static_cast<int>(entry) - 1, addr);
}

size_t RealThreadsAllocator::UsableSize(uintptr_t addr) const {
  if (!Owns(addr)) return 0;
  uint32_t entry = page_heap_.dir_entry(addr).load(std::memory_order_relaxed);
  if (entry == 0) return 0;
  if (entry & RealPageHeap::kDirLargeFlag) {
    return static_cast<size_t>(entry & ~RealPageHeap::kDirLargeFlag)
           << kPageShift;
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

  // Transfer aggregates.
  uint64_t transfer_acq = 0, transfer_contended = 0;
  uint64_t transfer_inserts = 0, transfer_inserted = 0;
  uint64_t transfer_overflows = 0, transfer_overflowed = 0;
  uint64_t transfer_removes = 0, transfer_removed = 0, transfer_misses = 0;
  uint64_t transfer_short = 0, transfer_cached = 0;
  double transfer_cached_bytes = 0;
  for (int cls = 0; cls < num_classes_; ++cls) {
    const RealTransferCache& tx = transfer_[cls];
    transfer_acq += tx.lock.acquisitions();
    transfer_contended += tx.lock.contended();
    transfer_inserts += tx.inserts;
    transfer_inserted += tx.inserted_objects;
    transfer_overflows += tx.insert_overflows;
    transfer_overflowed += tx.overflowed_objects;
    transfer_removes += tx.removes;
    transfer_removed += tx.removed_objects;
    transfer_misses += tx.remove_misses;
    transfer_short += tx.short_removes;
    transfer_cached += tx.count;
    transfer_cached_bytes +=
        static_cast<double>(tx.count) *
        static_cast<double>(size_classes_->class_size(cls));
  }

  // Central free list aggregates.
  uint64_t cfl_acq = 0, cfl_contended = 0;
  uint64_t refills = 0, refill_stalls = 0;
  uint64_t fetched_spans = 0, returned_spans = 0, spans = 0;
  uint64_t span_objects = 0, cfl_free = 0;
  double cfl_free_bytes = 0;
  for (int cls = 0; cls < num_classes_; ++cls) {
    const RealCentralFreeList& cfl = central_[cls];
    cfl_acq += cfl.lock.acquisitions();
    cfl_contended += cfl.lock.contended();
    refills += cfl.refills;
    refill_stalls += cfl.refill_stalls;
    fetched_spans += cfl.fetched_spans;
    returned_spans += cfl.returned_spans;
    spans += cfl.spans;
    span_objects += cfl.spans * cfl.objects_per_span;
    cfl_free += cfl.free_objects;
    cfl_free_bytes += static_cast<double>(cfl.free_objects) *
                      static_cast<double>(cfl.object_size);
  }

  // The page heap's counters, copied under its lock before the registry
  // below allocates (through this allocator, when it is the shim).
  const RealPageHeap::Stats heap = page_heap_.GetStats();

  telemetry::MetricRegistry registry;
  registry.BeginExport();
  registry.ExportCounter("allocator", "allocations", allocations);
  registry.ExportCounter("allocator", "frees", frees);
  registry.ExportCounter("allocator", "large_allocations", large_allocations);
  registry.ExportCounter("allocator", "large_frees", large_frees);
  // Objects in the spans the central lists hold: each is live or cached
  // in some tier.
  registry.ExportGauge("allocator", "carved_objects",
                       static_cast<double>(span_objects));
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
  // Free page-heap bytes, released or not (the shim's statsz field).
  registry.ExportGauge(
      "allocator", "large_pending_bytes",
      static_cast<double>(heap.free_bytes + heap.released_bytes));

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

  // The simulator's names where both measure the same quantity.
  registry.ExportCounter("transfer_cache", "inserts_accepted",
                         transfer_inserted);
  registry.ExportCounter("transfer_cache", "inserts_overflowed",
                         transfer_overflowed);
  registry.ExportCounter("transfer_cache", "misses", transfer_short);
  registry.ExportGauge("transfer_cache", "cached_bytes",
                       transfer_cached_bytes);
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

  // The simulator's central_free_list names, summed over classes.
  registry.ExportCounter("central_free_list", "fetched_spans", fetched_spans);
  registry.ExportCounter("central_free_list", "returned_spans",
                         returned_spans);
  registry.ExportGauge("central_free_list", "spans",
                       static_cast<double>(spans));
  registry.ExportGauge("central_free_list", "free_object_bytes",
                       cfl_free_bytes);
  // The names the benchmark's direct arm reads: refills, and span
  // fetches as "carves".
  registry.ExportCounter("sharded_cfl", "refills", refills);
  registry.ExportCounter("sharded_cfl", "carves", fetched_spans);

  registry.ExportGauge("page_heap", "free_bytes",
                       static_cast<double>(heap.free_bytes));
  registry.ExportGauge("page_heap", "released_bytes",
                       static_cast<double>(heap.released_bytes));
  registry.ExportGauge("page_heap", "free_runs",
                       static_cast<double>(heap.free_runs));
  registry.ExportGauge("page_heap", "released_runs",
                       static_cast<double>(heap.released_runs));

  // The contention component fig_mt_scaling and check_bench_json.py key
  // on: lock traffic per tier and the refills that had to fetch a span.
  // Nothing steals any more; the steal counters stay for the benchmark.
  registry.ExportCounter("contention", "transfer_lock_acquisitions",
                         transfer_acq);
  registry.ExportCounter("contention", "transfer_lock_contended",
                         transfer_contended);
  registry.ExportCounter("contention", "cfl_lock_acquisitions", cfl_acq);
  registry.ExportCounter("contention", "cfl_lock_contended", cfl_contended);
  registry.ExportCounter("contention", "page_heap_lock_acquisitions",
                         heap.lock_acquisitions);
  registry.ExportCounter("contention", "page_heap_lock_contended",
                         heap.lock_contended);
  registry.ExportCounter("contention", "refill_stalls", refill_stalls);
  registry.ExportCounter("contention", "work_steals", 0);
  registry.ExportCounter("contention", "stolen_objects", 0);
  registry.ExportCounter("contention", "steal_probes", 0);
  // Span fetches plus the large blocks that grew the heap.
  registry.ExportCounter("contention", "arena_carves",
                         fetched_spans + heap.large_fresh);

  // Backing release/commit traffic.
  registry.ExportCounter("system", "release_calls", heap.backing.release_calls);
  registry.ExportCounter("system", "released_bytes",
                         heap.backing.released_bytes);
  registry.ExportCounter("system", "recommitted_bytes",
                         heap.backing.recommitted_bytes);
  registry.ExportGauge("system", "reserved_bytes",
                       static_cast<double>(page_heap_.reserved_bytes()));
  return registry.TakeSnapshot();
}

}  // namespace wsc::tcmalloc
