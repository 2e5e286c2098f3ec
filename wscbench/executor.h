// The closed-loop executor both malloc arms share.
//
// Each worker thread walks its own op stream, one request at a time, and
// issues the next call only after the previous one returned. Objects get
// a canary (derived from an object id) stamped at the head, the tail and
// every 4 KiB in between, which is verified at free and after realloc;
// posix_memalign results are checked for alignment and every 16th
// allocation for malloc_usable_size >= request.
//
// `Api` adapts the allocator under test:
//   void* Malloc(size_t); void Free(void*, size_t);
//   void* Realloc(void*, size_t old_size, size_t size);
//   int Memalign(void**, size_t align, size_t size);
//   size_t Usable(void*); void Release();
//   void ThreadStart(int worker);  // -1: the main thread
//   void BeginRequest(); void EndRequest();
// Everything the executor itself needs lives in mmap'd memory, so in the
// preload arm the allocator sees only the workload's calls.

#ifndef WSCBENCH_EXECUTOR_H_
#define WSCBENCH_EXECUTOR_H_

#include <pthread.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <cstring>

#include "stats.h"
#include "workload.h"

namespace wscbench {

// Worker thread stack size (one size, so glibc's stack cache reuses them).
inline constexpr size_t kStackBytes = size_t{256} << 10;

struct Obj {
  char* p = nullptr;
  uint32_t size = 0;
  uint32_t id = 0;
};

inline uint64_t CanaryFor(uint32_t id) {
  return (static_cast<uint64_t>(id) + 1) * 0x9e3779b97f4a7c15ull ^
         0xa5a5c3c3f0f00f0full;
}

// Stamped offsets of an object of `size` bytes: 0, every 4 KiB, and the
// last word when it overlaps no other stamp. Calls fn(offset) for each;
// sizes are >= 8 by construction.
template <typename Fn>
inline void ForEachStamp(uint32_t size, Fn fn) {
  uint32_t last = 0;
  fn(0);
  for (uint32_t off = 4096; off + 8 <= size; off += 4096) fn(last = off);
  if (size >= last + 16) fn(size - 8);
}

inline void Stamp(char* p, uint32_t size, uint32_t id) {
  const uint64_t c = CanaryFor(id);
  ForEachStamp(size, [&](uint32_t off) { std::memcpy(p + off, &c, 8); });
}

// True when every stamp of an object first stamped at `stamped_size`
// that lies within its first `keep` bytes still reads the canary.
inline bool VerifyStamps(const char* p, uint32_t stamped_size, uint32_t keep,
                         uint32_t id) {
  const uint64_t c = CanaryFor(id);
  bool ok = true;
  ForEachStamp(stamped_size, [&](uint32_t off) {
    if (off + 8 > keep) return;
    uint64_t v;
    std::memcpy(&v, p + off, 8);
    ok &= v == c;
  });
  return ok;
}

// Single-producer single-consumer ring for the rpc_server handoff. The
// producer is worker w's current thread, the consumer worker w+1's; churn
// replaces threads only after a join, which orders the hand-over. Aligned
// so the consumer's hot fields never share a line with the producer's.
class alignas(64) HandoffRing {
 public:
  static constexpr uint64_t kCapacity = 1 << 15;
  HandoffRing() : buf_(kCapacity) { buf_.Resize(kCapacity); }
  bool Push(const Obj& o) {
    const uint64_t t = tail_.load(std::memory_order_relaxed);
    if (t - head_.load(std::memory_order_acquire) == kCapacity) return false;
    buf_[t & (kCapacity - 1)] = o;
    tail_.store(t + 1, std::memory_order_release);
    return true;
  }
  bool Pop(Obj* o) {
    const uint64_t h = head_.load(std::memory_order_relaxed);
    if (h == tail_.load(std::memory_order_acquire)) return false;
    *o = buf_[h & (kCapacity - 1)];
    head_.store(h + 1, std::memory_order_release);
    return true;
  }

 private:
  MmapVec<Obj> buf_;
  alignas(64) std::atomic<uint64_t> head_{0};
  alignas(64) std::atomic<uint64_t> tail_{0};
};

// Per-worker state; survives thread churn (a replacement thread resumes
// the same stream position, slots and counters).
struct alignas(64) Worker {
  MmapVec<Obj> slots;
  MmapVec<uint32_t> latency_ns;  // timed requests only
  HandoffRing inbox;
  // Owner-written from here on; a fresh line, away from inbox.tail_.
  alignas(64) size_t cursor = 0;
  uint32_t next_id = 0;
  uint64_t alloc_count = 0;
  // Counters over the timed phase.
  uint64_t calls = 0;
  uint64_t timed_requests = 0;
  uint64_t busy_ns = 0;
  uint64_t last_end_ns = 0;
  // Whole-run counters.
  uint64_t all_calls = 0;
  uint64_t failed = 0;  // calls that returned NULL / an error
  uint64_t check_failures = 0;
  uint64_t threads_started = 0;
  int64_t live_bytes = 0;  // requested bytes this worker allocated - freed
  // Thread control.
  pthread_t thread{};
  bool running = false;
  std::atomic<int> exited{0};   // 1 = churn exit, 2 = finished
  std::atomic<int> ready{0};    // warm-up done, waiting for go
  uint64_t requests_this_thread = 0;
};

template <class Api>
class Executor {
 public:
  Executor(Api* api, Streams* streams)
      : api_(api), streams_(streams), shape_(ShapeOf(streams->workload)) {
    for (int w = 0; w < shape_.workers; ++w) {
      workers_[w].slots.Reserve(streams->per_worker[w].slots);
      workers_[w].slots.Resize(streams->per_worker[w].slots);
      workers_[w].latency_ns.Reserve(size_t{1} << 25);
    }
  }
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Starts every worker, runs the untimed warm-up and returns once all
  // wait at the start line (quiescent: no allocator call in flight).
  void StartAndWarm() {
    for (int w = 0; w < shape_.workers; ++w) Spawn(w);
    for (int w = 0; w < shape_.workers; ++w) {
      while (workers_[w].ready.load(std::memory_order_acquire) == 0) Nap();
    }
  }

  // Timed phase. It ends after `seconds` or, when max_requests > 0, once
  // the workers together completed max_requests per worker (a shared
  // budget, so one slow worker does not set the run's length), whichever
  // comes first. Returns the start time.
  uint64_t RunTimed(double seconds, uint64_t max_requests) {
    max_requests_ = max_requests;
    const uint64_t start = NowNs();
    start_ns_ = start;
    go_.store(true, std::memory_order_release);
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    for (;;) {
      if (!stop_.load(std::memory_order_relaxed) && NowNs() >= deadline) {
        stop_.store(true, std::memory_order_release);
      }
      int finished = 0;
      for (int w = 0; w < shape_.workers; ++w) {
        Worker& wk = workers_[w];
        const int ex = wk.exited.load(std::memory_order_acquire);
        if (ex == 0) continue;
        if (wk.running) {
          pthread_join(wk.thread, nullptr);
          wk.running = false;
        }
        if (ex == 1) {
          Spawn(w);  // thread-per-connection churn
        } else {
          ++finished;
        }
      }
      if (finished == shape_.workers) break;
      Nap();
    }
    end_ns_ = 0;
    for (int w = 0; w < shape_.workers; ++w) {
      if (workers_[w].last_end_ns > end_ns_) end_ns_ = workers_[w].last_end_ns;
    }
    return start;
  }

  double timed_seconds() const {
    return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
  }

  // Frees every object still held (slots and inboxes) from the calling
  // thread, then releases memory.
  void Drain() {
    api_->ThreadStart(-1);
    for (int w = 0; w < shape_.workers; ++w) {
      Worker& wk = workers_[w];
      Obj o;
      while (wk.inbox.Pop(&o)) FreeObj(wk, o);
      for (size_t i = 0; i < wk.slots.size(); ++i) {
        if (wk.slots[i].p != nullptr) {
          FreeObj(wk, wk.slots[i]);
          wk.slots[i].p = nullptr;
        }
      }
    }
    api_->Release();
  }

  uint64_t TotalCalls() const { return Sum(&Worker::calls); }
  uint64_t TotalAllCalls() const { return Sum(&Worker::all_calls); }
  uint64_t TotalFailed() const { return Sum(&Worker::failed); }
  uint64_t TotalRequests() const { return Sum(&Worker::timed_requests); }
  uint64_t TotalBusyNs() const { return Sum(&Worker::busy_ns); }
  uint64_t TotalCheckFailures() const { return Sum(&Worker::check_failures); }
  uint64_t TotalThreads() const { return Sum(&Worker::threads_started); }
  int64_t LiveBytes() const {
    int64_t n = 0;
    for (int w = 0; w < shape_.workers; ++w) n += workers_[w].live_bytes;
    return n;
  }

  // Every timed request latency, sorted, into `out` (capacity reserved
  // here).
  void SortedLatencies(MmapVec<uint32_t>* out) const {
    size_t n = 0;
    for (int w = 0; w < shape_.workers; ++w) n += workers_[w].latency_ns.size();
    out->Reserve(n + 1);
    for (int w = 0; w < shape_.workers; ++w) {
      const auto& v = workers_[w].latency_ns;
      for (size_t i = 0; i < v.size(); ++i) out->Push(v[i]);
    }
    std::sort(out->data(), out->data() + out->size());
  }

 private:
  struct Arg {
    Executor* self;
    int w;
  };

  static void Nap() {
    timespec ts{0, 200000};
    nanosleep(&ts, nullptr);
  }

  uint64_t Sum(uint64_t Worker::*field) const {
    uint64_t n = 0;
    for (int w = 0; w < shape_.workers; ++w) n += workers_[w].*field;
    return n;
  }

  void Spawn(int w) {
    Worker& wk = workers_[w];
    wk.exited.store(0, std::memory_order_relaxed);
    wk.requests_this_thread = 0;
    args_[w] = Arg{this, w};
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setstacksize(&attr, kStackBytes);
    if (pthread_create(&wk.thread, &attr, &Executor::ThreadMain, &args_[w]) !=
        0) {
      std::abort();
    }
    pthread_attr_destroy(&attr);
    wk.running = true;
  }

  static void* ThreadMain(void* arg) {
    Arg* a = static_cast<Arg*>(arg);
    a->self->WorkerLoop(a->w);
    return nullptr;
  }

  void WorkerLoop(int w) {
    Worker& wk = workers_[w];
    ++wk.threads_started;
    api_->ThreadStart(w);
    const Stream& s = streams_->per_worker[w];
    if (wk.ready.load(std::memory_order_relaxed) == 0) {
      // Warm-up: a prefix of the stream, or one whole pass.
      if (shape_.warmup_requests > 0) {
        for (uint32_t r = 0; r < shape_.warmup_requests; ++r) {
          RunRequest(w, s, /*timed=*/false);
        }
      } else {
        bool wrapped = false;
        while (!wrapped) wrapped = RunRequest(w, s, false);
      }
      wk.ready.store(1, std::memory_order_release);
      while (!go_.load(std::memory_order_acquire)) Nap();
    }
    int exit_code = 2;
    for (;;) {
      const bool wrapped = RunRequest(w, s, /*timed=*/true);
      bool stop = stop_.load(std::memory_order_acquire);
      if (max_requests_ > 0 &&
          timed_total_.fetch_add(1, std::memory_order_relaxed) + 1 >=
              max_requests_ * static_cast<uint64_t>(shape_.workers)) {
        stop = true;
      }
      if (stop && (!shape_.stop_at_wrap || wrapped)) break;
      if (shape_.requests_per_thread != 0 &&
          ++wk.requests_this_thread >= shape_.requests_per_thread) {
        exit_code = 1;
        break;
      }
    }
    wk.exited.store(exit_code, std::memory_order_release);
  }

  void CheckUsable(Worker& wk, void* p, uint32_t size) {
    if ((++wk.alloc_count & 15) == 0 && api_->Usable(p) < size) {
      ++wk.check_failures;
    }
  }

  void Fill(Worker& wk, Obj& slot, void* p, uint32_t size) {
    slot.p = static_cast<char*>(p);
    slot.size = size;
    slot.id = wk.next_id++ * kMaxWorkers + static_cast<uint32_t>(&wk - workers_);
    Stamp(slot.p, size, slot.id);
    wk.live_bytes += size;
  }

  void FreeObj(Worker& wk, const Obj& o) {
    if (!VerifyStamps(o.p, o.size, o.size, o.id)) ++wk.check_failures;
    api_->Free(o.p, o.size);
    ++wk.all_calls;
    wk.live_bytes -= o.size;
  }

  void DoMalloc(Worker& wk, Obj& slot, uint32_t size) {
    void* p = api_->Malloc(size);
    ++wk.all_calls;
    if (p == nullptr) {
      ++wk.failed;
      return;
    }
    Fill(wk, slot, p, size);
    CheckUsable(wk, p, size);
  }

  // Runs one request; returns true when the stream wrapped after it.
  bool RunRequest(int w, const Stream& s, bool timed) {
    Worker& wk = workers_[w];
    Worker& next = workers_[(w + 1) % shape_.workers];
    const uint64_t calls_before = wk.all_calls;
    const uint64_t t0 = NowNs();
    api_->BeginRequest();
    for (;;) {
      const Op& op = s.ops[wk.cursor++];
      Obj& slot = wk.slots[op.slot];
      switch (op.kind) {
        case OpKind::kMalloc:
          DoMalloc(wk, slot, op.size);
          break;
        case OpKind::kFree:
        case OpKind::kFreeIfAny:
          if (slot.p != nullptr) {
            FreeObj(wk, slot);
            slot.p = nullptr;
          }
          break;
        case OpKind::kRealloc: {
          if (slot.p == nullptr) break;  // its malloc failed and was counted
          void* q = api_->Realloc(slot.p, slot.size, op.size);
          ++wk.all_calls;
          if (q == nullptr) {
            ++wk.failed;  // the old block stays valid
            break;
          }
          const uint32_t keep = slot.size < op.size ? slot.size : op.size;
          if (!VerifyStamps(static_cast<char*>(q), slot.size, keep, slot.id)) {
            ++wk.check_failures;
          }
          wk.live_bytes -= slot.size;
          const uint32_t id = slot.id;
          slot.p = static_cast<char*>(q);
          slot.size = op.size;
          Stamp(slot.p, op.size, id);
          wk.live_bytes += op.size;
          CheckUsable(wk, q, op.size);
          break;
        }
        case OpKind::kMemalign: {
          void* p = nullptr;
          const size_t align = size_t{1} << op.align_log2;
          const int rc = api_->Memalign(&p, align, op.size);
          ++wk.all_calls;
          if (rc != 0 || p == nullptr) {
            ++wk.failed;
            break;
          }
          if ((reinterpret_cast<uintptr_t>(p) & (align - 1)) != 0) {
            ++wk.check_failures;
          }
          Fill(wk, slot, p, op.size);
          CheckUsable(wk, p, op.size);
          break;
        }
        case OpKind::kReplace:
          if (slot.p != nullptr) {
            FreeObj(wk, slot);
            slot.p = nullptr;
          }
          DoMalloc(wk, slot, op.size);
          break;
        case OpKind::kHandoff:
          if (slot.p != nullptr) {
            // live_bytes stays with the allocating worker; the freeing
            // worker subtracts it, so only the sum is meaningful.
            if (!next.inbox.Push(slot)) FreeObj(wk, slot);
            slot.p = nullptr;
          }
          break;
        case OpKind::kDrainInbox: {
          Obj o;
          while (wk.inbox.Pop(&o)) FreeObj(wk, o);
          break;
        }
        case OpKind::kRelease:
          api_->Release();
          ++wk.all_calls;
          break;
        case OpKind::kRequestEnd:
          break;
      }
      if (op.kind == OpKind::kRequestEnd) break;
    }
    api_->EndRequest();
    const uint64_t t1 = NowNs();
    const uint64_t calls = wk.all_calls - calls_before;
    const bool wrapped = wk.cursor == s.ops.size();
    if (wrapped) wk.cursor = 0;
    if (timed) {
      wk.calls += calls;
      ++wk.timed_requests;
      wk.busy_ns += t1 - t0;
      wk.last_end_ns = t1;
      const uint64_t d = t1 - t0;
      wk.latency_ns.Push(d > 0xffffffffull ? 0xffffffffu
                                            : static_cast<uint32_t>(d));
    }
    return wrapped;
  }

  Api* api_;
  Streams* streams_;
  WorkloadShape shape_;
  Worker workers_[kMaxWorkers];
  Arg args_[kMaxWorkers];
  std::atomic<bool> go_{false};
  std::atomic<bool> stop_{false};
  uint64_t max_requests_ = 0;
  alignas(64) std::atomic<uint64_t> timed_total_{0};
  uint64_t start_ns_ = 0;
  uint64_t end_ns_ = 0;
};

}  // namespace wscbench

#endif  // WSCBENCH_EXECUTOR_H_
