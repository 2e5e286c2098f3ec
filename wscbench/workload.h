// Seeded op streams for the benchmark's malloc workloads.
//
// A stream is a flat list of ops over numbered object slots, one stream
// per worker. Executors loop over their stream, so every stream is
// generated to be self-consistent when replayed back to back. All storage
// comes from mmap, never malloc: generation must not touch the allocator
// under test, and the streams must stay out of its statistics.

#ifndef WSCBENCH_WORKLOAD_H_
#define WSCBENCH_WORKLOAD_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string_view>

namespace wscbench {

// splitmix64: tiny, seedable, identical in every arm.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  // Uniform integer in [lo, hi].
  uint64_t Range(uint64_t lo, uint64_t hi) {
    return lo + Next() % (hi - lo + 1);
  }
};

// Fixed-capacity array in anonymous memory (MAP_NORESERVE: only the
// pages written are committed). Aborts when the capacity is exceeded,
// which is a generator bug.
template <typename T>
class MmapVec {
 public:
  MmapVec() = default;
  explicit MmapVec(size_t capacity) { Reserve(capacity); }
  ~MmapVec() { Reset(); }
  MmapVec(const MmapVec&) = delete;
  MmapVec& operator=(const MmapVec&) = delete;

  void Reserve(size_t capacity) {
    Reset();
    if (capacity == 0) return;
    void* p = mmap(nullptr, capacity * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (p == MAP_FAILED) std::abort();
    data_ = static_cast<T*>(p);
    capacity_ = capacity;
  }
  void Push(const T& v) {
    if (size_ == capacity_) std::abort();
    data_[size_++] = v;
  }
  void Resize(size_t n) {
    if (n > capacity_) std::abort();
    size_ = n;  // fresh pages read as zero
  }
  T* data() { return data_; }
  const T* data() const { return data_; }
  size_t size() const { return size_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  void Reset() {
    if (data_ != nullptr) munmap(data_, capacity_ * sizeof(T));
    data_ = nullptr;
    size_ = capacity_ = 0;
  }
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

enum class OpKind : uint8_t {
  kMalloc,      // slot <- malloc(size); the slot is empty
  kFree,        // free(slot); the slot is full
  kFreeIfAny,   // free(slot) when the slot is full (looped streams)
  kRealloc,     // slot <- realloc(slot, size); the slot is full
  kMemalign,    // slot <- posix_memalign(1 << align_log2, size)
  kReplace,     // free(slot) if full, then slot <- malloc(size) (LRU)
  kHandoff,     // move slot's object to the next worker, which frees it
  kDrainInbox,  // free every object handed to this worker
  kRelease,     // wscmalloc_release_memory, when exported
  kRequestEnd,  // closes one request (a latency sample)
};

struct Op {
  uint32_t slot = 0;
  uint32_t size = 0;
  OpKind kind = OpKind::kMalloc;
  uint8_t align_log2 = 0;
  uint16_t pad = 0;
};
static_assert(sizeof(Op) == 12, "ops are packed for stream size");

enum class Workload { kRpcServer, kPhaseHeap };

bool ParseWorkload(std::string_view name, Workload* out);
const char* WorkloadName(Workload w);

// Per-workload shape, fixed by the benchmark (only the seed varies).
struct WorkloadShape {
  int workers = 0;
  // Thread-per-connection churn: a worker thread exits after this many
  // requests and a fresh one takes its place (0 = threads live for the
  // whole run).
  uint32_t requests_per_thread = 0;
  // The timed phase may stop only where the stream wraps (whole cycles),
  // so every run sees the same size mix.
  bool stop_at_wrap = false;
  // Untimed warm-up: this many requests per worker (0 = one full pass of
  // the stream).
  uint32_t warmup_requests = 0;
};
WorkloadShape ShapeOf(Workload w);

struct Stream {
  MmapVec<Op> ops;
  uint32_t slots = 0;     // slot table size the stream addresses
  uint64_t requests = 0;  // kRequestEnd ops in one pass
};

inline constexpr int kMaxWorkers = 4;

struct Streams {
  Workload workload = Workload::kRpcServer;
  uint64_t seed = 0;
  int workers = 0;
  Stream per_worker[kMaxWorkers];
};

// Generates one stream per worker from `seed`. Deterministic: the same
// (workload, seed) yields byte-identical streams on every build.
void Generate(Workload w, uint64_t seed, Streams* out);

// FNV-1a over every op of every worker's stream, in worker order.
uint64_t StreamHash(const Streams& s);

// rpc_server shape.
inline constexpr uint32_t kRpcRequestSlots = 64;   // burst objects
inline constexpr uint32_t kRpcStringSlot = 64;     // the realloc'd string
inline constexpr uint32_t kRpcLruSlots = 512;      // per-worker LRU
inline constexpr uint32_t kRpcStreamRequests = 4096;
// phase_heap: live requested bytes each worker grows to per phase.
inline constexpr uint64_t kPhaseTargetBytes = uint64_t{64} << 20;
inline constexpr int kPhaseBands = 4;
inline constexpr uint32_t kPhaseRequestCalls = 64;

}  // namespace wscbench

#endif  // WSCBENCH_WORKLOAD_H_
