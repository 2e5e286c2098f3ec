// Small, allocation-free helpers shared by the benchmark's drivers and
// covered by bench_test.cc: percentiles with a sample-count guard, span
// self time, and layer attribution by counter deltas.

#ifndef WSCBENCH_STATS_H_
#define WSCBENCH_STATS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>

namespace wscbench {

inline uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// CPU time of every thread of the process, in ns.
inline uint64_t ProcessCpuNs() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

// Nearest-rank percentile of sorted[0..n). Returns false when fewer than
// `min_beyond` samples lie above the percentile (p99 needs >= 1000
// samples for the default of 10), so a tail is never read off a handful
// of points. Medians pass min_beyond = 0.
template <typename T>
bool Percentile(const T* sorted, size_t n, double q, double* out,
                size_t min_beyond = 10) {
  if (n == 0) return false;
  size_t rank = static_cast<size_t>(q * static_cast<double>(n));
  if (rank >= n) rank = n - 1;
  if (n - 1 - rank < min_beyond) return false;
  *out = static_cast<double>(sorted[rank]);
  return true;
}

// Sorts the samples of `v` (anything with data() and size()) in place and
// returns their q-quantile times `scale`, or -1 when too few samples lie
// beyond it (a median always reports).
template <typename Vec>
double Quantile(Vec& v, double q, double scale = 1.0) {
  std::sort(v.data(), v.data() + v.size());
  double out = 0;
  if (!Percentile(v.data(), v.size(), q, &out, q <= 0.5 ? 0 : 10)) return -1;
  return out * scale;
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Median duration an empty span (two clock reads) records on this box.
inline double CalibrateEmptySpan() {
  constexpr int kN = 200000;
  static uint32_t d[kN];
  for (int i = 0; i < kN; ++i) {
    const uint64_t a = NowNs();
    d[i] = static_cast<uint32_t>(NowNs() - a);
  }
  std::sort(d, d + kN);
  return d[kN / 2];
}

// /proc/self/status field in KiB ("VmRSS", "VmHWM"); 0 if unreadable.
inline size_t ProcStatusKb(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  size_t kb = 0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      kb = std::strtoull(line + len + 1, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// Anonymous and AnonHugePages KiB from /proc/self/smaps_rollup.
inline void SmapsRollupKb(size_t* rss_kb, size_t* anon_huge_kb) {
  *rss_kb = *anon_huge_kb = 0;
  FILE* f = std::fopen("/proc/self/smaps_rollup", "r");
  if (f == nullptr) return;
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Rss:", 4) == 0) {
      *rss_kb = std::strtoull(line + 4, nullptr, 10);
    } else if (std::strncmp(line, "AnonHugePages:", 14) == 0) {
      *anon_huge_kb = std::strtoull(line + 14, nullptr, 10);
    }
  }
  std::fclose(f);
}

// One flat JSON object built in a fixed buffer (no allocation), printed
// as a single "RESULT {...}" line that run.py parses.
class JsonOut {
 public:
  void Num(const char* key, double v) {
    Append("%s\"%s\":%.9g", Sep(), key, v);
  }
  // All 17 significant digits, for values compared exactly.
  void Exact(const char* key, double v) {
    Append("%s\"%s\":%.17g", Sep(), key, v);
  }
  void Int(const char* key, uint64_t v) {
    Append("%s\"%s\":%llu", Sep(), key, static_cast<unsigned long long>(v));
  }
  void Str(const char* key, const char* v) {
    Append("%s\"%s\":\"%s\"", Sep(), key, v);
  }
  void Bool(const char* key, bool v) {
    Append("%s\"%s\":%s", Sep(), key, v ? "true" : "false");
  }
  // sorted[0..n) at kGridPoints evenly spaced quantiles (0, 0.5%, ...,
  // 100%) times `scale`, so runs can pool several launches' distributions.
  template <typename T>
  void QuantileGrid(const char* key, const T* sorted, size_t n, double scale) {
    Append("%s\"%s\":[", Sep(), key);
    for (int k = 0; k < kGridPoints && n > 0; ++k) {
      const size_t rank = (n - 1) * static_cast<size_t>(k) / (kGridPoints - 1);
      Append("%s%.6g", k == 0 ? "" : ",",
             static_cast<double>(sorted[rank]) * scale);
    }
    Append("%s", "]");
  }
  static constexpr int kGridPoints = 201;
  void Print() const { std::printf("RESULT {%s}\n", buf_); }

 private:
  const char* Sep() const { return len_ == 0 ? "" : ","; }
  template <typename... Args>
  void Append(const char* fmt, Args... args) {
    int n = std::snprintf(buf_ + len_, sizeof(buf_) - len_, fmt, args...);
    if (n > 0) len_ = std::min(sizeof(buf_) - 1, len_ + static_cast<size_t>(n));
  }
  char buf_[16384] = {};
  size_t len_ = 0;
};

// ---- Spans ---------------------------------------------------------------

// One timed call. `parent` is 1 + the index of the enclosing span in the
// same buffer (0 = top level); `request` groups one request's spans;
// `closed` is set when the span's end was recorded.
struct Span {
  uint64_t start_ns = 0;
  uint32_t dur_ns = 0;
  uint32_t parent = 0;
  uint32_t request = 0;
  uint8_t name = 0;
  uint8_t layer = 0;
  uint8_t closed = 0;
  uint8_t pad = 0;
};
static_assert(sizeof(Span) == 24, "spans are packed");

// Number of spans in spans[0..n) that break the tree a tracer must
// record: a span never closed, a parent index out of range or not before
// the child's, a child from another request than its parent's, or a
// child whose interval does not lie inside its parent's. Self times are
// only meaningful over a tree with no such span.
inline size_t SpanTreeErrors(const Span* spans, size_t n) {
  size_t errors = 0;
  for (size_t i = 0; i < n; ++i) {
    const Span& c = spans[i];
    bool ok = c.closed != 0;
    if (ok && c.parent != 0) {
      if (c.parent > i) {
        ok = false;
      } else {
        const Span& p = spans[c.parent - 1];
        ok = c.request == p.request && c.start_ns >= p.start_ns &&
             c.start_ns + c.dur_ns <= p.start_ns + p.dur_ns;
      }
    }
    errors += ok ? 0 : 1;
  }
  return errors;
}

// Self time of every span: its duration minus its children's durations
// and minus `empty_span_ns`, the calibrated duration an empty span
// records. `self` has n entries. Summed over a set of spans closed under
// "child of", sum(self) + count * empty_span_ns equals the sum of the
// set's outermost durations, so over a valid tree (SpanTreeErrors() == 0)
// the layer self times add up to the traced call time.
inline void SelfTimes(const Span* spans, size_t n, double empty_span_ns,
                      double* self) {
  for (size_t i = 0; i < n; ++i) {
    self[i] = static_cast<double>(spans[i].dur_ns) - empty_span_ns;
  }
  for (size_t i = 0; i < n; ++i) {
    if (spans[i].parent != 0) {
      self[spans[i].parent - 1] -= static_cast<double>(spans[i].dur_ns);
    }
  }
}

// ---- Layer attribution ---------------------------------------------------

// The real allocator's layers as the benchmark reports them.
enum Layer : uint8_t {
  kLayerNone = 0,  // request spans (not a call)
  kLayerShim,      // realloc policy and copy around the inner calls
  kLayerThreadCache,
  kLayerMiddle,    // TransferShard / CflShard refill and spill
  kLayerLarge,
  kLayerRelease,
  kLayerRegistry,
  kNumLayers,
};

// The calling thread's RealThreadCache counters that decide which path a
// small or large call took.
struct PathCounters {
  uint64_t fast_alloc_hits = 0;
  uint64_t fast_free_hits = 0;
  uint64_t underflows = 0;
  uint64_t overflows = 0;
  uint64_t large_allocations = 0;
  uint64_t large_frees = 0;
};

// Layer of one Allocate/FreeAddr/AllocateAligned call from the change in
// its thread's counters across the call: a large counter moved -> large;
// an underflow/overflow -> the middle end; a fast hit -> thread cache.
// A call that moved nothing (a failed call) is charged to the thread
// cache, where it returned.
inline Layer AttributeByDelta(const PathCounters& before,
                              const PathCounters& after) {
  if (after.large_allocations != before.large_allocations ||
      after.large_frees != before.large_frees) {
    return kLayerLarge;
  }
  if (after.underflows != before.underflows ||
      after.overflows != before.overflows) {
    return kLayerMiddle;
  }
  return kLayerThreadCache;
}

}  // namespace wscbench

#endif  // WSCBENCH_STATS_H_
