// Sampling self-profiler: deterministic scope-stack sampling for the
// simulator's own hot paths.
//
// The paper's methodology is continuous fleet-wide profiling — regressions
// are found because every machine profiles itself and diffs the result
// against history. This is that loop turned inward: the simulator carries
// lightweight manual instrumentation
// (`WSC_PROF_SCOPE("allocator/Allocate")`) and a per-process sampler that
// snapshots the current scope stack on a fixed *logical* cadence — every
// N scope entries, never wall clock — so a profile of a deterministic run
// is itself deterministic: bit-identical folded output for any --threads
// value, diffable across commits by tools/flamediff.py.
//
// Cost contract (same as the flight recorder's `if (trace_)` idiom):
//
//   - Disabled (no profiler installed): each scope is one thread_local
//     load plus a predicted-not-taken branch. No allocation, no atomics.
//   - Enabled: push = two stores + a decrement-and-test; every
//     `sample_interval` pushes the stack (≤ kMaxDepth interned `const
//     char*` literals) is hashed and counted in a flat table.
//
// Threading model: a SelfProfiler is single-writer, like the telemetry
// registry. The fleet engine installs the owning process's profiler into
// `tls_profiler` only around that process's Step() call, so worker threads
// never share one. The real-threads allocator behind the malloc shim
// carries no scopes: it is malloc code only, and its per-tier time comes
// from clocks, not from scope-entry counts.

#ifndef WSC_PROFILER_SELF_PROFILER_H_
#define WSC_PROFILER_SELF_PROFILER_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>

namespace wsc::prof {

// A rendered, mergeable profile: folded stack ("outer;inner;leaf") to
// sample count. std::map keys keep every render deterministically ordered.
struct FoldedProfile {
  std::map<std::string, uint64_t> stacks;
  uint64_t total_samples = 0;
  uint64_t total_ticks = 0;      // scope entries observed
  uint64_t sample_interval = 0;  // ticks between samples (0 = unset)

  bool empty() const { return stacks.empty(); }
  void MergeFrom(const FoldedProfile& other);
};

// Brendan-Gregg folded format, one "stack count" line per stack, sorted.
std::string RenderFolded(const FoldedProfile& profile);

// JSON form of the same data (schema_version 1, kind "selfprof").
std::string RenderFoldedJson(const FoldedProfile& profile);

class SelfProfiler {
 public:
  // Stacks deeper than this are truncated to their outermost kMaxDepth
  // frames; pushes and pops stay balanced regardless.
  static constexpr int kMaxDepth = 24;

  explicit SelfProfiler(uint64_t sample_interval);

  SelfProfiler(const SelfProfiler&) = delete;
  SelfProfiler& operator=(const SelfProfiler&) = delete;

  // Hot path. `frame` must be a string literal (or otherwise outlive the
  // profiler): frames are interned by pointer, not copied. Tick counting
  // rides the sampling countdown (ticks() reconstructs the exact total),
  // keeping the per-scope cost to two stores and a decrement-and-test.
  void Push(const char* frame) {
    if (depth_ < kMaxDepth) frames_[depth_] = frame;
    ++depth_;
    if (--until_sample_ == 0) {
      until_sample_ = interval_;
      TakeSample();
    }
  }

  void Pop() {
    if (depth_ > 0) --depth_;
  }

  uint64_t ticks() const {
    return samples_ * interval_ + (interval_ - until_sample_);
  }
  uint64_t samples_taken() const { return samples_; }
  uint64_t sample_interval() const { return interval_; }
  int depth() const { return depth_; }

  // Renders the counted stacks into a mergeable FoldedProfile.
  FoldedProfile Folded() const;

 private:
  struct StackKey {
    std::array<const char*, kMaxDepth> frames;
    int depth;

    bool operator==(const StackKey& other) const {
      if (depth != other.depth) return false;
      for (int i = 0; i < depth; ++i) {
        if (frames[i] != other.frames[i]) return false;
      }
      return true;
    }
  };

  struct StackKeyHash {
    size_t operator()(const StackKey& key) const {
      // FNV-1a over the frame pointers; pointers are stable literals.
      uint64_t h = 1469598103934665603ull;
      for (int i = 0; i < key.depth; ++i) {
        h ^= reinterpret_cast<uintptr_t>(key.frames[i]);
        h *= 1099511628211ull;
      }
      return static_cast<size_t>(h);
    }
  };

  void TakeSample();

  const uint64_t interval_;
  uint64_t until_sample_;
  uint64_t samples_ = 0;
  int depth_ = 0;
  std::array<const char*, kMaxDepth> frames_{};
  std::unordered_map<StackKey, uint64_t, StackKeyHash> counts_;
};

// The currently-installed profiler for this thread; null means every
// WSC_PROF_SCOPE in scope is a no-op (the disabled-cost contract above).
inline thread_local SelfProfiler* tls_profiler = nullptr;

// RAII install/restore of tls_profiler. The fleet engine wraps each
// process Step() in one of these so a worker thread samples into whichever
// process it is currently simulating.
class ScopedInstall {
 public:
  explicit ScopedInstall(SelfProfiler* profiler) : prev_(tls_profiler) {
    tls_profiler = profiler;
  }
  ~ScopedInstall() { tls_profiler = prev_; }

  ScopedInstall(const ScopedInstall&) = delete;
  ScopedInstall& operator=(const ScopedInstall&) = delete;

 private:
  SelfProfiler* prev_;
};

// One profiled scope. Captures tls_profiler once so an install change
// mid-scope cannot unbalance the stack; unwinds correctly on early return
// and on exceptions (dtor pops during unwind).
class ProfScope {
 public:
  explicit ProfScope(const char* frame) : prof_(tls_profiler) {
    if (prof_ != nullptr) prof_->Push(frame);
  }
  ~ProfScope() {
    if (prof_ != nullptr) prof_->Pop();
  }

  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  SelfProfiler* prof_;
};

#define WSC_PROF_CONCAT_INNER_(a, b) a##b
#define WSC_PROF_CONCAT_(a, b) WSC_PROF_CONCAT_INNER_(a, b)

// Marks the enclosing scope with a frame name for the self-profiler.
// `frame` must be a string literal, conventionally "tier/Method".
#define WSC_PROF_SCOPE(frame)                                   \
  ::wsc::prof::ProfScope WSC_PROF_CONCAT_(wsc_prof_scope_,      \
                                          __COUNTER__) { frame }

}  // namespace wsc::prof

#endif  // WSC_PROFILER_SELF_PROFILER_H_
