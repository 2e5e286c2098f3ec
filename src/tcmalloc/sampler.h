// GWP-style allocation sampler (Section 2.2 / Section 3).
//
// Production TCMalloc samples one allocation per 2 MiB of allocated bytes
// and records a stack trace; the fleet profiles of Figs. 7 and 8 (object
// size and lifetime distributions) come from these samples. We reproduce
// the mechanism: a byte countdown selects sampled allocations, each sample
// carries its size and allocation timestamp, and the free path finalizes
// the lifetime. Sampled allocations are charged extra cycles (Fig. 6a's
// "Sampled" slice).

#ifndef WSC_TCMALLOC_SAMPLER_H_
#define WSC_TCMALLOC_SAMPLER_H_

#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/sim_clock.h"

namespace wsc::tcmalloc {

// Lifetime bucket boundaries used by the Fig. 8 style size x lifetime
// profile.
struct LifetimeProfile {
  // One histogram of lifetimes (ns) per power-of-two size bucket
  // [2^i, 2^{i+1}).
  static constexpr int kSizeBuckets = 44;  // up to 2^44 bytes
  LogHistogram lifetime_by_size[kSizeBuckets];

  // Histogram over all sampled objects.
  LogHistogram all_lifetimes;

  static int SizeBucketFor(size_t size);
  void Merge(const LifetimeProfile& other);
};

// Samples allocations on a byte-count trigger.
class Sampler {
 public:
  // Per-callsite aggregates over sampled allocations (the sampled
  // dimensions of the heap profile; exact live-byte attribution is kept by
  // the allocator). Callsite 0 means "untagged".
  struct CallsiteSamples {
    uint64_t samples = 0;          // sampled allocations attributed here
    uint64_t live_bytes = 0;       // allocated bytes of live samples
    uint64_t lifetimes = 0;        // finalized (freed or flushed) samples
    double lifetime_sum_ns = 0;    // over finalized samples
  };

  struct Sample {
    size_t allocated;
    SimTime alloc_time;
    uint64_t callsite;
  };

  explicit Sampler(size_t sample_interval_bytes);

  // Returns true if this allocation is sampled (caller charges the extra
  // sampling cost). Must be called once per allocation. `callsite` is the
  // synthetic callsite ID tagged by the workload driver (0 = untagged).
  bool RecordAllocation(uintptr_t addr, size_t allocated, SimTime now,
                        uint64_t callsite = 0);

  // Finalizes a sampled allocation if `addr` was sampled.
  void RecordFree(uintptr_t addr, SimTime now);

  // Marks every outstanding sampled object as living until `now` (used at
  // the end of a simulation so long-lived objects contribute their
  // right-censored lifetimes, like fleet servers profiled mid-life).
  void FlushOutstanding(SimTime now);

  const LifetimeProfile& profile() const { return profile_; }
  uint64_t samples_taken() const { return samples_taken_; }
  size_t live_sample_count() const { return live_samples_.size(); }

  // Sampled per-callsite aggregates, deterministically ordered.
  const std::map<uint64_t, CallsiteSamples>& by_callsite() const {
    return by_callsite_;
  }

  // Live sampled objects sorted by address — the deterministic walk order
  // used for fragmentation attribution.
  std::vector<std::pair<uintptr_t, Sample>> SortedLiveSamples() const;

 private:
  size_t interval_;
  size_t bytes_until_sample_;
  uint64_t samples_taken_ = 0;
  std::unordered_map<uintptr_t, Sample> live_samples_;
  LifetimeProfile profile_;
  std::map<uint64_t, CallsiteSamples> by_callsite_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_SAMPLER_H_
