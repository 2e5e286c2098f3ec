// Middle-tier transfer cache (Section 4.2).
//
// The legacy transfer cache is a centralized, mutex-protected flat array of
// free objects per size class; it lets memory flow rapidly between CPUs
// (objects freed on one CPU are re-allocated on another). On chiplet (NUCA)
// platforms this moves objects across LLC domains, so the consumer pays
// remote-LLC latency (Fig. 11: 2.07x local). The NUCA-aware design shards
// the transfer cache per LLC domain: each shard serves only its domain and
// is backed by the retained centralized cache; shard contents that sit
// unused are periodically plundered back to the central cache to prevent
// stranding.

#ifndef WSC_TCMALLOC_TRANSFER_CACHE_H_
#define WSC_TCMALLOC_TRANSFER_CACHE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "tcmalloc/config.h"
#include "tcmalloc/size_classes.h"
#include "telemetry/registry.h"
#include "trace/flight_recorder.h"

namespace wsc::tcmalloc {

// The most objects the transfer cache of class `cls` holds: batch-count
// bounded for small classes and byte-bounded for large ones (a 64-batch
// cache of 64 KiB objects would be an 8 MiB buffer that starves the
// central free list of returned objects), and at least two batches, so an
// insert and a remove both fit. The simulator's TransferCache and the real
// allocator's per-class caches are both sized by it.
inline size_t TransferCacheCapacity(const SizeClasses& size_classes,
                                    const AllocatorConfig& config, int cls) {
  size_t batch_cap = static_cast<size_t>(config.transfer_cache_batches) *
                     size_classes.batch_size(cls);
  size_t byte_cap = std::max<size_t>(
      2 * size_classes.batch_size(cls),
      (512 * 1024) / size_classes.class_size(cls));
  return std::min(batch_cap, byte_cap);
}

// Transfer-cache statistics.
struct TransferCacheStats {
  uint64_t shard_hits = 0;    // object obtained from the requester's shard
  uint64_t central_hits = 0;  // object obtained from the centralized cache
  uint64_t misses = 0;        // request fell through to the central free list
  uint64_t inserts_accepted = 0;
  uint64_t inserts_overflowed = 0;  // pushed down to the central free list
  uint64_t plundered_objects = 0;
};

// Centralized transfer cache, optionally fronted by per-LLC-domain shards.
class TransferCache {
 public:
  TransferCache(const SizeClasses* size_classes,
                const AllocatorConfig& config);

  // Removes up to `n` objects of class `cls` for a CPU in LLC domain
  // `domain`. Returns the number obtained; the caller fetches the remainder
  // from the central free list.
  int Remove(int domain, int cls, uintptr_t* out, int n);

  // Inserts `n` objects freed by a CPU in `domain`. Returns the number
  // accepted; the caller returns the remainder to the central free list.
  int Insert(int domain, int cls, const uintptr_t* objs, int n);

  // Moves objects that sat unused in NUCA shards since the previous call
  // back to the centralized cache (the paper's periodic release that
  // prevents stranding). No-op when NUCA shards are disabled.
  void Plunder();

  // Returns centralized-cache objects that sat untouched since the
  // previous call to `sink` (the central free list). Without this, cold
  // classes strand objects at the bottom of the LIFO array forever,
  // pinning their spans. `sink` is a templated callable `void(int cls,
  // const uintptr_t* objs, int n)` — this runs every plunder interval for
  // every process, so the callback must not go through std::function.
  template <typename Sink>
  void DrainCold(Sink&& sink);

  // Drains every cached object — NUCA shards and the centralized cache —
  // to `sink` (tier 2 of the background reclaimer's pressure cascade:
  // plunder the shards, then hand the whole tier to the central free lists
  // so empty spans can flow back to the page heap). Returns bytes drained.
  template <typename Sink>
  size_t DrainAll(Sink&& sink);

  // Total free bytes cached in this tier.
  size_t TotalCachedBytes() const;

  const TransferCacheStats& stats() const { return stats_; }

  bool nuca_enabled() const { return nuca_; }

  // Publishes this tier's metrics (component "transfer_cache") into
  // `registry`; NUMA-node instances accumulate into the same metrics.
  void ContributeTelemetry(telemetry::MetricRegistry& registry) const;

  // Attaches (or detaches, with nullptr) the flight recorder this tier
  // emits kTransferInsert/Remove/Plunder events into.
  void set_flight_recorder(trace::FlightRecorder* recorder) {
    trace_ = recorder;
  }

 private:
  // Per-size-class object stack with a fixed capacity and a low-water mark.
  struct ClassCache {
    std::vector<uintptr_t> objects;
    size_t capacity = 0;   // max objects
    size_t low_water = 0;  // min size since last Plunder()
  };

  int RemoveFrom(ClassCache& cache, uintptr_t* out, int n);
  int InsertInto(ClassCache& cache, const uintptr_t* objs, int n);

  const SizeClasses* size_classes_;
  bool nuca_;
  std::vector<ClassCache> central_;  // per class
  // shards_[domain][class]; populated lazily per active domain.
  std::vector<std::vector<ClassCache>> shards_;
  TransferCacheStats stats_;
  int shard_batches_;
  trace::FlightRecorder* trace_ = nullptr;
};

template <typename Sink>
void TransferCache::DrainCold(Sink&& sink) {
  for (int cls = 0; cls < size_classes_->num_classes(); ++cls) {
    ClassCache& c = central_[cls];
    size_t move = std::min(c.low_water, c.objects.size());
    if (move > 0) {
      // The coldest objects are at the bottom of the LIFO stack.
      sink(cls, c.objects.data(), static_cast<int>(move));
      c.objects.erase(c.objects.begin(),
                      c.objects.begin() + static_cast<long>(move));
      stats_.plundered_objects += move;
    }
    c.low_water = c.objects.size();
  }
}

template <typename Sink>
size_t TransferCache::DrainAll(Sink&& sink) {
  size_t bytes = 0;
  auto drain = [&](int cls, ClassCache& c) {
    if (!c.objects.empty()) {
      sink(cls, c.objects.data(), static_cast<int>(c.objects.size()));
      bytes += size_classes_->class_size(cls) * c.objects.size();
      c.objects.clear();
    }
    c.low_water = 0;
  };
  for (auto& shard : shards_) {
    if (shard.empty()) continue;
    for (int cls = 0; cls < size_classes_->num_classes(); ++cls) {
      drain(cls, shard[cls]);
    }
  }
  for (int cls = 0; cls < size_classes_->num_classes(); ++cls) {
    drain(cls, central_[cls]);
  }
  return bytes;
}

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_TRANSFER_CACHE_H_
