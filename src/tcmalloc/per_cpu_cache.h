// Front-end per-CPU caches (Section 4.1).
//
// Each virtual CPU owns a cache of free objects per size class, bounded by
// a byte capacity (baseline: statically 3 MiB per vCPU). Allocation misses
// (underflow) and deallocation misses (overflow) spill to the transfer
// cache. The paper observes that dense vCPU ids bias usage towards
// low-indexed caches while load spikes populate high-indexed caches that
// then sit idle (Fig. 9), and proposes *heterogeneous* caches: a background
// task that periodically moves capacity from low-miss caches to the top-N
// highest-miss caches, preferring to shrink larger size classes first.

#ifndef WSC_TCMALLOC_PER_CPU_CACHE_H_
#define WSC_TCMALLOC_PER_CPU_CACHE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "tcmalloc/config.h"
#include "tcmalloc/size_classes.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {

// The set of all per-vCPU caches of one allocator instance.
class CpuCacheSet {
 public:
  CpuCacheSet(const SizeClasses* size_classes, const AllocatorConfig& config);

  // Fast-path allocation: pops an object of class `cls` from vCPU `vcpu`'s
  // cache. Returns 0 on miss (0 is never a valid arena address). Defined
  // inline below: the pop/push pair runs on every simulated allocation and
  // free, and an out-of-line call frame was a measurable slice of its cost.
  uintptr_t Allocate(int vcpu, int cls);

  // Fast-path deallocation. Returns false on overflow (cache at capacity);
  // the caller then pushes a batch down to the transfer cache via
  // ExtractBatch and retries. Inline, same rationale as Allocate.
  bool Deallocate(int vcpu, int cls, uintptr_t obj);

  // Inserts up to `n` objects after an underflow; returns how many were
  // accepted (bounded by remaining byte capacity).
  int Refill(int vcpu, int cls, const uintptr_t* objs, int n);

  // Removes up to `n` cached objects of `cls` into `out`; used to make room
  // on overflow. Returns the number extracted.
  int ExtractBatch(int vcpu, int cls, uintptr_t* out, int n);

  // Flush sinks are templated callables `void(int cls, const uintptr_t*
  // objs, int n)` receiving evicted objects. The maintenance paths run
  // every resize interval for every simulated process; a std::function
  // here would put a type-erased call (and a capture allocation) on that
  // path, so the sink type is threaded through instead and lambdas inline.

  // One step of the usage-based dynamic resizing algorithm: grows the
  // `cpu_cache_grow_candidates` caches with the most misses in the last
  // interval by stealing capacity round-robin from the others. Objects that
  // no longer fit are handed to `flush`. Capacity moves only when
  // dynamic_cpu_caches is set, but idle-cache reclaim (below) always runs.
  template <typename Flush>
  void ResizeStep(Flush&& flush);

  // Reclaims caches that served no operation since the previous call:
  // their objects are flushed to `flush` (production TCMalloc's
  // ReleaseCpuMemory for idle CPUs — without it, objects stranded in idle
  // vCPU caches pin spans forever). Called by ResizeStep.
  template <typename Flush>
  void ReclaimIdle(Flush&& flush);

  // Flushes every cached object (used at simulated process teardown and in
  // tests).
  template <typename Flush>
  void FlushAll(Flush&& flush);

  // Soft-limit pressure (tier 1 of the background reclaimer's cascade):
  // caps every cache at `floor_bytes` — deliberately below the configured
  // minimum — until LiftPressureCap(). Caches idle since the last
  // maintenance interval are flushed entirely (cold caches give back
  // everything); active caches evict down to the cap. Returns the bytes
  // flushed.
  template <typename Flush>
  size_t ShrinkForPressure(size_t floor_bytes, Flush&& flush);

  // Removes the pressure cap; caches refill to their configured capacity
  // through normal operation.
  void LiftPressureCap() { pressure_cap_bytes_ = kNoPressureCap; }
  bool pressure_capped() const {
    return pressure_cap_bytes_ != kNoPressureCap;
  }

  // --- Introspection ---
  struct VcpuStats {
    bool populated = false;
    uint64_t hits = 0;
    uint64_t underflows = 0;
    uint64_t overflows = 0;
    uint64_t interval_misses = 0;  // misses since last ResizeStep
    size_t capacity_bytes = 0;
    size_t used_bytes = 0;
  };

  int num_vcpus() const { return static_cast<int>(vcpus_.size()); }
  VcpuStats GetVcpuStats(int vcpu) const;

  // Total bytes cached across all vCPUs (external fragmentation in this
  // tier).
  size_t TotalCachedBytes() const;

  // Total configured capacity across populated vCPUs.
  size_t TotalCapacityBytes() const;

  // Publishes this tier's metrics (component "cpu_cache") into `registry`,
  // aggregated across vCPUs. Called between BeginExport() and
  // TakeSnapshot().
  void ContributeTelemetry(telemetry::MetricRegistry& registry) const;

 private:
  struct VcpuCache {
    bool populated = false;
    size_t capacity_bytes = 0;
    size_t used_bytes = 0;
    uint64_t hits = 0;
    uint64_t underflows = 0;
    uint64_t overflows = 0;
    uint64_t interval_misses = 0;
    uint64_t interval_ops = 0;  // any access since the last ResizeStep
    std::vector<std::vector<uintptr_t>> objects;  // per size class
  };

  static constexpr size_t kNoPressureCap = ~size_t{0};

  // Lazily populates a vCPU cache on first touch.
  VcpuCache& Touch(int vcpu);

  // Insertion-side capacity: the configured capacity, clipped by the
  // pressure cap while the background reclaimer holds one.
  size_t EffectiveCapacity(const VcpuCache& cache) const {
    return std::min(cache.capacity_bytes, pressure_cap_bytes_);
  }

  // Evicts objects (largest classes first) until used <= capacity.
  template <typename Flush>
  void EvictToCapacity(VcpuCache& cache, Flush&& flush);

  const SizeClasses* size_classes_;
  size_t default_capacity_;
  size_t min_capacity_;
  bool dynamic_;
  int grow_candidates_;
  std::vector<VcpuCache> vcpus_;
  int steal_cursor_ = 0;  // round-robin position for capacity stealing
  size_t pressure_cap_bytes_ = kNoPressureCap;
};

// --- fast-path implementations ---

inline CpuCacheSet::VcpuCache& CpuCacheSet::Touch(int vcpu) {
  WSC_CHECK_GE(vcpu, 0);
  WSC_CHECK_LT(vcpu, num_vcpus());
  VcpuCache& cache = vcpus_[vcpu];
  if (!cache.populated) {
    cache.populated = true;
    cache.capacity_bytes = default_capacity_;
    cache.objects.resize(size_classes_->num_classes());
  }
  return cache;
}

inline uintptr_t CpuCacheSet::Allocate(int vcpu, int cls) {
  VcpuCache& cache = Touch(vcpu);
  ++cache.interval_ops;
  std::vector<uintptr_t>& list = cache.objects[cls];
  if (list.empty()) {
    ++cache.underflows;
    ++cache.interval_misses;
    return 0;
  }
  uintptr_t obj = list.back();
  list.pop_back();
  cache.used_bytes -= size_classes_->class_size(cls);
  ++cache.hits;
  return obj;
}

inline bool CpuCacheSet::Deallocate(int vcpu, int cls, uintptr_t obj) {
  VcpuCache& cache = Touch(vcpu);
  ++cache.interval_ops;
  // One SizeClassInfo load serves both the byte and object-count bounds
  // (class_size(cls) would chase the same row a second time).
  const SizeClassInfo& info = size_classes_->info(cls);
  std::vector<uintptr_t>& list = cache.objects[cls];
  if (cache.used_bytes + info.size > EffectiveCapacity(cache) ||
      static_cast<int>(list.size()) >= info.max_per_cpu_objects) {
    ++cache.overflows;
    ++cache.interval_misses;
    return false;
  }
  list.push_back(obj);
  cache.used_bytes += info.size;
  ++cache.hits;
  return true;
}

// --- template implementations ---

template <typename Flush>
void CpuCacheSet::EvictToCapacity(VcpuCache& cache, Flush&& flush) {
  // The paper's scheme prioritizes shrinking capacity for larger size
  // classes, since the bulk of allocations are small objects (Fig. 7).
  const size_t capacity = EffectiveCapacity(cache);
  for (int cls = size_classes_->num_classes() - 1;
       cls >= 0 && cache.used_bytes > capacity; --cls) {
    std::vector<uintptr_t>& list = cache.objects[cls];
    size_t size = size_classes_->class_size(cls);
    while (!list.empty() && cache.used_bytes > capacity) {
      uintptr_t obj = list.back();
      list.pop_back();
      cache.used_bytes -= size;
      flush(cls, &obj, 1);
    }
  }
}

template <typename Flush>
size_t CpuCacheSet::ShrinkForPressure(size_t floor_bytes, Flush&& flush) {
  pressure_cap_bytes_ = floor_bytes;
  size_t flushed = 0;
  for (VcpuCache& cache : vcpus_) {
    if (!cache.populated || cache.used_bytes == 0) continue;
    size_t before = cache.used_bytes;
    if (cache.interval_ops == 0) {
      // Cold cache: nothing touched it since the last maintenance pass, so
      // its objects are pure stranding under pressure. Flush everything.
      for (int cls = 0; cls < size_classes_->num_classes(); ++cls) {
        std::vector<uintptr_t>& list = cache.objects[cls];
        if (list.empty()) continue;
        flush(cls, list.data(), static_cast<int>(list.size()));
        cache.used_bytes -= size_classes_->class_size(cls) * list.size();
        list.clear();
      }
      WSC_CHECK_EQ(cache.used_bytes, 0u);
    } else {
      EvictToCapacity(cache, flush);
    }
    flushed += before - cache.used_bytes;
  }
  return flushed;
}

template <typename Flush>
void CpuCacheSet::ResizeStep(Flush&& flush) {
  ReclaimIdle(flush);
  if (!dynamic_) {
    // Static sizing: still reset interval counters so telemetry (Fig. 9b)
    // has per-interval miss data.
    for (VcpuCache& c : vcpus_) {
      c.interval_misses = 0;
      c.interval_ops = 0;
    }
    return;
  }

  // Rank populated caches by misses in the previous interval.
  std::vector<int> populated;
  for (int i = 0; i < num_vcpus(); ++i) {
    if (vcpus_[i].populated) populated.push_back(i);
  }
  if (populated.size() < 2) {
    for (VcpuCache& c : vcpus_) c.interval_misses = 0;
    return;
  }
  std::vector<int> by_misses = populated;
  std::stable_sort(by_misses.begin(), by_misses.end(), [this](int a, int b) {
    return vcpus_[a].interval_misses > vcpus_[b].interval_misses;
  });

  int num_growers = std::min<int>(grow_candidates_,
                                  static_cast<int>(by_misses.size()) - 1);
  std::vector<int> growers;
  for (int i = 0; i < num_growers; ++i) {
    if (vcpus_[by_misses[i]].interval_misses == 0) break;  // nobody missing
    growers.push_back(by_misses[i]);
  }

  if (!growers.empty()) {
    // Steal capacity round-robin from the non-grower caches.
    constexpr size_t kStealStep = 64 * 1024;
    size_t stolen = 0;
    size_t want = kStealStep * growers.size();
    std::vector<int> victims;
    for (int idx : by_misses) {
      if (std::find(growers.begin(), growers.end(), idx) == growers.end()) {
        victims.push_back(idx);
      }
    }
    size_t attempts = victims.size();
    while (stolen < want && attempts > 0) {
      int victim = victims[steal_cursor_ % victims.size()];
      ++steal_cursor_;
      --attempts;
      VcpuCache& v = vcpus_[victim];
      size_t take = std::min(kStealStep, v.capacity_bytes > min_capacity_
                                             ? v.capacity_bytes - min_capacity_
                                             : 0);
      if (take == 0) continue;
      v.capacity_bytes -= take;
      stolen += take;
      EvictToCapacity(v, flush);
      attempts = victims.size();  // reset: a successful steal keeps going
      if (stolen >= want) break;
    }
    // Distribute stolen capacity equally among the growers.
    if (stolen > 0) {
      size_t share = stolen / growers.size();
      size_t remainder = stolen - share * growers.size();
      for (size_t i = 0; i < growers.size(); ++i) {
        size_t granted = share + (i == 0 ? remainder : 0);
        vcpus_[growers[i]].capacity_bytes += granted;
      }
    }
  }

  for (VcpuCache& c : vcpus_) {
    c.interval_misses = 0;
    c.interval_ops = 0;
  }
}

template <typename Flush>
void CpuCacheSet::ReclaimIdle(Flush&& flush) {
  for (VcpuCache& cache : vcpus_) {
    if (!cache.populated || cache.interval_ops > 0 ||
        cache.used_bytes == 0) {
      continue;
    }
    for (int cls = 0; cls < size_classes_->num_classes(); ++cls) {
      std::vector<uintptr_t>& list = cache.objects[cls];
      if (list.empty()) continue;
      flush(cls, list.data(), static_cast<int>(list.size()));
      cache.used_bytes -= size_classes_->class_size(cls) * list.size();
      list.clear();
    }
    WSC_CHECK_EQ(cache.used_bytes, 0u);
  }
}

template <typename Flush>
void CpuCacheSet::FlushAll(Flush&& flush) {
  for (VcpuCache& cache : vcpus_) {
    if (!cache.populated) continue;
    for (int cls = 0; cls < size_classes_->num_classes(); ++cls) {
      std::vector<uintptr_t>& list = cache.objects[cls];
      if (list.empty()) continue;
      flush(cls, list.data(), static_cast<int>(list.size()));
      cache.used_bytes -=
          size_classes_->class_size(cls) * list.size();
      list.clear();
    }
    WSC_CHECK_EQ(cache.used_bytes, 0u);
  }
}

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_PER_CPU_CACHE_H_
