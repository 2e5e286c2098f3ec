// Allocator facade: the public malloc/free-style API tying together the
// TCMalloc cache hierarchy (Fig. 1).
//
//   front-end:  per-CPU caches            (per_cpu_cache.h)
//   middle:     transfer cache            (transfer_cache.h)
//               central free lists        (central_free_list.h)
//   back-end:   hugepage-aware page heap  (page_heap.h)
//
// Small requests (<= 256 KiB) are rounded to a size class and served from
// the hierarchy; larger requests go straight to the page heap. Every
// operation is charged simulated nanoseconds from the calibrated cost model
// (Fig. 4), accumulated per tier so the Fig. 6a cycle breakdown is
// emergent. The allocator manages a virtual arena: returned values are
// addresses in a reserved numeric address space, and all object state lives
// in allocator metadata (spans, bitmaps, pagemap).

#ifndef WSC_TCMALLOC_ALLOCATOR_H_
#define WSC_TCMALLOC_ALLOCATOR_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/flat_map.h"
#include "common/histogram.h"
#include "common/sim_clock.h"
#include "tcmalloc/background.h"
#include "tcmalloc/central_free_list.h"
#include "tcmalloc/config.h"
#include "tcmalloc/page_heap.h"
#include "tcmalloc/pagemap.h"
#include "tcmalloc/per_cpu_cache.h"
#include "tcmalloc/sampler.h"
#include "tcmalloc/size_classes.h"
#include "tcmalloc/system_alloc.h"
#include "tcmalloc/transfer_cache.h"
#include "telemetry/registry.h"
#include "trace/heap_profile.h"

namespace wsc::tcmalloc {

// Simulated cost (virtual nanoseconds) of each allocator code path,
// calibrated against the paper's Fig. 4 microbenchmarks.
struct CostModel {
  double cpu_cache_hit_ns = 3.1;       // rseq fast path (~40 instructions)
  double transfer_cache_ns = 12.9;     // mutex + flat-array batch move
  double central_free_list_ns = 16.7;  // span linked-list manipulation
  double page_heap_ns = 137.0;         // hugepage-aware page heap
  double mmap_ns = 8000.0;             // kernel, zeroing a 2 MiB hugepage
  double prefetch_ns = 0.95;           // next-object prefetch, every alloc
  double sampled_alloc_ns = 1600.0;    // stack capture on sampled allocs
  double other_ns = 0.5;               // dispatch/bookkeeping per operation
};

// The costs every Allocator charges.
inline constexpr CostModel kCostModel{};

// Simulated malloc-cycle accounting per code path (Fig. 6a).
struct MallocCycleBreakdown {
  double cpu_cache_ns = 0;
  double transfer_cache_ns = 0;
  double central_free_list_ns = 0;
  double page_heap_ns = 0;
  double mmap_ns = 0;
  double sampled_ns = 0;
  double prefetch_ns = 0;
  double other_ns = 0;

  double Total() const {
    return cpu_cache_ns + transfer_cache_ns + central_free_list_ns +
           page_heap_ns + mmap_ns + sampled_ns + prefetch_ns + other_ns;
  }
};

// Which tier ultimately satisfied an operation (Fig. 4 tiers).
struct TierHitCounts {
  uint64_t cpu_cache = 0;
  uint64_t transfer_cache = 0;
  uint64_t central_free_list = 0;
  uint64_t page_heap = 0;
  uint64_t mmap = 0;
};

// Heap accounting snapshot (Figs. 5b / 6b fragmentation).
struct HeapStats {
  size_t live_bytes = 0;        // size-class bytes held by the application
  size_t requested_bytes = 0;   // estimated live requested bytes
  size_t cpu_cache_free = 0;    // external fragmentation per tier:
  size_t transfer_cache_free = 0;
  size_t central_free_list_free = 0;
  size_t page_heap_free = 0;
  size_t released_bytes = 0;    // returned to the OS (not fragmentation)

  size_t ExternalFragmentation() const {
    return cpu_cache_free + transfer_cache_free + central_free_list_free +
           page_heap_free;
  }
  size_t InternalFragmentation() const {
    return live_bytes > requested_bytes ? live_bytes - requested_bytes : 0;
  }
  // Total heap footprint charged to the process (excludes released).
  size_t HeapBytes() const { return live_bytes + ExternalFragmentation(); }
  // Fragmentation ratio over live in-use memory, as defined in Section 3.
  double FragmentationRatio() const {
    if (live_bytes == 0) return 0.0;
    return static_cast<double>(ExternalFragmentation() +
                               InternalFragmentation()) /
           static_cast<double>(live_bytes);
  }
};

// One allocator instance == one simulated process.
class Allocator {
 public:
  explicit Allocator(const AllocatorConfig& config,
                     const SizeClasses* size_classes = &SizeClasses::Default());
  ~Allocator();

  Allocator(const Allocator&) = delete;
  Allocator& operator=(const Allocator&) = delete;

  // Allocates `size` bytes on virtual CPU `vcpu` at simulated time `now`.
  // Returns the object address, or 0 when the allocation fails as a
  // counted, surfaced failure: a hard memory limit would be exceeded (see
  // background.h), or the arena could not grow and one emergency reclaim
  // could not recover (failure.alloc_failures).
  // Never 0 otherwise. Fatal on size == 0.
  // `callsite` is a synthetic callsite ID (the heap profiler's stand-in
  // for a stack trace; see RegisterCallsite); 0 leaves the allocation
  // unattributed at zero cost.
  uintptr_t Allocate(size_t size, int vcpu, SimTime now,
                     uint64_t callsite = 0);

  // Frees an address previously returned by Allocate. Fatal on wild or
  // double frees (span bookkeeping catches both). `callsite` must match
  // the allocating call's (the workload driver stores it per object).
  void Free(uintptr_t addr, int vcpu, SimTime now, uint64_t callsite = 0);

  // Simulated nanoseconds charged to the most recent Allocate/Free.
  double last_op_ns() const { return last_op_ns_; }

  // Background maintenance (the production background thread): per-CPU
  // cache resizing, NUCA shard plundering, page-heap release. Driven by
  // the workload driver's clock.
  void Maintain(SimTime now);

  // Updates the vCPU -> LLC domain mapping (the driver calls this as
  // threads are scheduled across domains).
  void SetVcpuDomain(int vcpu, int domain);
  int DomainOfVcpu(int vcpu) const { return vcpu_domain_[vcpu]; }

  // --- Introspection ---
  HeapStats CollectStats() const;
  const MallocCycleBreakdown& cycle_breakdown() const { return cycles_; }
  const TierHitCounts& alloc_tier_hits() const { return alloc_hits_; }
  uint64_t num_allocations() const { return alloc_ops_->value(); }
  uint64_t num_frees() const { return free_ops_->value(); }

  // GWP-style telemetry: every tier publishes named metrics into this
  // process's registry; the returned snapshot carries all of them plus the
  // allocator-level aggregates. The fleet layer snapshots each process and
  // merges the results in machine-index order. Read one metric with
  // Snapshot::Find(component, name), e.g. ("pressure", "reclaimed_bytes").
  telemetry::Snapshot TelemetrySnapshot();

  // --- Heap profiler ---
  //
  // Registers a human-readable name for a synthetic callsite ID (the
  // workload driver hashes "<workload>/<behavior>" into IDs and registers
  // them here once, at startup).
  void RegisterCallsite(uint64_t id, std::string_view name);

  // Builds the pprof-style heap profile: exact per-callsite live/peak/
  // cumulative bytes, sampled lifetime aggregates, the size x lifetime
  // table, and fragmented-hugepage attribution via live sampled objects.
  trace::HeapProfile CollectHeapProfile() const;

  // Records one sim-interval footprint observation into the live
  // "allocator/heap_sample_bytes" histogram (called by the machine model
  // at its footprint-sampling boundaries).
  void RecordHeapSample(const HeapStats& heap);

  // Object-size distributions across all allocations (Fig. 7): by count
  // and by bytes.
  const LogHistogram& alloc_count_hist() const { return alloc_count_hist_; }
  const LogHistogram& alloc_bytes_hist() const { return alloc_bytes_hist_; }

  // Exact process footprint charged against memory limits: live bytes plus
  // every tier's cached/free bytes (HeapStats::HeapBytes without the
  // requested-size estimation). O(#vcpus + #classes + #hugepages).
  size_t FootprintBytes() const;

  // The memory-pressure control plane: soft and hard limits, the reclaim
  // cascade and ReleaseMemoryToSystem.
  BackgroundReclaimer& reclaimer() { return *reclaimer_; }
  const BackgroundReclaimer& reclaimer() const { return *reclaimer_; }

  const SizeClasses& size_classes() const { return *size_classes_; }
  const AllocatorConfig& config() const { return config_; }

  CpuCacheSet& cpu_caches() { return cpu_caches_; }
  const CpuCacheSet& cpu_caches() const { return cpu_caches_; }

  TransferCache& transfer_cache() { return transfer_cache_; }
  const TransferCache& transfer_cache() const { return transfer_cache_; }
  CentralFreeList& central_free_list(int cls) { return *cfls_[cls]; }
  const CentralFreeList& central_free_list(int cls) const {
    return *cfls_[cls];
  }
  PageHeap& page_heap() { return page_heap_; }
  const PageHeap& page_heap() const { return page_heap_; }
  const PageMap& pagemap() const { return pagemap_; }
  Sampler& sampler() { return sampler_; }
  const Sampler& sampler() const { return sampler_; }

  // The arena's mmap traffic.
  const SystemStats& system_stats() const { return system_.stats(); }

  // The page heap's component breakdown (Fig. 15).
  PageHeapStats page_heap_stats() const { return page_heap_.stats(); }

  // True if the (live) address is backed by an intact transparent
  // hugepage.
  bool IsHugepageBacked(uintptr_t addr) const {
    return page_heap_.IsHugepageBacked(addr);
  }

  // Fraction of in-use page-heap bytes on intact hugepages (Fig. 17a).
  double HugepageCoverage() const { return page_heap_.HugepageCoverage(); }

  // True when `addr` is live from the application's perspective.
  bool IsLiveObject(uintptr_t addr) const;

 private:
  // The reclaim actor walks the tiers directly (it is part of the
  // allocator's own control plane, not an external client).
  friend class BackgroundReclaimer;

  // Moves one object of class `cls` into the caller after an underflow,
  // refilling the vCPU cache from the middle tier.
  uintptr_t SlowPathAllocate(int cls, int vcpu);

  // Pushes overflow objects down to the transfer cache / central free
  // list.
  void SlowPathFree(int cls, int vcpu, uintptr_t obj);

  // Returns objects to the CFLs of their owning spans.
  void ReturnToCfl(int cls, const uintptr_t* objs, int n);

  AllocatorConfig config_;
  const SizeClasses* size_classes_;

  PageMap pagemap_;
  CpuCacheSet cpu_caches_;
  Sampler sampler_;

  // The middle and back end, in construction order: the arena, the page
  // heap on it, the transfer cache, and one central free list per class
  // (filled in the constructor's body, after the transfer cache).
  SystemAllocator system_;
  PageHeap page_heap_;
  std::vector<std::unique_ptr<CentralFreeList>> cfls_;
  TransferCache transfer_cache_;

  std::vector<int> vcpu_domain_;

  // Live accounting. Internal fragmentation is estimated statistically:
  // exact per-object requested sizes are not stored (that would double the
  // metadata); instead each class tracks its cumulative average slack, and
  // live requested bytes = live class bytes - live_count * avg_slack.
  std::vector<int64_t> live_objects_per_class_;
  std::vector<double> cumulative_requested_per_class_;
  std::vector<uint64_t> cumulative_allocs_per_class_;
  size_t live_bytes_ = 0;
  size_t large_live_bytes_ = 0;
  double large_live_requested_ = 0;
  // Live large objects by start address: the span plus its exact requested
  // size (there are few large objects, so exact tracking is cheap;
  // per-class averages would be badly biased when small churning
  // large-spans coexist with huge permanent ones). One flat open-addressing
  // probe on the large-object free path instead of two node-based lookups.
  struct LargeObject {
    Span* span = nullptr;
    size_t requested = 0;
  };
  FlatPtrMap<LargeObject> large_objects_;

  MallocCycleBreakdown cycles_;
  TierHitCounts alloc_hits_;

  // Exact per-callsite accounting (the non-sampled dimensions of the heap
  // profile). Only updated for tagged allocations (callsite != 0), so
  // untagged callers skip the map entirely.
  struct CallsiteStats {
    std::string name;
    uint64_t allocs = 0;
    uint64_t frees = 0;
    uint64_t live_bytes = 0;
    uint64_t peak_live_bytes = 0;  // this callsite's own high-water mark
    uint64_t cum_bytes = 0;
  };
  std::map<uint64_t, CallsiteStats> callsites_;

  // Metric registry plus the hot-path handles registered into it. The
  // allocation/free counts live directly in the registry (single-writer
  // `+=` through the handle), replacing bespoke counter members.
  telemetry::MetricRegistry registry_;
  telemetry::Counter* alloc_ops_;
  telemetry::Counter* free_ops_;
  telemetry::FixedHistogram* heap_sample_hist_;

  // "failure" component live handles, registered at construction so the
  // component appears in every snapshot (healthy runs assert the zeros).
  // Tier-side denial counts join them at snapshot time.
  telemetry::Counter* fail_alloc_failures_;
  telemetry::Counter* fail_emergency_recoveries_;
  telemetry::Counter* fail_recovered_allocations_;
  telemetry::Counter* fail_partial_batches_;

  double last_op_ns_ = 0;

  LogHistogram alloc_count_hist_;
  LogHistogram alloc_bytes_hist_;

  SimTime last_resize_ = 0;
  SimTime last_plunder_ = 0;
  SimTime last_release_ = 0;

  // Constructed last in the ctor (it registers telemetry and reads config).
  std::unique_ptr<BackgroundReclaimer> reclaimer_;

  // Scratch batch buffer (max batch size).
  std::vector<uintptr_t> batch_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_ALLOCATOR_H_
