#include "tcmalloc/allocator.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace wsc::tcmalloc {

namespace {

// Cadence at which unused NUCA shard objects are plundered back to the
// central cache to prevent stranding.
constexpr SimTime kNucaPlunderInterval = Seconds(5);
// Cadence of the page heap's background release.
constexpr SimTime kReleaseInterval = Seconds(1);

// Fails loudly (with the actionable message, not just an expression dump)
// on configs that would silently misbehave — e.g. the kTopologyDerived
// sentinel reaching a raw Allocator, NUCA left with one LLC domain by an
// explicit setting, or a real-memory config meant for the malloc.
const AllocatorConfig& ValidatedOrDie(const AllocatorConfig& config) {
  std::string error = config.ValidationError();
  if (error.empty() && config.real_memory) {
    error =
        "real_memory is set: the simulated Allocator runs only on its "
        "virtual arena; construct a RealThreadsAllocator for real memory, "
        "or drop WithRealMemory()";
  }
  if (!error.empty()) {
    std::fprintf(stderr, "Invalid AllocatorConfig: %s\n", error.c_str());
    std::abort();
  }
  return config;
}

}  // namespace

Allocator::Allocator(const AllocatorConfig& config,
                     const SizeClasses* size_classes)
    : config_(ValidatedOrDie(config)),
      size_classes_(size_classes),
      pagemap_(PageIdContaining(config_.arena_base),
               config_.arena_bytes >> kPageShift),
      cpu_caches_(size_classes, config),
      sampler_(config.sample_interval_bytes),
      // The arena, trimmed to whole hugepages (validation guarantees one).
      system_(config_.arena_base, config_.arena_bytes & ~(kHugePageSize - 1),
              kCostModel.mmap_ns),
      page_heap_(size_classes, config, &system_, &pagemap_),
      transfer_cache_(size_classes, config) {
  int n = size_classes_->num_classes();
  cfls_.reserve(n);
  int cfl_lists = config.span_prioritization ? config.cfl_num_lists : 1;
  for (int cls = 0; cls < n; ++cls) {
    cfls_.push_back(std::make_unique<CentralFreeList>(
        cls, size_classes->info(cls), cfl_lists, &page_heap_));
  }

  vcpu_domain_.assign(config.num_vcpus, 0);
  live_objects_per_class_.assign(n, 0);
  cumulative_requested_per_class_.assign(n, 0.0);
  cumulative_allocs_per_class_.assign(n, 0);
  batch_.resize(64);

  alloc_ops_ = registry_.RegisterCounter("allocator", "allocations");
  free_ops_ = registry_.RegisterCounter("allocator", "frees");
  // Footprint samples at sim-interval boundaries, bucketed 1 MiB .. 16 GiB
  // in powers of four (process heaps in the fleet span that range).
  std::vector<double> bounds;
  for (double b = 1 << 20; b <= 16.0 * (1u << 30); b *= 4) {
    bounds.push_back(b);
  }
  heap_sample_hist_ =
      registry_.RegisterHistogram("allocator", "heap_sample_bytes", bounds);

  fail_alloc_failures_ =
      registry_.RegisterCounter("failure", "alloc_failures");
  fail_emergency_recoveries_ =
      registry_.RegisterCounter("failure", "emergency_recoveries");
  fail_recovered_allocations_ =
      registry_.RegisterCounter("failure", "recovered_allocations");
  fail_partial_batches_ =
      registry_.RegisterCounter("failure", "partial_batches");

  // Last: the reclaimer registers its own telemetry and reads the limits
  // out of the (validated) config.
  reclaimer_ = std::make_unique<BackgroundReclaimer>(this);
}

Allocator::~Allocator() {
  // Large spans never flow through the CFLs, so free their metadata here.
  large_objects_.ForEach([this](uintptr_t, const LargeObject& obj) {
    page_heap_.FreeLargeSpan(obj.span);
  });
}

void Allocator::SetVcpuDomain(int vcpu, int domain) {
  WSC_CHECK_GE(vcpu, 0);
  WSC_CHECK_LT(vcpu, static_cast<int>(vcpu_domain_.size()));
  WSC_CHECK_GE(domain, 0);
  WSC_CHECK_LT(domain, std::max(config_.num_llc_domains, 1));
  vcpu_domain_[vcpu] = domain;
}

uintptr_t Allocator::Allocate(size_t size, int vcpu, SimTime now,
                              uint64_t callsite) {
  WSC_CHECK_GT(size, 0u);
  if (!reclaimer_->AdmitAllocation(size)) {
    // Hard memory limit: a counted, surfaced failure (not an allocation).
    last_op_ns_ = kCostModel.other_ns;
    return 0;
  }
  last_op_ns_ = kCostModel.other_ns;
  cycles_.other_ns += kCostModel.other_ns;

  uintptr_t addr;
  size_t allocated_bytes;
  int cls = size_classes_->ClassFor(size);
  if (cls < 0) {
    // Large allocation: straight to the page heap, bypassing the caches.
    double mmap_before = system_.stats().mmap_ns;
    Length pages = BytesToLengthCeil(size);
    Span* span = page_heap_.NewLargeSpan(pages);
    if (span == nullptr) {
      // Arena growth denied (arena exhaustion): mobilize cached memory back
      // toward the page heap, then retry once.
      if (reclaimer_->EmergencyReclaimForGrowth()) {
        fail_emergency_recoveries_->Add();
        span = page_heap_.NewLargeSpan(pages);
      }
      if (span == nullptr) {
        fail_alloc_failures_->Add();
        cycles_.page_heap_ns += kCostModel.page_heap_ns;
        last_op_ns_ += kCostModel.page_heap_ns;
        return 0;
      }
      fail_recovered_allocations_->Add();
    }
    addr = span->start_addr();
    allocated_bytes = span->span_bytes();
    large_live_bytes_ += allocated_bytes;
    large_live_requested_ += static_cast<double>(size);
    large_objects_.Insert(addr, LargeObject{span, size});
    ++alloc_hits_.page_heap;
    cycles_.page_heap_ns += kCostModel.page_heap_ns;
    last_op_ns_ += kCostModel.page_heap_ns;
    double mmap_delta = system_.stats().mmap_ns - mmap_before;
    if (mmap_delta > 0) {
      cycles_.mmap_ns += mmap_delta;
      last_op_ns_ += mmap_delta;
      ++alloc_hits_.mmap;
    }
  } else {
    allocated_bytes = size_classes_->class_size(cls);
    addr = cpu_caches_.Allocate(vcpu, cls);
    if (addr != 0) {
      ++alloc_hits_.cpu_cache;
      cycles_.cpu_cache_ns += kCostModel.cpu_cache_hit_ns;
      last_op_ns_ += kCostModel.cpu_cache_hit_ns;
    } else {
      addr = SlowPathAllocate(cls, vcpu);
      if (addr == 0) {
        // Growth denied at every tier and the emergency cascade ran dry:
        // a counted, surfaced failure.
        fail_alloc_failures_->Add();
        return 0;
      }
    }
    ++live_objects_per_class_[cls];
    cumulative_requested_per_class_[cls] += static_cast<double>(size);
    ++cumulative_allocs_per_class_[cls];
    live_bytes_ += allocated_bytes;
    // TCMalloc prefetches the *next* object of this class on every
    // allocation; costly (Fig. 6a: 16% of malloc cycles) but key to data
    // cache locality.
    cycles_.prefetch_ns += kCostModel.prefetch_ns;
    last_op_ns_ += kCostModel.prefetch_ns;
  }

  // Success-only accounting: failed growth attempts return above, so
  // num_allocations() keeps counting exactly the allocations that exist.
  alloc_ops_->Add();
  alloc_count_hist_.Add(static_cast<double>(size), 1.0);
  alloc_bytes_hist_.Add(static_cast<double>(size),
                        static_cast<double>(size));

  if (callsite != 0) {
    CallsiteStats& cs = callsites_[callsite];
    ++cs.allocs;
    cs.live_bytes += allocated_bytes;
    cs.cum_bytes += allocated_bytes;
    if (cs.live_bytes > cs.peak_live_bytes) cs.peak_live_bytes = cs.live_bytes;
  }

  if (sampler_.RecordAllocation(addr, allocated_bytes, now, callsite)) {
    cycles_.sampled_ns += kCostModel.sampled_alloc_ns;
    last_op_ns_ += kCostModel.sampled_alloc_ns;
  }
  return addr;
}

uintptr_t Allocator::SlowPathAllocate(int cls, int vcpu) {
  int domain = vcpu_domain_[vcpu];
  int batch = size_classes_->batch_size(cls);
  WSC_CHECK_LE(batch, static_cast<int>(batch_.size()));

  // Fetch a batch from the transfer cache.
  int got = transfer_cache_.Remove(domain, cls, batch_.data(), batch);
  cycles_.transfer_cache_ns += kCostModel.transfer_cache_ns;
  last_op_ns_ += kCostModel.transfer_cache_ns;

  if (got < batch) {
    // Transfer cache exhausted: extract the remainder from the central
    // free list (which may fetch spans from the page heap).
    CentralFreeList& cfl = *cfls_[cls];
    uint64_t spans_before = cfl.stats().fetched_spans;
    double mmap_before = system_.stats().mmap_ns;
    got += cfl.RemoveRange(batch_.data() + got, batch - got);
    cycles_.central_free_list_ns += kCostModel.central_free_list_ns;
    last_op_ns_ += kCostModel.central_free_list_ns;
    uint64_t spans_fetched = cfl.stats().fetched_spans - spans_before;
    if (spans_fetched > 0) {
      double ph_ns =
          kCostModel.page_heap_ns * static_cast<double>(spans_fetched);
      cycles_.page_heap_ns += ph_ns;
      last_op_ns_ += ph_ns;
      ++alloc_hits_.page_heap;
      double mmap_delta = system_.stats().mmap_ns - mmap_before;
      if (mmap_delta > 0) {
        cycles_.mmap_ns += mmap_delta;
        last_op_ns_ += mmap_delta;
        ++alloc_hits_.mmap;
      }
    } else {
      ++alloc_hits_.central_free_list;
    }
  } else {
    ++alloc_hits_.transfer_cache;
  }
  if (got == 0) {
    // Every tier is empty and the page heap cannot grow (simulated OOM).
    // Run one rate-limited emergency reclaim to mobilize cached objects
    // back down the hierarchy, then retry the central free list once
    // before surfacing the failure.
    if (reclaimer_->EmergencyReclaimForGrowth()) {
      fail_emergency_recoveries_->Add();
      got = cfls_[cls]->RemoveRange(batch_.data(), batch);
      cycles_.central_free_list_ns += kCostModel.central_free_list_ns;
      last_op_ns_ += kCostModel.central_free_list_ns;
    }
    if (got == 0) return 0;
    fail_recovered_allocations_->Add();
  } else if (got < batch) {
    // Partial batch: growth was denied midway through the refill. Proceed
    // with what we got — the caller's object is safe, the vCPU cache just
    // refills less.
    fail_partial_batches_->Add();
  }

  // Hand one object to the caller; cache the rest in the vCPU cache.
  uintptr_t result = batch_[0];
  int to_cache = got - 1;
  int accepted = cpu_caches_.Refill(vcpu, cls, batch_.data() + 1, to_cache);
  if (accepted < to_cache) {
    // Cache at byte capacity: return the leftovers to the middle tier.
    int leftover = to_cache - accepted;
    int back = transfer_cache_.Insert(domain, cls,
                                      batch_.data() + 1 + accepted, leftover);
    if (back < leftover) {
      ReturnToCfl(cls, batch_.data() + 1 + accepted + back, leftover - back);
    }
  }
  return result;
}

void Allocator::Free(uintptr_t addr, int vcpu, SimTime now,
                     uint64_t callsite) {
  free_ops_->Add();
  last_op_ns_ = kCostModel.other_ns;
  cycles_.other_ns += kCostModel.other_ns;
  sampler_.RecordFree(addr, now);

  Span* span = pagemap_.LookupAddr(addr);
  WSC_CHECK(span != nullptr);  // wild free otherwise
  if (span->is_large()) {
    WSC_CHECK_EQ(span->start_addr(), addr);
    size_t bytes = span->span_bytes();
    WSC_CHECK_GE(large_live_bytes_, bytes);
    large_live_bytes_ -= bytes;
    LargeObject* obj = large_objects_.Find(addr);
    WSC_CHECK(obj != nullptr);
    large_live_requested_ -= static_cast<double>(obj->requested);
    large_objects_.Erase(addr);
    page_heap_.FreeLargeSpan(span);
    cycles_.page_heap_ns += kCostModel.page_heap_ns;
    last_op_ns_ += kCostModel.page_heap_ns;
    if (callsite != 0) {
      CallsiteStats& cs = callsites_[callsite];
      ++cs.frees;
      WSC_CHECK_GE(cs.live_bytes, bytes);
      cs.live_bytes -= bytes;
    }
    return;
  }

  int cls = span->size_class();
  size_t size = size_classes_->class_size(cls);
  WSC_CHECK_GT(live_objects_per_class_[cls], 0);
  --live_objects_per_class_[cls];
  // Track average slack for the class to keep requested-byte estimates
  // consistent between Allocate and Free.
  cumulative_requested_per_class_[cls] -=
      cumulative_allocs_per_class_[cls] > 0
          ? cumulative_requested_per_class_[cls] /
                static_cast<double>(cumulative_allocs_per_class_[cls])
          : 0.0;
  --cumulative_allocs_per_class_[cls];
  WSC_CHECK_GE(live_bytes_, size);
  live_bytes_ -= size;
  if (callsite != 0) {
    CallsiteStats& cs = callsites_[callsite];
    ++cs.frees;
    WSC_CHECK_GE(cs.live_bytes, size);
    cs.live_bytes -= size;
  }

  if (cpu_caches_.Deallocate(vcpu, cls, addr)) {
    cycles_.cpu_cache_ns += kCostModel.cpu_cache_hit_ns;
    last_op_ns_ += kCostModel.cpu_cache_hit_ns;
    return;
  }
  SlowPathFree(cls, vcpu, addr);
}

void Allocator::SlowPathFree(int cls, int vcpu, uintptr_t obj) {
  // The cache is full: push a batch down to make room, then retry. The
  // objects go down one at a time, each to the central free list when the
  // transfer cache refuses it.
  int domain = vcpu_domain_[vcpu];
  int batch = size_classes_->batch_size(cls);
  int extracted = cpu_caches_.ExtractBatch(vcpu, cls, batch_.data(), batch);
  cycles_.transfer_cache_ns += kCostModel.transfer_cache_ns;
  last_op_ns_ += kCostModel.transfer_cache_ns;
  bool cfl_charged = false;
  for (int i = 0; i < extracted; ++i) {
    uintptr_t o = batch_[i];
    if (transfer_cache_.Insert(domain, cls, &o, 1) == 0) {
      if (!cfl_charged) {
        cycles_.central_free_list_ns += kCostModel.central_free_list_ns;
        last_op_ns_ += kCostModel.central_free_list_ns;
        cfl_charged = true;
      }
      ReturnToCfl(cls, &o, 1);
    }
  }
  // Retry the fast path; with a freed-up cache this must succeed unless
  // the cache capacity is smaller than one object, in which case bypass.
  if (!cpu_caches_.Deallocate(vcpu, cls, obj) &&
      transfer_cache_.Insert(domain, cls, &obj, 1) == 0) {
    ReturnToCfl(cls, &obj, 1);
  }
}

void Allocator::ReturnToCfl(int cls, const uintptr_t* objs, int n) {
  for (int i = 0; i < n; ++i) {
    Span* span = pagemap_.LookupAddr(objs[i]);
    WSC_CHECK(span != nullptr);
    cfls_[cls]->InsertObject(span, objs[i]);
  }
}

void Allocator::Maintain(SimTime now) {
  if (now - last_resize_ >= config_.cpu_cache_resize_interval) {
    last_resize_ = now;
    cpu_caches_.ResizeStep([this](int cls, const uintptr_t* objs, int n) {
      for (int i = 0; i < n; ++i) {
        uintptr_t obj = objs[i];
        if (transfer_cache_.Insert(/*domain=*/0, cls, &obj, 1) == 0) {
          ReturnToCfl(cls, &obj, 1);
        }
      }
    });
  }
  if (now - last_plunder_ >= kNucaPlunderInterval) {
    last_plunder_ = now;
    if (transfer_cache_.nuca_enabled()) transfer_cache_.Plunder();
    transfer_cache_.DrainCold([this](int cls, const uintptr_t* objs, int n) {
      ReturnToCfl(cls, objs, n);
    });
  }
  if (now - last_release_ >= kReleaseInterval) {
    last_release_ = now;
    page_heap_.BackgroundRelease();
  }
  // The pressure actor rides the same cadence as the production background
  // thread: every Maintain boundary it compares footprint to the soft
  // limit and runs the tier cascade when over.
  reclaimer_->Tick(now);
}

size_t Allocator::FootprintBytes() const {
  size_t footprint = live_bytes_ + large_live_bytes_ +
                     cpu_caches_.TotalCachedBytes() +
                     transfer_cache_.TotalCachedBytes() +
                     page_heap_.stats().TotalFree();
  for (const auto& cfl : cfls_) footprint += cfl->FreeObjectBytes();
  return footprint;
}

HeapStats Allocator::CollectStats() const {
  HeapStats stats;
  stats.live_bytes = live_bytes_ + large_live_bytes_;

  double requested = large_live_requested_;
  for (int cls = 0; cls < size_classes_->num_classes(); ++cls) {
    if (cumulative_allocs_per_class_[cls] == 0) continue;
    double avg_requested =
        cumulative_requested_per_class_[cls] /
        static_cast<double>(cumulative_allocs_per_class_[cls]);
    requested +=
        avg_requested * static_cast<double>(live_objects_per_class_[cls]);
  }
  stats.requested_bytes = static_cast<size_t>(requested);

  stats.cpu_cache_free = cpu_caches_.TotalCachedBytes();
  stats.transfer_cache_free = transfer_cache_.TotalCachedBytes();
  for (const auto& cfl : cfls_) {
    stats.central_free_list_free += cfl->FreeObjectBytes();
  }
  PageHeapStats ph = page_heap_.stats();
  // Pages held by CFL spans are "used" from the page heap's perspective;
  // the page heap's own fragmentation is its free (unreleased) space.
  stats.page_heap_free = ph.TotalFree();
  stats.released_bytes = ph.TotalReleased();
  return stats;
}

void Allocator::RecordHeapSample(const HeapStats& heap) {
  heap_sample_hist_->Record(static_cast<double>(heap.HeapBytes()));
}

telemetry::Snapshot Allocator::TelemetrySnapshot() {
  telemetry::MetricRegistry& reg = registry_;
  reg.BeginExport();

  // Allocator-level aggregates: heap accounting, the Fig. 6a cycle
  // breakdown, and the Fig. 4 tier hit counts.
  const HeapStats heap = CollectStats();
  reg.ExportGauge("allocator", "live_bytes",
                  static_cast<double>(heap.live_bytes));
  reg.ExportGauge("allocator", "requested_bytes",
                  static_cast<double>(heap.requested_bytes));
  reg.ExportGauge("allocator", "heap_bytes",
                  static_cast<double>(heap.HeapBytes()));
  reg.ExportGauge("allocator", "external_fragmentation_bytes",
                  static_cast<double>(heap.ExternalFragmentation()));
  reg.ExportGauge("allocator", "internal_fragmentation_bytes",
                  static_cast<double>(heap.InternalFragmentation()));
  reg.ExportGauge("allocator", "released_bytes",
                  static_cast<double>(heap.released_bytes));
  reg.ExportGauge("allocator", "hugepage_coverage", HugepageCoverage());

  reg.ExportGauge("allocator", "cycles_cpu_cache_ns", cycles_.cpu_cache_ns);
  reg.ExportGauge("allocator", "cycles_transfer_cache_ns",
                  cycles_.transfer_cache_ns);
  reg.ExportGauge("allocator", "cycles_central_free_list_ns",
                  cycles_.central_free_list_ns);
  reg.ExportGauge("allocator", "cycles_page_heap_ns", cycles_.page_heap_ns);
  reg.ExportGauge("allocator", "cycles_mmap_ns", cycles_.mmap_ns);
  reg.ExportGauge("allocator", "cycles_sampled_ns", cycles_.sampled_ns);
  reg.ExportGauge("allocator", "cycles_prefetch_ns", cycles_.prefetch_ns);
  reg.ExportGauge("allocator", "cycles_other_ns", cycles_.other_ns);

  reg.ExportCounter("allocator", "alloc_hits_cpu_cache",
                    alloc_hits_.cpu_cache);
  reg.ExportCounter("allocator", "alloc_hits_transfer_cache",
                    alloc_hits_.transfer_cache);
  reg.ExportCounter("allocator", "alloc_hits_central_free_list",
                    alloc_hits_.central_free_list);
  reg.ExportCounter("allocator", "alloc_hits_page_heap",
                    alloc_hits_.page_heap);
  reg.ExportCounter("allocator", "alloc_hits_mmap", alloc_hits_.mmap);

  // Every tier contributes into the shared component namespaces; the
  // per-class central free lists accumulate.
  cpu_caches_.ContributeTelemetry(reg);
  transfer_cache_.ContributeTelemetry(reg);
  for (const auto& cfl : cfls_) cfl->ContributeTelemetry(reg);
  page_heap_.ContributeTelemetry(reg);
  system_.ContributeTelemetry(reg);
  reclaimer_->ContributeTelemetry(reg);

  // Failure component: the recovery live handles registered at
  // construction are joined by the per-tier denial counts, so the
  // snapshot's "failure" component holds every growth failure and
  // recovery in one place.
  {
    uint64_t span_fetch = 0;
    for (const auto& cfl : cfls_) span_fetch += cfl->span_fetch_failures();
    const FillerStats filler = page_heap_.filler_stats();
    reg.ExportCounter("failure", "mmap_denied",
                      system_.stats().mmap_failures);
    reg.ExportCounter("failure", "huge_cache_allocation_failures",
                      page_heap_.cache_stats().allocation_failures);
    reg.ExportCounter("failure", "filler_growth_failures",
                      filler.growth_failures);
    reg.ExportCounter("failure", "filler_cross_set_fallbacks",
                      filler.cross_set_fallbacks);
    reg.ExportCounter("failure", "region_growth_failures",
                      page_heap_.region_growth_failures());
    reg.ExportCounter("failure", "span_fetch_failures", span_fetch);
    reg.ExportCounter("failure", "large_fallbacks",
                      page_heap_.large_fallbacks());
    reg.ExportCounter("failure", "large_failures",
                      page_heap_.large_failures());
  }

  // Sampler component: sample counts plus the all-sizes lifetime
  // distribution, rebinned from the sampler's log histogram onto fixed
  // bounds so fleet-wide merges stay exact (satisfying Snapshot::MergeFrom's
  // equal-bounds requirement).
  reg.ExportCounter("sampler", "samples_taken", sampler_.samples_taken());
  reg.ExportGauge("sampler", "live_samples",
                  static_cast<double>(sampler_.live_sample_count()));
  {
    const LogHistogram& lifetimes = sampler_.profile().all_lifetimes;
    // Fixed bounds: 2^8 .. 2^44 ns in powers of 16 (256 ns to ~4.9 hours).
    std::vector<double> bounds;
    for (int b = 8; b <= 44; b += 4) {
      bounds.push_back(static_cast<double>(uint64_t{1} << b));
    }
    std::vector<uint64_t> buckets(bounds.size() + 1, 0);
    double sum = 0;
    for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
      double weight = lifetimes.BucketWeight(b);
      if (weight <= 0) continue;
      // Rebin by the bucket's representative value; the exact per-bucket
      // value sum keeps the histogram mean exact.
      double rep = 1.5 * static_cast<double>(uint64_t{1} << b);
      size_t i = 0;
      while (i < bounds.size() && rep > bounds[i]) ++i;
      buckets[i] += static_cast<uint64_t>(weight + 0.5);
      sum += lifetimes.BucketValueSum(b);
    }
    reg.ExportHistogram("sampler", "lifetime_ns", bounds, buckets,
                        static_cast<uint64_t>(lifetimes.total_weight() + 0.5),
                        sum);
  }
  return reg.TakeSnapshot();
}

void Allocator::RegisterCallsite(uint64_t id, std::string_view name) {
  WSC_CHECK_NE(id, 0u);
  callsites_[id].name = std::string(name);
}

trace::HeapProfile Allocator::CollectHeapProfile() const {
  trace::HeapProfile profile;
  profile.total_live_bytes = live_bytes_ + large_live_bytes_;
  profile.samples_taken = sampler_.samples_taken();

  // Exact dimensions from the per-callsite accounting.
  for (const auto& [id, cs] : callsites_) {
    trace::CallsiteProfile& row = profile.callsites[id];
    row.name = cs.name;
    row.allocs = cs.allocs;
    row.frees = cs.frees;
    row.live_bytes = cs.live_bytes;
    row.peak_live_bytes = cs.peak_live_bytes;
    row.cum_bytes = cs.cum_bytes;
    profile.attributed_live_bytes += cs.live_bytes;
  }

  // Sampled dimensions. Callsite 0 collects untagged allocations.
  for (const auto& [id, ss] : sampler_.by_callsite()) {
    trace::CallsiteProfile& row = profile.callsites[id];
    if (row.name.empty()) {
      row.name = id == 0 ? "<untagged>" : "<unregistered>";
    }
    row.samples = ss.samples;
    row.sampled_live_bytes = ss.live_bytes;
    row.sampled_lifetimes = ss.lifetimes;
    row.lifetime_sum_ns = ss.lifetime_sum_ns;
  }

  // Size x lifetime table from the Fig. 8 profile.
  const LifetimeProfile& lp = sampler_.profile();
  static_assert(trace::HeapProfile::kSizeBuckets ==
                LifetimeProfile::kSizeBuckets);
  for (int i = 0; i < LifetimeProfile::kSizeBuckets; ++i) {
    profile.size_lifetime[i].samples = lp.lifetime_by_size[i].count();
    profile.size_lifetime[i].lifetime_sum_ns =
        lp.lifetime_by_size[i].weighted_sum();
  }

  // Fragmentation attribution: walk live sampled objects in address order;
  // a callsite whose sample sits on a filler hugepage that carries free
  // (or subreleased) pages is pinning a fragmented hugepage. Each
  // (callsite, hugepage) pair counts once.
  std::map<std::pair<uint64_t, uint64_t>, bool> seen;
  for (const auto& [addr, sample] : sampler_.SortedLiveSamples()) {
    size_t free_bytes = page_heap_.FragmentedBytesOnHugepage(addr);
    if (free_bytes == 0) continue;
    uint64_t hp = addr / kHugePageSize;
    if (!seen.emplace(std::make_pair(sample.callsite, hp), true).second) {
      continue;
    }
    trace::CallsiteProfile& row = profile.callsites[sample.callsite];
    if (row.name.empty()) {
      row.name = sample.callsite == 0 ? "<untagged>" : "<unregistered>";
    }
    ++row.fragmented_hugepages;
    row.fragmented_free_bytes += free_bytes;
  }
  return profile;
}

bool Allocator::IsLiveObject(uintptr_t addr) const {
  Span* span = pagemap_.LookupAddr(addr);
  if (span == nullptr) return false;
  if (span->is_large()) return span->start_addr() == addr;
  // From the span's perspective objects cached in upper tiers are live;
  // the span bitmap alone cannot distinguish app-live from cached. This
  // helper is used by tests that bypass the caches.
  return span->IsLiveObject(addr);
}

}  // namespace wsc::tcmalloc
