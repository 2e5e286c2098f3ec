#include "tcmalloc/background.h"

#include <algorithm>

#include "common/logging.h"
#include "tcmalloc/allocator.h"

namespace wsc::tcmalloc {

namespace {

// Exact footprint recomputation is O(#vcpus + #classes + #hugepages), so
// the admission path refreshes every this many allocations and advances an
// admitted-bytes estimate in between.
constexpr int kAdmissionRefreshInterval = 16;

// Under soft-limit pressure, per-CPU caches are capped at this fraction of
// per_cpu_cache_min_bytes — deliberately below the normal floor.
constexpr double kPressureCacheFloorFraction = 0.25;

// Per-tier reclaim-size histogram bounds: 64 KiB .. 4 GiB in powers of 4.
std::vector<double> TierHistBounds() {
  std::vector<double> bounds;
  for (double b = 64.0 * 1024.0; b <= 4.0 * (1ull << 30); b *= 4) {
    bounds.push_back(b);
  }
  return bounds;
}

}  // namespace

BackgroundReclaimer::BackgroundReclaimer(Allocator* allocator)
    : allocator_(allocator),
      soft_limit_(allocator->config().soft_limit_bytes),
      hard_limit_(allocator->config().hard_limit_bytes) {
  WSC_CHECK(allocator != nullptr);
  telemetry::MetricRegistry& reg = allocator_->registry_;
  soft_limit_hits_ = reg.RegisterCounter("pressure", "soft_limit_hits");
  hard_limit_failures_ =
      reg.RegisterCounter("pressure", "hard_limit_failures");
  reclaim_runs_ = reg.RegisterCounter("pressure", "reclaim_runs");
  reclaimed_bytes_ = reg.RegisterCounter("pressure", "reclaimed_bytes");
  std::vector<double> bounds = TierHistBounds();
  tier_cpu_cache_hist_ = reg.RegisterHistogram(
      "pressure", "tier_cpu_cache_shrink_bytes", bounds);
  tier_transfer_cache_hist_ = reg.RegisterHistogram(
      "pressure", "tier_transfer_cache_drain_bytes", bounds);
  tier_central_free_list_hist_ = reg.RegisterHistogram(
      "pressure", "tier_central_free_list_return_bytes", bounds);
  tier_page_heap_hist_ = reg.RegisterHistogram(
      "pressure", "tier_page_heap_release_bytes", bounds);
}

void BackgroundReclaimer::SetLimit(MemoryLimitKind kind, size_t bytes) {
  if (kind == MemoryLimitKind::kSoft) {
    soft_limit_ = bytes;
    if (bytes == 0) allocator_->cpu_caches_.LiftPressureCap();
  } else {
    hard_limit_ = bytes;
    footprint_cache_valid_ = false;
  }
}

size_t BackgroundReclaimer::GetLimit(MemoryLimitKind kind) const {
  return kind == MemoryLimitKind::kSoft ? soft_limit_ : hard_limit_;
}

void BackgroundReclaimer::Tick(SimTime now) {
  (void)now;  // the actor is stateless in time; cadence comes from Maintain
  if (soft_limit_ == 0) return;
  size_t footprint = allocator_->FootprintBytes();
  if (footprint <= soft_limit_) {
    // Pressure subsided: let the per-CPU caches grow back to their
    // configured capacities.
    if (allocator_->cpu_caches_.pressure_capped()) {
      allocator_->cpu_caches_.LiftPressureCap();
    }
    return;
  }
  soft_limit_hits_->Add();
  ReclaimTiers(soft_limit_);
}

size_t BackgroundReclaimer::ReleaseMemoryToSystem(size_t bytes) {
  size_t released = allocator_->page_heap_.ReleaseForPressure(bytes);
  reclaimed_bytes_->Add(released);
  footprint_cache_valid_ = false;
  return released;
}

bool BackgroundReclaimer::AdmitAllocation(size_t size) {
  if (hard_limit_ == 0) return true;
  if (!footprint_cache_valid_ ||
      ++admissions_since_refresh_ >= kAdmissionRefreshInterval) {
    cached_footprint_ = allocator_->FootprintBytes();
    pending_admitted_bytes_ = 0;
    admissions_since_refresh_ = 0;
    footprint_cache_valid_ = true;
  }
  if (cached_footprint_ + pending_admitted_bytes_ + size <= hard_limit_) {
    pending_admitted_bytes_ += size;
    return true;
  }
  // The running estimate says no; recheck exactly (frees since the last
  // refresh make the estimate conservative).
  cached_footprint_ = allocator_->FootprintBytes();
  pending_admitted_bytes_ = 0;
  admissions_since_refresh_ = 0;
  if (cached_footprint_ + size <= hard_limit_) {
    pending_admitted_bytes_ = size;
    return true;
  }
  // One emergency reclaim attempt, rate-limited: if the footprint has not
  // moved since the last failed admission, the cascade already ran dry.
  if (cached_footprint_ != last_emergency_footprint_) {
    last_emergency_footprint_ = cached_footprint_;
    ReclaimTiers(hard_limit_ > size ? hard_limit_ - size : 0);
    cached_footprint_ = allocator_->FootprintBytes();
    footprint_cache_valid_ = true;
    if (cached_footprint_ + size <= hard_limit_) {
      pending_admitted_bytes_ = size;
      return true;
    }
  }
  hard_limit_failures_->Add();
  return false;
}

bool BackgroundReclaimer::EmergencyReclaimForGrowth() {
  size_t footprint = allocator_->FootprintBytes();
  if (footprint == last_emergency_footprint_) return false;
  last_emergency_footprint_ = footprint;
  // One hugepage of headroom is enough for any span: the cascade stops at
  // the first tier that frees it rather than draining every cache.
  size_t target = footprint > kHugePageSize ? footprint - kHugePageSize : 0;
  ReclaimTiers(target);
  return true;
}

size_t BackgroundReclaimer::ReclaimTiers(size_t target_bytes) {
  reclaim_runs_->Add();
  // Accumulate what each backend release call actually confirmed, rather
  // than diffing the released-pages gauge: the gauge also moves when frees
  // land on subreleased hugepages (over-report) or released memory is
  // reused mid-cascade (underflow), so it is not a measure of this run.
  size_t released = 0;
  const std::vector<uint64_t> spans_before = SnapshotReturnedSpans();
  auto to_cfl = [this](int cls, const uintptr_t* objs, int n) {
    allocator_->ReturnToCfl(cls, objs, n);
  };
  // Every tier ends by releasing the deficit from the back end (tier 4's
  // mechanics); it stops early when the back end runs dry.
  PageHeap& page_heap = allocator_->page_heap_;

  size_t footprint = allocator_->FootprintBytes();

  // Tier 1: shrink cold per-CPU caches below their floor. Objects go
  // straight to the central free lists so emptied spans can flow back to
  // the page heap immediately.
  if (footprint > target_bytes) {
    size_t floor = static_cast<size_t>(
        static_cast<double>(allocator_->config().per_cpu_cache_min_bytes) *
        kPressureCacheFloorFraction);
    size_t flushed =
        allocator_->cpu_caches_.ShrinkForPressure(floor, to_cfl);
    tier_cpu_cache_hist_->Record(static_cast<double>(flushed));
    released += page_heap.ReleaseForPressure(footprint - target_bytes);
    footprint = allocator_->FootprintBytes();
  }

  // Tier 2: plunder NUCA shards, then drain the whole transfer cache.
  if (footprint > target_bytes) {
    TransferCache& transfer_cache = allocator_->transfer_cache_;
    if (transfer_cache.nuca_enabled()) transfer_cache.Plunder();
    size_t drained = transfer_cache.DrainAll(to_cfl);
    tier_transfer_cache_hist_->Record(static_cast<double>(drained));
    released += page_heap.ReleaseForPressure(footprint - target_bytes);
    footprint = allocator_->FootprintBytes();
  }

  // Tier 3: partial spans drained by tiers 1-2 that completed and returned
  // to the page heap (the central free lists return fully-free spans
  // eagerly; this attributes those bytes to the cascade).
  size_t span_bytes = ReturnedSpanBytesSince(spans_before);
  tier_central_free_list_hist_->Record(static_cast<double>(span_bytes));

  // Tier 4: whatever deficit remains comes straight out of the back end —
  // aggressive subrelease of sparse hugepages, no demand guard.
  if (footprint > target_bytes) {
    released += page_heap.ReleaseForPressure(footprint - target_bytes);
  }

  tier_page_heap_hist_->Record(static_cast<double>(released));
  reclaimed_bytes_->Add(released);
  footprint_cache_valid_ = false;
  return released;
}

std::vector<uint64_t> BackgroundReclaimer::SnapshotReturnedSpans() const {
  std::vector<uint64_t> counts;
  counts.reserve(allocator_->cfls_.size());
  for (const auto& cfl : allocator_->cfls_) {
    counts.push_back(cfl->stats().returned_spans);
  }
  return counts;
}

size_t BackgroundReclaimer::ReturnedSpanBytesSince(
    const std::vector<uint64_t>& before) const {
  const SizeClasses& classes = allocator_->size_classes();
  size_t bytes = 0;
  for (int cls = 0; cls < classes.num_classes(); ++cls) {
    uint64_t delta = allocator_->cfls_[cls]->stats().returned_spans -
                     before[cls];
    bytes += static_cast<size_t>(delta) *
             LengthToBytes(classes.pages_per_span(cls));
  }
  return bytes;
}

void BackgroundReclaimer::ContributeTelemetry(
    telemetry::MetricRegistry& registry) const {
  registry.ExportGauge("pressure", "soft_limit_bytes",
                       static_cast<double>(soft_limit_));
  registry.ExportGauge("pressure", "hard_limit_bytes",
                       static_cast<double>(hard_limit_));
}

}  // namespace wsc::tcmalloc
