// Background reclaim actor: the per-process memory-pressure control plane.
//
// Production TCMalloc gives memory back under pressure — cache shrinking,
// transfer-cache plundering, hugepage subrelease — coordinated by a
// background thread against soft/hard memory limits (Section 4.4's
// deployment story). This simulated actor runs at sim-interval boundaries
// (Allocator::Maintain) and degrades the hierarchy gracefully in tier
// order when the footprint exceeds the soft limit:
//
//   tier 1  shrink cold per-CPU caches below their configured floor
//   tier 2  plunder NUCA transfer-cache shards and drain the whole tier
//   tier 3  central-free-list partial spans drained by tiers 1-2 complete
//           and flow back to the page heap as free pages
//   tier 4  subrelease sparse hugepages aggressively (no demand guard)
//
// Tiers 1-3 mobilize cached memory downward; the footprint only drops at
// OS-release points (whole cached hugepages, filler subrelease), so the
// cascade releases from the back end after each tier and stops as soon as
// the footprint is back under the limit.
//
// The hard limit turns allocations into counted, surfaced failures:
// Allocator::Allocate returns 0 after one emergency reclaim attempt
// instead of growing the arena past the limit.
//
// Every action is published through the process's telemetry registry under
// component "pressure".

#ifndef WSC_TCMALLOC_BACKGROUND_H_
#define WSC_TCMALLOC_BACKGROUND_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sim_clock.h"
#include "telemetry/registry.h"

namespace wsc::tcmalloc {

class Allocator;

// Which memory limit a control-plane call addresses.
enum class MemoryLimitKind {
  kSoft,  // reclaim target: exceeded footprint triggers the tier cascade
  kHard,  // admission bound: exceeding allocations fail (Allocate == 0)
};

// One reclaim actor per Allocator (constructed by the allocator itself;
// reach it through Allocator::reclaimer()).
class BackgroundReclaimer {
 public:
  explicit BackgroundReclaimer(Allocator* allocator);

  BackgroundReclaimer(const BackgroundReclaimer&) = delete;
  BackgroundReclaimer& operator=(const BackgroundReclaimer&) = delete;

  // Adjusts a limit at runtime (the fleet layer retargets soft limits as
  // pressure events come and go). 0 disables the limit; disabling the soft
  // limit lifts the per-CPU pressure cap.
  void SetLimit(MemoryLimitKind kind, size_t bytes);
  size_t GetLimit(MemoryLimitKind kind) const;

  // Runs the actor once; called from Allocator::Maintain at sim-interval
  // boundaries. Reclaims toward the soft limit when exceeded, and lifts
  // tier-1 pressure caps once the footprint is comfortably back under it.
  void Tick(SimTime now);

  // Releases up to `bytes` of free back-end memory to the OS immediately
  // (TCMalloc's ReleaseMemoryToSystem). Returns bytes released.
  size_t ReleaseMemoryToSystem(size_t bytes);

  // Hard-limit admission check for Allocator::Allocate. Returns false —
  // after one emergency reclaim attempt — when admitting `size` bytes
  // would push the footprint past the hard limit; the failure is counted.
  bool AdmitAllocation(size_t size);

  // Emergency response to denied arena growth (arena exhaustion): runs the
  // tier cascade once to mobilize cached memory back down to the page
  // heap, so the failed allocation can retry against existing hugepages
  // instead of fresh mmap. Rate-limited by footprint, capping
  // the backoff: when the footprint has not moved since the last emergency
  // run the cascade already ran dry, and the caller must surface the
  // failure instead of retrying. Returns true when a retry is worthwhile.
  bool EmergencyReclaimForGrowth();

  uint64_t soft_limit_hits() const { return soft_limit_hits_->value(); }
  uint64_t hard_limit_failures() const {
    return hard_limit_failures_->value();
  }
  uint64_t reclaimed_bytes() const { return reclaimed_bytes_->value(); }
  uint64_t reclaim_runs() const { return reclaim_runs_->value(); }

  // Exports the current limits (snapshot-time gauges); called by
  // Allocator::TelemetrySnapshot between BeginExport and TakeSnapshot.
  void ContributeTelemetry(telemetry::MetricRegistry& registry) const;

 private:
  // Runs the tier cascade until the footprint is at or under
  // `target_bytes` or every tier is exhausted. Returns bytes released to
  // the OS.
  size_t ReclaimTiers(size_t target_bytes);

  // Per-class returned-span counters, used to attribute tier-3 bytes
  // (spans the central free lists return while tiers 1-2 flush).
  std::vector<uint64_t> SnapshotReturnedSpans() const;
  size_t ReturnedSpanBytesSince(const std::vector<uint64_t>& before) const;

  Allocator* allocator_;
  size_t soft_limit_ = 0;
  size_t hard_limit_ = 0;

  // Admission-path footprint cache: exact recomputation is O(#vcpus +
  // #classes), so between refreshes the estimate advances by admitted
  // bytes only (conservative: frees make it an overestimate, and an
  // estimated rejection always re-checks exactly).
  size_t cached_footprint_ = 0;
  size_t pending_admitted_bytes_ = 0;
  int admissions_since_refresh_ = 0;
  bool footprint_cache_valid_ = false;
  // Emergency-reclaim rate limit: don't re-run the cascade while the
  // footprint sits unchanged at the limit.
  size_t last_emergency_footprint_ = 0;

  telemetry::Counter* soft_limit_hits_;
  telemetry::Counter* hard_limit_failures_;
  telemetry::Counter* reclaim_runs_;
  telemetry::Counter* reclaimed_bytes_;
  telemetry::FixedHistogram* tier_cpu_cache_hist_;
  telemetry::FixedHistogram* tier_transfer_cache_hist_;
  telemetry::FixedHistogram* tier_central_free_list_hist_;
  telemetry::FixedHistogram* tier_page_heap_hist_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_BACKGROUND_H_
