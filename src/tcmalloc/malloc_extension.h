// MallocExtension-style public control/introspection facade.
//
// Production TCMalloc exposes one sanctioned surface — MallocExtension —
// through which applications and the control plane read allocator state
// and set policy (memory limits, ReleaseMemoryToSystem, numeric
// properties). This mirror of it is the single sanctioned way code outside
// src/tcmalloc/ (benches, tests, the fleet layer) interrogates or steers an
// Allocator; the raw component accessors on Allocator are deprecated for
// that purpose.
//
// The facade is a cheap, copyable view: it borrows the allocator and holds
// no state of its own.

#ifndef WSC_TCMALLOC_MALLOC_EXTENSION_H_
#define WSC_TCMALLOC_MALLOC_EXTENSION_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "tcmalloc/allocator.h"
#include "tcmalloc/background.h"
#include "trace/heap_profile.h"

namespace wsc::tcmalloc {

class MallocExtension {
 public:
  explicit MallocExtension(Allocator* allocator);

  // ---- Heap / cost statistics ----
  HeapStats GetHeapStats() const;
  const MallocCycleBreakdown& GetCycleBreakdown() const;
  const TierHitCounts& GetAllocTierHits() const;
  uint64_t GetNumAllocations() const;
  uint64_t GetNumFrees() const;
  // O(#vcpus + #classes + #hugepages) footprint: live bytes plus every
  // tier's cached/free bytes (HeapStats::HeapBytes without the
  // requested-byte estimation).
  size_t GetFootprintBytes() const;
  PageHeapStats GetPageHeapStats() const;
  SystemStats GetSystemStats() const;
  double GetHugepageCoverage() const;
  const LogHistogram& GetAllocCountHistogram() const;
  const LogHistogram& GetAllocBytesHistogram() const;

  // ---- Memory limits & release (background.h control plane) ----
  void SetMemoryLimit(MemoryLimitKind kind, size_t bytes);
  size_t GetMemoryLimit(MemoryLimitKind kind) const;
  // Releases up to `bytes` of free back-end memory to the OS; returns the
  // bytes actually released.
  size_t ReleaseMemoryToSystem(size_t bytes);

  // ---- Profiling ----
  // The pprof-style heap profile: per-callsite live/peak/cumulative bytes
  // (exact), sampled lifetimes, and hugepage-fragmentation attribution.
  trace::HeapProfile GetHeapProfileData() const;
  // The profile rendered as a human-readable text report.
  std::string GetHeapProfile() const;
  // The sampler's Fig. 8 size x lifetime profile.
  const LifetimeProfile& GetLifetimeProfile() const;
  uint64_t GetSamplesTaken() const;

  // ---- Telemetry ----
  telemetry::Snapshot GetTelemetrySnapshot();
  // Dotted "component.name" lookup over a fresh telemetry snapshot, e.g.
  // GetProperty("pressure.reclaimed_bytes") or
  // GetProperty("allocator.heap_bytes"). Returns the sample's scalar value
  // (counter count, gauge value, or histogram sum), or nullopt when the
  // property does not exist.
  std::optional<double> GetProperty(std::string_view name);

  // Escape hatch for callers that need operations the facade does not
  // cover (Allocate/Free themselves, vCPU placement).
  Allocator* allocator() { return allocator_; }
  const Allocator* allocator() const { return allocator_; }

 private:
  Allocator* allocator_;
};

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_MALLOC_EXTENSION_H_
