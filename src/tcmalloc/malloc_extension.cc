#include "tcmalloc/malloc_extension.h"

#include <string>

#include "common/logging.h"

namespace wsc::tcmalloc {

MallocExtension::MallocExtension(Allocator* allocator)
    : allocator_(allocator) {
  WSC_CHECK(allocator != nullptr);
}

HeapStats MallocExtension::GetHeapStats() const {
  return allocator_->CollectStats();
}

const MallocCycleBreakdown& MallocExtension::GetCycleBreakdown() const {
  return allocator_->cycle_breakdown();
}

const TierHitCounts& MallocExtension::GetAllocTierHits() const {
  return allocator_->alloc_tier_hits();
}

uint64_t MallocExtension::GetNumAllocations() const {
  return allocator_->num_allocations();
}

uint64_t MallocExtension::GetNumFrees() const {
  return allocator_->num_frees();
}

size_t MallocExtension::GetFootprintBytes() const {
  return allocator_->FootprintBytes();
}

PageHeapStats MallocExtension::GetPageHeapStats() const {
  return allocator_->page_heap_stats();
}

SystemStats MallocExtension::GetSystemStats() const {
  return allocator_->system_stats();
}

double MallocExtension::GetHugepageCoverage() const {
  return allocator_->HugepageCoverage();
}

const LogHistogram& MallocExtension::GetAllocCountHistogram() const {
  return allocator_->alloc_count_hist();
}

const LogHistogram& MallocExtension::GetAllocBytesHistogram() const {
  return allocator_->alloc_bytes_hist();
}

void MallocExtension::SetMemoryLimit(MemoryLimitKind kind, size_t bytes) {
  allocator_->reclaimer().SetLimit(kind, bytes);
}

size_t MallocExtension::GetMemoryLimit(MemoryLimitKind kind) const {
  return allocator_->reclaimer().GetLimit(kind);
}

size_t MallocExtension::ReleaseMemoryToSystem(size_t bytes) {
  return allocator_->reclaimer().ReleaseMemoryToSystem(bytes);
}

trace::HeapProfile MallocExtension::GetHeapProfileData() const {
  return allocator_->CollectHeapProfile();
}

std::string MallocExtension::GetHeapProfile() const {
  return trace::RenderHeapProfileText(allocator_->CollectHeapProfile());
}

const LifetimeProfile& MallocExtension::GetLifetimeProfile() const {
  return allocator_->sampler().profile();
}

uint64_t MallocExtension::GetSamplesTaken() const {
  return allocator_->sampler().samples_taken();
}

telemetry::Snapshot MallocExtension::GetTelemetrySnapshot() {
  return allocator_->TelemetrySnapshot();
}

std::optional<double> MallocExtension::GetProperty(std::string_view name) {
  size_t dot = name.find('.');
  if (dot == std::string_view::npos || dot == 0 ||
      dot == name.size() - 1) {
    return std::nullopt;
  }
  std::string_view component = name.substr(0, dot);
  std::string_view metric = name.substr(dot + 1);
  telemetry::Snapshot snapshot = allocator_->TelemetrySnapshot();
  const telemetry::MetricSample* sample = snapshot.Find(component, metric);
  if (sample == nullptr) return std::nullopt;
  return sample->ScalarValue();
}

}  // namespace wsc::tcmalloc
