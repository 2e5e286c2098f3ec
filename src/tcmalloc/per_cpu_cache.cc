#include "tcmalloc/per_cpu_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace wsc::tcmalloc {

CpuCacheSet::CpuCacheSet(const SizeClasses* size_classes,
                         const AllocatorConfig& config)
    : size_classes_(size_classes),
      default_capacity_(config.per_cpu_cache_bytes),
      min_capacity_(config.per_cpu_cache_min_bytes),
      dynamic_(config.dynamic_cpu_caches),
      grow_candidates_(config.cpu_cache_grow_candidates) {
  WSC_CHECK(size_classes != nullptr);
  WSC_CHECK_GT(config.num_vcpus, 0);
  WSC_CHECK_GE(default_capacity_, min_capacity_);
  vcpus_.resize(config.num_vcpus);
}

int CpuCacheSet::Refill(int vcpu, int cls, const uintptr_t* objs, int n) {
  VcpuCache& cache = Touch(vcpu);
  size_t size = size_classes_->class_size(cls);
  int max_objects = size_classes_->info(cls).max_per_cpu_objects;
  // First refill of this class: reserve a couple of batches up front so
  // the list does not regrow through its smallest doublings on the
  // allocation slow path. Lazy (per class actually used) — most classes
  // of a short-lived process are never touched.
  if (cache.objects[cls].capacity() == 0) {
    cache.objects[cls].reserve(
        static_cast<size_t>(2 * size_classes_->batch_size(cls)));
  }
  int accepted = 0;
  const size_t capacity = EffectiveCapacity(cache);
  while (accepted < n && cache.used_bytes + size <= capacity &&
         static_cast<int>(cache.objects[cls].size()) < max_objects) {
    cache.objects[cls].push_back(objs[accepted]);
    cache.used_bytes += size;
    ++accepted;
  }
  return accepted;
}

int CpuCacheSet::ExtractBatch(int vcpu, int cls, uintptr_t* out, int n) {
  VcpuCache& cache = Touch(vcpu);
  std::vector<uintptr_t>& list = cache.objects[cls];
  int extracted = 0;
  while (extracted < n && !list.empty()) {
    out[extracted++] = list.back();
    list.pop_back();
    cache.used_bytes -= size_classes_->class_size(cls);
  }
  return extracted;
}

CpuCacheSet::VcpuStats CpuCacheSet::GetVcpuStats(int vcpu) const {
  WSC_CHECK_GE(vcpu, 0);
  WSC_CHECK_LT(vcpu, num_vcpus());
  const VcpuCache& c = vcpus_[vcpu];
  VcpuStats s;
  s.populated = c.populated;
  s.hits = c.hits;
  s.underflows = c.underflows;
  s.overflows = c.overflows;
  s.interval_misses = c.interval_misses;
  s.capacity_bytes = c.capacity_bytes;
  s.used_bytes = c.used_bytes;
  return s;
}

size_t CpuCacheSet::TotalCachedBytes() const {
  size_t total = 0;
  for (const VcpuCache& c : vcpus_) total += c.used_bytes;
  return total;
}

size_t CpuCacheSet::TotalCapacityBytes() const {
  size_t total = 0;
  for (const VcpuCache& c : vcpus_) {
    if (c.populated) total += c.capacity_bytes;
  }
  return total;
}

void CpuCacheSet::ContributeTelemetry(
    telemetry::MetricRegistry& registry) const {
  uint64_t hits = 0, underflows = 0, overflows = 0;
  size_t used = 0, capacity = 0;
  int populated = 0;
  for (const VcpuCache& c : vcpus_) {
    if (!c.populated) continue;
    ++populated;
    hits += c.hits;
    underflows += c.underflows;
    overflows += c.overflows;
    used += c.used_bytes;
    capacity += c.capacity_bytes;
  }
  registry.ExportCounter("cpu_cache", "hits", hits);
  registry.ExportCounter("cpu_cache", "underflows", underflows);
  registry.ExportCounter("cpu_cache", "overflows", overflows);
  registry.ExportGauge("cpu_cache", "cached_bytes",
                       static_cast<double>(used));
  registry.ExportGauge("cpu_cache", "capacity_bytes",
                       static_cast<double>(capacity));
  registry.ExportGauge("cpu_cache", "populated_vcpus", populated);
}

}  // namespace wsc::tcmalloc
