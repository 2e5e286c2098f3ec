#include "tcmalloc/system_alloc.h"

#include "common/logging.h"

namespace wsc::tcmalloc {

SystemAllocator::SystemAllocator(uintptr_t base, size_t arena_bytes,
                                 double mmap_latency_ns)
    : base_(base),
      arena_bytes_(arena_bytes),
      next_(base),
      mmap_latency_ns_(mmap_latency_ns) {
  WSC_CHECK(base % kHugePageSize == 0);
  WSC_CHECK(arena_bytes % kHugePageSize == 0);
  WSC_CHECK_GT(arena_bytes, 0u);
}

HugePageId SystemAllocator::AllocateHugePages(int n) {
  WSC_CHECK_GT(n, 0);
  size_t bytes = static_cast<size_t>(n) * kHugePageSize;
  // A planned mmap fault or reservation exhaustion (OOM) is a counted
  // failure, never fatal: the tiers above fall back or surface nullptr.
  if (injector_ != nullptr && injector_->ShouldFailMmap()) {
    ++stats_.mmap_failures;
    return kInvalidHugePage;
  }
  if (next_ + bytes > base_ + arena_bytes_) {
    ++stats_.mmap_failures;
    return kInvalidHugePage;
  }
  const uintptr_t addr = next_;
  next_ += bytes;
  ++stats_.mmap_calls;
  stats_.mapped_bytes += bytes;
  stats_.mmap_ns += mmap_latency_ns_;
  return HugePageContainingAddr(addr);
}

size_t SystemAllocator::Release(uintptr_t addr, size_t bytes) {
  const size_t fresh = released_.Add(addr, bytes);
  stats_.released_bytes += fresh;
  return fresh;
}

void SystemAllocator::Commit(uintptr_t addr, size_t bytes) {
  stats_.recommitted_bytes += released_.Remove(addr, bytes);
}

void SystemAllocator::ContributeTelemetry(
    telemetry::MetricRegistry& registry) const {
  registry.ExportCounter("system", "mmap_calls", stats_.mmap_calls);
  registry.ExportCounter("system", "mapped_bytes", stats_.mapped_bytes);
  registry.ExportGauge("system", "mmap_ns", stats_.mmap_ns);
  registry.ExportCounter("system", "mmap_failures", stats_.mmap_failures);
  registry.ExportCounter("system", "backing_released_bytes",
                         stats_.released_bytes);
  registry.ExportCounter("system", "backing_recommitted_bytes",
                         stats_.recommitted_bytes);
}

}  // namespace wsc::tcmalloc
