#include "tcmalloc/sampler.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace wsc::tcmalloc {

int LifetimeProfile::SizeBucketFor(size_t size) {
  if (size <= 1) return 0;
  int b = std::bit_width(size - 1);  // ceil(log2(size))
  return b < kSizeBuckets ? b : kSizeBuckets - 1;
}

void LifetimeProfile::Merge(const LifetimeProfile& other) {
  for (int i = 0; i < kSizeBuckets; ++i) {
    lifetime_by_size[i].Merge(other.lifetime_by_size[i]);
  }
  all_lifetimes.Merge(other.all_lifetimes);
}

Sampler::Sampler(size_t sample_interval_bytes)
    : interval_(sample_interval_bytes), bytes_until_sample_(interval_) {
  WSC_CHECK_GT(interval_, 0u);
}

bool Sampler::RecordAllocation(uintptr_t addr, size_t allocated,
                               SimTime now, uint64_t callsite) {
  if (allocated < bytes_until_sample_) {
    bytes_until_sample_ -= allocated;
    return false;
  }
  bytes_until_sample_ = interval_;
  ++samples_taken_;
  live_samples_[addr] = Sample{allocated, now, callsite};
  CallsiteSamples& cs = by_callsite_[callsite];
  ++cs.samples;
  cs.live_bytes += allocated;
  return true;
}

void Sampler::RecordFree(uintptr_t addr, SimTime now) {
  auto it = live_samples_.find(addr);
  if (it == live_samples_.end()) return;
  const Sample& sample = it->second;
  double lifetime_ns = static_cast<double>(now - sample.alloc_time);
  int bucket = LifetimeProfile::SizeBucketFor(sample.allocated);
  profile_.lifetime_by_size[bucket].Add(lifetime_ns);
  profile_.all_lifetimes.Add(lifetime_ns);
  CallsiteSamples& cs = by_callsite_[sample.callsite];
  WSC_CHECK_GE(cs.live_bytes, sample.allocated);
  cs.live_bytes -= sample.allocated;
  ++cs.lifetimes;
  cs.lifetime_sum_ns += lifetime_ns;
  live_samples_.erase(it);
}

void Sampler::FlushOutstanding(SimTime now) {
  for (const auto& [addr, sample] : live_samples_) {
    double lifetime_ns = static_cast<double>(now - sample.alloc_time);
    int bucket = LifetimeProfile::SizeBucketFor(sample.allocated);
    profile_.lifetime_by_size[bucket].Add(lifetime_ns);
    profile_.all_lifetimes.Add(lifetime_ns);
    CallsiteSamples& cs = by_callsite_[sample.callsite];
    WSC_CHECK_GE(cs.live_bytes, sample.allocated);
    cs.live_bytes -= sample.allocated;
    ++cs.lifetimes;
    cs.lifetime_sum_ns += lifetime_ns;
  }
  live_samples_.clear();
}

std::vector<std::pair<uintptr_t, Sampler::Sample>>
Sampler::SortedLiveSamples() const {
  std::vector<std::pair<uintptr_t, Sample>> out(live_samples_.begin(),
                                                live_samples_.end());
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

}  // namespace wsc::tcmalloc
