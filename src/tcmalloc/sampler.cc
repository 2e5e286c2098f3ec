#include "tcmalloc/sampler.h"

#include <algorithm>
#include <bit>
#include <cstddef>

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

bool Sampler::RecordAllocation(uintptr_t addr, size_t requested,
                               size_t allocated, SimTime now,
                               uint64_t callsite) {
  // Address reuse retires any tombstone parked there: the guard's address
  // is live again, so a stale use-after-free report would be wrong.
  if (guarded_ && !tombstones_.empty()) tombstones_.erase(addr);
  if (allocated < bytes_until_sample_) {
    bytes_until_sample_ -= allocated;
    return false;
  }
  bytes_until_sample_ = interval_;
  ++samples_taken_;
  if (guarded_) ++guarded_allocs_;
  live_samples_[addr] = Sample{requested, allocated, now, callsite};
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
  if (guarded_) {
    InsertTombstone(addr, Tombstone{sample.requested, sample.allocated,
                                    sample.callsite, now});
  }
  live_samples_.erase(it);
}

void Sampler::InsertTombstone(uintptr_t addr, const Tombstone& tombstone) {
  if (tombstones_.size() >= kMaxTombstones) {
    // Retire the oldest live tombstone; FIFO entries already retired by
    // address reuse are skipped.
    while (tombstone_fifo_head_ < tombstone_fifo_.size()) {
      uintptr_t victim = tombstone_fifo_[tombstone_fifo_head_++];
      if (tombstones_.erase(victim) > 0) break;
    }
  }
  tombstones_[addr] = tombstone;
  tombstone_fifo_.push_back(addr);
  // Compact the FIFO once the consumed prefix dominates.
  if (tombstone_fifo_head_ > 0 &&
      tombstone_fifo_head_ * 2 >= tombstone_fifo_.size()) {
    tombstone_fifo_.erase(
        tombstone_fifo_.begin(),
        tombstone_fifo_.begin() +
            static_cast<ptrdiff_t>(tombstone_fifo_head_));
    tombstone_fifo_head_ = 0;
  }
}

const Sampler::Sample* Sampler::FindLiveSample(uintptr_t addr) const {
  auto it = live_samples_.find(addr);
  return it == live_samples_.end() ? nullptr : &it->second;
}

const Sampler::Tombstone* Sampler::FindTombstone(uintptr_t addr) const {
  auto it = tombstones_.find(addr);
  return it == tombstones_.end() ? nullptr : &it->second;
}

bool Sampler::TakeTombstone(uintptr_t addr, Tombstone* out) {
  auto it = tombstones_.find(addr);
  if (it == tombstones_.end()) return false;
  if (out != nullptr) *out = it->second;
  tombstones_.erase(it);
  return true;
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
