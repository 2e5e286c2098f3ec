#include "tcmalloc/transfer_cache.h"

#include <algorithm>

#include "common/logging.h"

namespace wsc::tcmalloc {

TransferCache::TransferCache(const SizeClasses* size_classes,
                             const AllocatorConfig& config)
    : size_classes_(size_classes),
      nuca_(config.nuca_transfer_cache && config.num_llc_domains > 1),
      shard_batches_(config.nuca_shard_batches) {
  WSC_CHECK(size_classes != nullptr);
  int n = size_classes_->num_classes();
  central_.resize(n);
  for (int cls = 0; cls < n; ++cls) {
    central_[cls].capacity = TransferCacheCapacity(*size_classes_, config, cls);
  }
  if (nuca_) {
    shards_.resize(config.num_llc_domains);
  }
}

int TransferCache::RemoveFrom(ClassCache& cache, uintptr_t* out, int n) {
  int taken = 0;
  while (taken < n && !cache.objects.empty()) {
    out[taken++] = cache.objects.back();
    cache.objects.pop_back();
  }
  cache.low_water = std::min(cache.low_water, cache.objects.size());
  return taken;
}

int TransferCache::InsertInto(ClassCache& cache, const uintptr_t* objs,
                              int n) {
  int accepted = 0;
  while (accepted < n && cache.objects.size() < cache.capacity) {
    cache.objects.push_back(objs[accepted++]);
  }
  return accepted;
}

int TransferCache::Remove(int domain, int cls, uintptr_t* out, int n) {
  WSC_DCHECK_GE(n, 0);
  int taken = 0;
  if (nuca_) {
    WSC_CHECK_GE(domain, 0);
    WSC_CHECK_LT(domain, static_cast<int>(shards_.size()));
    auto& shard = shards_[domain];
    if (!shard.empty()) {
      taken += RemoveFrom(shard[cls], out, n);
      stats_.shard_hits += taken;
    }
  }
  if (taken < n) {
    int from_central = RemoveFrom(central_[cls], out + taken, n - taken);
    stats_.central_hits += from_central;
    taken += from_central;
  }
  if (taken < n) ++stats_.misses;
  return taken;
}

int TransferCache::Insert(int domain, int cls, const uintptr_t* objs, int n) {
  int accepted = 0;
  if (nuca_) {
    WSC_CHECK_GE(domain, 0);
    WSC_CHECK_LT(domain, static_cast<int>(shards_.size()));
    auto& shard = shards_[domain];
    if (shard.empty()) {
      // Activate this domain's shard on first use only, so we populate
      // exactly as many NUCA caches as the application is scheduled on.
      shard.resize(size_classes_->num_classes());
      for (int c = 0; c < size_classes_->num_classes(); ++c) {
        size_t batch_cap = static_cast<size_t>(shard_batches_) *
                           size_classes_->batch_size(c);
        size_t byte_cap = std::max<size_t>(
            size_classes_->batch_size(c),
            (128 * 1024) / size_classes_->class_size(c));
        shard[c].capacity = std::min(batch_cap, byte_cap);
      }
    }
    accepted += InsertInto(shard[cls], objs, n);
  }
  if (accepted < n) {
    accepted += InsertInto(central_[cls], objs + accepted, n - accepted);
  }
  stats_.inserts_accepted += accepted;
  stats_.inserts_overflowed += n - accepted;
  return accepted;
}

void TransferCache::Plunder() {
  if (!nuca_) return;
  for (size_t domain = 0; domain < shards_.size(); ++domain) {
    auto& shard = shards_[domain];
    if (shard.empty()) continue;
    for (int cls = 0; cls < size_classes_->num_classes(); ++cls) {
      ClassCache& c = shard[cls];
      // Objects below the low-water mark were never touched during the
      // interval; hand them back to the central cache.
      size_t move = std::min(c.low_water, c.objects.size());
      for (size_t i = 0; i < move; ++i) {
        uintptr_t obj = c.objects.back();
        c.objects.pop_back();
        // Central overflow would drop the object on the floor; callers of
        // Plunder route overflow to the central free list, so expose it by
        // re-inserting later. To keep the invariant simple we only move
        // what fits and leave the rest in the shard.
        if (central_[cls].objects.size() < central_[cls].capacity) {
          central_[cls].objects.push_back(obj);
          ++stats_.plundered_objects;
        } else {
          c.objects.push_back(obj);
          break;
        }
      }
      c.low_water = c.objects.size();
    }
  }
}

size_t TransferCache::TotalCachedBytes() const {
  size_t total = 0;
  for (int cls = 0; cls < size_classes_->num_classes(); ++cls) {
    size_t count = central_[cls].objects.size();
    for (const auto& shard : shards_) {
      if (!shard.empty()) count += shard[cls].objects.size();
    }
    total += count * size_classes_->class_size(cls);
  }
  return total;
}

void TransferCache::ContributeTelemetry(
    telemetry::MetricRegistry& registry) const {
  registry.ExportCounter("transfer_cache", "shard_hits", stats_.shard_hits);
  registry.ExportCounter("transfer_cache", "central_hits",
                         stats_.central_hits);
  registry.ExportCounter("transfer_cache", "misses", stats_.misses);
  registry.ExportCounter("transfer_cache", "inserts_accepted",
                         stats_.inserts_accepted);
  registry.ExportCounter("transfer_cache", "inserts_overflowed",
                         stats_.inserts_overflowed);
  registry.ExportCounter("transfer_cache", "plundered_objects",
                         stats_.plundered_objects);
  registry.ExportGauge("transfer_cache", "cached_bytes",
                       static_cast<double>(TotalCachedBytes()));
  size_t active_shards = 0;
  for (const auto& shard : shards_) {
    if (!shard.empty()) ++active_shards;
  }
  registry.ExportGauge("transfer_cache", "active_nuca_shards",
                       static_cast<double>(active_shards));
}

}  // namespace wsc::tcmalloc
