// Metric value types for the GWP-style telemetry layer.
//
// The paper's methodology is fleet telemetry: every figure and table is an
// aggregate of named counters sampled across thousands of machines by
// Google-Wide Profiling. This header defines the three metric shapes that
// aggregation pipeline understands:
//
//   Counter        monotone event count (cache hits, spans fetched)
//   Gauge          point-in-time level   (cached bytes, live hugepages)
//   FixedHistogram fixed-bucket distribution (footprint samples)
//
// All three are plain single-writer values: one allocator instance == one
// simulated process, owned by exactly one fleet worker thread at a time,
// so the hot path is a bare `+=` with no locks and no atomics — lock-free
// by construction. Cross-thread aggregation happens only on immutable
// `Snapshot`s (registry.h), which the parallel fleet engine merges in
// machine-index order to keep results bit-identical for any thread count.

#ifndef WSC_TELEMETRY_METRIC_H_
#define WSC_TELEMETRY_METRIC_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace wsc::telemetry {

enum class MetricKind { kCounter, kGauge, kHistogram };

// Returns the kind as a stable lowercase token ("counter", "gauge",
// "histogram") used by the statsz and BENCH_JSON serializers.
const char* MetricKindName(MetricKind kind);

// Monotone event counter. Hot-path handles returned by
// MetricRegistry::RegisterCounter point directly at the stored value.
class Counter {
 public:
  void Add(uint64_t n = 1) { value_ += n; }
  uint64_t value() const { return value_; }

  void Reset() { value_ = 0; }

 private:
  uint64_t value_ = 0;
};

// Point-in-time level. Exported gauges accumulate contributions from
// multiple tier instances (the per-class central free lists) between
// BeginExport() and TakeSnapshot().
class Gauge {
 public:
  void Set(double v) { value_ = v; }
  void Add(double v) { value_ += v; }
  double value() const { return value_; }

  void Reset() { value_ = 0; }

 private:
  double value_ = 0;
};

// Histogram over fixed, registration-time bucket bounds. A value lands in
// the first bucket whose upper bound is >= the value; values above the
// last bound land in the overflow bucket, so there are bounds.size() + 1
// buckets. Fixed bounds are what make fleet-wide merges exact: two
// histograms merge bucket-by-bucket with no rebinning error.
class FixedHistogram {
 public:
  explicit FixedHistogram(std::vector<double> bounds)
      : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1, 0) {
    for (size_t i = 1; i < bounds_.size(); ++i) {
      WSC_CHECK(bounds_[i - 1] < bounds_[i]);
    }
  }

  void Record(double v, uint64_t weight = 1) {
    size_t i = 0;
    while (i < bounds_.size() && v > bounds_[i]) ++i;
    buckets_[i] += weight;
    count_ += weight;
    sum_ += v * static_cast<double>(weight);
  }

  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<uint64_t>& buckets() const { return buckets_; }
  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double Mean() const {
    return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0;
  }

  // Adds pre-bucketed counts (exported-histogram path). `buckets` must
  // already be binned onto this histogram's bounds; `sum` carries the exact
  // value mass so means survive the rebinning.
  void MergeBuckets(const std::vector<uint64_t>& buckets, uint64_t count,
                    double sum) {
    WSC_CHECK_EQ(buckets.size(), buckets_.size());
    for (size_t i = 0; i < buckets.size(); ++i) buckets_[i] += buckets[i];
    count_ += count;
    sum_ += sum;
  }

  void Reset() {
    buckets_.assign(buckets_.size(), 0);
    count_ = 0;
    sum_ = 0;
  }

 private:
  std::vector<double> bounds_;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  double sum_ = 0;
};

}  // namespace wsc::telemetry

#endif  // WSC_TELEMETRY_METRIC_H_
