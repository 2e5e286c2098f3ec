// Metric registry: the per-process metric namespace every allocator tier
// registers into, and the immutable Snapshot the fleet layer aggregates.
//
// Two usage modes, mirroring production telemetry exporters:
//
//  * Live metrics — RegisterCounter / RegisterHistogram return stable
//    handles the owner increments on its hot path (plain `+=`, no locks;
//    see metric.h for the single-writer contract). Handles stay valid for
//    the registry's lifetime.
//
//  * Exported metrics — tiers whose stats live in their own structures
//    publish them at snapshot time through ExportCounter / ExportGauge.
//    BeginExport() zeroes every exported metric so multi-instance tiers
//    (the per-class central free lists) can each Add their share; live
//    metrics are left untouched.
//
// Metric identity is (component, name): component is the allocator tier
// ("cpu_cache", "transfer_cache", "central_free_list", "huge_page_filler",
// "huge_cache", "page_heap", ...), name is the measurement. Snapshots list
// samples sorted by that key, so equality and merges are deterministic.

#ifndef WSC_TELEMETRY_REGISTRY_H_
#define WSC_TELEMETRY_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/metric.h"

namespace wsc::telemetry {

// Version of the snapshot/statsz wire format. Bump when MetricSample
// fields or their serialization change.
inline constexpr int kTelemetrySchemaVersion = 1;

// One metric's value at snapshot time.
struct MetricSample {
  std::string component;
  std::string name;
  MetricKind kind = MetricKind::kCounter;

  uint64_t counter = 0;  // kCounter
  double gauge = 0;      // kGauge

  // kHistogram: buckets.size() == bounds.size() + 1 (overflow bucket).
  std::vector<double> bounds;
  std::vector<uint64_t> buckets;
  uint64_t hist_count = 0;
  double hist_sum = 0;

  // Scalar view used by the flat BENCH_JSON metrics object.
  double ScalarValue() const;

  // Fully-qualified "component/name" key.
  std::string Key() const { return component + "/" + name; }

  bool operator==(const MetricSample&) const = default;
};

// An immutable, ordered picture of one registry. Snapshots from different
// processes merge by summing counters and gauges and adding histograms
// bucket-by-bucket; merging is associative, and merging in machine-index
// order makes the fleet aggregate bit-identical for any worker count.
struct Snapshot {
  int schema_version = kTelemetrySchemaVersion;
  std::vector<MetricSample> samples;  // sorted by (component, name)

  // Adds `other` into this snapshot. Metrics present in only one side are
  // kept as-is; histogram bounds must match where both sides have the
  // metric.
  void MergeFrom(const Snapshot& other);

  const MetricSample* Find(std::string_view component,
                           std::string_view name) const;

  // Sum of ScalarValue over samples of `component`; used by tests and the
  // statsz non-emptiness checks.
  double ComponentTotal(std::string_view component) const;

  bool operator==(const Snapshot&) const = default;
};

// The registry. Not thread-safe: owned by one simulated process.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  // --- live metrics (hot-path handles) ---
  Counter* RegisterCounter(std::string_view component, std::string_view name);
  Gauge* RegisterGauge(std::string_view component, std::string_view name);
  FixedHistogram* RegisterHistogram(std::string_view component,
                                    std::string_view name,
                                    std::vector<double> bounds);

  // --- exported metrics (snapshot-time publication) ---
  // Zeroes every exported metric. Call once per snapshot, before tiers
  // contribute.
  void BeginExport();
  // Accumulates into the exported metric, creating it on first use. The
  // kind of an existing metric must match.
  void ExportCounter(std::string_view component, std::string_view name,
                     uint64_t value);
  void ExportGauge(std::string_view component, std::string_view name,
                   double value);
  // Accumulates pre-bucketed counts into the exported histogram, creating
  // it with `bounds` on first use. Later calls (and other processes'
  // snapshots) must present identical bounds — the fixed-bounds contract
  // that keeps fleet merges exact.
  void ExportHistogram(std::string_view component, std::string_view name,
                       const std::vector<double>& bounds,
                       const std::vector<uint64_t>& buckets, uint64_t count,
                       double sum);

  Snapshot TakeSnapshot() const;

  size_t num_metrics() const { return entries_.size(); }

 private:
  struct Entry {
    MetricKind kind;
    bool exported = false;
    Counter counter;
    Gauge gauge;
    std::unique_ptr<FixedHistogram> histogram;
  };

  Entry& GetOrCreate(std::string_view component, std::string_view name,
                     MetricKind kind, bool exported);

  // Keyed by "component/name"; std::map keeps snapshot order sorted and
  // Entry addresses stable, so live handles never dangle.
  std::map<std::string, Entry> entries_;
};

}  // namespace wsc::telemetry

#endif  // WSC_TELEMETRY_REGISTRY_H_
