// Interval time series over telemetry snapshots: the longitudinal half of
// the GWP-style pipeline.
//
// The paper's methodology is continuous fleet telemetry — per-machine
// metrics sampled over days and folded into fleet-wide series and CDFs —
// not end-of-run snapshots. IntervalSeries adds that time dimension on the
// *logical* clock: at each sim-interval boundary a process captures the
// delta of every counter and histogram bucket since the previous capture,
// plus a point sample of every gauge. Because capture times are simulated
// (never wall clock) and merges align intervals by index, the series a
// fleet run produces is byte-identical for any --threads value.
//
// Deltas telescope: the sum of a process's interval deltas equals its
// end-of-run snapshot exactly (asserted by tests), so a merged fleet
// series totals to the merged fleet snapshot.
// Named QuantileSketch instances ride along for distributions (footprint,
// per-interval alloc latency) that need fleet percentiles without
// per-machine retention.

#ifndef WSC_TELEMETRY_TIMESERIES_H_
#define WSC_TELEMETRY_TIMESERIES_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "telemetry/registry.h"
#include "telemetry/sketch.h"

namespace wsc::telemetry {

class IntervalSeries {
 public:
  // Bucketwise histogram delta for one interval.
  struct HistogramDelta {
    std::vector<uint64_t> buckets;
    uint64_t count = 0;
    double sum = 0;

    bool operator==(const HistogramDelta&) const = default;
  };

  // One captured interval. Keys are fully qualified "component/name".
  // std::map keys keep serialization and merges deterministically ordered.
  struct Interval {
    uint64_t index = 0;    // strictly increasing; gaps allowed
    double t_seconds = 0;  // logical time of the capture
    std::map<std::string, uint64_t> counters;  // deltas since last capture
    std::map<std::string, double> gauges;      // point samples (merge: sum)
    std::map<std::string, HistogramDelta> histograms;

    bool operator==(const Interval&) const = default;
  };

  // Captures the delta between `snapshot` and the previously captured
  // snapshot as interval `index` at logical time `t_seconds`. `index` must
  // be strictly greater than the last captured index. Every metric in the
  // snapshot appears in the interval (zero deltas included), so the series
  // is fixed-width once the metric set stabilizes.
  void Capture(uint64_t index, double t_seconds, const Snapshot& snapshot);

  // Named sketch, created on first use. Sketches merge alongside intervals
  // in MergeFrom.
  QuantileSketch& Sketch(std::string_view name);

  // Aligns `other`'s intervals by index: matching indices sum counter
  // deltas, gauges, and histogram buckets (the fleet aggregate of a level
  // metric is the sum over processes, matching Snapshot::MergeFrom);
  // intervals present on one side only are kept as-is. Associative, and
  // exact: no rebinning, no averaging.
  void MergeFrom(const IntervalSeries& other);

  const std::vector<Interval>& intervals() const { return intervals_; }
  const std::map<std::string, QuantileSketch>& sketches() const {
    return sketches_;
  }
  const std::map<std::string, std::vector<double>>& histogram_bounds() const {
    return hist_bounds_;
  }

  bool empty() const { return intervals_.empty() && sketches_.empty(); }

  // Sum of a counter's deltas over every interval — equals the counter's
  // value in the end-of-run snapshot (the telescoping property tests pin).
  uint64_t TotalCounter(std::string_view key) const;

  // NDJSON export: one {"kind":"timeseries",...} object per interval
  // (sorted "counters"/"gauges"/"histograms" maps) followed by one
  // {"kind":"sketch",...} object per named sketch. Every line carries
  // schema_version/bench; `arm` is added when non-empty (A/B runs). No
  // trailing newline on the last line is *not* guaranteed — each line ends
  // in '\n' so files concatenate.
  std::string RenderNdjson(std::string_view bench, std::string_view arm) const;

  bool operator==(const IntervalSeries&) const = default;

 private:
  Snapshot last_;
  std::vector<Interval> intervals_;
  std::map<std::string, std::vector<double>> hist_bounds_;
  std::map<std::string, QuantileSketch> sketches_;
};

}  // namespace wsc::telemetry

#endif  // WSC_TELEMETRY_TIMESERIES_H_
