// Streaming fleet aggregation: the bounded-memory half of warehouse scale.
//
// Fleet::Run() buffers every machine's full observation list before
// merging — O(machines) memory, which caps fleet size long before the
// paper's thousands of machines. StreamCollector is the GWP-style
// alternative: Fleet::RunStreaming folds each machine's observations into
// the collector in strict machine-index order the moment the fold cursor
// reaches them, then discards them. What survives is only the aggregate —
// one merged telemetry snapshot, one merged interval series, a handful of
// fleet distribution sketches, and scalar totals: O(metrics × intervals),
// independent of machine count (asserted by tests and the CI stream-
// scaling smoke).
//
// The fold order is exactly the merge order of the buffered path, so every
// aggregate is bit-identical to Run() + MergedTelemetry/MergedTimeSeries
// for any worker-thread count.

#ifndef WSC_FLEET_STREAM_COLLECTOR_H_
#define WSC_FLEET_STREAM_COLLECTOR_H_

#include <cstddef>
#include <cstdint>

#include "fleet/fleet.h"
#include "telemetry/registry.h"
#include "telemetry/timeseries.h"

namespace wsc::fleet {

// Not thread-safe: Fleet::RunStreaming serializes Collect calls under its
// fold lock, in machine-index order.
class StreamCollector {
 public:
  // Folds one machine's observations into the aggregate. `machine_index`
  // must be the next index in sequence (0, 1, 2, ... — checked), the
  // contract that keeps streaming results equal to the buffered merge.
  void Collect(int machine_index,
               const std::vector<FleetObservation>& observations);

  // GWP-style aggregates.
  const telemetry::Snapshot& telemetry() const { return telemetry_; }
  const telemetry::IntervalSeries& timeseries() const { return timeseries_; }

  // Scalar fleet totals.
  int machines() const { return machines_; }
  int processes() const { return processes_; }
  int oom_kills() const { return oom_kills_; }
  // Process instances retired by deploy-wave restarts across the fleet.
  int deploy_restarts() const { return deploy_restarts_; }
  // Co-located scenario antagonist processes observed across the fleet.
  int antagonists() const { return antagonists_; }
  uint64_t total_requests() const { return total_requests_; }
  uint64_t total_failed_allocations() const {
    return total_failed_allocations_;
  }
  double total_avg_heap_bytes() const { return total_avg_heap_bytes_; }

  // Peak size of RunStreaming's reorder buffer (completed machines waiting
  // for the fold cursor) — the bounded-memory assertion hook. Bounded by
  // the streaming window, never by machine count.
  size_t peak_pending() const { return peak_pending_; }
  void set_peak_pending(size_t n) { peak_pending_ = n; }

 private:
  telemetry::Snapshot telemetry_;
  telemetry::IntervalSeries timeseries_;
  int machines_ = 0;
  int processes_ = 0;
  int oom_kills_ = 0;
  int deploy_restarts_ = 0;
  int antagonists_ = 0;
  uint64_t total_requests_ = 0;
  uint64_t total_failed_allocations_ = 0;
  double total_avg_heap_bytes_ = 0;
  size_t peak_pending_ = 0;
};

}  // namespace wsc::fleet

#endif  // WSC_FLEET_STREAM_COLLECTOR_H_
