#include "fleet/stream_collector.h"

#include "common/logging.h"

namespace wsc::fleet {

void StreamCollector::Collect(
    int machine_index, const std::vector<FleetObservation>& observations) {
  WSC_CHECK_EQ(machine_index, machines_);
  ++machines_;
  double machine_heap = 0;
  for (const FleetObservation& obs : observations) {
    const ProcessResult& r = obs.result;
    telemetry_.MergeFrom(r.telemetry);
    timeseries_.MergeFrom(r.timeseries);
    ++processes_;
    if (r.oom_killed) ++oom_kills_;
    if (r.deploy_restarted) ++deploy_restarts_;
    if (obs.binary_rank == kAntagonistRank) ++antagonists_;
    total_requests_ += r.driver.requests;
    total_failed_allocations_ += r.driver.failed_allocations;
    total_avg_heap_bytes_ += r.avg_heap_bytes;
    machine_heap += r.avg_heap_bytes;
    // Cross-fleet distributions (the Fig. 3 CDF inputs): one point per
    // process, retained only as sketch buckets.
    timeseries_.Sketch("process_avg_heap_bytes").Record(r.avg_heap_bytes);
    timeseries_.Sketch("process_requests")
        .Record(static_cast<double>(r.driver.requests));
  }
  // And one point per machine: the paper's per-machine footprint CDF.
  timeseries_.Sketch("machine_avg_heap_bytes").Record(machine_heap);
}

}  // namespace wsc::fleet
