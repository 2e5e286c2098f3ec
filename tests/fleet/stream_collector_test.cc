// Tests for the streaming fleet aggregation path: RunStreaming +
// StreamCollector must produce aggregates bit-identical to the buffered
// Run() + MergedTelemetry/MergedTimeSeries path for any worker count,
// with a reorder buffer bounded by the streaming window (never by the
// machine count), and capturing time series must not perturb the
// simulation (observer-effect freedom).

#include "fleet/stream_collector.h"

#include <gtest/gtest.h>

#include <vector>

#include "fleet/fleet.h"
#include "telemetry/timeseries.h"

namespace wsc::fleet {
namespace {

FleetConfig StreamFleet(int machines = 6) {
  FleetConfig config;
  config.num_machines = machines;
  config.num_binaries = 12;
  config.min_colocated = 1;
  config.max_colocated = 2;
  config.duration = Milliseconds(1500);
  config.max_requests_per_process = 2000;
  config.timeseries_interval = Milliseconds(500);
  return config;
}

// Feeds buffered observations through a StreamCollector the way
// RunStreaming would: grouped by machine, in index order.
StreamCollector CollectBuffered(const std::vector<FleetObservation>& obs,
                                int num_machines) {
  StreamCollector collector;
  for (int m = 0; m < num_machines; ++m) {
    std::vector<FleetObservation> machine_obs;
    for (const FleetObservation& o : obs) {
      if (o.machine == m) machine_obs.push_back(o);
    }
    collector.Collect(m, machine_obs);
  }
  return collector;
}

TEST(StreamCollector, StreamingEqualsBufferedMerge) {
  tcmalloc::AllocatorConfig allocator;
  Fleet buffered(StreamFleet(), allocator, 20240808);
  buffered.Run(1);
  StreamCollector expected =
      CollectBuffered(buffered.observations(), StreamFleet().num_machines);

  Fleet streamed(StreamFleet(), allocator, 20240808);
  StreamCollector collector;
  streamed.RunStreaming(collector, /*num_threads=*/4);

  // Full bit-identity across every aggregate the collector keeps.
  EXPECT_EQ(collector.telemetry(), expected.telemetry());
  EXPECT_EQ(collector.timeseries(), expected.timeseries());
  EXPECT_EQ(collector.machines(), expected.machines());
  EXPECT_EQ(collector.processes(), expected.processes());
  EXPECT_EQ(collector.oom_kills(), expected.oom_kills());
  EXPECT_EQ(collector.total_requests(), expected.total_requests());
  EXPECT_EQ(collector.total_failed_allocations(),
            expected.total_failed_allocations());
  EXPECT_EQ(collector.total_avg_heap_bytes(),
            expected.total_avg_heap_bytes());

  // The interval series also matches the plain MergedTimeSeries fold
  // (the collector adds its own fleet sketches on top, so compare the
  // intervals, which both paths build identically).
  telemetry::IntervalSeries merged =
      MergedTimeSeries(buffered.observations());
  EXPECT_EQ(collector.timeseries().intervals(), merged.intervals());
}

TEST(StreamCollector, ThreadCountDoesNotChangeAggregates) {
  tcmalloc::AllocatorConfig allocator;
  Fleet one(StreamFleet(), allocator, 777);
  StreamCollector c1;
  one.RunStreaming(c1, /*num_threads=*/1);

  Fleet eight(StreamFleet(), allocator, 777);
  StreamCollector c8;
  eight.RunStreaming(c8, /*num_threads=*/8);

  EXPECT_EQ(c1.telemetry(), c8.telemetry());
  EXPECT_EQ(c1.timeseries(), c8.timeseries());
  EXPECT_EQ(c1.total_requests(), c8.total_requests());
  EXPECT_EQ(c1.total_avg_heap_bytes(), c8.total_avg_heap_bytes());
  // And the NDJSON rendering — the actual byte-identity contract.
  EXPECT_EQ(c1.timeseries().RenderNdjson("t", ""),
            c8.timeseries().RenderNdjson("t", ""));
}

TEST(StreamCollector, ReorderBufferBoundedByWindowNotMachines) {
  // 24 machines, 3 workers, window 6: no matter how machine runtimes
  // skew, at most `window` completed machines may wait for the fold
  // cursor. This is the O(1)-in-machine-count memory claim at unit scale
  // (the CI stream-scaling smoke pins the RSS version at 1000 machines).
  tcmalloc::AllocatorConfig allocator;
  Fleet f(StreamFleet(/*machines=*/24), allocator, 99);
  StreamCollector collector;
  f.RunStreaming(collector, /*num_threads=*/3, /*window=*/6);
  EXPECT_EQ(collector.machines(), 24);
  EXPECT_GE(collector.peak_pending(), 1u);
  EXPECT_LE(collector.peak_pending(), 6u);
}

TEST(StreamCollector, DefaultWindowIsTwiceWorkers) {
  tcmalloc::AllocatorConfig allocator;
  Fleet f(StreamFleet(/*machines=*/16), allocator, 5);
  StreamCollector collector;
  f.RunStreaming(collector, /*num_threads=*/2);  // window defaults to 4
  EXPECT_LE(collector.peak_pending(), 4u);
}

TEST(StreamCollector, CollectEnforcesIndexOrder) {
  StreamCollector collector;
  collector.Collect(0, {});
  collector.Collect(1, {});
  EXPECT_EQ(collector.machines(), 2);
  EXPECT_DEATH(collector.Collect(5, {}), "machine_index");
}

TEST(StreamCollector, TimeseriesCaptureIsObserverEffectFree) {
  // The same fleet with and without interval capture must do the same
  // simulation work: identical final telemetry, identical totals. The
  // sampler only reads snapshots at boundaries; it must never perturb
  // the allocator or the workload.
  tcmalloc::AllocatorConfig allocator;
  FleetConfig with_ts = StreamFleet();
  FleetConfig without_ts = StreamFleet();
  without_ts.timeseries_interval = 0;

  Fleet observed(with_ts, allocator, 4242);
  observed.Run(2);
  Fleet plain(without_ts, allocator, 4242);
  plain.Run(2);

  EXPECT_EQ(MergedTelemetry(observed.observations()),
            MergedTelemetry(plain.observations()));
  ASSERT_EQ(observed.observations().size(), plain.observations().size());
  for (size_t i = 0; i < observed.observations().size(); ++i) {
    const ProcessResult& a = observed.observations()[i].result;
    const ProcessResult& b = plain.observations()[i].result;
    EXPECT_EQ(a.driver.requests, b.driver.requests);
    EXPECT_EQ(a.driver.allocations, b.driver.allocations);
    EXPECT_EQ(a.avg_heap_bytes, b.avg_heap_bytes);
    // The observed run actually captured something; the plain run didn't.
    EXPECT_TRUE(b.timeseries.empty());
    EXPECT_FALSE(a.timeseries.empty());
  }
}

TEST(StreamCollector, DrainCaptureCoversFullRun) {
  // Every process's series must telescope to its final telemetry even
  // with the final partial interval (the drain capture at finalize).
  tcmalloc::AllocatorConfig allocator;
  Fleet f(StreamFleet(), allocator, 1234);
  f.Run(1);
  for (const FleetObservation& obs : f.observations()) {
    const telemetry::MetricSample* final_allocs =
        obs.result.telemetry.Find("allocator", "allocations");
    ASSERT_NE(final_allocs, nullptr);
    EXPECT_EQ(obs.result.timeseries.TotalCounter("allocator/allocations"),
              final_allocs->counter)
        << "machine " << obs.machine << " rank " << obs.binary_rank;
  }
}

TEST(StreamCollector, FleetSketchesPopulated) {
  tcmalloc::AllocatorConfig allocator;
  Fleet f(StreamFleet(), allocator, 31415);
  StreamCollector collector;
  f.RunStreaming(collector, /*num_threads=*/2);
  const auto& sketches = collector.timeseries().sketches();
  ASSERT_TRUE(sketches.count("machine_avg_heap_bytes"));
  ASSERT_TRUE(sketches.count("process_avg_heap_bytes"));
  ASSERT_TRUE(sketches.count("process_requests"));
  EXPECT_EQ(sketches.at("machine_avg_heap_bytes").count(),
            static_cast<uint64_t>(collector.machines()));
  EXPECT_EQ(sketches.at("process_avg_heap_bytes").count(),
            static_cast<uint64_t>(collector.processes()));
}

}  // namespace
}  // namespace wsc::fleet
