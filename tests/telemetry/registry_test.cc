// Tests for the metric registry: live handles, exported metrics,
// snapshot ordering, and the merge algebra the fleet aggregation relies
// on.

#include "telemetry/registry.h"

#include <gtest/gtest.h>

#include <vector>

namespace wsc::telemetry {
namespace {

TEST(Counter, AddAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);
}

TEST(Gauge, SetAndAdd) {
  Gauge g;
  g.Set(2.5);
  g.Add(1.5);
  EXPECT_DOUBLE_EQ(g.value(), 4.0);
}

TEST(FixedHistogram, BucketsAndMoments) {
  FixedHistogram h({1.0, 10.0, 100.0});
  ASSERT_EQ(h.buckets().size(), 4u);  // bounds + overflow
  h.Record(0.5);        // <= 1
  h.Record(10.0);       // <= 10 (bound is inclusive)
  h.Record(50.0, 2);    // <= 100, weight 2
  h.Record(1000.0);     // overflow
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 2u);
  EXPECT_EQ(h.buckets()[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 10.0 + 2 * 50.0 + 1000.0);
  EXPECT_DOUBLE_EQ(h.Mean(), h.sum() / 5.0);
}

TEST(MetricRegistry, LiveHandlesSurviveAndSnapshot) {
  MetricRegistry reg;
  Counter* hits = reg.RegisterCounter("cpu_cache", "hits");
  Gauge* bytes = reg.RegisterGauge("cpu_cache", "cached_bytes");
  FixedHistogram* hist =
      reg.RegisterHistogram("allocator", "heap_sample_bytes", {100.0});

  // Re-registering the same metric returns the same handle.
  EXPECT_EQ(reg.RegisterCounter("cpu_cache", "hits"), hits);
  EXPECT_EQ(reg.num_metrics(), 3u);

  hits->Add(7);
  bytes->Set(1024);
  hist->Record(50.0);
  hist->Record(500.0);

  Snapshot snap = reg.TakeSnapshot();
  EXPECT_EQ(snap.schema_version, kTelemetrySchemaVersion);
  ASSERT_EQ(snap.samples.size(), 3u);

  const MetricSample* s = snap.Find("cpu_cache", "hits");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricKind::kCounter);
  EXPECT_EQ(s->counter, 7u);
  EXPECT_DOUBLE_EQ(s->ScalarValue(), 7.0);

  s = snap.Find("cpu_cache", "cached_bytes");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(s->gauge, 1024.0);

  s = snap.Find("allocator", "heap_sample_bytes");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, MetricKind::kHistogram);
  EXPECT_EQ(s->hist_count, 2u);
  ASSERT_EQ(s->buckets.size(), 2u);
  EXPECT_EQ(s->buckets[0], 1u);
  EXPECT_EQ(s->buckets[1], 1u);
  EXPECT_DOUBLE_EQ(s->ScalarValue(), 2.0);  // histograms report count

  // Absent names and components find nothing.
  EXPECT_EQ(snap.Find("cpu_cache", "nonsense"), nullptr);
  EXPECT_EQ(snap.Find("nonsense", "hits"), nullptr);
}

TEST(MetricRegistry, SnapshotSortedByComponentThenName) {
  MetricRegistry reg;
  reg.RegisterCounter("transfer_cache", "misses");
  reg.RegisterCounter("cpu_cache", "underflows");
  reg.RegisterCounter("cpu_cache", "hits");
  Snapshot snap = reg.TakeSnapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].Key(), "cpu_cache/hits");
  EXPECT_EQ(snap.samples[1].Key(), "cpu_cache/underflows");
  EXPECT_EQ(snap.samples[2].Key(), "transfer_cache/misses");
}

TEST(MetricRegistry, ExportedMetricsAccumulateAndReset) {
  MetricRegistry reg;
  // Two central-free-list instances contribute to one exported metric.
  reg.BeginExport();
  reg.ExportCounter("central_free_list", "fetched_spans", 10);
  reg.ExportCounter("central_free_list", "fetched_spans", 5);
  reg.ExportGauge("central_free_list", "spans", 3);
  Snapshot first = reg.TakeSnapshot();
  EXPECT_EQ(first.Find("central_free_list", "fetched_spans")->counter, 15u);
  EXPECT_DOUBLE_EQ(first.Find("central_free_list", "spans")->gauge, 3.0);

  // The next export cycle starts from zero — no double counting.
  reg.BeginExport();
  reg.ExportCounter("central_free_list", "fetched_spans", 4);
  Snapshot second = reg.TakeSnapshot();
  EXPECT_EQ(second.Find("central_free_list", "fetched_spans")->counter, 4u);
  // A metric not re-exported this cycle reads zero, not its stale value.
  EXPECT_DOUBLE_EQ(second.Find("central_free_list", "spans")->gauge, 0.0);
}

TEST(MetricRegistry, BeginExportLeavesLiveMetricsAlone) {
  MetricRegistry reg;
  Counter* live = reg.RegisterCounter("allocator", "allocations");
  live->Add(9);
  reg.BeginExport();
  EXPECT_EQ(live->value(), 9u);
  EXPECT_EQ(reg.TakeSnapshot().Find("allocator", "allocations")->counter,
            9u);
}

TEST(Snapshot, MergeSumsSharedAndKeepsDisjoint) {
  MetricRegistry a;
  a.RegisterCounter("cpu_cache", "hits")->Add(10);
  a.RegisterGauge("page_heap", "filler_used_bytes")->Set(100);
  a.RegisterHistogram("allocator", "heap_sample_bytes", {10.0})
      ->Record(5.0);

  MetricRegistry b;
  b.RegisterCounter("cpu_cache", "hits")->Add(32);
  b.RegisterCounter("system", "mmap_calls")->Add(2);
  b.RegisterHistogram("allocator", "heap_sample_bytes", {10.0})
      ->Record(50.0);

  Snapshot merged = a.TakeSnapshot();
  merged.MergeFrom(b.TakeSnapshot());

  EXPECT_EQ(merged.Find("cpu_cache", "hits")->counter, 42u);
  EXPECT_DOUBLE_EQ(merged.Find("page_heap", "filler_used_bytes")->gauge,
                   100.0);
  EXPECT_EQ(merged.Find("system", "mmap_calls")->counter, 2u);
  const MetricSample* hist = merged.Find("allocator", "heap_sample_bytes");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist_count, 2u);
  EXPECT_EQ(hist->buckets[0], 1u);
  EXPECT_EQ(hist->buckets[1], 1u);
  EXPECT_DOUBLE_EQ(hist->hist_sum, 55.0);
  // Merged output stays sorted.
  for (size_t i = 1; i < merged.samples.size(); ++i) {
    EXPECT_LT(merged.samples[i - 1].Key(), merged.samples[i].Key());
  }
}

TEST(Snapshot, MergeIsAssociativeOverThisFixture) {
  auto make = [](uint64_t hits, double bytes) {
    MetricRegistry reg;
    reg.RegisterCounter("cpu_cache", "hits")->Add(hits);
    reg.RegisterGauge("cpu_cache", "cached_bytes")->Set(bytes);
    return reg.TakeSnapshot();
  };
  Snapshot s1 = make(1, 0.125), s2 = make(2, 0.25), s3 = make(3, 0.5);

  Snapshot left = s1;
  left.MergeFrom(s2);
  left.MergeFrom(s3);
  Snapshot right_inner = s2;
  right_inner.MergeFrom(s3);
  Snapshot right = s1;
  right.MergeFrom(right_inner);
  EXPECT_EQ(left, right);
}

TEST(Snapshot, ComponentTotal) {
  MetricRegistry reg;
  reg.RegisterCounter("huge_cache", "reuse_hits")->Add(3);
  reg.RegisterGauge("huge_cache", "cached_hugepages")->Set(4);
  reg.RegisterCounter("page_heap", "spans_created")->Add(100);
  Snapshot snap = reg.TakeSnapshot();
  EXPECT_DOUBLE_EQ(snap.ComponentTotal("huge_cache"), 7.0);
  EXPECT_DOUBLE_EQ(snap.ComponentTotal("page_heap"), 100.0);
  EXPECT_DOUBLE_EQ(snap.ComponentTotal("absent"), 0.0);
}

}  // namespace
}  // namespace wsc::telemetry
