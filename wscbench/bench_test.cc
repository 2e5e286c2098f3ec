// Tests for the benchmark's own code: percentile guard, span self time,
// attribution by counter delta, generator determinism, and the canary.

#include <gtest/gtest.h>

#include <vector>

#include "executor.h"
#include "stats.h"
#include "workload.h"

namespace wscbench {
namespace {

TEST(PercentileTest, P99NeedsTenSamplesBeyondIt) {
  std::vector<int> v(999);
  for (int i = 0; i < 999; ++i) v[i] = i;
  double out = 0;
  // 999 samples: rank 989 leaves 9 above it.
  EXPECT_FALSE(Percentile(v.data(), v.size(), 0.99, &out));
  v.push_back(999);
  // 1000 samples: rank 990 leaves exactly 9 above... one more is needed.
  EXPECT_FALSE(Percentile(v.data(), v.size(), 0.99, &out));
  v.push_back(1000);
  ASSERT_TRUE(Percentile(v.data(), v.size(), 0.99, &out));
  EXPECT_EQ(out, 990);
}

TEST(PercentileTest, MedianNeedsNoTail) {
  const int v[3] = {1, 2, 3};
  double out = 0;
  ASSERT_TRUE(Percentile(v, 3, 0.5, &out, 0));
  EXPECT_EQ(out, 2);
  EXPECT_FALSE(Percentile(v, 0, 0.5, &out, 0));
}

Span MakeSpan(uint32_t dur, uint32_t parent) {
  Span s;
  s.dur_ns = dur;
  s.parent = parent;
  return s;
}

TEST(SelfTimeTest, SubtractsNestedChildrenAndEmptySpanCost) {
  // request(1000) -> realloc(400) -> {usable(50), malloc(100), free(80)}
  //               -> free(200)
  const Span spans[] = {MakeSpan(1000, 0), MakeSpan(400, 1), MakeSpan(50, 2),
                        MakeSpan(100, 2), MakeSpan(80, 2), MakeSpan(200, 1)};
  double self[6];
  SelfTimes(spans, 6, 10.0, self);
  EXPECT_DOUBLE_EQ(self[0], 1000 - 400 - 200 - 10);
  EXPECT_DOUBLE_EQ(self[1], 400 - 50 - 100 - 80 - 10);
  EXPECT_DOUBLE_EQ(self[2], 40);
  EXPECT_DOUBLE_EQ(self[3], 90);
  EXPECT_DOUBLE_EQ(self[5], 190);
  // The call spans (1..5) plus their empty-span cost add up to the
  // outermost call durations (400 + 200).
  double sum = 0;
  for (int i = 1; i < 6; ++i) sum += self[i];
  EXPECT_DOUBLE_EQ(sum + 5 * 10.0, 600);
}

Span Timed(uint64_t start, uint32_t dur, uint32_t parent, uint32_t request) {
  Span s = MakeSpan(dur, parent);
  s.start_ns = start;
  s.request = request;
  s.closed = 1;
  return s;
}

TEST(SpanTreeTest, AcceptsAWellFormedTree) {
  // request 1 (100..200) -> malloc (110..130), realloc (140..190) -> free
  // (150..170); request 2 (300..350) -> free (310..320).
  const Span spans[] = {Timed(100, 100, 0, 1), Timed(110, 20, 1, 1),
                        Timed(140, 50, 1, 1),  Timed(150, 20, 3, 1),
                        Timed(300, 50, 0, 2),  Timed(310, 10, 5, 2)};
  EXPECT_EQ(SpanTreeErrors(spans, 6), 0u);
}

TEST(SpanTreeTest, CatchesUnclosedMisParentedAndEscapingSpans) {
  const Span good[] = {Timed(100, 100, 0, 1), Timed(110, 20, 1, 1),
                       Timed(300, 50, 0, 2), Timed(310, 10, 3, 2)};
  Span s[4];
  auto reset = [&] { std::memcpy(s, good, sizeof(good)); };
  reset();
  s[1].closed = 0;  // never closed
  EXPECT_EQ(SpanTreeErrors(s, 4), 1u);
  reset();
  s[3].parent = 1;  // a request-2 call parented to request 1
  EXPECT_EQ(SpanTreeErrors(s, 4), 1u);
  reset();
  s[1].parent = 9;  // out of range
  EXPECT_EQ(SpanTreeErrors(s, 4), 1u);
  reset();
  s[0].parent = 2;  // a parent recorded after its child
  EXPECT_EQ(SpanTreeErrors(s, 4), 1u);
  reset();
  s[1].dur_ns = 200;  // ends after its parent
  EXPECT_EQ(SpanTreeErrors(s, 4), 1u);
}

TEST(AttributionTest, CounterDeltaPicksTheLayer) {
  PathCounters before;
  PathCounters after = before;
  after.fast_alloc_hits = 1;
  EXPECT_EQ(AttributeByDelta(before, after), kLayerThreadCache);
  after = before;
  after.underflows = 1;
  EXPECT_EQ(AttributeByDelta(before, after), kLayerMiddle);
  after = before;
  after.overflows = 1;
  after.fast_free_hits = 0;
  EXPECT_EQ(AttributeByDelta(before, after), kLayerMiddle);
  after = before;
  after.large_allocations = 1;
  EXPECT_EQ(AttributeByDelta(before, after), kLayerLarge);
  after = before;
  after.large_frees = 1;
  EXPECT_EQ(AttributeByDelta(before, after), kLayerLarge);
  // Nothing moved (a failed call): charged where it returned.
  EXPECT_EQ(AttributeByDelta(before, before), kLayerThreadCache);
}

TEST(GeneratorTest, SameSeedSameStreamsOtherSeedOtherStreams) {
  for (Workload w : {Workload::kRpcServer, Workload::kPhaseHeap}) {
    static Streams a, b, c;
    Generate(w, 7, &a);
    Generate(w, 7, &b);
    Generate(w, 8, &c);
    EXPECT_EQ(StreamHash(a), StreamHash(b)) << WorkloadName(w);
    EXPECT_NE(StreamHash(a), StreamHash(c)) << WorkloadName(w);
    ASSERT_EQ(a.workers, ShapeOf(w).workers);
    for (int i = 0; i < a.workers; ++i) {
      ASSERT_EQ(a.per_worker[i].ops.size(), b.per_worker[i].ops.size());
      EXPECT_EQ(0, std::memcmp(a.per_worker[i].ops.data(),
                               b.per_worker[i].ops.data(),
                               a.per_worker[i].ops.size() * sizeof(Op)));
    }
  }
}

// Walks one pass of every stream and checks the ops are consistent with
// slot occupancy, so looping executors never double-free or leak.
TEST(GeneratorTest, StreamsAreSlotConsistentAcrossPasses) {
  for (Workload w : {Workload::kRpcServer, Workload::kPhaseHeap}) {
    static Streams s;
    Generate(w, 3, &s);
    for (int i = 0; i < s.workers; ++i) {
      const Stream& st = s.per_worker[i];
      std::vector<uint8_t> full(st.slots, 0);
      uint64_t requests = 0;
      for (int pass = 0; pass < 2; ++pass) {
        for (size_t k = 0; k < st.ops.size(); ++k) {
          const Op& op = st.ops[k];
          ASSERT_LT(op.slot, st.slots);
          switch (op.kind) {
            case OpKind::kMalloc:
            case OpKind::kMemalign:
              ASSERT_EQ(full[op.slot], 0) << WorkloadName(w) << " op " << k;
              ASSERT_GE(op.size, 8u);
              full[op.slot] = 1;
              break;
            case OpKind::kFree:
            case OpKind::kRealloc:
            case OpKind::kHandoff:
              ASSERT_EQ(full[op.slot], 1) << WorkloadName(w) << " op " << k;
              if (op.kind != OpKind::kRealloc) full[op.slot] = 0;
              break;
            case OpKind::kFreeIfAny:
              full[op.slot] = 0;
              break;
            case OpKind::kReplace:
              full[op.slot] = 1;
              break;
            case OpKind::kRequestEnd:
              ++requests;
              break;
            default:
              break;
          }
        }
      }
      EXPECT_EQ(requests, 2 * st.requests);
      EXPECT_EQ(st.ops[st.ops.size() - 1].kind, OpKind::kRequestEnd);
    }
  }
}

TEST(CanaryTest, StampsSurviveGrowthAndCatchCorruption) {
  for (uint32_t size : {8u, 9u, 15u, 16u, 4100u, 4110u, 10000u}) {
    std::vector<char> buf(2 * size + 16);
    Stamp(buf.data(), size, 42);
    EXPECT_TRUE(VerifyStamps(buf.data(), size, size, 42)) << size;
    // A realloc that grows keeps every old stamp.
    EXPECT_TRUE(VerifyStamps(buf.data(), size, 2 * size, 42)) << size;
    buf[0] ^= 1;
    EXPECT_FALSE(VerifyStamps(buf.data(), size, size, 42)) << size;
  }
}

}  // namespace
}  // namespace wscbench
