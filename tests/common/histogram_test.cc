// Tests for the log-bucketed histogram.

#include "common/histogram.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace wsc {
namespace {

// The bucket Add() puts `value` in, read back through BucketWeight.
int BucketOf(double value) {
  LogHistogram h;
  h.Add(value);
  for (int b = 0; b < LogHistogram::kNumBuckets; ++b) {
    if (h.BucketWeight(b) > 0) return b;
  }
  return -1;
}

TEST(LogHistogram, EmptyHistogram) {
  LogHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionBelow(100), 0.0);
  EXPECT_TRUE(h.Cdf().empty());
}

TEST(LogHistogram, MeanIsExact) {
  LogHistogram h;
  h.Add(10);
  h.Add(20);
  h.Add(60);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.Mean(), 30.0);
}

TEST(LogHistogram, WeightedMean) {
  LogHistogram h;
  h.Add(10, 3.0);
  h.Add(50, 1.0);
  EXPECT_DOUBLE_EQ(h.Mean(), (30.0 + 50.0) / 4.0);
  EXPECT_DOUBLE_EQ(h.total_weight(), 4.0);
}

TEST(LogHistogram, FractionBelowInterpolates) {
  LogHistogram h;
  for (int i = 0; i < 100; ++i) h.Add(100);  // bucket [64,128)
  EXPECT_DOUBLE_EQ(h.FractionBelow(64), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionBelow(128), 1.0);
  EXPECT_NEAR(h.FractionBelow(96), 0.5, 1e-9);  // linear within bucket
  EXPECT_DOUBLE_EQ(h.FractionAtLeast(128), 0.0);
}

TEST(LogHistogram, QuantilesAreMonotone) {
  LogHistogram h;
  for (int i = 1; i <= 10000; ++i) h.Add(i);
  double last = 0;
  for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    double v = h.Quantile(q);
    EXPECT_GE(v, last);
    last = v;
  }
  // Median of 1..10000 should land near 5000 within bucket resolution.
  EXPECT_GT(h.Quantile(0.5), 2500.0);
  EXPECT_LT(h.Quantile(0.5), 10000.0);
}

TEST(LogHistogram, CdfReachesOne) {
  LogHistogram h;
  h.Add(1);
  h.Add(1000);
  h.Add(1000000);
  auto cdf = h.Cdf();
  ASSERT_EQ(cdf.size(), 3u);
  EXPECT_DOUBLE_EQ(cdf.back().cumulative_fraction, 1.0);
  EXPECT_LT(cdf[0].cumulative_fraction, cdf[1].cumulative_fraction);
  EXPECT_LT(cdf[0].upper_bound, cdf[1].upper_bound);
}

TEST(LogHistogram, MergeAddsWeights) {
  LogHistogram a, b;
  a.Add(10, 2.0);
  b.Add(1000, 6.0);
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.total_weight(), 8.0);
  EXPECT_NEAR(a.FractionBelow(100), 0.25, 1e-9);
}

TEST(LogHistogram, ZeroAndHugeValuesClamp) {
  LogHistogram h;
  h.Add(0.0);
  h.Add(1e300);  // clamps into the last bucket
  EXPECT_EQ(h.count(), 2u);
  // The zero-value lands in bucket [0,2); the huge value far above it.
  EXPECT_DOUBLE_EQ(h.FractionBelow(2.0), 0.5);
  EXPECT_NEAR(h.FractionBelow(1.0), 0.25, 1e-9);  // interpolated
}

TEST(LogHistogram, BucketBoundariesMatchDocumentation) {
  // Bucket b covers [2^b, 2^(b+1)), including the double just below each
  // power of two, where log2 rounds up to the next integer.
  for (int k = 1; k < LogHistogram::kNumBuckets; ++k) {
    const double power = std::ldexp(1.0, k);
    EXPECT_EQ(BucketOf(power), k) << "2^" << k;
    EXPECT_EQ(BucketOf(std::nextafter(power, 0.0)), k - 1)
        << "just below 2^" << k;
  }
  for (uint64_t v = 1; v <= (uint64_t{1} << 20); ++v) {
    ASSERT_EQ(BucketOf(static_cast<double>(v)),
              static_cast<int>(std::bit_width(v)) - 1)
        << v;
  }
  EXPECT_EQ(BucketOf(0.0), 0);
  EXPECT_EQ(BucketOf(0.5), 0);
  EXPECT_EQ(BucketOf(1e300), LogHistogram::kNumBuckets - 1);
}

TEST(LogHistogram, ToStringMentionsCount) {
  LogHistogram h;
  h.Add(5);
  std::string s = h.ToString("ns");
  EXPECT_NE(s.find("count=1"), std::string::npos);
}

}  // namespace
}  // namespace wsc
