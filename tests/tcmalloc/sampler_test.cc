// Tests for the GWP-style allocation sampler.

#include "tcmalloc/sampler.h"

#include <gtest/gtest.h>

namespace wsc::tcmalloc {
namespace {

TEST(Sampler, SamplesOncePerIntervalBytes) {
  Sampler sampler(/*sample_interval_bytes=*/1000);
  int sampled = 0;
  // 100 allocations of 100 B = 10000 B -> ~10 samples.
  for (int i = 0; i < 100; ++i) {
    if (sampler.RecordAllocation(1000 + i, 100, 0)) ++sampled;
  }
  EXPECT_EQ(sampled, 10);
  EXPECT_EQ(sampler.samples_taken(), 10u);
}

TEST(Sampler, LargeAllocationAlwaysSampledWhenExceedingInterval) {
  Sampler sampler(1000);
  EXPECT_TRUE(sampler.RecordAllocation(42, 5000, 0));
}

TEST(Sampler, LifetimeRecordedOnFree) {
  Sampler sampler(100);
  ASSERT_TRUE(sampler.RecordAllocation(0xAB, 512, Nanoseconds(1000)));
  sampler.RecordFree(0xAB, Nanoseconds(6000));
  const LifetimeProfile& profile = sampler.profile();
  EXPECT_EQ(profile.all_lifetimes.count(), 1u);
  EXPECT_DOUBLE_EQ(profile.all_lifetimes.Mean(), 5000.0);
  // Recorded under the right size bucket (2^9 = 512).
  int bucket = LifetimeProfile::SizeBucketFor(512);
  EXPECT_EQ(profile.lifetime_by_size[bucket].count(), 1u);
}

TEST(Sampler, UnsampledFreesAreIgnored) {
  Sampler sampler(size_t{1} << 40);  // samples (almost) nothing
  EXPECT_FALSE(sampler.RecordAllocation(0xCD, 64, 0));
  sampler.RecordFree(0xCD, 100);  // no crash, no record
  EXPECT_EQ(sampler.profile().all_lifetimes.count(), 0u);
}

TEST(Sampler, FlushOutstandingCensorsLiveObjects) {
  Sampler sampler(100);
  ASSERT_TRUE(sampler.RecordAllocation(0x1, 256, 0));
  ASSERT_TRUE(sampler.RecordAllocation(0x2, 256, Seconds(1)));
  sampler.FlushOutstanding(Seconds(10));
  EXPECT_EQ(sampler.profile().all_lifetimes.count(), 2u);
  // Censored lifetimes: 10 s and 9 s.
  EXPECT_NEAR(sampler.profile().all_lifetimes.Mean(), 9.5e9, 1e9);
  // Repeated flush adds nothing.
  sampler.FlushOutstanding(Seconds(20));
  EXPECT_EQ(sampler.profile().all_lifetimes.count(), 2u);
}

TEST(LifetimeProfile, SizeBucketBoundaries) {
  EXPECT_EQ(LifetimeProfile::SizeBucketFor(1), 0);
  EXPECT_EQ(LifetimeProfile::SizeBucketFor(2), 1);
  EXPECT_EQ(LifetimeProfile::SizeBucketFor(3), 2);
  EXPECT_EQ(LifetimeProfile::SizeBucketFor(4), 2);
  EXPECT_EQ(LifetimeProfile::SizeBucketFor(1024), 10);
  EXPECT_EQ(LifetimeProfile::SizeBucketFor(size_t{1} << 50),
            LifetimeProfile::kSizeBuckets - 1);
}

TEST(LifetimeProfile, MergeCombinesHistograms) {
  LifetimeProfile a, b;
  a.all_lifetimes.Add(100);
  b.all_lifetimes.Add(300);
  b.lifetime_by_size[5].Add(1);
  a.Merge(b);
  EXPECT_EQ(a.all_lifetimes.count(), 2u);
  EXPECT_DOUBLE_EQ(a.all_lifetimes.Mean(), 200.0);
  EXPECT_EQ(a.lifetime_by_size[5].count(), 1u);
}

}  // namespace
}  // namespace wsc::tcmalloc
