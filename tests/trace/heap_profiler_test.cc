#include <gtest/gtest.h>

#include <string>

#include "fleet/fleet.h"
#include "fleet/machine.h"
#include "hw/topology.h"
#include "tcmalloc/config.h"
#include "trace/heap_profile.h"
#include "workload/profiles.h"

namespace wsc {
namespace {

fleet::Machine RunMachine(uint64_t seed) {
  fleet::Machine machine(hw::PlatformSpecFor(hw::PlatformGeneration::kGenD),
                         {workload::TopFiveProfiles()[0]},
                         tcmalloc::AllocatorConfig(), seed);
  machine.Run(Seconds(3), /*max_requests=*/4000);
  return machine;
}

fleet::FleetConfig SmallFleet() {
  fleet::FleetConfig config;
  config.num_machines = 4;
  config.num_binaries = 8;
  config.duration = Seconds(2);
  config.max_requests_per_process = 1200;
  return config;
}

TEST(CallsiteIdTest, IsDeterministicNonZeroAndCollisionFreeHere) {
  constexpr uint64_t id = trace::CallsiteId("search/behavior0");
  static_assert(id != 0);
  EXPECT_EQ(id, trace::CallsiteId("search/behavior0"));
  EXPECT_NE(trace::CallsiteId("search/behavior0"),
            trace::CallsiteId("search/behavior1"));
  EXPECT_NE(trace::CallsiteId("search/startup"),
            trace::CallsiteId("ads/startup"));
}

TEST(HeapProfilerTest, AttributesLiveHeapToWorkloadCallsites) {
  fleet::Machine machine = RunMachine(/*seed=*/42);
  const trace::HeapProfile& profile = machine.results()[0].heap_profile;

  ASSERT_GT(profile.total_live_bytes, 0u);
  // The driver tags every Allocate and Free with its behavior callsite,
  // so attribution is exact — comfortably above the 95% acceptance floor.
  EXPECT_EQ(profile.attributed_live_bytes, profile.total_live_bytes);
  EXPECT_GE(static_cast<double>(profile.attributed_live_bytes),
            0.95 * static_cast<double>(profile.total_live_bytes));
  EXPECT_GT(profile.samples_taken, 0u);

  // Per-behavior and startup callsites are registered with names.
  bool saw_behavior = false, saw_startup = false;
  for (const auto& [id, row] : profile.callsites) {
    EXPECT_NE(id, 0u);
    EXPECT_FALSE(row.name.empty());
    EXPECT_LE(row.live_bytes, row.peak_live_bytes);
    EXPECT_LE(row.live_bytes, row.cum_bytes);
    if (row.name.find("/behavior") != std::string::npos) saw_behavior = true;
    if (row.name.find("/startup") != std::string::npos) saw_startup = true;
  }
  EXPECT_TRUE(saw_behavior);
  EXPECT_TRUE(saw_startup);
}

TEST(HeapProfilerTest, SampledDimensionsArePopulated) {
  fleet::Machine machine = RunMachine(/*seed=*/43);
  const trace::HeapProfile& profile = machine.results()[0].heap_profile;

  uint64_t samples = 0, size_lifetime_samples = 0;
  for (const auto& [id, row] : profile.callsites) samples += row.samples;
  for (const auto& row : profile.size_lifetime) {
    size_lifetime_samples += row.samples;
  }
  EXPECT_EQ(samples, profile.samples_taken);
  // Finalized (freed) samples populate the Fig. 8-style size x lifetime
  // table; a multi-second run frees plenty of short-lived objects.
  EXPECT_GT(size_lifetime_samples, 0u);
}

TEST(HeapProfilerTest, AllocatorExposesProfileAndSampler) {
  fleet::Machine machine = RunMachine(/*seed=*/44);
  const tcmalloc::Allocator& alloc = machine.allocator(0);

  trace::HeapProfile profile = alloc.CollectHeapProfile();
  EXPECT_EQ(profile, machine.results()[0].heap_profile);
  EXPECT_EQ(alloc.sampler().samples_taken(), profile.samples_taken);
  EXPECT_GT(alloc.sampler().profile().all_lifetimes.count(), 0u);

  std::string text = trace::RenderHeapProfileText(profile);
  EXPECT_NE(text.find("Heap profile:"), std::string::npos);
  EXPECT_NE(text.find("100.0% attributed"), std::string::npos);
}

TEST(HeapProfilerTest, RendersTextAndJsonDeterministically) {
  fleet::Machine machine = RunMachine(/*seed=*/45);
  const trace::HeapProfile& profile = machine.results()[0].heap_profile;

  std::string text = RenderHeapProfileText(profile);
  EXPECT_EQ(text, RenderHeapProfileText(profile));
  EXPECT_NE(text.find("Size x lifetime"), std::string::npos);

  std::string json = RenderHeapProfileJson(profile);
  EXPECT_EQ(json.rfind("{\"schema_version\":1,\"kind\":\"heap_profile\"", 0),
            0u);
  EXPECT_NE(json.find("\"callsites\":["), std::string::npos);
  EXPECT_NE(json.find("\"size_lifetime\":["), std::string::npos);
}

TEST(HeapProfilerTest, ProfilesMergeBySummingRows) {
  fleet::Machine a = RunMachine(/*seed=*/46);
  fleet::Machine b = RunMachine(/*seed=*/47);
  const trace::HeapProfile& pa = a.results()[0].heap_profile;
  const trace::HeapProfile& pb = b.results()[0].heap_profile;

  trace::HeapProfile merged = pa;
  merged.MergeFrom(pb);
  EXPECT_EQ(merged.total_live_bytes,
            pa.total_live_bytes + pb.total_live_bytes);
  EXPECT_EQ(merged.attributed_live_bytes,
            pa.attributed_live_bytes + pb.attributed_live_bytes);
  EXPECT_EQ(merged.samples_taken, pa.samples_taken + pb.samples_taken);

  // Same workload in both machines → same callsite IDs; rows sum.
  for (const auto& [id, row] : pa.callsites) {
    auto it = merged.callsites.find(id);
    ASSERT_NE(it, merged.callsites.end());
    uint64_t other = pb.callsites.count(id) != 0
                         ? pb.callsites.at(id).live_bytes
                         : 0;
    EXPECT_EQ(it->second.live_bytes, row.live_bytes + other);
  }
}

TEST(HeapProfilerTest, MergedHeapProfileIsIdenticalAcrossThreadCounts) {
  fleet::Fleet one(SmallFleet(), tcmalloc::AllocatorConfig(), /*seed=*/13);
  fleet::Fleet eight(SmallFleet(), tcmalloc::AllocatorConfig(), /*seed=*/13);
  one.Run(1);
  eight.Run(8);

  trace::HeapProfile profile_one =
      fleet::MergedHeapProfile(one.observations());
  trace::HeapProfile profile_eight =
      fleet::MergedHeapProfile(eight.observations());
  EXPECT_EQ(profile_one, profile_eight);
  EXPECT_GT(profile_one.total_live_bytes, 0u);
  EXPECT_EQ(RenderHeapProfileJson(profile_one),
            RenderHeapProfileJson(profile_eight));
}

}  // namespace
}  // namespace wsc
