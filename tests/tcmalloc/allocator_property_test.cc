// Property-based tests: randomized traces replayed against every allocator
// configuration must preserve the malloc/free contract and leave the heap
// fully drained.

#include <gtest/gtest.h>

#include <tuple>

#include "tcmalloc/allocator.h"
#include "workload/trace.h"

namespace wsc::tcmalloc {
namespace {

struct ConfigCase {
  const char* name;
  bool dynamic_cpu;
  bool nuca;
  bool span_prio;
  bool lifetime_filler;
};

constexpr ConfigCase kConfigs[] = {
    {"baseline", false, false, false, false},
    {"dynamic_cpu", true, false, false, false},
    {"nuca", false, true, false, false},
    {"span_prio", false, false, true, false},
    {"lifetime_filler", false, false, false, true},
    {"all", true, true, true, true},
};

AllocatorConfig MakeConfig(const ConfigCase& c) {
  return AllocatorConfig::Builder()
      .WithVcpus(8)
      .WithLlcDomains(4)
      .WithDynamicCpuCaches(c.dynamic_cpu)
      .WithNucaTransferCache(c.nuca)
      .WithSpanPrioritization(c.span_prio)
      .WithLifetimeAwareFiller(c.lifetime_filler)
      .WithArena(uintptr_t{1} << 44, size_t{32} << 30)
      .Build();
}

class TracePropertyTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t>> {};

TEST_P(TracePropertyTest, RandomTraceDrainsCompletely) {
  const ConfigCase& c = kConfigs[std::get<0>(GetParam())];
  uint64_t seed = std::get<1>(GetParam());
  Allocator alloc(MakeConfig(c));

  workload::Trace trace =
      workload::Trace::GenerateRandom(30000, seed, 1 << 20);
  size_t peak = trace.Replay(alloc, /*vcpu=*/static_cast<int>(seed % 8));
  EXPECT_GT(peak, 0u);

  HeapStats stats = alloc.CollectStats();
  // Everything was freed: no live memory, all counters balanced.
  EXPECT_EQ(stats.live_bytes, 0u);
  EXPECT_EQ(alloc.num_allocations(), alloc.num_frees());
  // Cached memory is bounded by what was ever mapped.
  EXPECT_LE(stats.ExternalFragmentation(),
            alloc.system_stats().mapped_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigsAndSeeds, TracePropertyTest,
    ::testing::Combine(::testing::Range(0, 6),
                       ::testing::Values(1u, 42u, 12345u)),
    [](const ::testing::TestParamInfo<std::tuple<int, uint64_t>>& info) {
      return std::string(kConfigs[std::get<0>(info.param)].name) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// Identical traces under identical configs must produce identical
// accounting (determinism property).
TEST(TraceDeterminism, SameSeedSameStats) {
  AllocatorConfig config = MakeConfig(kConfigs[5]);
  workload::Trace trace = workload::Trace::GenerateRandom(20000, 7, 1 << 18);

  Allocator a(config);
  Allocator b(config);
  trace.Replay(a);
  trace.Replay(b);
  EXPECT_EQ(a.CollectStats().HeapBytes(), b.CollectStats().HeapBytes());
  EXPECT_DOUBLE_EQ(a.cycle_breakdown().Total(), b.cycle_breakdown().Total());
  EXPECT_EQ(a.alloc_tier_hits().page_heap, b.alloc_tier_hits().page_heap);
}

// Span prioritization is purely a placement policy: the same trace must
// still fully drain, and fragmentation must never be negative.
TEST(TraceDeterminism, PrioritizationPreservesContract) {
  workload::Trace trace = workload::Trace::GenerateRandom(50000, 11, 4096);
  for (bool prio : {false, true}) {
    AllocatorConfig config =
        AllocatorConfig::Builder()
            .WithSpanPrioritization(prio)
            .WithArena(uintptr_t{1} << 44, size_t{32} << 30)
            .Build();
    Allocator alloc(config);
    trace.Replay(alloc);
    HeapStats stats = alloc.CollectStats();
    EXPECT_EQ(stats.live_bytes, 0u);
  }
}

// The sum of per-tier free bytes always equals what the tiers report
// individually, and the exact footprint equals the stats' heap bytes
// (accounting consistency under churn).
TEST(HeapAccounting, TierFreeBytesConsistent) {
  AllocatorConfig config = MakeConfig(kConfigs[0]);
  Allocator alloc(config);
  workload::Trace trace = workload::Trace::GenerateRandom(40000, 3, 1 << 16);
  trace.Replay(alloc);
  HeapStats stats = alloc.CollectStats();
  size_t cfl = 0;
  for (int cls = 0; cls < alloc.size_classes().num_classes(); ++cls) {
    cfl += alloc.central_free_list(cls).FreeObjectBytes();
  }
  EXPECT_EQ(stats.central_free_list_free, cfl);
  EXPECT_EQ(stats.cpu_cache_free, alloc.cpu_caches().TotalCachedBytes());
  EXPECT_EQ(stats.transfer_cache_free,
            alloc.transfer_cache().TotalCachedBytes());
  EXPECT_EQ(alloc.FootprintBytes(), stats.HeapBytes());
}

}  // namespace
}  // namespace wsc::tcmalloc
