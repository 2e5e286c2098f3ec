// Tests for AllocatorConfig::Builder: validation of knob combinations and
// the topology-derived LLC domain count.

#include "tcmalloc/config.h"

#include <gtest/gtest.h>

#include <string>

#include "tcmalloc/pages.h"

namespace wsc::tcmalloc {
namespace {

TEST(ConfigBuilder, BuildsValidatedDefaults) {
  AllocatorConfig config = AllocatorConfig::Builder().Build();
  EXPECT_EQ(config.ValidationError(), "");
  EXPECT_FALSE(config.dynamic_cpu_caches);
}

TEST(ConfigBuilder, RejectsNucaWithOneExplicitDomain) {
  std::string error;
  auto config = AllocatorConfig::Builder()
                    .WithNucaTransferCache()
                    .WithLlcDomains(1)
                    .TryBuild(&error);
  EXPECT_FALSE(config.has_value());
  EXPECT_NE(error.find("llc"), std::string::npos) << error;
}

TEST(ConfigBuilder, RejectsSoftLimitAboveHardLimit) {
  std::string error;
  auto config = AllocatorConfig::Builder()
                    .WithSoftMemoryLimit(2 << 20)
                    .WithHardMemoryLimit(1 << 20)
                    .TryBuild(&error);
  EXPECT_FALSE(config.has_value());
  EXPECT_NE(error.find("soft"), std::string::npos) << error;
}

TEST(ConfigBuilder, RejectsArenaBelowOneHugepage) {
  std::string error;
  auto config = AllocatorConfig::Builder()
                    .WithArena(uintptr_t{1} << 44, kHugePageSize - kPageSize)
                    .TryBuild(&error);
  EXPECT_FALSE(config.has_value());
  EXPECT_NE(error.find("arena_bytes"), std::string::npos) << error;
  EXPECT_TRUE(AllocatorConfig::Builder()
                  .WithArena(uintptr_t{1} << 44, kHugePageSize)
                  .TryBuild()
                  .has_value());
}

TEST(ConfigBuilder, NucaWithoutExplicitDomainsDefersToTopology) {
  // Enabling NUCA without a count leaves the sentinel for fleet::Machine
  // to resolve; such a config cannot construct a raw Allocator ...
  auto config =
      AllocatorConfig::Builder().WithNucaTransferCache().TryBuild();
  ASSERT_TRUE(config.has_value());
  EXPECT_EQ(config->num_llc_domains, AllocatorConfig::kTopologyDerived);
  EXPECT_FALSE(config->ValidationError().empty());

  // ... while an explicit count is construction-ready.
  auto explicit_config = AllocatorConfig::Builder()
                             .WithNucaTransferCache()
                             .WithLlcDomains(4)
                             .TryBuild();
  ASSERT_TRUE(explicit_config.has_value());
  EXPECT_EQ(explicit_config->ValidationError(), "");
}

TEST(ConfigBuilder, AllOptimizationsDerivesShardCountFromTopology) {
  // The old AllOptimizations silently kept num_llc_domains = 1, making the
  // NUCA toggle a no-op; now the count defers to machine topology.
  auto config =
      AllocatorConfig::Builder().WithAllOptimizations().TryBuild();
  ASSERT_TRUE(config.has_value());
  EXPECT_TRUE(config->nuca_transfer_cache);
  EXPECT_EQ(config->num_llc_domains, AllocatorConfig::kTopologyDerived);
}

TEST(ConfigBuilder, AllOptimizationsHonorsExplicitDomainChoice) {
  AllocatorConfig config = AllocatorConfig::Builder()
                               .WithAllOptimizations()
                               .WithLlcDomains(4)
                               .Build();
  EXPECT_EQ(config.num_llc_domains, 4);
  EXPECT_EQ(config.ValidationError(), "");
}

TEST(ConfigBuilder, StartsFromExistingConfig) {
  AllocatorConfig base = AllocatorConfig::Builder().WithVcpus(13).Build();
  AllocatorConfig config =
      AllocatorConfig::Builder(base).WithSpanPrioritization().Build();
  EXPECT_EQ(config.num_vcpus, 13);
  EXPECT_TRUE(config.span_prioritization);
}

}  // namespace
}  // namespace wsc::tcmalloc
