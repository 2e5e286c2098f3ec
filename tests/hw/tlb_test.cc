// Tests for the dTLB simulator.

#include "hw/tlb.h"

#include <gtest/gtest.h>

namespace wsc::hw {
namespace {

constexpr uint64_t kPage4K = 4096;
constexpr uint64_t kPage2M = 2 * 1024 * 1024;

TEST(Tlb, FirstAccessWalksThenHits) {
  TlbSimulator tlb;
  double first = tlb.Access(0x1000000, false);
  EXPECT_GT(first, 0.0);  // cold: walk
  double second = tlb.Access(0x1000000, false);
  EXPECT_DOUBLE_EQ(second, 0.0);  // L1 hit
  EXPECT_EQ(tlb.stats().accesses, 2u);
  EXPECT_EQ(tlb.stats().l2_misses, 1u);
}

TEST(Tlb, SamePageDifferentOffsetHits) {
  TlbSimulator tlb;
  tlb.Access(0x1000000, false);
  EXPECT_DOUBLE_EQ(tlb.Access(0x1000000 + 100, false), 0.0);
  EXPECT_DOUBLE_EQ(tlb.Access(0x1000000 + 4095, false), 0.0);
  // The next 4 KiB page misses.
  EXPECT_GT(tlb.Access(0x1000000 + kPage4K, false), 0.0);
}

TEST(Tlb, HugepageEntryCovers2Mi) {
  TlbSimulator tlb;
  tlb.Access(0x40000000, true);
  // Anywhere within the same 2 MiB page hits.
  EXPECT_DOUBLE_EQ(tlb.Access(0x40000000 + kPage2M - 1, true), 0.0);
  EXPECT_GT(tlb.Access(0x40000000 + kPage2M, true), 0.0);
}

TEST(Tlb, HugepagesCoverFarMoreAddressSpace) {
  // Touch a working set of 64 MiB: with 4 KiB pages the L1+L2 thrash;
  // with 2 MiB pages everything fits in the L1.
  TlbConfig config;
  TlbSimulator small(config), huge(config);
  constexpr uint64_t kWorkingSet = 64ull << 20;
  for (int round = 0; round < 3; ++round) {
    for (uint64_t addr = 0; addr < kWorkingSet; addr += kPage4K) {
      small.Access(addr, false);
      huge.Access(addr, true);
    }
  }
  EXPECT_GT(small.stats().WalkRate(), 0.5);
  EXPECT_LT(huge.stats().WalkRate(), 0.01);
  EXPECT_GT(small.stats().stall_cycles, 100 * huge.stats().stall_cycles);
}

TEST(Tlb, L2CatchesL1Overflow) {
  TlbConfig config;
  config.l1_4k_entries = 4;
  config.l2_entries = 256;
  TlbSimulator tlb(config);
  // Touch 16 pages round-robin: misses L1 (4 entries) but fits L2.
  for (int round = 0; round < 4; ++round) {
    for (uint64_t p = 0; p < 16; ++p) tlb.Access(p * kPage4K, false);
  }
  EXPECT_GT(tlb.stats().l1_misses, tlb.stats().l2_misses);
  // Warm rounds never walk.
  uint64_t walks_after_warm = tlb.stats().l2_misses;
  for (uint64_t p = 0; p < 16; ++p) tlb.Access(p * kPage4K, false);
  EXPECT_EQ(tlb.stats().l2_misses, walks_after_warm);
}

TEST(Tlb, LruEvictsColdestEntry) {
  TlbConfig config;
  config.l1_4k_entries = 2;
  config.l2_entries = 4;
  TlbSimulator tlb(config);
  tlb.Access(0 * kPage4K, false);      // A
  tlb.Access(1 * kPage4K, false);      // B
  tlb.Access(0 * kPage4K, false);      // refresh A
  tlb.Access(2 * kPage4K, false);      // C evicts B (LRU)
  uint64_t l1_misses = tlb.stats().l1_misses;
  tlb.Access(0 * kPage4K, false);      // A still resident
  EXPECT_EQ(tlb.stats().l1_misses, l1_misses);
}

TEST(Tlb, FourKAnd2MDoNotAliasInL2) {
  TlbSimulator tlb;
  // The same numeric address as 4K and 2M mappings are distinct entries.
  tlb.Access(0, false);
  double cost = tlb.Access(0, true);
  EXPECT_GT(cost, 0.0);  // not a hit from the 4K entry
}

TEST(Tlb, StatsResetKeepsEntries) {
  TlbSimulator tlb;
  tlb.Access(0x5000, false);
  tlb.ResetStats();
  EXPECT_EQ(tlb.stats().accesses, 0u);
  EXPECT_DOUBLE_EQ(tlb.Access(0x5000, false), 0.0);  // still cached
}

}  // namespace
}  // namespace wsc::hw
