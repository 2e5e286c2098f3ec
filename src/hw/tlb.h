// dTLB simulator.
//
// The paper's lifetime-aware hugepage filler (Section 4.4) wins by improving
// hugepage coverage, which reduces dTLB misses and page-walk cycles
// (Fig. 17, Table 2). We model a two-level data TLB: split L1 (4 KiB and
// 2 MiB entries) backed by a unified L2 STLB, with a page walker whose cost
// is charged to the productivity model.
//
// The simulator is driven by the workload driver, which "touches" allocated
// objects; whether a touch maps to a 4 KiB or 2 MiB entry is answered by a
// PageBackingOracle implemented over the allocator's page heap state.

#ifndef WSC_HW_TLB_H_
#define WSC_HW_TLB_H_

#include <cstdint>
#include <vector>

namespace wsc::hw {

// Answers whether a virtual address is currently backed by a (transparent)
// hugepage. The allocator's page heap implements this from its own
// bookkeeping: an intact, never-subreleased hugepage is THP-backed.
class PageBackingOracle {
 public:
  virtual ~PageBackingOracle() = default;
  virtual bool IsHugepageBacked(uint64_t addr) const = 0;
};

// Configuration for the simulated dTLB. Entry counts are scaled to ~1/3 of
// a contemporary x86 server core (64/32 L1, 1536 L2) because simulated
// working sets are 10-100x smaller than the production heaps the paper
// profiles; the scaled TLB reproduces the same coverage-to-working-set
// ratio and hence the fleet's dTLB pressure.
struct TlbConfig {
  int l1_4k_entries = 48;
  int l1_2m_entries = 16;
  int l2_entries = 512;        // unified STLB
  double l2_hit_cycles = 7.0;  // extra cycles on L1 miss / L2 hit
  double walk_cycles = 40.0;   // page walk on L2 miss
};

// Aggregate TLB statistics.
struct TlbStats {
  uint64_t accesses = 0;
  uint64_t l1_misses = 0;
  uint64_t l2_misses = 0;  // == page walks
  double stall_cycles = 0.0;

  double WalkRate() const {
    return accesses ? static_cast<double>(l2_misses) / accesses : 0.0;
  }
};

// Fully-associative, LRU-replacement TLB model. Fully associative is a
// simplification (real parts are 4-8 way), but preserves the first-order
// effect we need: 2 MiB entries cover 512x more address space per entry.
class TlbSimulator {
 public:
  explicit TlbSimulator(TlbConfig config = TlbConfig());

  // Simulates one data access to `addr`. `hugepage_backed` selects the page
  // size. Returns the stall cycles charged to this access (0 on L1 hit).
  double Access(uint64_t addr, bool hugepage_backed);

  const TlbStats& stats() const { return stats_; }
  void ResetStats() { stats_ = TlbStats(); }

 private:
  struct Entry {
    uint64_t tag = ~0ULL;
    uint64_t last_use = 0;
  };

  // Looks up / inserts a tag; returns true on hit.
  static bool Probe(std::vector<Entry>& entries, uint64_t tag,
                    uint64_t stamp);

  TlbConfig config_;
  std::vector<Entry> l1_4k_;
  std::vector<Entry> l1_2m_;
  std::vector<Entry> l2_;
  uint64_t stamp_ = 0;
  // MRU filters: consecutive accesses to the same page (the common case
  // when touching an object's lines) skip the associative probe.
  uint64_t mru_4k_ = ~0ULL;
  uint64_t mru_2m_ = ~0ULL;
  TlbStats stats_;
};

}  // namespace wsc::hw

#endif  // WSC_HW_TLB_H_
