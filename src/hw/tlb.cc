#include "hw/tlb.h"

#include <algorithm>

#include "common/logging.h"

namespace wsc::hw {

namespace {
constexpr int kSmallPageShift = 12;  // 4 KiB native page
constexpr int kHugePageShift = 21;   // 2 MiB hugepage
}  // namespace

TlbSimulator::TlbSimulator(TlbConfig config) : config_(config) {
  WSC_CHECK_GT(config_.l1_4k_entries, 0);
  WSC_CHECK_GT(config_.l1_2m_entries, 0);
  WSC_CHECK_GT(config_.l2_entries, 0);
  l1_4k_.resize(config_.l1_4k_entries);
  l1_2m_.resize(config_.l1_2m_entries);
  l2_.resize(config_.l2_entries);
}

bool TlbSimulator::Probe(std::vector<Entry>& entries, uint64_t tag,
                         uint64_t stamp) {
  Entry* victim = &entries[0];
  for (Entry& e : entries) {
    if (e.tag == tag) {
      e.last_use = stamp;
      return true;
    }
    if (e.last_use < victim->last_use) victim = &e;
  }
  victim->tag = tag;
  victim->last_use = stamp;
  return false;
}

double TlbSimulator::Access(uint64_t addr, bool hugepage_backed) {
  ++stats_.accesses;
  int shift = hugepage_backed ? kHugePageShift : kSmallPageShift;
  uint64_t page = addr >> shift;

  // Fast path: repeated access to the most recently used page.
  uint64_t& mru = hugepage_backed ? mru_2m_ : mru_4k_;
  if (page == mru) return 0.0;

  ++stamp_;
  // Tag both the page number and the page size so a 4K and a 2M mapping
  // never alias in the unified L2.
  uint64_t l2_tag = (page << 1) | (hugepage_backed ? 1u : 0u);

  std::vector<Entry>& l1 = hugepage_backed ? l1_2m_ : l1_4k_;
  if (Probe(l1, page, stamp_)) {
    mru = page;
    return 0.0;
  }

  ++stats_.l1_misses;
  mru = page;
  if (Probe(l2_, l2_tag, stamp_)) {
    stats_.stall_cycles += config_.l2_hit_cycles;
    return config_.l2_hit_cycles;
  }
  ++stats_.l2_misses;
  double cycles = config_.l2_hit_cycles + config_.walk_cycles;
  stats_.stall_cycles += cycles;
  return cycles;
}

}  // namespace wsc::hw
