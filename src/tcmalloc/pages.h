// Page-granularity types and constants.
//
// TCMalloc manages memory in its own 8 KiB pages (two native x86 4 KiB
// pages) grouped into 2 MiB hugepages (256 TCMalloc pages). Spans are
// contiguous runs of TCMalloc pages; objects <= 256 KiB are carved from
// spans, larger objects go straight to the page heap.

#ifndef WSC_TCMALLOC_PAGES_H_
#define WSC_TCMALLOC_PAGES_H_

#include <cstddef>
#include <cstdint>

namespace wsc::tcmalloc {

// TCMalloc page: 8 KiB.
inline constexpr int kPageShift = 13;
inline constexpr size_t kPageSize = size_t{1} << kPageShift;

// Hugepage: 2 MiB.
inline constexpr int kHugePageShift = 21;
inline constexpr size_t kHugePageSize = size_t{1} << kHugePageShift;
inline constexpr size_t kPagesPerHugePage = kHugePageSize / kPageSize;  // 256

// Requests above this bypass the caches and go straight to the page heap.
inline constexpr size_t kMaxSmallSize = 256 * 1024;

// Number of TCMalloc pages.
using Length = size_t;

// Identifies one TCMalloc page by its index (addr >> kPageShift).
struct PageId {
  uintptr_t index = 0;

  constexpr uintptr_t Addr() const { return index << kPageShift; }
  constexpr PageId operator+(Length n) const { return PageId{index + n}; }
  constexpr PageId operator-(Length n) const { return PageId{index - n}; }
  constexpr Length operator-(PageId other) const {
    return index - other.index;
  }
  auto operator<=>(const PageId&) const = default;
};

constexpr PageId PageIdContaining(uintptr_t addr) {
  return PageId{addr >> kPageShift};
}

// Index 0 doubles as the "growth failed" sentinel: every process arena
// starts at or above 1 << 44 (machine.cc), so no real page or hugepage can
// ever have index 0. Tiers return these when SystemAllocator growth is
// denied (arena exhaustion) and callers must check IsValid() before using
// the result.
inline constexpr PageId kInvalidPageId{0};

constexpr bool IsValid(PageId p) { return p.index != 0; }

// Identifies one 2 MiB hugepage.
struct HugePageId {
  uintptr_t index = 0;

  constexpr uintptr_t Addr() const { return index << kHugePageShift; }
  constexpr PageId first_page() const {
    return PageId{index * kPagesPerHugePage};
  }
  auto operator<=>(const HugePageId&) const = default;
};

// Invalid-hugepage sentinel; see kInvalidPageId above.
inline constexpr HugePageId kInvalidHugePage{0};

constexpr bool IsValid(HugePageId hp) { return hp.index != 0; }

constexpr HugePageId HugePageContaining(PageId page) {
  return HugePageId{page.index / kPagesPerHugePage};
}

constexpr HugePageId HugePageContainingAddr(uintptr_t addr) {
  return HugePageId{addr >> kHugePageShift};
}

// Bytes <-> pages helpers. BytesToLengthCeil rounds partial pages up.
constexpr Length BytesToLengthCeil(size_t bytes) {
  return (bytes + kPageSize - 1) >> kPageShift;
}
constexpr size_t LengthToBytes(Length pages) { return pages << kPageShift; }

}  // namespace wsc::tcmalloc

#endif  // WSC_TCMALLOC_PAGES_H_
