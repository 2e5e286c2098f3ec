// Core of the drop-in malloc shim (libwscmalloc.so).
//
// interpose.cc exports the C symbols (malloc/free/...); this layer owns
// the hard parts: bootstrap-safe one-time initialization, per-thread
// cache registration, reentrancy (allocator metadata such as the thread
// registry's vector growth must not recurse into the allocator that is
// mid-operation), fork handling, and errno-correct OOM.
//
// Split from interpose.cc so tests/shim can link the logic directly and
// exercise it without LD_PRELOAD.

#ifndef WSC_SHIM_SHIM_CORE_H_
#define WSC_SHIM_SHIM_CORE_H_

#include <cstddef>

namespace wsc::shim {

// The malloc-family entry points. All are safe to call at any point
// after process start, from any thread, including reentrantly from
// inside the allocator's own bookkeeping.
void* ShimMalloc(size_t size);
void ShimFree(void* ptr);
void* ShimCalloc(size_t n, size_t size);
void* ShimRealloc(void* ptr, size_t size);
void* ShimReallocArray(void* ptr, size_t n, size_t size);
int ShimPosixMemalign(void** out, size_t align, size_t size);
void* ShimAlignedAlloc(size_t align, size_t size);
void* ShimMemalign(size_t align, size_t size);
void* ShimValloc(size_t size);
void* ShimPvalloc(size_t size);
size_t ShimUsableSize(void* ptr);

// ---- Introspection (exported as wscmalloc_* from the .so) ----

// True once the real allocator constructed (false while still serving
// everything from the bootstrap arena).
bool ShimIsActive();
// madvise up to `bytes` of pending freed memory back to the OS; returns
// bytes newly released.
size_t ShimReleaseMemory(size_t bytes);
// Writes a one-line JSON object of allocator counters (allocations,
// frees, footprint_bytes, released_bytes, bootstrap_bytes, threads) into
// buf; returns bytes written (excluding NUL), truncating at cap.
// Counters are gathered from racy relaxed reads — intended for
// end-of-run sidecars, not invariants while threads are hot.
size_t ShimStatsJson(char* buf, size_t cap);
// Writes the live statsz sample ring (most recent ~64 samples, oldest
// first) as pid-tagged NDJSON lines into buf; returns bytes written
// (excluding NUL), truncating at whole-line granularity. The ring is
// populated by the background stats thread, which starts with the
// allocator when WSC_SHIM_STATSZ_PATH or WSC_SHIM_STATSZ_INTERVAL_MS is
// set in the environment (see shim_core.cc "Live statsz" for the
// contract: periodic dumps, SIGUSR2-triggered dumps, fork restart).
// Returns 0 when the stats thread never ran.
size_t ShimStatsTimeseries(char* buf, size_t cap);

}  // namespace wsc::shim

#endif  // WSC_SHIM_SHIM_CORE_H_
