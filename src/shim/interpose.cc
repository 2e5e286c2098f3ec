// The exported C symbol surface of libwscmalloc.so.
//
// LD_PRELOAD interposition: defining malloc & friends with default
// visibility in a preloaded object places them first in the global
// lookup scope, so every allocation in the process — the executable,
// libstdc++'s operator new, libc's own strdup — routes through the shim.
// No dlsym(RTLD_NEXT) chaining is needed because the shim is a complete
// allocator; pointers that predate the preload (libc-internal) are
// detected by range and deliberately leaked (see ShimFree).
//
// libwscmalloc.map lists the same symbols as the library's only exports;
// tools/check_shim_symbols.sh asserts with `nm -D` that the built library
// exports exactly these.

#include <cstddef>

#include "shim/shim_core.h"

#define WSC_SHIM_EXPORT extern "C" __attribute__((visibility("default")))

WSC_SHIM_EXPORT void* malloc(size_t size) {
  return wsc::shim::ShimMalloc(size);
}

WSC_SHIM_EXPORT void free(void* ptr) { wsc::shim::ShimFree(ptr); }

WSC_SHIM_EXPORT void* calloc(size_t n, size_t size) {
  return wsc::shim::ShimCalloc(n, size);
}

WSC_SHIM_EXPORT void* realloc(void* ptr, size_t size) {
  return wsc::shim::ShimRealloc(ptr, size);
}

WSC_SHIM_EXPORT void* reallocarray(void* ptr, size_t n, size_t size) {
  return wsc::shim::ShimReallocArray(ptr, n, size);
}

WSC_SHIM_EXPORT int posix_memalign(void** out, size_t align, size_t size) {
  return wsc::shim::ShimPosixMemalign(out, align, size);
}

WSC_SHIM_EXPORT void* aligned_alloc(size_t align, size_t size) {
  return wsc::shim::ShimAlignedAlloc(align, size);
}

WSC_SHIM_EXPORT void* memalign(size_t align, size_t size) {
  return wsc::shim::ShimMemalign(align, size);
}

WSC_SHIM_EXPORT void* valloc(size_t size) {
  return wsc::shim::ShimValloc(size);
}

WSC_SHIM_EXPORT void* pvalloc(size_t size) {
  return wsc::shim::ShimPvalloc(size);
}

WSC_SHIM_EXPORT size_t malloc_usable_size(void* ptr) {
  return wsc::shim::ShimUsableSize(ptr);
}

// ---- wscmalloc introspection (for benches and tests; benign to call
// via dlsym from any process that preloaded the shim) ----

WSC_SHIM_EXPORT int wscmalloc_is_active() {
  return wsc::shim::ShimIsActive() ? 1 : 0;
}

WSC_SHIM_EXPORT size_t wscmalloc_release_memory(size_t bytes) {
  return wsc::shim::ShimReleaseMemory(bytes);
}

WSC_SHIM_EXPORT size_t wscmalloc_stats_json(char* buf, size_t cap) {
  return wsc::shim::ShimStatsJson(buf, cap);
}

WSC_SHIM_EXPORT size_t wscmalloc_stats_timeseries(char* buf, size_t cap) {
  return wsc::shim::ShimStatsTimeseries(buf, cap);
}
