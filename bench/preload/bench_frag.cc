// Fragmentation / memory-return probe.
//
// Builds a large mixed-size population, frees a checkerboard of it (every
// other object — the worst case for page-level reuse), asks the allocator
// to give memory back, then frees the rest and asks again, reporting RSS
// at each stage. Under the shim the release steps call
// wscmalloc_release_memory(~0), which routes to
// RealThreadsAllocator::ReleaseMemoryToSystem → madvise(MADV_DONTNEED);
// under glibc they call malloc_trim(0). rss_after_release is the
// fragmentation comparison; rss_after_drain is what stays resident once
// nothing the bench allocated is live. With --out-dir the shim's stats
// are snapshotted before the population and after the drain, so
// tools/check_preload_conservation.py can check both that allocations
// balance and that the footprint came back.

#include <malloc.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "preload_util.h"

namespace {

size_t PickSize(wsc_preload::Rng& rng) {
  const uint64_t r = rng.Next();
  // 90% small-class objects, 10% above kMaxSmallSize (256 KiB) so they
  // take the page-heap large path. A small-class span goes back to the
  // page heap once its last object is freed, so both populations end up
  // releasable.
  if (r % 100 < 90) return 64u << ((r >> 8) % 7);  // 64 B .. 4 KiB
  return size_t{512} * 1024;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsc_preload;
  PreloadFlags flags = ParsePreloadFlags(argc, argv);
  ShimApi shim = DiscoverShim();
  auto release = [&shim]() -> size_t {
    if (shim.active() && shim.release_memory != nullptr) {
      return shim.release_memory(~size_t{0});
    }
    malloc_trim(0);
    return 0;
  };

  // The pointer table outlives both snapshots, so everything allocated
  // between them is freed before the second.
  const size_t population = static_cast<size_t>(flags.ops);
  std::vector<void*> objs(population, nullptr);
  AppendShimStats(flags, "frag", shim, "pre");
  Rng rng(flags.seed);
  for (size_t i = 0; i < population; ++i) {
    const size_t size = PickSize(rng);
    objs[i] = std::malloc(size);
    if (objs[i] == nullptr) std::abort();
    std::memset(objs[i], 0xEE, size);  // fault everything in
  }
  const size_t rss_peak = ReadRssBytes();

  // Checkerboard free: half the bytes die but nearly every page stays
  // partially live — the fragmentation regime of Figure 5.
  for (size_t i = 0; i < population; i += 2) {
    std::free(objs[i]);
    objs[i] = nullptr;
  }
  const size_t rss_after_free = ReadRssBytes();

  size_t released = release();
  const size_t rss_after_release = ReadRssBytes();

  for (size_t i = 1; i < population; i += 2) std::free(objs[i]);
  released += release();
  const size_t rss_after_drain = ReadRssBytes();

  AppendShimStats(flags, "frag", shim, "post");

  char line[512];
  std::snprintf(
      line, sizeof(line),
      "{\"bench\":\"frag\",\"allocator\":\"%s\",\"population\":%zu,"
      "\"rss_peak\":%zu,\"rss_after_free\":%zu,\"rss_after_release\":%zu,"
      "\"rss_after_drain\":%zu,\"released_bytes\":%zu}",
      AllocatorName(shim), population, rss_peak, rss_after_free,
      rss_after_release, rss_after_drain, released);
  EmitReport(flags, "frag", line);
  return 0;
}
