// Extension: the memory-pressure control plane, driven through the
// allocator's BackgroundReclaimer.
//
// Three scenarios on one dedicated allocator:
//   1. soft limit   — footprint is pushed past a soft limit; the background
//                     reclaimer degrades the tiers (cache shrink, transfer
//                     drain, span return, hugepage subrelease) until the
//                     footprint is back under it.
//   2. explicit     — ReleaseMemoryToSystem returns free back-end memory
//                     on demand.
//   3. hard limit   — allocations that would exceed a hard limit fail
//                     (Allocate returns 0) and are counted, not fatal.

#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "tcmalloc/allocator.h"

using namespace wsc;

namespace {

// Builds a mixed-size working set and returns the live addresses.
std::vector<std::pair<uintptr_t, int>> BuildWorkingSet(
    tcmalloc::Allocator& alloc, Rng& rng, size_t target_bytes,
    uint64_t* requests) {
  std::vector<std::pair<uintptr_t, int>> live;
  size_t allocated = 0;
  SimTime now = 0;
  while (allocated < target_bytes) {
    int vcpu = static_cast<int>(rng.UniformInt(8));
    size_t size = 1 + rng.UniformInt(rng.Bernoulli(0.02) ? 500000 : 8192);
    uintptr_t p = alloc.Allocate(size, vcpu, now);
    ++*requests;
    if (p == 0) continue;
    live.push_back({p, vcpu});
    allocated += size;
    now += 200;
  }
  return live;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  PrintBanner("Extension: memory limits & backpressure");
  bench::BenchTimer timer("extension_memory_limit");
  uint64_t sim_requests = 0;
  telemetry::Snapshot merged_telemetry;

  // ---- 1. Soft limit: the reclaim cascade ----
  {
    tcmalloc::AllocatorConfig config =
        tcmalloc::AllocatorConfig::Builder()
            .WithVcpus(8)
            .WithAllOptimizations()
            .WithLlcDomains(4)
            .Build();
    tcmalloc::Allocator alloc(config);
    tcmalloc::BackgroundReclaimer& reclaimer = alloc.reclaimer();

    Rng rng(77);
    auto live = BuildWorkingSet(alloc, rng, size_t{384} << 20,
                                &sim_requests);
    // Free every other object so the hierarchy holds substantial cached and
    // fragmented memory — the reclaimable part of the footprint.
    SimTime now = Seconds(1);
    for (size_t i = 0; i < live.size(); i += 2) {
      alloc.Free(live[i].first, live[i].second, now);
    }
    alloc.Maintain(now);

    size_t before = alloc.FootprintBytes();
    size_t soft = static_cast<size_t>(0.6 * static_cast<double>(before));
    reclaimer.SetLimit(tcmalloc::MemoryLimitKind::kSoft, soft);
    // The next maintenance boundary runs the background actor.
    alloc.Maintain(now + Seconds(2));
    size_t after = alloc.FootprintBytes();
    double reclaimed = static_cast<double>(reclaimer.reclaimed_bytes());
    double runs = static_cast<double>(reclaimer.reclaim_runs());

    TablePrinter table({"phase", "footprint", "soft limit", "reclaimed"});
    table.AddRow({"before", FormatBytes(static_cast<double>(before)),
                  "-", "-"});
    table.AddRow({"after reclaim", FormatBytes(static_cast<double>(after)),
                  FormatBytes(static_cast<double>(soft)),
                  FormatBytes(reclaimed)});
    table.Print();
    std::printf("  reclaim runs: %.0f; footprint %s soft limit\n\n", runs,
                after <= soft ? "back under" : "still over");

    for (size_t i = 1; i < live.size(); i += 2) {
      alloc.Free(live[i].first, live[i].second, now);
    }
    merged_telemetry.MergeFrom(alloc.TelemetrySnapshot());
  }

  // ---- 2. Explicit release ----
  // A load trough: a burst of large buffers comes and goes, leaving whole
  // hugepages cached in the back end; ReleaseMemoryToSystem hands them to
  // the OS on demand.
  {
    tcmalloc::AllocatorConfig config =
        tcmalloc::AllocatorConfig::Builder().WithVcpus(8).Build();
    tcmalloc::Allocator alloc(config);

    std::vector<uintptr_t> bufs;
    for (int i = 0; i < 64; ++i) {
      bufs.push_back(alloc.Allocate(size_t{2} << 20, 0, i));
      ++sim_requests;
    }
    for (uintptr_t p : bufs) alloc.Free(p, 0, Seconds(1));

    size_t free_backend = alloc.FootprintBytes();
    size_t asked = size_t{64} << 20;
    size_t released = alloc.reclaimer().ReleaseMemoryToSystem(asked);
    std::printf(
        "  load trough left %s cached; ReleaseMemoryToSystem(%s) "
        "released %s\n\n",
        FormatBytes(static_cast<double>(free_backend)).c_str(),
        FormatBytes(static_cast<double>(asked)).c_str(),
        FormatBytes(static_cast<double>(released)).c_str());
    merged_telemetry.MergeFrom(alloc.TelemetrySnapshot());
  }

  // ---- 3. Hard limit: counted allocation failures ----
  {
    size_t hard = size_t{96} << 20;
    tcmalloc::AllocatorConfig config =
        tcmalloc::AllocatorConfig::Builder()
            .WithVcpus(8)
            .WithHardMemoryLimit(hard)
            .Build();
    tcmalloc::Allocator alloc(config);

    Rng rng(78);
    uint64_t failures = 0, attempts = 0;
    std::vector<std::pair<uintptr_t, int>> live;
    SimTime now = 0;
    // Push well past the limit: every allocation beyond it must fail.
    while (attempts < 400000 && failures < 5000) {
      int vcpu = static_cast<int>(rng.UniformInt(8));
      size_t size = 1 + rng.UniformInt(8192);
      uintptr_t p = alloc.Allocate(size, vcpu, now);
      ++attempts;
      ++sim_requests;
      if (p == 0) {
        ++failures;
      } else {
        live.push_back({p, vcpu});
      }
      now += 200;
    }
    double counted =
        static_cast<double>(alloc.reclaimer().hard_limit_failures());
    std::printf(
        "  hard limit %s: %llu of %llu allocations failed "
        "(telemetry counted %.0f)\n",
        FormatBytes(static_cast<double>(hard)).c_str(),
        static_cast<unsigned long long>(failures),
        static_cast<unsigned long long>(attempts), counted);
    std::printf("  footprint at refusal: %s (stays under the limit)\n\n",
                FormatBytes(static_cast<double>(alloc.FootprintBytes()))
                    .c_str());

    for (auto& [p, v] : live) alloc.Free(p, v, now);
    merged_telemetry.MergeFrom(alloc.TelemetrySnapshot());
  }

  bench::PaperVsMeasured("pressure handling", "graceful degradation (§4.4)",
                         "tiered reclaim + counted failures");
  timer.Report(sim_requests);
  bench::ReportTelemetry(timer.bench(), merged_telemetry);
  return 0;
}
