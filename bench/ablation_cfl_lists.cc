// Ablation: number of occupancy-indexed lists L in the central free list.
//
// Paper (Section 4.3): "Our experiments show that L = 8 lists are
// sufficient to differentiate spans." This ablation sweeps L and reports
// the memory footprint relative to the single-list baseline.

#include <cstdio>

#include "bench/bench_util.h"

using namespace wsc;

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  PrintBanner("Ablation: central-free-list occupancy lists (L)");
  bench::BenchTimer timer("ablation_cfl_lists");
  uint64_t sim_requests = 0;

  tcmalloc::AllocatorConfig control;  // L = 1 (no prioritization)
  workload::WorkloadSpec spec = bench::PackingStressSpec();

  // Packing effects need several load cycles to develop, so these runs are
  // longer than the standard benchmark A/B.
  TablePrinter table({"L", "memory vs baseline", "throughput vs baseline"});
  for (int lists : {2, 8, 32}) {
    tcmalloc::AllocatorConfig experiment = tcmalloc::AllocatorConfig::Builder()
                                               .WithSpanPrioritization()
                                               .WithCflNumLists(lists)
                                               .Build();
    fleet::AbDelta delta = fleet::RunBenchmarkAb(
        spec, hw::PlatformSpecFor(hw::PlatformGeneration::kGenD), control,
        experiment, 8100, bench::BenchDuration(Seconds(30)),
        bench::BenchMaxRequests(400000));
    sim_requests += static_cast<uint64_t>(delta.control.requests +
                                          delta.experiment.requests);
    bench::ReportTelemetry("ablation_cfl_lists/L" + std::to_string(lists),
                           delta);
    table.AddRow({std::to_string(lists),
                  FormatSignedPercent(delta.MemoryChangePct()),
                  FormatSignedPercent(delta.ThroughputChangePct())});
  }
  table.Print();
  std::printf(
      "\nexpected: gains saturate around L = 8 — more lists only split\n"
      "high-occupancy spans the allocator already treats identically.\n");
  timer.Report(sim_requests);
  return 0;
}
