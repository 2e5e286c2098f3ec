// Fig. 14: memory reduction from span prioritization in the central free
// list (L = 8 occupancy-indexed lists).
//
// Paper: fleet -1.41% memory; monarch -2.76%, other top-5 apps
// -0.34%..-2.54%; dedicated benchmarks -0.61%..-1.36%; application
// productivity unchanged.

#include <cstdio>

#include "bench/bench_util.h"

using namespace wsc;

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  PrintBanner("Fig. 14: memory reduction with span prioritization");
  bench::BenchTimer timer("fig14_span_prioritization");

  tcmalloc::AllocatorConfig control;
  tcmalloc::AllocatorConfig experiment =
      tcmalloc::AllocatorConfig::Builder().WithSpanPrioritization().Build();

  fleet::AbResult ab =
      fleet::RunFleetAb(bench::DefaultFleet(), control, experiment, 1401);

  TablePrinter table(
      {"workload", "memory reduction %", "throughput", "paper %"});
  auto add = [&table](const fleet::AbDelta& delta, const char* paper) {
    table.AddRow({delta.label, FormatDouble(-delta.MemoryChangePct(), 2),
                  FormatSignedPercent(delta.ThroughputChangePct()), paper});
  };
  add(ab.fleet, "1.41");
  const char* paper_top5[] = {"0.34-2.54", "2.76", "0.34-2.54", "0.34-2.54",
                              "0.34-2.54"};
  for (size_t i = 0; i < ab.per_app.size(); ++i) {
    if (ab.per_app[i].control.processes > 0) {
      add(ab.per_app[i], paper_top5[i]);
    }
  }
  auto benchmarks = workload::BenchmarkProfiles();
  for (size_t i = 0; i < benchmarks.size(); ++i) {
    fleet::AbDelta delta =
        bench::BenchmarkAb(benchmarks[i], control, experiment, 1410 + i);
    add(delta, "0.61-1.36");
  }
  // A dedicated packing-stress run: deep load cycles with pinned spans,
  // the regime where span placement decisions matter most. Our synthetic
  // fleet profiles drain more cleanly than production traffic (their
  // baseline LIFO relist order already lands on recently-pinned spans), so
  // the fleet rows above understate the effect; this row shows it.
  fleet::AbDelta stress = fleet::RunBenchmarkAb(
      bench::PackingStressSpec(),
      hw::PlatformSpecFor(hw::PlatformGeneration::kGenD), control,
      experiment, 1450, bench::BenchDuration(Seconds(30)),
      bench::BenchMaxRequests(400000));
  add(stress, "(stress)");
  table.Print();

  bench::PaperVsMeasured("fleet memory reduction", "1.41%",
                         FormatDouble(-ab.fleet.MemoryChangePct(), 2) + "%");
  bench::PaperVsMeasured(
      "productivity", "unchanged",
      FormatSignedPercent(ab.fleet.ThroughputChangePct()));
  std::printf(
      "\nshape check: packing allocations onto the fullest spans lets\n"
      "nearly-empty spans drain and return to the page heap.\n");
  timer.Report(bench::TotalRequests(ab));
  bench::ReportTelemetry(timer.bench(), ab);
  return 0;
}
