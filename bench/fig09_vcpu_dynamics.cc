// Fig. 9: (a) the dynamic thread count of a WSC service over time and
// (b) the per-vCPU miss-ratio skew of the statically sized per-CPU caches.
//
// Paper: worker-thread counts fluctuate constantly with load; with dense
// vCPU ids, vCPU 0 sees the most cache misses and higher-indexed vCPUs see
// progressively fewer — the statically sized high-index caches are used
// inefficiently, motivating the heterogeneous cache design.

#include <cstdio>

#include "bench/bench_util.h"
#include "fleet/machine.h"

using namespace wsc;

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  PrintBanner("Fig. 9a: dynamic thread count of a middle-tier service");
  bench::BenchTimer timer("fig09_vcpu_dynamics");

  workload::WorkloadSpec spec = workload::SpannerProfile();
  tcmalloc::AllocatorConfig config = tcmalloc::AllocatorConfig::Builder()
                                         .WithVcpus(spec.max_threads)
                                         .Build();
  tcmalloc::Allocator alloc(config);
  hw::CpuTopology topo(hw::PlatformSpecFor(hw::PlatformGeneration::kGenD));
  std::vector<int> cpus;
  for (int c = 0; c < topo.num_cpus(); ++c) cpus.push_back(c);
  workload::Driver driver(spec, &alloc, &topo, cpus, nullptr, nullptr, 909);

  std::vector<std::pair<double, double>> thread_series;
  SimTime next_sample = 0;
  const SimTime duration = bench::BenchDuration(Seconds(40));
  const uint64_t max_requests = bench::BenchMaxRequests(400000);
  while (driver.now() < duration &&
         driver.metrics().requests < max_requests) {
    driver.Step();
    if (driver.now() >= next_sample) {
      thread_series.push_back(
          {driver.now() / 1e9, static_cast<double>(driver.active_threads())});
      next_sample = driver.now() + Milliseconds(500);
    }
  }
  PrintSeries("active worker threads over time (s, threads)", thread_series,
              1);
  double min_threads = 1e9, max_threads = 0;
  for (auto& [t, n] : thread_series) {
    min_threads = std::min(min_threads, n);
    max_threads = std::max(max_threads, n);
  }
  bench::PaperVsMeasured("thread count fluctuates", "constantly",
                         FormatDouble(min_threads, 0) + " .. " +
                             FormatDouble(max_threads, 0) + " threads");

  PrintBanner("Fig. 9b: per-vCPU cache miss-ratio skew");
  uint64_t total_misses = 0;
  std::vector<uint64_t> misses(alloc.cpu_caches().num_vcpus());
  for (int v = 0; v < alloc.cpu_caches().num_vcpus(); ++v) {
    auto stats = alloc.cpu_caches().GetVcpuStats(v);
    misses[v] = stats.underflows + stats.overflows;
    total_misses += misses[v];
  }
  TablePrinter table({"vCPU id", "misses", "share of all misses %"});
  for (int v = 0; v < alloc.cpu_caches().num_vcpus(); ++v) {
    table.AddRow({std::to_string(v), std::to_string(misses[v]),
                  FormatDouble(total_misses > 0
                                   ? 100.0 * misses[v] / total_misses
                                   : 0.0,
                               2)});
  }
  table.Print();

  double low_share = 0, high_share = 0;
  int n = alloc.cpu_caches().num_vcpus();
  for (int v = 0; v < n / 2; ++v) low_share += misses[v];
  for (int v = n / 2; v < n; ++v) high_share += misses[v];
  bench::PaperVsMeasured(
      "miss share, low-half vs high-half vCPU ids",
      "vCPU 0 highest, decaying",
      FormatDouble(100.0 * low_share / std::max<uint64_t>(total_misses, 1),
                   1) +
          "% vs " +
          FormatDouble(100.0 * high_share / std::max<uint64_t>(total_misses, 1),
                       1) +
          "%");
  std::printf(
      "\nshape check: low-indexed vCPU caches absorb most misses; the\n"
      "statically sized high-indexed caches are used inefficiently.\n");
  timer.Report(driver.metrics().requests);
  bench::ReportTelemetry(timer.bench(), alloc.TelemetrySnapshot());
  return 0;
}
