// Fig. 8: distribution of object lifetime by object size, weighted by
// sampled allocations — fleet vs SPEC CPU2006.
//
// Paper: fleet lifetimes are extremely diverse (within one size range,
// from < 1 ms to > 7 days); ~46% of objects < 1 KiB live under 1 ms; large
// objects skew long-lived. SPEC benchmarks show a bimodal
// program-lifetime-or-instant pattern, making them unsuitable for
// allocator studies. (Simulation timescales are compressed: virtual
// seconds stand in for production hours; the *relative* structure is the
// reproduction target.)

#include <cmath>
#include <cstdio>

#include "bench/bench_util.h"
#include "fleet/machine.h"
#include "tcmalloc/sampler.h"

using namespace wsc;

namespace {

uint64_t g_sim_requests = 0;
telemetry::Snapshot g_telemetry;

tcmalloc::LifetimeProfile CollectProfile(
    const std::vector<workload::WorkloadSpec>& specs, uint64_t seed) {
  tcmalloc::LifetimeProfile profile;
  for (const auto& spec : specs) {
    fleet::Machine machine(
        hw::PlatformSpecFor(hw::PlatformGeneration::kGenD), {spec},
        tcmalloc::AllocatorConfig(), seed++);
    machine.Run(wsc::bench::BenchDuration(Seconds(12)),
                wsc::bench::BenchMaxRequests(60000));
    machine.driver(0).Drain();  // finalize censored lifetimes
    profile.Merge(machine.allocator(0).sampler().profile());
    g_sim_requests += machine.results()[0].driver.requests;
    g_telemetry.MergeFrom(machine.results()[0].telemetry);
    wsc::bench::ReportProfile(machine.results());
  }
  return profile;
}

void PrintProfile(const char* label,
                  const tcmalloc::LifetimeProfile& profile) {
  std::printf("\n%s (sampled allocations: %llu)\n", label,
              static_cast<unsigned long long>(profile.all_lifetimes.count()));
  TablePrinter table({"object size bucket", "samples", "p25 life", "p50 life",
                      "p99 life", "% < 1ms"});
  for (int b = 0; b < tcmalloc::LifetimeProfile::kSizeBuckets; ++b) {
    const LogHistogram& h = profile.lifetime_by_size[b];
    if (h.count() < 5) continue;
    auto fmt_ns = [](double ns) {
      if (ns < 1e3) return FormatDouble(ns, 0) + "ns";
      if (ns < 1e6) return FormatDouble(ns / 1e3, 1) + "us";
      if (ns < 1e9) return FormatDouble(ns / 1e6, 1) + "ms";
      return FormatDouble(ns / 1e9, 2) + "s";
    };
    table.AddRow(
        {"<= " + FormatBytes(std::pow(2.0, b)), std::to_string(h.count()),
         fmt_ns(h.Quantile(0.25)), fmt_ns(h.Quantile(0.5)),
         fmt_ns(h.Quantile(0.99)),
         FormatDouble(100.0 * h.FractionBelow(1e6), 1)});
  }
  table.Print();
}

// Fraction of sampled objects below `size_limit` bytes whose lifetime is
// under `ns`.
double SmallShortFraction(const tcmalloc::LifetimeProfile& profile,
                          size_t size_limit, double ns) {
  double below = 0, total = 0;
  for (int b = 0; b < tcmalloc::LifetimeProfile::kSizeBuckets; ++b) {
    if ((size_t{1} << b) > size_limit) break;
    const LogHistogram& h = profile.lifetime_by_size[b];
    below += h.FractionBelow(ns) * h.total_weight();
    total += h.total_weight();
  }
  return total > 0 ? below / total : 0;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  PrintBanner("Fig. 8: object lifetime x size distribution");
  bench::BenchTimer timer("fig08_lifetimes");

  std::vector<workload::WorkloadSpec> fleet_specs =
      workload::TopFiveProfiles();
  for (const auto& s : workload::BenchmarkProfiles()) {
    fleet_specs.push_back(s);
  }
  tcmalloc::LifetimeProfile fleet = CollectProfile(fleet_specs, 800);
  PrintProfile("fleet workloads", fleet);

  tcmalloc::LifetimeProfile spec_profile =
      CollectProfile({workload::SpecLikeProfile()}, 900);
  PrintProfile("SPEC CPU2006-like", spec_profile);

  std::printf("\n");
  bench::PaperVsMeasured(
      "small (<1 KiB) objects living < 1 ms", "46%",
      FormatDouble(100.0 * SmallShortFraction(fleet, 1024, 1e6), 1) + "%");
  double spread_fleet = fleet.all_lifetimes.Quantile(0.99) /
                        std::max(1.0, fleet.all_lifetimes.Quantile(0.01));
  double spread_spec =
      spec_profile.all_lifetimes.Quantile(0.99) /
      std::max(1.0, spec_profile.all_lifetimes.Quantile(0.01));
  bench::PaperVsMeasured("lifetime diversity (p99/p01), fleet vs SPEC",
                         "fleet >> SPEC-bimodal",
                         FormatDouble(spread_fleet, 0) + "x vs " +
                             FormatDouble(spread_spec, 0) + "x");
  std::printf(
      "\nshape check: fleet lifetimes span many orders of magnitude within\n"
      "each size bucket; the SPEC-like workload is bimodal (instant or\n"
      "program lifetime), echoing the paper's argument that SPEC is\n"
      "unsuitable for allocator evaluation.\n");
  timer.Report(g_sim_requests);
  bench::ReportTelemetry(timer.bench(), g_telemetry);
  return 0;
}
