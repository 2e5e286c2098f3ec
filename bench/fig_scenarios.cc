// Traffic-scenario bench: Fig. 3 sketch CDFs under planet-scale load
// shapes.
//
// The paper's fleet numbers average over traffic that is anything but
// stationary (§2): load follows the sun, releases roll across the fleet
// in waves, and co-located neighbors churn caches. This bench points the
// streaming sketch pipeline (StreamCollector only, per the Fig. 3
// methodology — no per-machine data retained) at each named traffic
// scenario in turn: diurnal curves with regional phase shifts, a flash
// crowd on one region, a rolling deploy wave (exercising Machine's arena
// slot recycling), and antagonist co-location.
//
// Every BENCH_JSON line and the --timeseries sidecar are byte-identical
// for any --threads value: tools/check_determinism.sh byte-compares the
// full output at --threads=1 vs 8 on every CI run, and the CI
// scenario-matrix job runs each preset as its own leg.
//
// Usage: fig_scenarios [--scenario=NAME] [bench flags]. Without
// --scenario, all four presets run as arms of one bench.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "fleet/stream_collector.h"

using namespace wsc;

namespace {

// VmHWM (peak resident set) of this process in KiB, or 0 when
// /proc/self/status is unavailable. Varies with the host; the determinism
// byte-compare masks it.
uint64_t PeakRssKb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  uint64_t kb = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = static_cast<uint64_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(f);
  return kb;
}

// Prefixes every NDJSON line with "BENCH_JSON " for stdout emission.
void EmitNdjsonLines(const std::string& ndjson) {
  size_t start = 0;
  while (start < ndjson.size()) {
    size_t end = ndjson.find('\n', start);
    if (end == std::string::npos) end = ndjson.size();
    std::fputs("BENCH_JSON ", stdout);
    std::fwrite(ndjson.data() + start, 1, end - start, stdout);
    std::fputc('\n', stdout);
    start = end + 1;
  }
}

// One scenario leg: a compact fleet under the named traffic shape,
// aggregated by the streaming collector. Returns the leg's request count
// for the bench-wide throughput line.
uint64_t RunScenario(const std::string& bench, const std::string& name) {
  fleet::FleetConfig config;
  config.num_machines = 12;
  config.num_binaries = 40;
  config.min_colocated = 1;
  config.max_colocated = 2;
  config.duration = Seconds(6);
  config.max_requests_per_process = 8000;
  config.scenario = fleet::ScenarioByName(name);
  bench::ApplyBenchOverrides(config);
  // This bench *is* the sketch pipeline: capture even when no --timeseries
  // file was requested.
  config.timeseries_interval = bench::kBenchTimeseriesInterval;

  fleet::Fleet f(config, tcmalloc::AllocatorConfig(), /*seed=*/20240808);
  fleet::StreamCollector collector;
  f.RunStreaming(collector);
  bench::ReportTelemetry(bench, collector.telemetry(), name.c_str());
  bench::ReportTimeSeries(bench, collector.timeseries(), name.c_str());

  const telemetry::IntervalSeries& series = collector.timeseries();
  EmitNdjsonLines(series.RenderNdjson(bench, /*arm=*/name));
  // Scenario bookkeeping: every field here is deterministic across
  // --threads values (peak_rss_kb / peak_pending stay out on purpose).
  bench::BenchJson(bench, "scenario")
      .Field("scenario", name)
      .Field("machines", static_cast<uint64_t>(collector.machines()))
      .Field("processes", static_cast<uint64_t>(collector.processes()))
      .Field("total_requests", collector.total_requests())
      .Field("oom_kills", static_cast<uint64_t>(collector.oom_kills()))
      .Field("deploy_restarts",
             static_cast<uint64_t>(collector.deploy_restarts()))
      .Field("antagonists", static_cast<uint64_t>(collector.antagonists()))
      .Field("failed_allocations", collector.total_failed_allocations())
      .Field("intervals", static_cast<uint64_t>(series.intervals().size()))
      .Emit();

  // The Fig. 3 view: fleet CDF percentiles under this traffic shape,
  // computed from merged log-bucket sketches alone.
  std::printf("\n%s: fleet sketches (merged, ~3%% relative error)\n",
              name.c_str());
  for (const auto& [sketch_name, sketch] : series.sketches()) {
    std::printf(
        "  %-28s n=%-8llu p50=%-12.0f p95=%-12.0f p99=%-12.0f max=%.0f\n",
        sketch_name.c_str(), static_cast<unsigned long long>(sketch.count()),
        sketch.Quantile(0.50), sketch.Quantile(0.95), sketch.Quantile(0.99),
        sketch.max());
  }
  std::printf(
      "  %d machines, %d processes, %d deploy restarts, %d antagonists, "
      "peak rss %llu KiB\n",
      collector.machines(), collector.processes(),
      collector.deploy_restarts(), collector.antagonists(),
      static_cast<unsigned long long>(PeakRssKb()));
  return collector.total_requests();
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  // --scenario=NAME narrows the run to one preset (the CI matrix legs);
  // ParseBenchFlags leaves flags it does not know for us.
  std::string only;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--scenario=", 11) == 0) only = argv[i] + 11;
  }
  PrintBanner("Traffic scenarios: Fig. 3 sketch CDFs per load shape");
  bench::BenchTimer timer("fig_scenarios");

  std::vector<std::string> names =
      only.empty() ? fleet::ScenarioNames() : std::vector<std::string>{only};
  uint64_t total_requests = 0;
  for (const std::string& name : names) {
    total_requests += RunScenario(timer.bench(), name);
  }
  timer.Report(total_requests);
  return 0;
}
