// Flagship time-series bench: a diurnal-pressure fleet observed
// longitudinally, aggregated by the streaming collector.
//
// The paper's methodology is continuous fleet telemetry (§2, Fig. 3): GWP
// samples every machine over days, and the analysis consumes per-interval
// series and fleet-wide distribution sketches, never raw per-machine data.
// This bench reproduces that pipeline end to end: machines run a diurnal
// pressure scenario (trough + antagonist spikes) with fault injection,
// Fleet::RunStreaming folds each machine into a StreamCollector the moment
// the fold cursor reaches it (memory O(metrics × intervals), independent
// of machine count — the CI stream-scaling smoke pins this via the
// peak_rss_kb/collector_peak_pending fields below), and the output is the
// per-interval fleet footprint/reclaim/failure series plus quantile-sketch
// percentiles (p50/p95/p99 footprint, alloc latency).
//
// Every BENCH_JSON timeseries/sketch line (and the --timeseries file) is
// byte-identical for any --threads value: tools/check_determinism.sh
// proves it on every CI run.

#include <cstdio>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "fleet/stream_collector.h"

using namespace wsc;

namespace {

// VmHWM (peak resident set) of this process in KiB, or 0 when
// /proc/self/status is unavailable. Feeds the CI assertion that collector
// memory does not scale with --machines.
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

// Sum of every "failure/..." counter delta in one interval.
uint64_t FailureDelta(const telemetry::IntervalSeries::Interval& interval) {
  uint64_t total = 0;
  for (const auto& [key, delta] : interval.counters) {
    if (key.rfind("failure/", 0) == 0) total += delta;
  }
  return total;
}

}  // namespace

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  PrintBanner(
      "Fleet time series: diurnal pressure, streaming aggregation, sketches");
  bench::BenchTimer timer("fig_fleet_timeseries");

  // A day-in-the-life fleet compressed onto the logical clock: the diurnal
  // trough squeezes every machine mid-run, a quarter of machines catch an
  // antagonist spike, and fault injection adds the failure series.
  fleet::FleetConfig config;
  config.num_machines = 24;
  config.num_binaries = 60;
  config.min_colocated = 1;
  config.max_colocated = 3;
  config.duration = Seconds(10);
  config.max_requests_per_process = 15000;
  config.pressure.enabled = true;
  config.faults.enabled = true;
  config.faults.oom_kill_probability = 0.15;
  bench::ApplyBenchOverrides(config);
  // This bench *is* the time-series pipeline: capture even when no
  // --timeseries file was requested.
  config.timeseries_interval = bench::kBenchTimeseriesInterval;

  fleet::Fleet f(config, tcmalloc::AllocatorConfig(), /*seed=*/20240808);
  fleet::StreamCollector collector;
  f.RunStreaming(collector);
  timer.Report(collector.total_requests());
  bench::ReportTelemetry(timer.bench(), collector.telemetry());
  bench::ReportTimeSeries(timer.bench(), collector.timeseries());

  const telemetry::IntervalSeries& series = collector.timeseries();
  EmitNdjsonLines(series.RenderNdjson(timer.bench(), /*arm=*/""));
  // Streaming bookkeeping for the CI scaling smoke. peak_rss_kb and
  // collector_peak_pending vary with the host and worker count — the
  // determinism byte-compare masks them.
  bench::BenchJson(timer.bench(), "stream")
      .Field("machines", static_cast<uint64_t>(collector.machines()))
      .Field("processes", static_cast<uint64_t>(collector.processes()))
      .Field("oom_kills", static_cast<uint64_t>(collector.oom_kills()))
      .Field("total_requests", collector.total_requests())
      .Field("failed_allocations", collector.total_failed_allocations())
      .Field("intervals", static_cast<uint64_t>(series.intervals().size()))
      .Field("collector_peak_pending",
             static_cast<uint64_t>(collector.peak_pending()))
      .Field("peak_rss_kb", PeakRssKb())
      .Emit();

  // Human view: the fleet footprint/reclaim/failure curve over logical
  // time (every interval on short CI runs, subsampled on long ones).
  TablePrinter table({"t (s)", "fleet heap (MiB)", "released (MiB)",
                      "reclaimed (MiB)", "reclaim runs", "failure events"});
  size_t stride = std::max<size_t>(1, series.intervals().size() / 16);
  for (size_t i = 0; i < series.intervals().size(); i += stride) {
    const auto& interval = series.intervals()[i];
    auto gauge = [&](const char* key) {
      auto it = interval.gauges.find(key);
      return it != interval.gauges.end() ? it->second : 0.0;
    };
    auto counter = [&](const char* key) -> uint64_t {
      auto it = interval.counters.find(key);
      return it != interval.counters.end() ? it->second : 0;
    };
    table.AddRow(
        {FormatDouble(interval.t_seconds, 1),
         FormatDouble(gauge("allocator/heap_bytes") / 1e6, 1),
         FormatDouble(gauge("allocator/released_bytes") / 1e6, 1),
         FormatDouble(
             static_cast<double>(counter("pressure/reclaimed_bytes")) / 1e6,
             1),
         std::to_string(counter("pressure/reclaim_runs")),
         std::to_string(FailureDelta(interval))});
  }
  table.Print();

  // Sketch percentiles: the Fig. 3-style fleet CDF summary, computed from
  // merged log-bucket sketches alone (no per-machine data retained).
  std::printf("\nfleet distribution sketches (merged, ~3%% relative error):\n");
  for (const auto& [name, sketch] : series.sketches()) {
    std::printf(
        "  %-28s n=%-8llu p50=%-12.0f p95=%-12.0f p99=%-12.0f max=%.0f\n",
        name.c_str(), static_cast<unsigned long long>(sketch.count()),
        sketch.Quantile(0.50), sketch.Quantile(0.95), sketch.Quantile(0.99),
        sketch.max());
  }
  std::printf(
      "\nstreaming: %d machines folded in index order, peak reorder buffer "
      "%zu machines (bounded by the window, not the fleet)\n",
      collector.machines(), collector.peak_pending());
  return 0;
}
