// Shared helpers for the bench binaries.
//
// Every bench regenerates one table or figure from the paper and prints
// the paper-reported value next to the measured value; EXPERIMENTS.md
// records the comparison. Machines run in parallel (fleet/parallel.h):
// pass --threads=N or set WSC_THREADS to control the worker count; results
// are bit-identical for every value. Fleet sizes are chosen so each bench
// finishes in about a minute on an 8-core machine.
//
// All machine-readable output flows through one schema-versioned
// serializer: each bench emits `BENCH_JSON {...}` lines (kind
// "throughput" and "telemetry") that tools/check_bench_json.py validates
// in CI, and honors --statsz=<path> to dump the merged metric registry
// (telemetry/statsz.h) of everything it simulated.
//
// Shared flags, parsed by ParseBenchFlags:
//   --threads=N       worker threads (0 = auto: WSC_THREADS, else cores)
//   --mt-threads=N    fig_mt_scaling: top of the 1..N real-thread sweep
//                     (0 = auto: min(8, hardware concurrency))
//   --machines=N      override every fleet's machine count (CI smoke: 2)
//   --duration=S      override per-process simulated run length, seconds
//   --max-requests=N  override the per-process request bound
//   --statsz=PATH     write the merged telemetry dump; ".json" suffix
//                     selects the JSON form, "-" prints text to stdout
//   --trace=PATH      attach a flight recorder to every simulated process
//                     and write the merged Chrome-tracing JSON (load it in
//                     chrome://tracing or ui.perfetto.dev)
//   --profile=PATH    write the merged pprof-style heap profile; ".json"
//                     suffix selects the JSON form (tools/mallocz.py reads
//                     it), "-" prints text to stdout
//   --timeseries=PATH capture an interval time series from every
//                     simulated process (telemetry/timeseries.h: counter
//                     and histogram deltas plus gauge samples at 500 ms
//                     logical boundaries) and write the merged fleet
//                     series as NDJSON — one kind="timeseries" object per
//                     interval plus one kind="sketch" object per quantile
//                     sketch. Captures ride the logical clock, so the file
//                     is byte-identical for any --threads value
//                     (tools/check_determinism.sh proves it).
//
// Both ParseBenchFlags and StripBenchFlags know every flag above, so
// benches that hand the remaining argv to google-benchmark (e.g.
// fig04_alloc_latency) never leak a wsc flag into its parser.

#ifndef WSC_BENCH_BENCH_UTIL_H_
#define WSC_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <map>

#include "common/table.h"
#include "fleet/experiment.h"
#include "fleet/parallel.h"
#include "telemetry/timeseries.h"
#include "telemetry/statsz.h"
#include "trace/chrome_trace.h"
#include "trace/heap_profile.h"
#include "workload/profiles.h"

namespace wsc::bench {

// Version of the BENCH_JSON line format. v1 was the ad-hoc
// throughput-only line; v2 adds schema_version/kind and telemetry lines.
inline constexpr int kBenchJsonSchemaVersion = 2;

// Thread count requested via --threads=N (0 = auto: WSC_THREADS env var,
// else hardware concurrency).
inline int g_bench_threads = 0;
// Real-threads sweep ceiling via --mt-threads=N (0 = auto).
inline int g_bench_mt_threads = 0;
// Fleet-shape overrides (0 = keep the bench's own defaults).
inline int g_bench_machines = 0;
inline double g_bench_duration_s = 0;
inline uint64_t g_bench_max_requests = 0;
// --statsz destination ("" = disabled).
inline std::string g_statsz_path;
// Merged telemetry across every ReportTelemetry call in this process;
// rewritten to g_statsz_path after each report so the file always holds
// the bench-wide aggregate.
inline telemetry::Snapshot g_statsz_accum;
// --trace / --profile destinations ("" = disabled).
inline std::string g_trace_path;
inline std::string g_profile_path;
// Flight-recorder ring capacity per process when --trace is on: 64 Ki
// 32-byte events (2 MiB) keeps the full event stream for the CI smoke
// shapes; longer runs wrap and report the dropped count in the trace
// metadata, exactly like a production flight recorder.
inline constexpr size_t kBenchTraceRingEvents = size_t{1} << 16;
// Trace and heap-profile aggregates across every report in this process,
// rewritten to their files after each report (same contract as --statsz).
// pids are remapped through g_trace_pid_base so successive fleets in one
// bench stay distinct rows in the trace viewer.
inline std::vector<trace::ProcessTrace> g_trace_accum;
inline int g_trace_pid_base = 0;
inline trace::HeapProfile g_profile_accum;
// --timeseries destination ("" = disabled) and its bench-wide aggregate,
// one merged series per arm label ("" = single-arm) so A/B benches keep
// their arms' series distinct in the NDJSON file. Rewritten after each
// report (same contract as --statsz).
inline std::string g_timeseries_path;
inline std::map<std::string, telemetry::IntervalSeries> g_timeseries_accum;
// Time-series capture cadence on the logical clock when --timeseries is
// on: matches the machine footprint-sampling period, so every footprint
// sample lands in exactly one interval.
inline constexpr SimTime kBenchTimeseriesInterval = Milliseconds(500);

// One row per shared flag: the "--name=" prefix and the setter that
// consumes its value. Parse and Strip both walk this table, so a flag
// added here is automatically recognized by both — there is no way for a
// new wsc flag to be parsed but leak through StripBenchFlags into another
// parser (google-benchmark rejects unknown flags fatally).
struct BenchFlag {
  const char* prefix;
  void (*apply)(const char* value);
};

inline constexpr BenchFlag kBenchFlags[] = {
    {"--threads=", [](const char* v) { g_bench_threads = std::atoi(v); }},
    {"--mt-threads=",
     [](const char* v) { g_bench_mt_threads = std::atoi(v); }},
    {"--machines=", [](const char* v) { g_bench_machines = std::atoi(v); }},
    {"--duration=", [](const char* v) { g_bench_duration_s = std::atof(v); }},
    {"--max-requests=",
     [](const char* v) {
       g_bench_max_requests = static_cast<uint64_t>(std::atoll(v));
     }},
    {"--statsz=", [](const char* v) { g_statsz_path = v; }},
    {"--trace=", [](const char* v) { g_trace_path = v; }},
    {"--profile=", [](const char* v) { g_profile_path = v; }},
    {"--timeseries=", [](const char* v) { g_timeseries_path = v; }},
};

// The flag row matching `arg`, or nullptr if it is not a wsc bench flag.
inline const BenchFlag* MatchBenchFlag(const char* arg) {
  for (const BenchFlag& flag : kBenchFlags) {
    if (std::strncmp(arg, flag.prefix, std::strlen(flag.prefix)) == 0) {
      return &flag;
    }
  }
  return nullptr;
}

// Parses shared bench flags from main's argv (unknown flags are left for
// the bench to interpret).
inline void ParseBenchFlags(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (const BenchFlag* flag = MatchBenchFlag(argv[i])) {
      flag->apply(argv[i] + std::strlen(flag->prefix));
    }
  }
}

// Removes the wsc bench flags from argv (in place, updating argc) so the
// remainder can be handed to another flag parser (google-benchmark).
inline void StripBenchFlags(int* argc, char** argv) {
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    if (MatchBenchFlag(argv[i]) != nullptr) continue;
    argv[out++] = argv[i];
  }
  *argc = out;
}

// Simulated duration for a machine run: the bench's default unless
// --duration overrides it.
inline SimTime BenchDuration(SimTime default_duration) {
  if (g_bench_duration_s > 0) return Seconds(g_bench_duration_s);
  return default_duration;
}

// Per-process request bound: the bench's default unless --max-requests
// overrides it.
inline uint64_t BenchMaxRequests(uint64_t default_max) {
  return g_bench_max_requests > 0 ? g_bench_max_requests : default_max;
}

// Applies the shared command-line overrides to a hand-rolled fleet shape.
// Benches call this after filling in their own defaults, so CI can shrink
// any fleet to --machines=2 --max-requests=... without per-bench knobs.
inline void ApplyBenchOverrides(fleet::FleetConfig& config) {
  if (g_bench_machines > 0) config.num_machines = g_bench_machines;
  if (g_bench_duration_s > 0) config.duration = Seconds(g_bench_duration_s);
  if (g_bench_max_requests > 0) {
    config.max_requests_per_process = g_bench_max_requests;
  }
  config.num_threads = g_bench_threads;
  if (!g_trace_path.empty()) {
    config.trace_events_per_process = kBenchTraceRingEvents;
  }
  if (!g_timeseries_path.empty()) {
    config.timeseries_interval = kBenchTimeseriesInterval;
  }
}

// Standard fleet shape used by the fleet-wide benches. Sized for parallel
// execution: 12 machines keep 8 workers busy while staying close to the
// old 6-machine sequential wall clock on a single core.
inline fleet::FleetConfig DefaultFleet() {
  fleet::FleetConfig config;
  config.num_machines = 12;
  config.num_binaries = 40;
  config.min_colocated = 1;
  config.max_colocated = 2;
  config.duration = Seconds(18);
  config.max_requests_per_process = 110000;
  ApplyBenchOverrides(config);
  return config;
}

// Chiplet-only fleet (for the NUCA experiments, which the paper runs on
// platforms with multiple LLC domains).
inline fleet::FleetConfig ChipletFleet() {
  fleet::FleetConfig config = DefaultFleet();
  config.platform_mix = {0.0, 0.0, 0.4, 0.35, 0.25};
  return config;
}

// Writes `body` to `path` ("-" prints to stdout). Shared by the --trace
// and --profile rewrites.
inline void WriteBenchFile(const std::string& path, const std::string& body) {
  if (path == "-") {
    std::fputs(body.c_str(), stdout);
    return;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot write %s\n", path.c_str());
    return;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
}

// Folds per-process traces and a merged heap profile into the bench-wide
// aggregates and rewrites the --trace/--profile files, so (like --statsz)
// the final write holds everything the bench simulated. Incoming traces
// are machine-index ordered and pids are remapped past everything already
// accumulated, so successive fleets stay distinct viewer rows and the
// files are bit-identical for any --threads value.
inline void ReportTraceAndProfile(std::vector<trace::ProcessTrace> traces,
                                  const trace::HeapProfile& profile) {
  if (!g_trace_path.empty() && !traces.empty()) {
    int next_base = g_trace_pid_base;
    for (trace::ProcessTrace& t : traces) {
      t.pid += g_trace_pid_base;
      next_base = std::max(next_base, t.pid + 1);
      g_trace_accum.push_back(std::move(t));
    }
    g_trace_pid_base = next_base;
    WriteBenchFile(g_trace_path, trace::RenderChromeTrace(g_trace_accum));
  }
  if (!g_profile_path.empty()) {
    g_profile_accum.MergeFrom(profile);
    bool json = g_profile_path.size() >= 5 &&
                g_profile_path.compare(g_profile_path.size() - 5, 5,
                                       ".json") == 0;
    WriteBenchFile(g_profile_path,
                   json ? trace::RenderHeapProfileJson(g_profile_accum)
                        : trace::RenderHeapProfileText(g_profile_accum));
  }
}

// Folds a merged interval series into the bench-wide aggregate for its
// arm ("" = single-arm) and rewrites the --timeseries NDJSON file: arms in
// map order, each as interval lines followed by sketch lines. Everything
// in the file derives from the logical clock and sorted maps, so it is
// byte-identical for any --threads value.
inline void ReportTimeSeries(const std::string& bench,
                             const telemetry::IntervalSeries& series,
                             const char* arm = nullptr) {
  if (g_timeseries_path.empty() || series.empty()) return;
  std::string label = arm != nullptr ? arm : "";
  g_timeseries_accum[label].MergeFrom(series);
  std::string body;
  for (const auto& [name, merged] : g_timeseries_accum) {
    body += merged.RenderNdjson(bench, name);
  }
  WriteBenchFile(g_timeseries_path, body);
}

// Trace/profile of a set of fleet observations.
inline void ReportTraceAndProfile(
    const std::vector<fleet::FleetObservation>& observations) {
  if (g_trace_path.empty() && g_profile_path.empty()) return;
  ReportTraceAndProfile(fleet::MergedTrace(observations),
                        fleet::MergedHeapProfile(observations));
}

// Trace/profile of one machine run (pid = next free viewer row, tid =
// process index within the machine).
inline void ReportTraceAndProfile(
    const std::vector<fleet::ProcessResult>& results) {
  if (g_trace_path.empty() && g_profile_path.empty()) return;
  std::vector<trace::ProcessTrace> traces;
  trace::HeapProfile profile;
  for (size_t i = 0; i < results.size(); ++i) {
    traces.push_back({0, static_cast<int>(i), results[i].trace});
    profile.MergeFrom(results[i].heap_profile);
  }
  ReportTraceAndProfile(std::move(traces), profile);
}

// Builder for one `BENCH_JSON {...}` line. Every bench emission goes
// through this class, so all lines share the v2 schema:
//   {"schema_version":2,"bench":...,"kind":...,"threads":...,<fields>}
class BenchJson {
 public:
  BenchJson(const std::string& bench, const char* kind) {
    out_ = "{\"schema_version\":";
    out_ += std::to_string(kBenchJsonSchemaVersion);
    out_ += ",\"bench\":\"";
    telemetry::AppendJsonEscaped(out_, bench);
    out_ += "\",\"kind\":\"";
    telemetry::AppendJsonEscaped(out_, kind);
    out_ += "\",\"threads\":";
    out_ += std::to_string(fleet::ResolveThreadCount(g_bench_threads));
  }

  BenchJson& Field(const char* name, double v) {
    AppendKey(name);
    out_ += telemetry::FormatJsonNumber(v);
    return *this;
  }
  BenchJson& Field(const char* name, uint64_t v) {
    AppendKey(name);
    out_ += std::to_string(v);
    return *this;
  }
  BenchJson& Field(const char* name, const std::string& v) {
    AppendKey(name);
    out_ += "\"";
    telemetry::AppendJsonEscaped(out_, v);
    out_ += "\"";
    return *this;
  }

  // Flat {"component/name": scalar, ...} object over a snapshot's
  // samples (histograms contribute their observation count).
  BenchJson& Metrics(const telemetry::Snapshot& snapshot) {
    AppendKey("metrics");
    out_ += "{";
    bool first = true;
    for (const telemetry::MetricSample& s : snapshot.samples) {
      if (!first) out_ += ",";
      first = false;
      out_ += "\"";
      telemetry::AppendJsonEscaped(out_, s.Key());
      out_ += "\":";
      out_ += telemetry::FormatJsonNumber(s.ScalarValue());
    }
    out_ += "}";
    return *this;
  }

  void Emit() const { std::printf("BENCH_JSON %s}\n", out_.c_str()); }

 private:
  void AppendKey(const char* name) {
    out_ += ",\"";
    out_ += name;
    out_ += "\":";
  }

  std::string out_;
};

// Emits one kind="telemetry" line for `snapshot` and folds it into the
// --statsz aggregate (rewriting the statsz file, so the final write holds
// everything the bench reported). `arm` labels A/B sides.
inline void ReportTelemetry(const std::string& bench,
                            const telemetry::Snapshot& snapshot,
                            const char* arm = nullptr) {
  BenchJson line(bench, "telemetry");
  if (arm != nullptr) line.Field("arm", std::string(arm));
  line.Field("schema_telemetry", static_cast<uint64_t>(
                                     snapshot.schema_version));
  line.Metrics(snapshot);
  line.Emit();
  g_statsz_accum.MergeFrom(snapshot);
  if (!g_statsz_path.empty()) {
    telemetry::WriteStatszFile(g_statsz_path, g_statsz_accum);
  }
}

// Telemetry of a set of fleet observations (merged in machine-index
// order).
inline void ReportTelemetry(
    const std::string& bench,
    const std::vector<fleet::FleetObservation>& observations,
    const char* arm = nullptr) {
  ReportTelemetry(bench, fleet::MergedTelemetry(observations), arm);
  ReportTimeSeries(bench, fleet::MergedTimeSeries(observations), arm);
  ReportTraceAndProfile(observations);
}

// Telemetry of one machine run (merged across its co-located processes).
inline void ReportTelemetry(const std::string& bench,
                            const std::vector<fleet::ProcessResult>& results,
                            const char* arm = nullptr) {
  telemetry::Snapshot merged;
  telemetry::IntervalSeries series;
  for (const fleet::ProcessResult& r : results) {
    merged.MergeFrom(r.telemetry);
    series.MergeFrom(r.timeseries);
  }
  ReportTelemetry(bench, merged, arm);
  ReportTimeSeries(bench, series, arm);
  ReportTraceAndProfile(results);
}

// Telemetry of both arms of an A/B delta (two lines).
inline void ReportTelemetry(const std::string& bench,
                            const fleet::AbDelta& delta) {
  ReportTelemetry(bench, delta.control_telemetry, "control");
  ReportTelemetry(bench, delta.experiment_telemetry, "experiment");
  ReportTimeSeries(bench, delta.control_timeseries, "control");
  ReportTimeSeries(bench, delta.experiment_timeseries, "experiment");
}

// Telemetry of a fleet A/B result's fleet-wide slice.
inline void ReportTelemetry(const std::string& bench,
                            const fleet::AbResult& result) {
  ReportTelemetry(bench, result.fleet);
}

// Wall-clock throughput reporting: each bench prints one machine-readable
// BENCH_JSON line so the perf trajectory across PRs can be tracked by
// grepping bench output.
class BenchTimer {
 public:
  explicit BenchTimer(std::string bench)
      : bench_(std::move(bench)),
        start_(std::chrono::steady_clock::now()) {}

  const std::string& bench() const { return bench_; }

  // Reports simulated requests completed per real second. Call once, after
  // the simulation work is done.
  void Report(uint64_t sim_requests) const {
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
    BenchJson(bench_, "throughput")
        .Field("sim_requests", sim_requests)
        .Field("wall_seconds", wall)
        .Field("sim_requests_per_sec",
               wall > 0 ? static_cast<double>(sim_requests) / wall : 0.0)
        .Emit();
  }

 private:
  std::string bench_;
  std::chrono::steady_clock::time_point start_;
};

// Simulated requests in a set of fleet observations.
inline uint64_t TotalRequests(
    const std::vector<fleet::FleetObservation>& observations) {
  uint64_t total = 0;
  for (const fleet::FleetObservation& obs : observations) {
    total += obs.result.driver.requests;
  }
  return total;
}

// Simulated requests across both arms of an A/B result.
inline uint64_t TotalRequests(const fleet::AbResult& result) {
  return static_cast<uint64_t>(result.fleet.control.requests +
                               result.fleet.experiment.requests);
}

// Dedicated-server benchmark runs (Section 2.3): one workload per machine.
inline fleet::AbDelta BenchmarkAb(const workload::WorkloadSpec& spec,
                                  const tcmalloc::AllocatorConfig& control,
                                  const tcmalloc::AllocatorConfig& experiment,
                                  uint64_t seed) {
  return fleet::RunBenchmarkAb(
      spec, hw::PlatformSpecFor(hw::PlatformGeneration::kGenD), control,
      experiment, seed, BenchDuration(Seconds(18)),
      BenchMaxRequests(150000));
}

// A packing-stress workload: load waves plus mixed lifetimes *within* size
// classes, so spans get pinned and drained — the regime where the central
// free list and hugepage filler policies matter.
inline workload::WorkloadSpec PackingStressSpec() {
  using namespace workload;
  WorkloadSpec spec;
  spec.name = "packing-stress";
  spec.behaviors = {
      MakeBehavior(0.55, SizeLognormal(64, 2.5),
                   LifetimeLognormal(Microseconds(300), 4.0)),
      MakeBehavior(0.05, SizeLognormal(256, 3.0),
                   LifetimeLognormal(Seconds(5), 4.0)),
      MakeBehavior(0.25, SizeLognormal(4096, 2.0),
                   LifetimeLognormal(Milliseconds(30), 4.0)),
      MakeBehavior(0.05, SizeLognormal(4096, 2.0),
                   LifetimeLognormal(Seconds(4), 3.0)),
      MakeBehavior(0.08, SizeLognormal(64 * 1024, 2.0),
                   LifetimeLognormal(Milliseconds(60), 3.0)),
      MakeBehavior(0.02, SizeLognormal(512 * 1024, 1.5),
                   LifetimeLognormal(Milliseconds(100), 2.0)),
  };
  spec.allocs_per_request = 10;
  spec.request_work_ns = 4000;
  spec.request_interval_ns = Milliseconds(1);
  spec.touches_per_alloc = 2;
  spec.reuse_touches_per_request = 10;
  spec.min_threads = 2;
  spec.max_threads = 24;
  spec.thread_period = Seconds(8);
  spec.startup_bytes = 50e6;
  spec.startup_object_size = SizeLognormal(256, 2.0);
  return spec;
}

// Renders one A/B delta row: app, throughput, memory, CPI changes.
inline std::vector<std::string> DeltaRow(const fleet::AbDelta& delta) {
  return {delta.label, FormatSignedPercent(delta.ThroughputChangePct()),
          FormatSignedPercent(delta.MemoryChangePct()),
          FormatSignedPercent(delta.CpiChangePct())};
}

// Prints the standard "paper vs measured" line.
inline void PaperVsMeasured(const char* what, const char* paper,
                            const std::string& measured) {
  std::printf("  %-46s paper: %-14s measured: %s\n", what, paper,
              measured.c_str());
}

}  // namespace wsc::bench

#endif  // WSC_BENCH_BENCH_UTIL_H_
