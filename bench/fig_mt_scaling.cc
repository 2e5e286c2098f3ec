// Fig. MT: allocation-throughput scaling under real concurrency.
//
// Every other bench drives the deterministic discrete-event simulator;
// this one drives the real-concurrency allocator in tcmalloc/real_threads.h
// on real memory with a pool of OS threads and sweeps 1 -> --mt-threads,
// reporting per-point throughput, speedup over the single-thread point,
// and a hardware-normalized scaling efficiency:
//
//   efficiency(N) = (ops_per_sec(N) / ops_per_sec(1)) / min(N, cores)
//
// Perfect scaling is 1.0 up to the core count; oversubscribed points
// (N > cores) are normalized by the core count, so a 1-core CI box still
// produces a meaningful, gateable number (~ops(N)/ops(1)) instead of a
// vacuously failing 1/N. The final BENCH_JSON throughput line carries the
// max-thread efficiency; bench/baselines/fig_mt_scaling.json gates it
// (scaling_efficiency is higher-is-better in check_bench_regression.py).
//
// The workload is a cross-thread alloc/free storm: a lognormal-ish size
// mix over the small classes plus rare page-heap-sized requests, a
// per-thread live window with randomized lifetimes, and a lock-free SPSC
// handoff ring to the neighbor thread so a steady fraction of frees are
// remote — the pattern that makes unsharded middle ends collapse.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "tcmalloc/real_threads.h"

namespace {

using wsc::Rng;
using wsc::tcmalloc::AllocatorConfig;
using wsc::tcmalloc::RealThreadCache;
using wsc::tcmalloc::RealThreadsAllocator;

constexpr char kBench[] = "fig_mt_scaling";
// Every line's "exec" field: check_bench_json.py validates real-threads
// telemetry against the contention component.
constexpr char kExec[] = "real-threads";

// Live-window objects per thread; randomized replacement gives mixed
// lifetimes within and across size classes.
constexpr size_t kWindow = 512;

// One in kHandoffPeriod allocations is freed by the neighbor thread.
constexpr uint64_t kHandoffPeriod = 16;

// Each sweep point reports its best-of-kRepetitions throughput: wall
// clock on shared CI boxes is bursty, and the max is the standard
// scheduler-noise filter for scaling sweeps. Op counts are per run, so
// the reported sim_requests stays deterministic.
constexpr int kRepetitions = 3;

AllocatorConfig StormConfig() {
  return AllocatorConfig::Builder().WithVcpus(8).WithRealMemory().Build();
}

// Cheap deterministic size mix: mostly sub-KiB, a mid and a large small
// class band, and ~0.4% page-heap-sized requests. Sampling must cost far
// less than the allocator or the sweep measures the RNG.
uint32_t SampleSize(Rng& rng) {
  uint64_t r = rng.Next();
  uint32_t p = static_cast<uint32_t>(r % 1000);
  uint32_t v = static_cast<uint32_t>(r >> 10);
  if (p < 700) return 16 + v % 112;                   // 16 B .. 128 B
  if (p < 920) return 256 + v % 1792;                 // 256 B .. 2 KiB
  if (p < 996) return 4096 + v % 28672;               // 4 KiB .. 32 KiB
  return 300 * 1024 + v % (200 * 1024);               // page-heap sized
}

// Lock-free SPSC ring carrying (addr, size) from thread i to thread
// (i+1) % N. Producer and consumer indices live on their own cache lines.
struct HandoffRing {
  struct Entry {
    uintptr_t addr = 0;
    uint32_t size = 0;
  };
  static constexpr uint32_t kCap = 1024;  // power of two

  alignas(64) std::atomic<uint32_t> tail{0};  // written by producer
  alignas(64) std::atomic<uint32_t> head{0};  // written by consumer
  std::array<Entry, kCap> slots;

  bool Push(Entry e) {
    uint32_t t = tail.load(std::memory_order_relaxed);
    if (t - head.load(std::memory_order_acquire) == kCap) return false;
    slots[t & (kCap - 1)] = e;
    tail.store(t + 1, std::memory_order_release);
    return true;
  }
  bool Pop(Entry* e) {
    uint32_t h = head.load(std::memory_order_relaxed);
    if (h == tail.load(std::memory_order_acquire)) return false;
    *e = slots[h & (kCap - 1)];
    head.store(h + 1, std::memory_order_release);
    return true;
  }
};

void StormWorker(RealThreadsAllocator& alloc, int tid, int nthreads,
                 uint64_t ops, std::vector<HandoffRing>& rings) {
  RealThreadCache* tc = alloc.RegisterThread();
  Rng rng(0x5ca11ab1eULL ^ (0x9e3779b97f4a7c15ULL * (tid + 1)));
  std::vector<std::pair<uintptr_t, uint32_t>> window;
  window.reserve(kWindow);
  HandoffRing* out = nthreads > 1 ? &rings[tid] : nullptr;
  HandoffRing* in =
      nthreads > 1 ? &rings[(tid + nthreads - 1) % nthreads] : nullptr;

  for (uint64_t op = 0; op < ops; ++op) {
    uint32_t size = SampleSize(rng);
    uintptr_t addr = alloc.Allocate(tc, size);
    if (out != nullptr && op % kHandoffPeriod == 0) {
      if (!out->Push({addr, size})) alloc.Free(tc, addr, size);
    } else if (window.size() < kWindow) {
      window.emplace_back(addr, size);
    } else {
      size_t slot = rng.UniformInt(kWindow);
      std::pair<uintptr_t, uint32_t> old = window[slot];
      window[slot] = {addr, size};
      alloc.Free(tc, old.first, old.second);
    }
    if (in != nullptr && (op & 7) == 0) {
      HandoffRing::Entry e;
      for (int i = 0; i < 4 && in->Pop(&e); ++i) {
        alloc.Free(tc, e.addr, e.size);
      }
    }
  }
  for (const auto& [addr, size] : window) alloc.Free(tc, addr, size);
}

struct SweepPoint {
  int threads = 0;
  uint64_t ops = 0;
  double wall_seconds = 0;
  double ops_per_sec = 0;
};

// Runs one sweep point against a fresh allocator; returns the quiescent
// telemetry so the last point's contention profile can be reported.
SweepPoint RunPoint(int nthreads, uint64_t ops_per_thread,
                        wsc::telemetry::Snapshot* telemetry) {
  AllocatorConfig config = StormConfig();
  RealThreadsAllocator alloc(config, nthreads);
  std::vector<HandoffRing> rings(nthreads);

  auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(nthreads);
  for (int tid = 0; tid < nthreads; ++tid) {
    pool.emplace_back(StormWorker, std::ref(alloc), tid, nthreads,
                      ops_per_thread, std::ref(rings));
  }
  for (std::thread& t : pool) t.join();
  double wall = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - start)
                    .count();

  // Drain handoff entries that were in flight when their consumer
  // finished, so the telemetry shows a fully-freed heap.
  RealThreadCache* main_tc = alloc.RegisterThread();
  for (HandoffRing& ring : rings) {
    HandoffRing::Entry e;
    while (ring.Pop(&e)) alloc.Free(main_tc, e.addr, e.size);
  }

  *telemetry = alloc.TelemetrySnapshot();
  SweepPoint point;
  point.threads = nthreads;
  point.ops = ops_per_thread * static_cast<uint64_t>(nthreads);
  point.wall_seconds = wall;
  point.ops_per_sec =
      wall > 0 ? static_cast<double>(point.ops) / wall : 0.0;
  return point;
}

void ReportTelemetryLine(const wsc::telemetry::Snapshot& snapshot) {
  wsc::bench::BenchJson line(kBench, "telemetry");
  line.Field("exec", kExec);
  line.Field("schema_telemetry",
             static_cast<uint64_t>(snapshot.schema_version));
  line.Metrics(snapshot);
  line.Emit();
  wsc::bench::g_statsz_accum.MergeFrom(snapshot);
  if (!wsc::bench::g_statsz_path.empty()) {
    wsc::telemetry::WriteStatszFile(wsc::bench::g_statsz_path,
                                    wsc::bench::g_statsz_accum);
  }
}

}  // namespace

int main(int argc, char** argv) {
  wsc::bench::ParseBenchFlags(argc, argv);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const int max_threads =
      wsc::bench::g_bench_mt_threads > 0
          ? wsc::bench::g_bench_mt_threads
          : static_cast<int>(std::min(8u, std::max(2u, hw)));
  const uint64_t ops_per_thread = wsc::bench::BenchMaxRequests(200000);

  std::vector<int> sweep;
  for (int n = 1; n < max_threads; n *= 2) sweep.push_back(n);
  sweep.push_back(max_threads);

  std::printf("Allocation throughput scaling, real threads "
              "(%d hardware thread(s))\n",
              hw);

  std::vector<SweepPoint> points;
  wsc::telemetry::Snapshot telemetry;
  uint64_t total_ops = 0;
  double total_wall = 0;
  for (int n : sweep) {
    SweepPoint best;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      SweepPoint point = RunPoint(n, ops_per_thread, &telemetry);
      if (rep == 0 || point.ops_per_sec > best.ops_per_sec) best = point;
    }
    points.push_back(best);
    total_ops += best.ops;
    total_wall += best.wall_seconds;
  }

  double base = points.front().ops_per_sec;
  for (const SweepPoint& point : points) {
    double speedup = base > 0 ? point.ops_per_sec / base : 0.0;
    double efficiency =
        speedup / std::min<double>(point.threads, static_cast<double>(hw));
    std::printf("  %2d thread(s): %11.0f ops/s  speedup %5.2fx  "
                "efficiency %.3f\n",
                point.threads, point.ops_per_sec, speedup, efficiency);
    wsc::bench::BenchJson(kBench, "throughput")
        .Field("exec", kExec)
        .Field("mt_threads", static_cast<uint64_t>(point.threads))
        .Field("sim_requests", point.ops)
        .Field("wall_seconds", point.wall_seconds)
        .Field("sim_requests_per_sec", point.ops_per_sec)
        .Field("speedup", speedup)
        .Field("scaling_efficiency", efficiency)
        .Emit();
  }

  // Summary line last: check_bench_regression.py keys sim_requests and
  // scaling_efficiency off the final throughput line. sim_requests is the
  // deterministic sweep-wide op count; efficiency is the max-thread
  // point's.
  const SweepPoint& top = points.back();
  double top_speedup = base > 0 ? top.ops_per_sec / base : 0.0;
  double top_efficiency =
      top_speedup / std::min<double>(top.threads, static_cast<double>(hw));
  wsc::bench::BenchJson(kBench, "throughput")
      .Field("exec", kExec)
      .Field("mt_threads", static_cast<uint64_t>(top.threads))
      .Field("hw_concurrency", static_cast<uint64_t>(hw))
      .Field("sim_requests", total_ops)
      .Field("wall_seconds", total_wall)
      .Field("sim_requests_per_sec",
             total_wall > 0 ? static_cast<double>(total_ops) / total_wall
                            : 0.0)
      .Field("speedup", top_speedup)
      .Field("scaling_efficiency", top_efficiency)
      .Emit();

  ReportTelemetryLine(telemetry);

  const wsc::telemetry::MetricSample* stalls =
      telemetry.Find("contention", "refill_stalls");
  const wsc::telemetry::MetricSample* steals =
      telemetry.Find("contention", "work_steals");
  std::printf("  contention @ %d thread(s): refill stalls %llu, "
              "work steals %llu\n",
              top.threads,
              static_cast<unsigned long long>(
                  stalls != nullptr ? stalls->counter : 0),
              static_cast<unsigned long long>(
                  steals != nullptr ? steals->counter : 0));
  return 0;
}
