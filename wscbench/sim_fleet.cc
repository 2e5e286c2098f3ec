// The simulator workload: fig03's fleet through fleet::Fleet, plus a
// replay of the rpc_server op stream through one tcmalloc::Allocator.
//
//   wscbench_sim --part=setup                          # set-up only
//   wscbench_sim --part=replay --seed=1 --seconds=2    # set-up + replay
//   wscbench_sim --part=fleet                          # set-up + fleet
//   wscbench_sim --seed=1 --traced                     # everything, traced
//
// The fleet is pinned to fig03's shape and seed (20240427), so its exact
// request and telemetry counts can be checked against the recorded
// values on every run; --seed selects the replay stream. The replay is
// single-threaded (the simulated allocator is one process), with one vCPU
// per rpc_server worker and handed-off objects freed on the next vCPU.
// Prints one RESULT line.

#include <malloc.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "common/sim_clock.h"
#include "flags.h"
#include "fleet/fleet.h"
#include "stats.h"
#include "tcmalloc/allocator.h"
#include "tcmalloc/config.h"
#include "workload.h"

namespace wscbench {
namespace {

constexpr uint64_t kFleetSeed = 20240427;
constexpr int kFleetThreads = 4;

wsc::fleet::FleetConfig Fig03Fleet() {
  wsc::fleet::FleetConfig config;
  config.num_machines = 64;
  config.num_binaries = 150;
  config.zipf_exponent = 0.8;
  config.min_colocated = 2;
  config.max_colocated = 4;
  config.duration = wsc::Seconds(2);
  config.max_requests_per_process = 5000;
  config.num_threads = kFleetThreads;
  return config;
}

double Metric(const wsc::telemetry::Snapshot& s, const char* c,
              const char* n) {
  const wsc::telemetry::MetricSample* m = s.Find(c, n);
  return m == nullptr ? 0.0 : m->ScalarValue();
}

// Replays rpc_server streams through one simulated allocator, request by
// request, round-robin over the workers.
class Replay {
 public:
  explicit Replay(const Streams& streams)
      : streams_(streams), alloc_(wsc::tcmalloc::AllocatorConfig()) {
    for (int w = 0; w < streams.workers; ++w) {
      slots_[w].Reserve(streams.per_worker[w].slots);
      slots_[w].Resize(streams.per_worker[w].slots);
      inbox_[w].Reserve(kInbox);
    }
    latency_.Reserve(size_t{1} << 24);
    for (auto& v : call_ns_) v.Reserve(size_t{1} << 25);
  }

  // Runs requests until `seconds` elapsed (or `max_requests` when > 0),
  // recording each request's latency, and each call's duration when
  // `traced`.
  void Run(double seconds, uint64_t max_requests, bool traced) {
    traced_ = traced;
    latency_.Resize(0);
    for (auto& v : call_ns_) v.Resize(0);
    busy_ns_ = 0;
    calls_ = 0;
    const uint64_t start = NowNs();
    const uint64_t deadline = start + static_cast<uint64_t>(seconds * 1e9);
    uint64_t done = 0;
    for (;;) {
      for (int w = 0; w < streams_.workers; ++w) {
        const uint64_t t0 = NowNs();
        RunRequest(w);
        const uint64_t t1 = NowNs();
        latency_.Push(static_cast<uint32_t>(t1 - t0));
        busy_ns_ += t1 - t0;
        if ((++done & 1023) == 0) Maintain();
      }
      if (max_requests > 0 ? done >= max_requests : NowNs() >= deadline) break;
    }
    seconds_ = static_cast<double>(NowNs() - start) * 1e-9;
  }

  enum CallKind { kAllocate, kFree, kMaintain, kNumCallKinds };
  MmapVec<float>& call_ns(int kind) { return call_ns_[kind]; }
  MmapVec<uint32_t>& latency() { return latency_; }
  uint64_t calls() const { return calls_; }  // in the last Run
  uint64_t failed() const { return failed_; }
  double seconds() const { return seconds_; }
  double busy_ns() const { return static_cast<double>(busy_ns_); }

 private:
  static constexpr size_t kInbox = 1 << 16;

  uintptr_t Allocate(size_t size, int vcpu) {
    const uint64_t t0 = traced_ ? NowNs() : 0;
    const uintptr_t a = alloc_.Allocate(size, vcpu, now_);
    if (traced_) call_ns_[kAllocate].Push(static_cast<float>(NowNs() - t0));
    ++calls_;
    if (a == 0) ++failed_;
    return a;
  }
  void Free(uintptr_t addr, int vcpu) {
    const uint64_t t0 = traced_ ? NowNs() : 0;
    alloc_.Free(addr, vcpu, now_);
    if (traced_) call_ns_[kFree].Push(static_cast<float>(NowNs() - t0));
    ++calls_;
  }
  void Maintain() {
    const uint64_t t0 = traced_ ? NowNs() : 0;
    alloc_.Maintain(now_);
    if (traced_) call_ns_[kMaintain].Push(static_cast<float>(NowNs() - t0));
  }

  void RunRequest(int w) {
    const Stream& s = streams_.per_worker[w];
    MmapVec<uintptr_t>& slots = slots_[w];
    now_ += wsc::Microseconds(2);
    for (;;) {
      const Op& op = s.ops[cursor_[w]++];
      uintptr_t& slot = slots[op.slot];
      switch (op.kind) {
        case OpKind::kMalloc:
        case OpKind::kMemalign:
          slot = Allocate(op.size, w);
          break;
        case OpKind::kReplace:
          if (slot != 0) Free(slot, w);
          slot = Allocate(op.size, w);
          break;
        case OpKind::kRealloc:
          if (slot != 0) {
            const uintptr_t fresh = Allocate(op.size, w);
            if (fresh != 0) {
              Free(slot, w);
              slot = fresh;
            }
          }
          break;
        case OpKind::kFree:
        case OpKind::kFreeIfAny:
          if (slot != 0) Free(slot, w);
          slot = 0;
          break;
        case OpKind::kHandoff: {
          MmapVec<uintptr_t>& next = inbox_[(w + 1) % streams_.workers];
          if (slot != 0) {
            if (next.size() < kInbox) {
              next.Push(slot);
            } else {
              Free(slot, w);
            }
          }
          slot = 0;
          break;
        }
        case OpKind::kDrainInbox:
          for (size_t i = 0; i < inbox_[w].size(); ++i) Free(inbox_[w][i], w);
          inbox_[w].Resize(0);
          break;
        case OpKind::kRelease:
        case OpKind::kRequestEnd:
          break;
      }
      if (op.kind == OpKind::kRequestEnd) break;
    }
    if (cursor_[w] == s.ops.size()) cursor_[w] = 0;
  }

  const Streams& streams_;
  wsc::tcmalloc::Allocator alloc_;
  MmapVec<uintptr_t> slots_[kMaxWorkers];
  MmapVec<uintptr_t> inbox_[kMaxWorkers];
  size_t cursor_[kMaxWorkers] = {};
  MmapVec<uint32_t> latency_;
  MmapVec<float> call_ns_[kNumCallKinds];
  wsc::SimTime now_ = 0;
  bool traced_ = false;
  uint64_t calls_ = 0;
  uint64_t failed_ = 0;
  uint64_t busy_ns_ = 0;
  double seconds_ = 0;
};

Streams g_streams;

int Main(int argc, char** argv) {
  Flags args;
  if (!ParseFlags(argc, argv, &args)) return 2;
  // Without --part a launch runs everything.
  auto part_is = [&](const char* p) {
    return args.part == nullptr || std::strcmp(args.part, p) == 0;
  };
  const bool replay_part = part_is("replay");
  const bool fleet_part = part_is("fleet");
  if (!replay_part && !fleet_part && !part_is("setup")) {
    std::fprintf(stderr, "unknown part: %s\n", args.part);
    return 2;
  }
  JsonOut out;
  out.Str("workload", "sim_fleet");
  out.Int("seed", args.seed);

  // Set-up: Fleet construction and planning.
  const uint64_t c0 = NowNs();
  auto* fleet = new wsc::fleet::Fleet(
      Fig03Fleet(), wsc::tcmalloc::AllocatorConfig(), kFleetSeed);
  const size_t machines = fleet->PlanMachines().size();
  const uint64_t c1 = NowNs();
  out.Num("setup_s", SetupSeconds(args, c1, 0));
  out.Num("premain_cpu_s", static_cast<double>(args.premain_cpu_ns) * 1e-9);
  out.Num("fleet.plan_s", static_cast<double>(c1 - c0) * 1e-9);
  out.Int("machines", machines);

  // The replay first, in a process nothing multi-threaded has touched
  // yet: its memory is deterministic, so the RSS metrics are read around
  // it. (The fleet's own RSS depends on how four threads' glibc arenas
  // interleave and varies by tens of percent between identical runs.)
  double ns_per_call = 0;
  uint64_t replay_calls = 0, replay_failed = 0;
  if (replay_part) {
    Generate(Workload::kRpcServer, args.seed, &g_streams);
    out.Int("stream_hash", StreamHash(g_streams));
    auto replay = std::make_unique<Replay>(g_streams);
    replay->Run(args.traced ? 0 : args.seconds, args.traced ? 20000 : 0, false);
    ns_per_call = replay->busy_ns() / replay->calls();
    out.Num("replay_calls_per_s",
            static_cast<double>(replay->calls()) / replay->seconds());
    out.Num("ns_per_call", ns_per_call);
    out.Num("request_p50_us", Quantile(replay->latency(), 0.5, 1e-3));
    out.Num("request_p99_us", Quantile(replay->latency(), 0.99, 1e-3));
    out.Int("latency_samples", replay->latency().size());
    out.QuantileGrid("latency_grid_us", replay->latency().data(),
                     replay->latency().size(), 1e-3);
    replay_calls = replay->calls();
    if (args.traced) {
      const double eps = CalibrateEmptySpan();
      replay->Run(0, 20000, true);
      const double traced_ns = replay->busy_ns() / replay->calls();
      auto self = [&](int kind, double q, double scale) {
        MmapVec<float>& v = replay->call_ns(kind);
        for (size_t i = 0; i < v.size(); ++i) v[i] -= static_cast<float>(eps);
        return Quantile(v, q, scale);
      };
      out.Num("trace.empty_span_ns", eps);
      out.Num("trace.overhead_fraction", traced_ns / ns_per_call - 1);
      out.Num("sim_alloc.allocate_ns_p50", self(Replay::kAllocate, 0.5, 1));
      out.Num("sim_alloc.allocate_ns_p99", self(Replay::kAllocate, 0.99, 1));
      out.Num("sim_alloc.free_ns_p50", self(Replay::kFree, 0.5, 1));
      out.Num("sim_alloc.free_ns_p99", self(Replay::kFree, 0.99, 1));
      out.Num("sim_alloc.maintain_us_p50", self(Replay::kMaintain, 0.5, 1e-3));
    }
    replay_failed = replay->failed();
    out.Num("steady_rss_mb", static_cast<double>(ProcStatusKb("VmRSS")) / 1024);
    replay.reset();
    malloc_trim(0);
    out.Num("drained_rss_mb", static_cast<double>(ProcStatusKb("VmRSS")) / 1024);
    out.Num("peak_rss_mb", static_cast<double>(ProcStatusKb("VmHWM")) / 1024);
  }

  uint64_t sim_calls = 0, sim_failed = 0;
  if (fleet_part) {
    // The fleet's rates are taken on process CPU time: the fleet is
    // CPU-bound on its threads, and CPU time leaves out the time a
    // neighbour or the hypervisor held the CPUs, which wall time does not.
    const uint64_t r0 = NowNs();
    const uint64_t cpu0 = ProcessCpuNs();
    fleet->Run(kFleetThreads);
    const double cpu_s = static_cast<double>(ProcessCpuNs() - cpu0) * 1e-9;
    const double run_s = static_cast<double>(NowNs() - r0) * 1e-9;
    out.Num("fleet_peak_rss_mb",
            static_cast<double>(ProcStatusKb("VmHWM")) / 1024);

    uint64_t sim_requests = 0, failed_allocations = 0;
    for (const auto& obs : fleet->observations()) {
      sim_requests += obs.result.driver.requests;
      failed_allocations += obs.result.driver.failed_allocations;
    }
    const size_t processes = fleet->observations().size();
    const wsc::telemetry::Snapshot t =
        wsc::fleet::MergedTelemetry(fleet->observations());
    const double allocations = Metric(t, "allocator", "allocations");
    const double frees = Metric(t, "allocator", "frees");
    const double cpu_hits = Metric(t, "allocator", "alloc_hits_cpu_cache");
    const double transfer_hits =
        Metric(t, "allocator", "alloc_hits_transfer_cache");
    out.Num("fleet.run_s", run_s);
    out.Num("fleet_cpu_s", cpu_s);
    out.Num("requests_per_s", static_cast<double>(sim_requests) / cpu_s);
    out.Num("fleet_calls_per_s", (allocations + frees) / cpu_s);
    // Exact counts, compared with the values recorded for the fleet seed.
    out.Int("fleet_seed", kFleetSeed);
    out.Int("sim.requests", sim_requests);
    out.Int("sim.failed_allocations", failed_allocations);
    out.Int("sim.processes", processes);
    out.Exact("sim.allocations", allocations);
    out.Exact("sim.frees", frees);
    out.Exact("sim.alloc_hits_cpu_cache", cpu_hits);
    out.Exact("sim.alloc_hits_transfer_cache", transfer_hits);
    out.Exact("sim.cfl_returned_spans",
              Metric(t, "central_free_list", "returned_spans"));
    out.Exact("sim.hugepage_coverage_sum",
              Metric(t, "allocator", "hugepage_coverage"));
    out.Exact("sim.external_fragmentation_bytes",
              Metric(t, "allocator", "external_fragmentation_bytes"));
    out.Num("sim.cpu_cache_hit_rate", Ratio(cpu_hits, allocations));
    out.Num("sim.transfer_cache_hit_rate",
            Ratio(transfer_hits, allocations - cpu_hits));
    out.Num("sim.hugepage_coverage",
            Ratio(Metric(t, "allocator", "hugepage_coverage"),
                  static_cast<double>(processes)));
    out.Num("sim.external_fragmentation_mb",
            Metric(t, "allocator", "external_fragmentation_bytes") / (1 << 20));
    // Estimated allocator share of the fleet's CPU time: every simulated
    // call at the untraced replay's mean cost.
    out.Num("sim_alloc.share_of_run",
            (allocations + frees) * ns_per_call / (cpu_s * 1e9));
    sim_calls = static_cast<uint64_t>(allocations);
    sim_failed = failed_allocations;
  }
  out.Int("attempted", replay_calls + sim_calls);
  out.Int("failed", replay_failed + sim_failed);
  delete fleet;
  out.Print();
  return 0;
}

}  // namespace
}  // namespace wscbench

int main(int argc, char** argv) { return wscbench::Main(argc, argv); }
