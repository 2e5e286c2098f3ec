// Discrete-event workload driver.
//
// Drives one simulated process (one WorkloadSpec against one Allocator) on
// a machine: issues requests from simulated threads scheduled onto dense
// virtual CPU ids (Section 4.1's vCPU model), allocates and frees objects
// with sampled sizes/lifetimes, touches memory through the dTLB and LLC
// models, and accounts CPU time so productivity metrics (throughput, CPI,
// malloc tax) can be computed. All randomness flows from one seeded Rng, so
// a (spec, seed, config) triple reproduces exactly.

#ifndef WSC_WORKLOAD_DRIVER_H_
#define WSC_WORKLOAD_DRIVER_H_

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "hw/llc_model.h"
#include "hw/tlb.h"
#include "hw/topology.h"
#include "tcmalloc/allocator.h"
#include "workload/workload.h"

namespace wsc::workload {

// Productivity metrics of one driver run (feeds the fleet A/B tables).
struct DriverMetrics {
  uint64_t requests = 0;
  uint64_t allocations = 0;
  uint64_t frees = 0;
  // Allocations refused by a hard memory limit or by unrecovered arena
  // growth denial (Allocate returned 0); surfaced failures, not counted in
  // `allocations`.
  uint64_t failed_allocations = 0;
  double cpu_ns = 0;        // total CPU time consumed
  double base_work_ns = 0;  // application compute share
  double malloc_ns = 0;     // allocator share
  double tlb_stall_ns = 0;
  double llc_stall_ns = 0;

  // Requests completed per CPU-second: the paper's application
  // productivity metric.
  double Throughput() const { return requests / (cpu_ns / 1e9); }
  // Fraction of CPU cycles spent in the allocator (Fig. 5a).
  double MallocCycleFraction() const {
    return cpu_ns > 0 ? malloc_ns / cpu_ns : 0.0;
  }
  // Cycles per instruction, with instructions proxied by base work at
  // IPC=1: stalls and allocator time raise CPI.
  double Cpi() const {
    return base_work_ns > 0 ? cpu_ns / base_work_ns : 0.0;
  }
  // Instruction count proxy for MPKI computations.
  uint64_t Instructions(double ghz) const {
    return static_cast<uint64_t>(base_work_ns * ghz);
  }
};

// Drives one workload against one allocator.
class Driver {
 public:
  // `cpus` lists the machine's logical CPUs this process may run on (the
  // control-plane CPU mask); thread i runs on vCPU i which is pinned to
  // cpus[i % cpus.size()]. `llc` and `tlb` may be null (no hardware
  // modeling; used by pure-allocator tests and benches).
  Driver(const WorkloadSpec& spec, tcmalloc::Allocator* allocator,
         const hw::CpuTopology* topology, std::vector<int> cpus,
         hw::LlcModel* llc, hw::TlbSimulator* tlb, uint64_t seed);

  // Executes one request on some active thread and advances the local
  // clock. Returns the simulated service time in ns.
  double Step();

  // Runs until the local clock reaches `until`.
  void RunUntil(SimTime until);

  // Runs `n` requests.
  void RunRequests(uint64_t n);

  // Frees every outstanding object and flushes sampler state.
  void Drain();

  SimTime now() const { return clock_.now(); }
  const DriverMetrics& metrics() const { return metrics_; }

  int active_threads() const { return active_threads_; }
  uint64_t live_objects() const { return live_.size(); }
  size_t live_bytes() const { return live_bytes_; }

  tcmalloc::Allocator* allocator() { return allocator_; }
  const WorkloadSpec& spec() const { return spec_; }

 private:
  struct LiveObject {
    SimTime death;
    uintptr_t addr;
    uint32_t size;
    uint64_t callsite;
    bool operator>(const LiveObject& o) const { return death > o.death; }
  };

  // Updates the active thread count (diurnal curve + noise + spikes).
  void UpdateThreads();

  // Frees objects whose death time has passed, from vCPU `vcpu`.
  double FreeDead(int vcpu);

  // Touches `lines` cache lines starting at `addr` from `cpu`; returns
  // stall ns.
  double Touch(uintptr_t addr, size_t object_size, int lines, int cpu);

  WorkloadSpec spec_;
  tcmalloc::Allocator* allocator_;
  const hw::CpuTopology* topology_;
  std::vector<int> cpus_;
  hw::LlcModel* llc_;
  hw::TlbSimulator* tlb_;
  Rng rng_;
  SimClock clock_;

  MixtureDistribution behavior_mix_;

  // Synthetic callsite IDs ("<workload>/behavior<i>", "<workload>/startup")
  // registered with the allocator so heap profiles attribute by name.
  std::vector<uint64_t> behavior_callsites_;
  uint64_t startup_callsite_ = 0;

  // Live objects, a min-heap on death time. The buffer grows with
  // std::realloc, which glibc serves in place with mremap once the block is
  // large, so the startup objects' pushes neither copy nor refault the
  // heap's pages. push and pop are std::push_heap/std::pop_heap over the
  // element sequence a std::priority_queue keeps, so objects with equal
  // death times pop in the same order.
  class LiveHeap {
   public:
    LiveHeap() = default;
    LiveHeap(const LiveHeap&) = delete;
    LiveHeap& operator=(const LiveHeap&) = delete;
    ~LiveHeap() { std::free(data_); }

    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    const LiveObject& top() const { return data_[0]; }
    void push(const LiveObject& object);
    void pop();

   private:
    LiveObject* data_ = nullptr;
    size_t size_ = 0;
    size_t capacity_ = 0;
  };

  LiveHeap live_;
  size_t live_bytes_ = 0;

  // Working-set reservoirs for reuse touches. Most touches go to the
  // executing vCPU's own recent allocations (request handlers touch what
  // they allocated — the locality premise behind the NUCA transfer cache);
  // a smaller share goes to a process-global reservoir (shared state).
  std::vector<std::vector<std::pair<uintptr_t, uint32_t>>> recent_per_vcpu_;
  std::vector<std::pair<uintptr_t, uint32_t>> recent_global_;

  // Inserts into a reservoir with random replacement once full.
  void ReservoirAdd(std::vector<std::pair<uintptr_t, uint32_t>>& reservoir,
                    size_t cap, uintptr_t addr, uint32_t size);

  int active_threads_ = 1;
  SimTime last_thread_update_ = 0;
  double thread_phase_;

  DriverMetrics metrics_;
  SimTime last_maintain_ = 0;
};

}  // namespace wsc::workload

#endif  // WSC_WORKLOAD_DRIVER_H_
