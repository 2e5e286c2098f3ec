#include "workload/driver.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.h"
#include "trace/heap_profile.h"

namespace wsc::workload {

namespace {

// Working-set reservoir sizes: touches sample from recently allocated
// objects, so the touched footprint spans far more pages than any TLB
// covers (the fleet's dTLB pressure). Per-vCPU reservoirs carry the
// thread-local working set; the global reservoir carries shared state.
constexpr size_t kVcpuRingSize = 4096;
constexpr size_t kGlobalRingSize = 16384;
// Fraction of reuse touches that go to the executing thread's own data.
constexpr double kLocalTouchFraction = 0.8;
constexpr SimTime kThreadUpdatePeriod = Seconds(1);
constexpr SimTime kMaintainPeriod = Seconds(1);

MixtureDistribution BuildMix(const WorkloadSpec& spec) {
  WSC_CHECK(!spec.behaviors.empty());
  std::vector<MixtureDistribution::Component> components;
  for (const Behavior& b : spec.behaviors) {
    WSC_CHECK(b.size_bytes != nullptr);
    WSC_CHECK(b.lifetime_ns != nullptr);
    components.push_back({b.weight, b.size_bytes});
  }
  return MixtureDistribution(std::move(components));
}

}  // namespace

Driver::Driver(const WorkloadSpec& spec, tcmalloc::Allocator* allocator,
               const hw::CpuTopology* topology, std::vector<int> cpus,
               hw::LlcModel* llc, hw::TlbSimulator* tlb, uint64_t seed,
               SimTime start_time)
    : spec_(spec),
      allocator_(allocator),
      topology_(topology),
      cpus_(std::move(cpus)),
      llc_(llc),
      tlb_(tlb),
      rng_(seed),
      behavior_mix_(BuildMix(spec)) {
  WSC_CHECK(allocator != nullptr);
  WSC_CHECK(!cpus_.empty());
  if (start_time > 0) {
    // Deploy-restarted replacement: the whole local timeline (startup
    // allocations included) begins at the restart instant.
    clock_.AdvanceTo(start_time);
    last_thread_update_ = start_time;
    last_maintain_ = start_time;
  }
  recent_per_vcpu_.resize(allocator_->config().num_vcpus);
  recent_global_.reserve(kGlobalRingSize);
  thread_phase_ = rng_.UniformDouble() * 2.0 * M_PI;
  active_threads_ = std::max(1, spec_.min_threads);

  // Register one synthetic callsite per behavior (the stand-in for a stack
  // trace) so the heap profiler can attribute by name.
  behavior_callsites_.reserve(spec_.behaviors.size());
  for (size_t i = 0; i < spec_.behaviors.size(); ++i) {
    std::string name = spec_.name + "/behavior" + std::to_string(i);
    uint64_t id = trace::CallsiteId(name);
    behavior_callsites_.push_back(id);
    allocator_->RegisterCallsite(id, name);
  }
  {
    std::string name = spec_.name + "/startup";
    startup_callsite_ = trace::CallsiteId(name);
    allocator_->RegisterCallsite(startup_callsite_, name);
  }

  // Startup allocations: long-lived state (caches, tables, model weights)
  // that pins spans and hugepages for the whole run.
  if (spec_.startup_bytes > 0) {
    WSC_CHECK(spec_.startup_object_size != nullptr);
    double allocated = 0;
    int vcpu = 0;
    int num_vcpus = allocator_->config().num_vcpus;
    while (allocated < spec_.startup_bytes) {
      double raw = spec_.startup_object_size->Sample(rng_);
      size_t size = static_cast<size_t>(std::max(8.0, raw));
      uintptr_t addr =
          allocator_->Allocate(size, vcpu, clock_.now(), startup_callsite_);
      vcpu = (vcpu + 1) % num_vcpus;
      if (addr == 0) {
        // Hard-limit refusal: count it and keep making progress toward the
        // startup target (otherwise the loop would spin forever).
        ++metrics_.failed_allocations;
        allocated += static_cast<double>(size);
        continue;
      }
      live_.push(LiveObject{Days(365), addr, static_cast<uint32_t>(size),
                            startup_callsite_});
      live_bytes_ += size;
      allocated += static_cast<double>(size);
      ++metrics_.allocations;
      // Startup state is part of the shared working set.
      ReservoirAdd(recent_global_, kGlobalRingSize, addr,
                   static_cast<uint32_t>(size));
    }
  }
}

void Driver::UpdateThreads() {
  SimTime now = clock_.now();
  if (now - last_thread_update_ < kThreadUpdatePeriod) return;
  last_thread_update_ = now;
  double t = static_cast<double>(now) /
             static_cast<double>(std::max<SimTime>(spec_.thread_period, 1));
  double load = 0.5 + 0.5 * std::sin(2.0 * M_PI * t + thread_phase_);
  load *= 1.0 + spec_.thread_noise * (2.0 * rng_.UniformDouble() - 1.0);
  if (rng_.Bernoulli(spec_.spike_probability)) load = 1.0;
  // Scenario modulation scales the organic curve; the branch keeps the
  // phase-free floating-point path bit-identical.
  if (load_multiplier_ != 1.0) load *= load_multiplier_;
  load = std::clamp(load, 0.0, 1.0);
  int range = spec_.max_threads - spec_.min_threads;
  active_threads_ = spec_.min_threads +
                    static_cast<int>(std::lround(load * range));
  active_threads_ = std::clamp(active_threads_, std::max(1, spec_.min_threads),
                               std::max(1, spec_.max_threads));
}

double Driver::Touch(uintptr_t addr, size_t object_size, int lines, int cpu) {
  double stall_ns = 0.0;
  size_t max_lines = object_size / 64 + 1;
  lines = static_cast<int>(std::min<size_t>(lines, max_lines));
  double ghz = topology_ != nullptr ? topology_->spec().ghz : 2.4;
  for (int i = 0; i < lines; ++i) {
    uintptr_t line_addr = addr + static_cast<uintptr_t>(i) * 64;
    if (tlb_ != nullptr) {
      bool huge = allocator_->IsHugepageBacked(line_addr);
      double cycles = tlb_->Access(line_addr, huge);
      double ns = cycles / ghz;
      stall_ns += ns;
      metrics_.tlb_stall_ns += ns;
    }
    if (llc_ != nullptr) {
      double ns = llc_->AccessNs(cpu, line_addr);
      stall_ns += ns;
      metrics_.llc_stall_ns += ns;
    }
  }
  return stall_ns;
}

double Driver::FreeDead(int vcpu) {
  double ns = 0.0;
  SimTime now = clock_.now();
  while (!live_.empty() && live_.top().death <= now) {
    LiveObject obj = live_.top();
    live_.pop();
    allocator_->Free(obj.addr, vcpu, now, obj.callsite);
    ns += allocator_->last_op_ns();
    live_bytes_ -= obj.size;
    ++metrics_.frees;
  }
  return ns;
}

void Driver::UpdateLoadMultiplier() {
  if (spec_.load_phases.empty()) return;
  load_multiplier_ =
      LoadMultiplierAt(spec_.load_phases, clock_.now(), load_phase_hint_);
}

double Driver::FreeEpochObjects(std::vector<EpochObject>& objects, int vcpu) {
  double ns = 0.0;
  SimTime now = clock_.now();
  for (const EpochObject& obj : objects) {
    allocator_->Free(obj.addr, vcpu, now, obj.callsite);
    ns += allocator_->last_op_ns();
    live_bytes_ -= obj.size;
    --epoch_live_objects_;
    ++metrics_.frees;
  }
  objects.clear();
  return ns;
}

double Driver::CloseEpoch(int vcpu) {
  double ns = 0.0;
  // Retire closed buckets whose lag has expired.
  size_t kept = 0;
  for (EpochBucket& bucket : epoch_closed_) {
    if (bucket.release_epoch <= epoch_index_) {
      ns += FreeEpochObjects(bucket.objects, vcpu);
    } else {
      epoch_closed_[kept++] = std::move(bucket);
    }
  }
  epoch_closed_.resize(kept);
  // Close the open bucket. kChurn alternates immediate churn (even
  // epochs: inference-step activations) with retained epochs (odd: replay
  // buffer / KV-cache state held for epoch_free_lag).
  int lag = spec_.epoch_free_lag;
  if (spec_.epoch_shape == EpochShape::kChurn && epoch_index_ % 2 == 0) {
    lag = 0;
  }
  if (lag <= 0) {
    ns += FreeEpochObjects(epoch_open_, vcpu);
  } else if (!epoch_open_.empty()) {
    epoch_closed_.push_back(EpochBucket{
        epoch_index_ + static_cast<uint64_t>(lag), std::move(epoch_open_)});
    epoch_open_.clear();
  }
  ++epoch_index_;
  ++metrics_.epochs_closed;
  return ns;
}

double Driver::Step() {
  UpdateLoadMultiplier();
  if (load_multiplier_ <= 0.0) {
    // Idled by the scenario (e.g. a zero-load antagonist): no requests,
    // no RNG draws, held memory stays put. The clock still advances so
    // the machine's event loop and allocator maintenance make progress.
    clock_.Advance(std::max<SimTime>(spec_.request_interval_ns,
                                     kThreadUpdatePeriod));
    if (clock_.now() - last_maintain_ >= kMaintainPeriod) {
      last_maintain_ = clock_.now();
      allocator_->Maintain(clock_.now());
    }
    return 0.0;
  }
  UpdateThreads();
  SimTime now = clock_.now();

  // Pick the executing thread; dense vCPU ids mean thread i uses vCPU i.
  int num_vcpus = allocator_->config().num_vcpus;
  int thread = static_cast<int>(rng_.UniformInt(active_threads_));
  int vcpu = thread % num_vcpus;
  int cpu = cpus_[static_cast<size_t>(vcpu) % cpus_.size()];
  if (topology_ != nullptr && allocator_->config().num_llc_domains > 1) {
    allocator_->SetVcpuDomain(vcpu, topology_->DomainOfCpu(cpu));
  }
  if (topology_ != nullptr && allocator_->num_numa_nodes() > 1) {
    allocator_->SetVcpuNode(
        vcpu, topology_->SocketOfCpu(cpu) % allocator_->num_numa_nodes());
  }

  double malloc_ns = 0.0;
  double stall_ns = 0.0;

  // Retire objects whose lifetime expired (possibly allocated by another
  // thread: memory flows between CPUs through the transfer cache).
  malloc_ns += FreeDead(vcpu);

  // Allocation burst for this request.
  int mean = static_cast<int>(spec_.allocs_per_request);
  int nallocs =
      1 + static_cast<int>(rng_.UniformInt(std::max(1, 2 * mean - 1)));
  for (int i = 0; i < nallocs; ++i) {
    size_t component = behavior_mix_.PickComponent(rng_);
    const Behavior& behavior = spec_.behaviors[component];
    double raw_size = behavior.size_bytes->Sample(rng_);
    size_t size = static_cast<size_t>(std::max(1.0, raw_size));
    double raw_life = behavior.lifetime_ns->Sample(rng_);
    SimTime death = now + static_cast<SimTime>(std::max(raw_life, 0.0));

    uint64_t callsite = behavior_callsites_[component];
    uintptr_t addr = allocator_->Allocate(size, vcpu, now, callsite);
    malloc_ns += allocator_->last_op_ns();
    if (addr == 0) {
      // Hard memory limit: the request sheds this allocation (production
      // would degrade or crash; we count and continue).
      ++metrics_.failed_allocations;
      continue;
    }
    ++metrics_.allocations;

    // Opt-in heap-bug injection, exercised only against guarded (sampled)
    // allocations so detection is deterministic and unguarded bookkeeping
    // is never corrupted. The RNG is consulted only when the spec enables
    // bugs, so bug-free runs keep their exact random streams.
    if (spec_.injects_bugs() && allocator_->sampler().IsGuarded(addr)) {
      double u = rng_.UniformDouble();
      double p_df = spec_.double_free_probability;
      double p_uaf = p_df + spec_.use_after_free_probability;
      double p_or = p_uaf + spec_.overrun_probability;
      if (u < p_df) {
        // Double free: the first Free is legitimate (and, being guarded,
        // leaves a tombstone); the second is the bug the guard catches.
        allocator_->Free(addr, vcpu, now, callsite);
        malloc_ns += allocator_->last_op_ns();
        ++metrics_.frees;
        allocator_->Free(addr, vcpu, now, callsite);
        malloc_ns += allocator_->last_op_ns();
        ++metrics_.injected_bugs;
        ++metrics_.detected_bugs;
        continue;
      }
      if (u < p_uaf) {
        // Use after free: free legitimately, then touch the dead object.
        allocator_->Free(addr, vcpu, now, callsite);
        malloc_ns += allocator_->last_op_ns();
        ++metrics_.frees;
        ++metrics_.injected_bugs;
        if (allocator_->ProbeAccess(addr, 0, vcpu, now)) {
          ++metrics_.detected_bugs;
        }
        continue;
      }
      if (u < p_or) {
        // Buffer overrun: touch one byte past the requested size. The
        // object stays live and dies normally later.
        ++metrics_.injected_bugs;
        if (allocator_->ProbeAccess(addr, size, vcpu, now)) {
          ++metrics_.detected_bugs;
        }
      }
    }

    // Epoch binding (temporal slabs): the RNG is consulted only for
    // epochal shapes, so kNone specs keep their exact random streams.
    if (spec_.epochal() && rng_.Bernoulli(spec_.epoch_bound_fraction)) {
      epoch_open_.push_back(
          EpochObject{addr, static_cast<uint32_t>(size), callsite});
      ++epoch_live_objects_;
      live_bytes_ += size;
    } else {
      live_.push(
          LiveObject{death, addr, static_cast<uint32_t>(size), callsite});
      live_bytes_ += size;
    }
    ReservoirAdd(recent_per_vcpu_[vcpu], kVcpuRingSize, addr,
                 static_cast<uint32_t>(size));
    if (rng_.Bernoulli(0.1)) {
      ReservoirAdd(recent_global_, kGlobalRingSize, addr,
                   static_cast<uint32_t>(size));
    }
    stall_ns += Touch(addr, size, spec_.touches_per_alloc, cpu);
  }

  // Working-set accesses: mostly into this thread's own recent data, with
  // a share into the process-global shared state.
  for (int i = 0; i < spec_.reuse_touches_per_request; ++i) {
    auto& own = recent_per_vcpu_[vcpu];
    bool use_own = !own.empty() && (recent_global_.empty() ||
                                    rng_.Bernoulli(kLocalTouchFraction));
    auto& ring = use_own ? own : recent_global_;
    if (ring.empty()) break;
    auto [addr, size] = ring[rng_.UniformInt(ring.size())];
    uintptr_t offset = 64 * rng_.UniformInt(size / 64 + 1);
    stall_ns += Touch(addr + offset, size - offset, 1, cpu);
  }

  // Request-epoch retirement rides the closing request's allocator time.
  if (spec_.epochal()) {
    ++epoch_requests_;
    if (epoch_requests_ >=
        static_cast<uint64_t>(std::max(1, spec_.epoch_close_requests))) {
      epoch_requests_ = 0;
      malloc_ns += CloseEpoch(vcpu);
    }
  }

  // Base application work with +-20% jitter.
  double work_ns =
      spec_.request_work_ns * (0.8 + 0.4 * rng_.UniformDouble());

  double service_ns = work_ns + malloc_ns + stall_ns;
  metrics_.base_work_ns += work_ns;
  metrics_.malloc_ns += malloc_ns;
  metrics_.cpu_ns += service_ns;
  ++metrics_.requests;

  // Wall-clock advance: active threads process requests concurrently, and
  // a thread that finishes before its request interval sits idle. Scenario
  // load multipliers shrink (or stretch) the think time; the branch keeps
  // the multiplier-free floating-point path bit-identical.
  double interval_ns = static_cast<double>(spec_.request_interval_ns);
  if (load_multiplier_ != 1.0) interval_ns /= load_multiplier_;
  double per_thread_ns = std::max(service_ns, interval_ns);
  clock_.Advance(static_cast<SimTime>(
      std::max(1.0, per_thread_ns / std::max(1, active_threads_))));

  if (clock_.now() - last_maintain_ >= kMaintainPeriod) {
    last_maintain_ = clock_.now();
    allocator_->Maintain(clock_.now());
  }
  return service_ns;
}

void Driver::ReservoirAdd(
    std::vector<std::pair<uintptr_t, uint32_t>>& reservoir, size_t cap,
    uintptr_t addr, uint32_t size) {
  if (reservoir.size() < cap) {
    reservoir.push_back({addr, size});
  } else {
    // Replace a random slot: the reservoir decays towards recent
    // allocations but spans a long window, approximating a live set.
    reservoir[rng_.UniformInt(cap)] = {addr, size};
  }
}

void Driver::RunUntil(SimTime until) {
  while (clock_.now() < until) Step();
}

void Driver::RunRequests(uint64_t n) {
  for (uint64_t i = 0; i < n; ++i) Step();
}

void Driver::Drain() {
  SimTime now = clock_.now();
  while (!live_.empty()) {
    LiveObject obj = live_.top();
    live_.pop();
    allocator_->Free(obj.addr, /*vcpu=*/0, now, obj.callsite);
    live_bytes_ -= obj.size;
    ++metrics_.frees;
  }
  // Flush request-epoch buckets (open and lagged) the same way.
  for (EpochBucket& bucket : epoch_closed_) {
    FreeEpochObjects(bucket.objects, /*vcpu=*/0);
  }
  epoch_closed_.clear();
  FreeEpochObjects(epoch_open_, /*vcpu=*/0);
  allocator_->sampler().FlushOutstanding(now);
}

}  // namespace wsc::workload
