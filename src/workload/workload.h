// Workload model.
//
// Section 3 shows WSC allocation behavior is a heavy-tailed joint
// distribution over object size and lifetime (Figs. 7-8), with dynamic
// thread counts (Fig. 9a). A WorkloadSpec captures one application as a
// mixture of *behaviors*: each behavior couples a size distribution with a
// lifetime distribution (so sizes and lifetimes are correlated through the
// mixture component, as in the fleet where e.g. >1 GiB objects are mostly
// >1 day lived), plus request-level parameters (allocations per request,
// base compute per request, touch counts) and thread dynamics.

#ifndef WSC_WORKLOAD_WORKLOAD_H_
#define WSC_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "common/distribution.h"
#include "common/sim_clock.h"

namespace wsc::workload {

// One allocation behavior: a (size, lifetime) joint component.
struct Behavior {
  double weight = 1.0;
  std::shared_ptr<const Distribution> size_bytes;
  std::shared_ptr<const Distribution> lifetime_ns;
};

// Static description of one application.
struct WorkloadSpec {
  std::string name;

  std::vector<Behavior> behaviors;

  // Mean allocations per request (actual count is uniform in
  // [1, 2*mean-1], keeping the mean while adding burstiness).
  double allocs_per_request = 8.0;

  // Base application compute per request, in virtual ns. Sets the malloc
  // tax denominator: raising it lowers the workload's malloc-cycle
  // percentage (Fig. 5a).
  double request_work_ns = 20000.0;

  // Cache lines touched per object right after allocation.
  int touches_per_alloc = 2;

  // Additional touches per request into recently allocated objects
  // (models the working set; drives the dTLB and LLC models).
  int reuse_touches_per_request = 8;

  // Thread-count dynamics (Fig. 9a): the active thread count follows a
  // sinusoid between min_threads and max_threads with period
  // thread_period, multiplicative noise, and occasional spikes to max.
  int min_threads = 1;
  int max_threads = 8;
  SimTime thread_period = Hours(24);
  double thread_noise = 0.1;
  double spike_probability = 0.01;

  // Mean wall-clock interval between requests on one thread (think time /
  // duty cycle). Service time shorter than this leaves the thread idle;
  // zero means CPU-bound. The process-level request rate is roughly
  // active_threads / max(request_interval, service_time).
  SimTime request_interval_ns = 0;

  // Long-lived state allocated once at startup (tables, caches, model
  // weights) that lives for the whole run. These objects pin spans and
  // hugepages exactly like production long-lived allocations.
  double startup_bytes = 0;
  std::shared_ptr<const Distribution> startup_object_size;

  // If true the workload is effectively single-threaded (Redis).
  bool single_threaded() const { return max_threads <= 1; }
};

// Convenience builders for behaviors.
Behavior MakeBehavior(double weight, std::shared_ptr<const Distribution> size,
                      std::shared_ptr<const Distribution> lifetime);

// Lognormal helpers returning shared_ptr for use in Behavior.
std::shared_ptr<const Distribution> SizeLognormal(double median_bytes,
                                                  double spread);
std::shared_ptr<const Distribution> SizePoint(double bytes);
std::shared_ptr<const Distribution> SizePareto(double scale, double alpha,
                                               double cap);
std::shared_ptr<const Distribution> LifetimeLognormal(double median_ns,
                                                      double spread);
std::shared_ptr<const Distribution> LifetimePoint(double ns);

}  // namespace wsc::workload

#endif  // WSC_WORKLOAD_WORKLOAD_H_
