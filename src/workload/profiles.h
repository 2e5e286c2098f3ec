// Workload profiles (Section 2.3).
//
// Synthetic stand-ins for the paper's five production workloads with the
// highest malloc usage (Spanner, Monarch, Bigtable, F1 query, Disk), the
// four dedicated-server benchmarks (Redis, data-processing pipeline, image
// processing server, TensorFlow serving), and a SPEC CPU2006-like contrast
// workload. Parameters (size/lifetime mixtures, allocation rates, thread
// dynamics) are chosen so the fleet-level shapes of Figs. 5, 7 and 8
// emerge: ~98% of objects < 1 KiB but only ~28% of bytes, >8 KiB objects
// ~50% of bytes, lifetimes from < 1 ms to effectively-forever, and
// per-application malloc tax between ~3.5% and ~10%.

#ifndef WSC_WORKLOAD_PROFILES_H_
#define WSC_WORKLOAD_PROFILES_H_

#include <cstdint>
#include <vector>

#include "workload/workload.h"

namespace wsc::workload {

// --- Production workloads (fleet top-5 by malloc usage) ---
WorkloadSpec SpannerProfile();     // distributed SQL node with block cache
WorkloadSpec MonarchProfile();     // in-memory time-series store
WorkloadSpec BigtableProfile();    // NoSQL tablet server
WorkloadSpec F1QueryProfile();     // distributed query engine
WorkloadSpec DiskProfile();        // distributed storage server

// --- Dedicated-server benchmarks ---
WorkloadSpec RedisProfile();            // single-threaded KV store, 1000 B ops
WorkloadSpec DataPipelineProfile();     // word count over 100M words
WorkloadSpec ImageProcessingProfile();  // image filter/transform server
WorkloadSpec TensorflowProfile();       // InceptionV3 serving

// --- Contrast workload ---
WorkloadSpec SpecLikeProfile();  // allocate-at-start, near-zero steady malloc

// The paper's top-5 production workloads, in its reporting order.
std::vector<WorkloadSpec> TopFiveProfiles();

// The four benchmarks, in the paper's reporting order.
std::vector<WorkloadSpec> BenchmarkProfiles();

// A synthetic fleet binary: a jittered variant of one of the base
// profiles, for populating many-binary fleets (Fig. 3). `rank` selects the
// base profile family deterministically; `seed` jitters the parameters.
WorkloadSpec SyntheticBinary(int rank, uint64_t seed);

}  // namespace wsc::workload

#endif  // WSC_WORKLOAD_PROFILES_H_
