#include "workload/profiles.h"

#include <algorithm>

#include "common/rng.h"

namespace wsc::workload {

// Calibration notes.
//
// All lifetime scales are compressed relative to the production fleet
// (seconds of simulation stand in for hours of production time) so that
// steady state is reached within runs of a few virtual minutes; the
// *relative* structure — small objects mostly short-lived, large objects
// long-lived, heavy tails in both dimensions — matches Figs. 7/8. Steady
// live-set sizes target 0.5-3 GiB per process:
//   live_bytes ~= alloc_rate * sum_i w_i * E[size_i] * E[lifetime_i].
// request_work_ns sets each workload's malloc tax (Fig. 5a ordering:
// f1-query and data-pipeline highest, monarch and spec-like lowest).

namespace {

// Effectively-forever lifetime (censored at drain time, like a production
// server profiled mid-life).
std::shared_ptr<const Distribution> Forever() {
  return LifetimePoint(static_cast<double>(Days(365)));
}

}  // namespace

WorkloadSpec SpannerProfile() {
  WorkloadSpec spec;
  spec.name = "spanner";
  spec.behaviors = {
      // RPC scratch and row decode buffers.
      MakeBehavior(0.70, SizeLognormal(64, 3.0),
                   LifetimeLognormal(Microseconds(300), 4.0)),
      // Same sizes, long lived (directory entries): within-class lifetime
      // diversity (Fig. 8) that pins spans and drives CFL fragmentation.
      MakeBehavior(0.03, SizeLognormal(64, 3.0),
                   LifetimeLognormal(Seconds(3), 3.0)),
      // Transaction / session state.
      MakeBehavior(0.18, SizeLognormal(4096, 2.0),
                   LifetimeLognormal(Milliseconds(400), 4.0)),
      MakeBehavior(0.02, SizeLognormal(4096, 2.0),
                   LifetimeLognormal(Seconds(5), 3.0)),
      // Storage block cache entries (adapts to provisioned memory).
      MakeBehavior(0.06, SizeLognormal(32 * 1024, 2.0),
                   LifetimeLognormal(Milliseconds(1500), 3.0)),
      // Large intermediate buffers.
      MakeBehavior(0.025, SizeLognormal(128 * 1024, 2.0),
                   LifetimeLognormal(Milliseconds(300), 3.0)),
      // Occasional very large allocations (compaction, snapshots).
      MakeBehavior(0.001,
                   SizePareto(1024.0 * 1024, 1.5, 16.0 * 1024 * 1024),
                   LifetimeLognormal(Milliseconds(200), 3.0)),
  };
  spec.allocs_per_request = 12;
  spec.request_work_ns = 4100;
  spec.request_interval_ns = Milliseconds(3);
  spec.touches_per_alloc = 2;
  spec.reuse_touches_per_request = 12;
  spec.min_threads = 8;
  spec.max_threads = 24;
  spec.thread_period = Seconds(6);
  spec.startup_bytes = 500e6;
  // Long-lived state is dominated by small objects (row index entries),
  // matching the fleet's capacity-lifetime correlation (Fig. 16).
  spec.startup_object_size = SizeLognormal(320, 2.5);
  return spec;
}

WorkloadSpec MonarchProfile() {
  WorkloadSpec spec;
  spec.name = "monarch";
  spec.behaviors = {
      // Query evaluation scratch.
      MakeBehavior(0.48, SizeLognormal(48, 2.5),
                   LifetimeLognormal(Microseconds(200), 4.0)),
      MakeBehavior(0.03, SizeLognormal(48, 2.5),
                   LifetimeLognormal(Seconds(4), 3.0)),
      // Stream data points held in memory (long lived) plus short-lived
      // decode copies of the same sizes (Fig. 8's within-class diversity).
      MakeBehavior(0.30, SizeLognormal(1024, 2.0),
                   LifetimeLognormal(Seconds(5), 4.0)),
      MakeBehavior(0.05, SizeLognormal(1024, 2.0),
                   LifetimeLognormal(Milliseconds(5), 4.0)),
      // Time-series blocks.
      MakeBehavior(0.06, SizeLognormal(16 * 1024, 2.0),
                   LifetimeLognormal(Seconds(8), 3.0)),
      // Large aggregation buffers.
      MakeBehavior(0.006, SizeLognormal(256 * 1024, 2.0),
                   LifetimeLognormal(Seconds(2), 3.0)),
  };
  spec.allocs_per_request = 8;
  spec.request_work_ns = 4900;
  spec.request_interval_ns = Milliseconds(4);
  spec.touches_per_alloc = 2;
  spec.reuse_touches_per_request = 16;
  spec.min_threads = 2;
  spec.max_threads = 16;
  spec.thread_period = Seconds(7);
  // Long-lived in-memory time-series index: many small pinned objects,
  // the driver of monarch's high fragmentation.
  spec.startup_bytes = 800e6;
  spec.startup_object_size = SizeLognormal(256, 2.0);
  return spec;
}

WorkloadSpec BigtableProfile() {
  WorkloadSpec spec;
  spec.name = "bigtable";
  spec.behaviors = {
      // RPC handling and key decode.
      MakeBehavior(0.82, SizeLognormal(256, 2.5),
                   LifetimeLognormal(Milliseconds(1), 4.0)),
      MakeBehavior(0.03, SizeLognormal(256, 2.5),
                   LifetimeLognormal(Seconds(3), 3.0)),
      // SSTable blocks served to clients; a slice stays pinned in the
      // block cache (within-class lifetime diversity).
      MakeBehavior(0.10, SizeLognormal(8 * 1024, 1.8),
                   LifetimeLognormal(Milliseconds(1500), 4.0)),
      MakeBehavior(0.02, SizeLognormal(8 * 1024, 1.8),
                   LifetimeLognormal(Seconds(8), 3.0)),
      // Compaction buffers.
      MakeBehavior(0.02, SizeLognormal(64 * 1024, 2.0),
                   LifetimeLognormal(Milliseconds(400), 3.0)),
      // Memtable chunks.
      MakeBehavior(0.001, SizeLognormal(1024 * 1024, 1.6),
                   LifetimeLognormal(Milliseconds(300), 2.0)),
  };
  spec.allocs_per_request = 14;
  spec.request_work_ns = 2800;
  spec.request_interval_ns = Microseconds(2500);
  spec.touches_per_alloc = 3;
  spec.reuse_touches_per_request = 10;
  spec.min_threads = 12;
  spec.max_threads = 32;
  spec.thread_period = Seconds(5);
  spec.startup_bytes = 400e6;
  spec.startup_object_size = SizeLognormal(384, 2.0);
  return spec;
}

WorkloadSpec F1QueryProfile() {
  WorkloadSpec spec;
  spec.name = "f1-query";
  spec.behaviors = {
      // Expression evaluation temporaries: tiny, extremely short lived.
      MakeBehavior(0.85, SizeLognormal(32, 3.0),
                   LifetimeLognormal(Microseconds(100), 4.0)),
      // Plan-cache entries of the same sizes, living across queries.
      MakeBehavior(0.03, SizeLognormal(32, 3.0),
                   LifetimeLognormal(Seconds(2), 3.0)),
      // Row batches flowing between operators.
      MakeBehavior(0.12, SizeLognormal(2048, 2.0),
                   LifetimeLognormal(Milliseconds(50), 4.0)),
      // Hash-join / sort buffers.
      MakeBehavior(0.004, SizeLognormal(128 * 1024, 2.0),
                   LifetimeLognormal(Milliseconds(300), 3.0)),
  };
  spec.allocs_per_request = 30;
  spec.request_work_ns = 2100;
  spec.request_interval_ns = Milliseconds(2);
  spec.touches_per_alloc = 1;
  spec.reuse_touches_per_request = 6;
  spec.min_threads = 4;
  spec.max_threads = 28;
  spec.thread_period = Seconds(5);
  spec.startup_bytes = 200e6;
  spec.startup_object_size = SizeLognormal(256, 2.0);
  return spec;
}

WorkloadSpec DiskProfile() {
  WorkloadSpec spec;
  spec.name = "disk";
  spec.behaviors = {
      // RPC metadata.
      MakeBehavior(0.86, SizeLognormal(128, 2.5),
                   LifetimeLognormal(Microseconds(500), 4.0)),
      // Open-file table entries of the same sizes (long lived).
      MakeBehavior(0.02, SizeLognormal(128, 2.5),
                   LifetimeLognormal(Seconds(3), 3.0)),
      // Read/write I/O buffers.
      MakeBehavior(0.09, SizeLognormal(64 * 1024, 1.6),
                   LifetimeLognormal(Milliseconds(400), 3.0)),
      // Larger striped buffers.
      MakeBehavior(0.012, SizeLognormal(512 * 1024, 1.5),
                   LifetimeLognormal(Milliseconds(500), 2.5)),
      // Full-chunk buffers.
      MakeBehavior(0.0008, SizeLognormal(4.0 * 1024 * 1024, 1.4),
                   LifetimeLognormal(Milliseconds(600), 2.0)),
  };
  spec.allocs_per_request = 10;
  spec.request_work_ns = 3700;
  spec.request_interval_ns = Milliseconds(2);
  spec.touches_per_alloc = 4;
  spec.reuse_touches_per_request = 8;
  spec.min_threads = 6;
  spec.max_threads = 16;
  spec.thread_period = Seconds(6);
  spec.startup_bytes = 150e6;
  spec.startup_object_size = SizeLognormal(512, 2.0);
  return spec;
}

WorkloadSpec RedisProfile() {
  WorkloadSpec spec;
  spec.name = "redis";
  spec.behaviors = {
      // 1000 B values (redis-benchmark -d 1000), overwritten/evicted on a
      // long horizon.
      MakeBehavior(0.80, SizeLognormal(1000, 1.2),
                   LifetimeLognormal(Seconds(3), 4.0)),
      // Small per-command scratch.
      MakeBehavior(0.18, SizeLognormal(64, 2.0),
                   LifetimeLognormal(Milliseconds(1), 3.0)),
      // Dict rehash chunks.
      MakeBehavior(0.02, SizeLognormal(16 * 1024, 2.0),
                   LifetimeLognormal(Seconds(5), 3.0)),
  };
  spec.allocs_per_request = 3;
  spec.request_work_ns = 1000;
  spec.request_interval_ns = Microseconds(100);
  spec.touches_per_alloc = 4;
  spec.reuse_touches_per_request = 6;
  spec.min_threads = 1;
  spec.max_threads = 1;  // Redis is single-threaded
  spec.startup_bytes = 300e6;
  spec.startup_object_size = SizeLognormal(320, 1.5);
  return spec;
}

WorkloadSpec DataPipelineProfile() {
  WorkloadSpec spec;
  spec.name = "data-pipeline";
  spec.behaviors = {
      // Word strings: tiny, immediately consumed.
      MakeBehavior(0.85, SizeLognormal(16, 1.8),
                   LifetimeLognormal(Microseconds(100), 3.0)),
      // Hash-table nodes of the running count (live until the end).
      MakeBehavior(0.10, SizeLognormal(64, 1.5),
                   LifetimeLognormal(Seconds(60), 2.0)),
      // Input chunks.
      MakeBehavior(0.05, SizeLognormal(256 * 1024, 1.5),
                   LifetimeLognormal(Milliseconds(50), 2.0)),
  };
  spec.allocs_per_request = 50;
  spec.request_work_ns = 5000;
  spec.request_interval_ns = Microseconds(1500);
  spec.touches_per_alloc = 1;
  spec.reuse_touches_per_request = 10;
  spec.min_threads = 2;
  spec.max_threads = 8;
  spec.thread_period = Seconds(7);
  spec.startup_bytes = 100e6;
  spec.startup_object_size = SizeLognormal(64, 1.5);
  return spec;
}

WorkloadSpec ImageProcessingProfile() {
  WorkloadSpec spec;
  spec.name = "image-processing";
  spec.behaviors = {
      // Request metadata and small headers.
      MakeBehavior(0.92, SizeLognormal(256, 2.5),
                   LifetimeLognormal(Milliseconds(1), 3.0)),
      // Tile buffers.
      MakeBehavior(0.06, SizeLognormal(128 * 1024, 1.8),
                   LifetimeLognormal(Milliseconds(300), 3.0)),
      // Whole-image buffers.
      MakeBehavior(0.02, SizeLognormal(1024 * 1024, 1.8),
                   LifetimeLognormal(Milliseconds(400), 2.5)),
  };
  spec.allocs_per_request = 8;
  spec.request_work_ns = 8500;
  spec.request_interval_ns = Milliseconds(4);
  spec.touches_per_alloc = 6;
  spec.reuse_touches_per_request = 12;
  spec.min_threads = 2;
  spec.max_threads = 12;
  spec.thread_period = Seconds(6);
  spec.startup_bytes = 200e6;
  spec.startup_object_size = SizeLognormal(256, 2.0);
  return spec;
}

WorkloadSpec TensorflowProfile() {
  WorkloadSpec spec;
  spec.name = "tensorflow";
  spec.behaviors = {
      // Tensor metadata / Eigen expression temporaries.
      MakeBehavior(0.85, SizeLognormal(96, 3.0),
                   LifetimeLognormal(Microseconds(500), 4.0)),
      // Small activations.
      MakeBehavior(0.10, SizeLognormal(16 * 1024, 2.5),
                   LifetimeLognormal(Milliseconds(60), 3.0)),
      // Layer activations.
      MakeBehavior(0.04, SizeLognormal(512 * 1024, 2.0),
                   LifetimeLognormal(Milliseconds(150), 2.0)),
      // Large per-batch activations.
      MakeBehavior(0.008, SizeLognormal(4.0 * 1024 * 1024, 1.5),
                   LifetimeLognormal(Milliseconds(120), 2.0)),
      // Rare arena growth for the session state, effectively permanent.
      MakeBehavior(0.0004, SizeLognormal(2.0 * 1024 * 1024, 1.4), Forever()),
  };
  spec.allocs_per_request = 20;
  spec.request_work_ns = 12000;
  spec.request_interval_ns = Milliseconds(5);
  spec.touches_per_alloc = 6;
  spec.reuse_touches_per_request = 16;
  spec.min_threads = 2;
  spec.max_threads = 16;
  spec.thread_period = Seconds(6);
  // Model weights: loaded once, live forever (the fleet's ">1 GiB objects
  // live >1 day" tail).
  spec.startup_bytes = 600e6;
  spec.startup_object_size = SizeLognormal(8.0 * 1024 * 1024, 1.4);
  return spec;
}

WorkloadSpec SpecLikeProfile() {
  WorkloadSpec spec;
  spec.name = "spec-like";
  spec.behaviors = {
      // Rare short-lived temporaries in steady state.
      MakeBehavior(0.95, SizeLognormal(64, 2.0),
                   LifetimeLognormal(Microseconds(50), 3.0)),
      // Occasional small long-lived additions.
      MakeBehavior(0.05, SizeLognormal(1024, 2.0),
                   LifetimeLognormal(Seconds(10), 3.0)),
  };
  spec.allocs_per_request = 1;
  spec.request_work_ns = 50000;  // compute-bound: near-zero malloc tax
  spec.request_interval_ns = Microseconds(60);
  spec.touches_per_alloc = 2;
  spec.reuse_touches_per_request = 20;
  spec.min_threads = 1;
  spec.max_threads = 4;
  // Everything interesting is allocated at startup (SPEC-style).
  spec.startup_bytes = 700e6;
  spec.startup_object_size = SizeLognormal(384, 2.5);
  return spec;
}

std::vector<WorkloadSpec> TopFiveProfiles() {
  return {SpannerProfile(), MonarchProfile(), BigtableProfile(),
          F1QueryProfile(), DiskProfile()};
}

std::vector<WorkloadSpec> BenchmarkProfiles() {
  return {RedisProfile(), DataPipelineProfile(), ImageProcessingProfile(),
          TensorflowProfile()};
}

WorkloadSpec SyntheticBinary(int rank, uint64_t seed) {
  // Base family rotates through the production profiles; parameters are
  // jittered so every binary behaves distinctly (the fleet's diversity).
  std::vector<WorkloadSpec> bases = TopFiveProfiles();
  bases.push_back(DataPipelineProfile());
  bases.push_back(ImageProcessingProfile());
  bases.push_back(TensorflowProfile());
  WorkloadSpec spec = bases[static_cast<size_t>(rank) % bases.size()];
  Rng rng(seed ^ (static_cast<uint64_t>(rank) * 0x9e3779b97f4a7c15ULL));
  spec.name = "binary-" + std::to_string(rank) + "-" + spec.name;
  // The wide fleet is less allocation-intensive than the top-5 malloc
  // users (fleet tax 4.3% vs up to 10.1%), so most variants get more
  // application work per request.
  spec.request_work_ns *= 0.8 + 4.0 * rng.UniformDouble();
  spec.allocs_per_request = std::max(
      1.0, spec.allocs_per_request * (0.7 + 0.6 * rng.UniformDouble()));
  spec.startup_bytes *= 0.5 + rng.UniformDouble();
  for (Behavior& b : spec.behaviors) {
    b.weight *= 0.7 + 0.6 * rng.UniformDouble();
  }
  spec.max_threads = std::max(
      spec.min_threads,
      static_cast<int>(spec.max_threads * (0.5 + rng.UniformDouble())));
  return spec;
}

}  // namespace wsc::workload
