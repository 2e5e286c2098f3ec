// Fig. 13: correlation between the number of live allocations on a span
// and the probability the span is returned to the page heap (16 B size
// class in the paper).
//
// Paper: spans with few live allocations are released at a high rate; the
// rate falls steeply as live allocations grow — the basis for span
// prioritization. The fleet telemetry behind the figure spans two weeks of
// demand ebb and flow; this bench compresses that into epochs: each epoch
// allocates a burst of 16 B objects with heavily skewed lifetimes, retires
// the expired ones, lets the background maintenance drain the caches (as
// happens on production machines when a class goes quiet), and snapshots
// every span's live count. A span "returns" if it leaves the central free
// list before the next snapshot.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "tcmalloc/allocator.h"

using namespace wsc;

int main(int argc, char** argv) {
  bench::ParseBenchFlags(argc, argv);
  PrintBanner("Fig. 13: span return rate vs live allocations");
  bench::BenchTimer timer("fig13_span_return_rate");

  tcmalloc::AllocatorConfig config =
      tcmalloc::AllocatorConfig::Builder().WithVcpus(4).Build();
  tcmalloc::Allocator alloc(config);
  Rng rng(1301);

  int cls = alloc.size_classes().ClassFor(16);
  int capacity = alloc.size_classes().objects_per_span(cls);
  std::printf("size class: %zu B, span capacity %d objects\n",
              alloc.size_classes().class_size(cls), capacity);

  struct Live {
    uintptr_t addr;
    int death_epoch;
  };
  std::vector<Live> live;
  auto& cfl = alloc.central_free_list(cls);
  std::map<int, std::pair<uint64_t, uint64_t>> by_bucket;
  std::vector<tcmalloc::CentralFreeList::SpanSnapshot> last_snapshot;

  const int kEpochs =
      bench::g_bench_max_requests > 0
          ? static_cast<int>(
                std::min<uint64_t>(bench::g_bench_max_requests, 250))
          : 250;
  SimTime now = 0;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    // Demand follows a slow load wave (the fleet's diurnal dynamics):
    // during deep troughs the class sees almost no allocations and spans
    // drain without being refilled.
    double load = 0.5 + 0.5 * std::sin(2.0 * M_PI * epoch / 50.0);
    load *= 0.8 + 0.4 * rng.UniformDouble();
    int burst = static_cast<int>(30000 * std::max(0.0, load - 0.15));
    // Lifetimes are temporally correlated: objects allocated together in
    // one request phase mostly die together (chunks of 256 consecutive
    // allocations share a death epoch), with a 10% per-object straggler
    // tail. This is what lets spans fully drain in production — and what
    // leaves low-occupancy spans pinned by a handful of stragglers.
    int chunk_death = epoch + 1;
    for (int i = 0; i < burst; ++i) {
      if (i % 256 == 0) {
        int lifetime = 1;
        while (lifetime < 64 && rng.Bernoulli(0.30)) lifetime *= 2;
        chunk_death = epoch + lifetime;
      }
      int death = chunk_death;
      if (rng.Bernoulli(0.1)) {
        int lifetime = 1;
        while (lifetime < 64 && rng.Bernoulli(0.30)) lifetime *= 2;
        death = epoch + lifetime;
      }
      uintptr_t addr = alloc.Allocate(8 + rng.UniformInt(9), 0, now);
      live.push_back({addr, death});
    }
    // Retire expired objects.
    size_t kept = 0;
    for (const Live& obj : live) {
      if (obj.death_epoch > epoch) {
        live[kept++] = obj;
      } else {
        alloc.Free(obj.addr, 0, now);
      }
    }
    live.resize(kept);

    // Background maintenance: two passes a resize-interval apart let idle
    // vCPU caches be reclaimed and cold transfer-cache objects drain,
    // exactly like a production machine whose class went quiet.
    now += Seconds(6);
    alloc.Maintain(now);
    now += Seconds(6);
    alloc.Maintain(now);

    // Telemetry: which of last epoch's spans returned, by live count.
    std::vector<uint64_t> returned = cfl.DrainReturnedSpanIds();
    std::set<uint64_t> returned_set(returned.begin(), returned.end());
    for (const auto& snap : last_snapshot) {
      int bucket = snap.live_objects * 10 / capacity;
      auto& [obs, ret] = by_bucket[bucket];
      ++obs;
      if (returned_set.count(snap.span_id)) ++ret;
    }
    last_snapshot = cfl.SnapshotSpans();
  }

  TablePrinter table({"live allocations (decile of capacity)",
                      "spans observed", "return rate %"});
  std::vector<std::pair<double, double>> series;
  for (const auto& [bucket, counts] : by_bucket) {
    double rate =
        counts.first > 0 ? 100.0 * counts.second / counts.first : 0.0;
    table.AddRow({std::to_string(bucket * 10) + "-" +
                      std::to_string(bucket * 10 + 10) + "%",
                  std::to_string(counts.first), FormatDouble(rate, 2)});
    series.push_back({bucket * 10.0, rate});
  }
  table.Print();

  double low = series.empty() ? 0 : series.front().second;
  double high = series.empty() ? 0 : series.back().second;
  bench::PaperVsMeasured(
      "return rate, few vs many live allocations", "high -> near zero",
      FormatDouble(low, 1) + "% -> " + FormatDouble(high, 1) + "%");
  std::printf(
      "\nshape check: the more live allocations a span carries, the less\n"
      "likely it is released — allocating from fuller spans is safer.\n");
  timer.Report(static_cast<uint64_t>(kEpochs));
  bench::ReportTelemetry(timer.bench(), alloc.TelemetrySnapshot());
  return 0;
}
