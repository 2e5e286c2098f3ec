// Idle memory-return probes: does memory come back when the program stops
// asking for it, with no release call?
//
//   bench_idle --probe=1   one thread allocates 20 000 blocks of 16 B-512 KiB
//                          (log-uniform, ~1 GB), frees them all, then idles;
//                          RSS every 250 ms for 1.5 s.
//   bench_idle --probe=2   32 threads each allocate and free 4 rounds of
//                          4 000 blocks of 12 B-128 KiB, then idle while
//                          alive; RSS with the threads alive, after 1 s of
//                          idle, and after they joined.
//
// Neither probe calls wscmalloc_release_memory or malloc_trim: whatever
// comes back, the allocator gave back on its own. Like every preload
// bench it links no wsc code, so the same binary runs on glibc and,
// under LD_PRELOAD, on the shim. check_idle.sh runs both arms and fails
// when the shim holds more than glibc. Blocks are written in full, so
// every page is faulted in. --seed picks the size streams; the other
// shared flags are accepted and ignored.

#include <pthread.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "preload_util.h"

namespace {

using wsc_preload::ReadRssBytes;
using wsc_preload::Rng;

// A log-uniform size in [lo, hi].
size_t LogUniform(Rng& rng, double lo, double hi) {
  const double u = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53;
  return static_cast<size_t>(lo * std::pow(hi / lo, u));
}

void SleepMs(long ms) {
  struct timespec ts = {ms / 1000, (ms % 1000) * 1000000};
  while (nanosleep(&ts, &ts) != 0) {
  }
}

void* AllocTouched(size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) std::abort();
  std::memset(p, 0xA5, size);
  return p;
}

std::string ProbeFreeAllThenIdle(uint64_t seed) {
  constexpr int kBlocks = 20000;
  constexpr int kReadings = 7;  // 0, 250, ..., 1500 ms
  Rng rng(seed);
  std::vector<void*> blocks(kBlocks);
  for (void*& p : blocks) p = AllocTouched(LogUniform(rng, 16, 512 * 1024));
  const size_t rss_peak = ReadRssBytes();
  for (void* p : blocks) std::free(p);
  std::string out = "\"probe\":1,\"blocks\":" + std::to_string(kBlocks) +
                    ",\"rss_peak\":" + std::to_string(rss_peak);
  for (int i = 0; i < kReadings; ++i) {
    if (i > 0) SleepMs(250);
    out += ",\"rss_" + std::to_string(250 * i) +
           "ms\":" + std::to_string(ReadRssBytes());
  }
  return out;
}

struct Probe2 {
  static constexpr int kThreads = 32;
  static constexpr int kRounds = 4;
  static constexpr int kBlocks = 4000;

  uint64_t seed = 1;
  std::atomic<int> done{0};
  std::atomic<bool> exit{false};
};

void* Probe2Worker(void* arg) {
  auto* probe = static_cast<Probe2*>(arg);
  static std::atomic<uint64_t> next_stream{0};
  Rng rng(probe->seed * 1000 + next_stream.fetch_add(1));
  std::vector<void*> blocks(Probe2::kBlocks);
  for (int round = 0; round < Probe2::kRounds; ++round) {
    for (void*& p : blocks) p = AllocTouched(LogUniform(rng, 12, 128 * 1024));
    for (void* p : blocks) std::free(p);
  }
  probe->done.fetch_add(1);
  // Idle, alive: whatever this thread's allocator state holds stays.
  while (!probe->exit.load()) SleepMs(10);
  return nullptr;
}

std::string ProbeThreadsIdleThenJoin(uint64_t seed) {
  Probe2 probe;
  probe.seed = seed;
  pthread_t tids[Probe2::kThreads];
  for (pthread_t& tid : tids) {
    if (pthread_create(&tid, nullptr, &Probe2Worker, &probe) != 0) {
      std::abort();
    }
  }
  while (probe.done.load() < Probe2::kThreads) SleepMs(10);
  const size_t rss_alive = ReadRssBytes();
  SleepMs(1000);
  const size_t rss_alive_1s = ReadRssBytes();
  probe.exit.store(true);
  for (pthread_t tid : tids) pthread_join(tid, nullptr);
  const size_t rss_joined = ReadRssBytes();
  return "\"probe\":2,\"threads\":" + std::to_string(Probe2::kThreads) +
         ",\"rss_alive\":" + std::to_string(rss_alive) +
         ",\"rss_alive_1s\":" + std::to_string(rss_alive_1s) +
         ",\"rss_joined\":" + std::to_string(rss_joined);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsc_preload;
  // --probe=N is this bench's own flag; the rest are the shared ones.
  int probe = 0;
  std::vector<char*> shared_args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--probe=", 8) == 0) {
      probe = std::atoi(argv[i] + 8);
    } else {
      shared_args.push_back(argv[i]);
    }
  }
  if (probe != 1 && probe != 2) {
    std::fprintf(stderr, "usage: bench_idle --probe=1|2 [--seed=N]\n");
    return 2;
  }
  PreloadFlags flags = ParsePreloadFlags(static_cast<int>(shared_args.size()),
                                         shared_args.data());
  ShimApi shim = DiscoverShim();
  const std::string fields = probe == 1 ? ProbeFreeAllThenIdle(flags.seed)
                                        : ProbeThreadsIdleThenJoin(flags.seed);
  EmitReport(flags, "idle",
             std::string("{\"bench\":\"idle\",\"allocator\":\"") +
                 AllocatorName(shim) + "\"," + fields + "}");
  return 0;
}
