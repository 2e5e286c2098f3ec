// Command-line flags shared by the benchmark's drivers.

#ifndef WSCBENCH_FLAGS_H_
#define WSCBENCH_FLAGS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "stats.h"
#include "workload.h"

namespace wscbench {

struct Flags {
  Workload workload = Workload::kRpcServer;
  uint64_t seed = 1;
  double seconds = 4;
  // setup_s is SetupSeconds(): the process's CPU time when main started
  // (exec, dynamic loading, static initialisers and, under LD_PRELOAD,
  // the shim's bootstrap and arena reservation, which libstdc++'s static
  // initialisers trigger before main) plus the wall time from main on.
  // Timing exec from the parent instead adds milliseconds of fork/exec
  // noise that no allocator change moves.
  uint64_t main_ns = 0;
  uint64_t premain_cpu_ns = 0;
  bool require_shim = false;
  // When > 0, each worker stops after this many timed requests (at the
  // next stream wrap for phase_heap) instead of after `seconds`.
  uint64_t max_requests = 0;
  // Direct arm only: record spans.
  bool traced = false;
  const char* spans_out = nullptr;
  // wscbench_sim only: "setup", "replay" or "fleet" (nullptr = all).
  const char* part = nullptr;
};

// Set-up time up to `now`, leaving out `excluded_ns` of wall time spent
// after main on work that is not set-up (stream generation).
inline double SetupSeconds(const Flags& f, uint64_t now, uint64_t excluded_ns) {
  return static_cast<double>(f.premain_cpu_ns + (now - f.main_ns) -
                             excluded_ns) *
         1e-9;
}

// Call first thing in main.
inline bool ParseFlags(int argc, char** argv, Flags* f) {
  f->main_ns = NowNs();
  f->premain_cpu_ns = ProcessCpuNs();
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [a](const char* name) -> const char* {
      const size_t n = std::strlen(name);
      return std::strncmp(a, name, n) == 0 && a[n] == '=' ? a + n + 1
                                                           : nullptr;
    };
    if (const char* v = value("--workload")) {
      if (!ParseWorkload(v, &f->workload)) {
        std::fprintf(stderr, "unknown workload: %s\n", v);
        return false;
      }
    } else if (const char* v = value("--seed")) {
      f->seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      f->seconds = std::strtod(v, nullptr);
    } else if (const char* v = value("--max-requests")) {
      f->max_requests = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--spans-out")) {
      f->spans_out = v;
    } else if (const char* v = value("--part")) {
      f->part = v;
    } else if (std::strcmp(a, "--require-shim") == 0) {
      f->require_shim = true;
    } else if (std::strcmp(a, "--traced") == 0) {
      f->traced = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a);
      return false;
    }
  }
  return true;
}

}  // namespace wscbench

#endif  // WSCBENCH_FLAGS_H_
