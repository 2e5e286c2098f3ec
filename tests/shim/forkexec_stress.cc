// fork/exec stress for the LD_PRELOAD shim (run by interposition_smoke.sh
// both bare and under LD_PRELOAD=libwscmalloc.so).
//
// The hostile sequence for a preloaded allocator is fork() from a
// multi-threaded process: POSIX only guarantees the child can run
// async-signal-safe code, so if another thread held an allocator lock at
// fork time, the child's first malloc deadlocks. The shim handles this
// with pthread_atfork handlers that quiesce every lock; this binary
// proves it by forking children from a process with allocator-hammering
// threads, then having each child malloc/free and either _exit or
// execve(/bin/true) — exec also re-runs the whole preload bootstrap in
// the new image, since LD_PRELOAD survives exec. A churn thread spawns
// and joins short-lived allocating threads throughout, so fork() also
// races the shim returning an exiting thread's cache and the next
// thread taking it back. Population threads allocate and then free whole
// populations of small objects and neighbouring large blocks, and
// release memory between rounds, so fork() also races spans going back
// to the page heap (a class lock held while the page-heap lock is
// taken), large blocks coalescing, and madvise release.
//
// Flags:
//   --require-shim   fail unless wscmalloc is interposed (used by the
//                    smoke script to prove LD_PRELOAD took effect)
//   --children=N     forks to perform (default 16)
//
// Exit 0 = every child exited 0 and no deadlock occurred (the smoke
// script adds a timeout as the deadlock detector).

#include <dlfcn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

namespace {

std::atomic<bool> g_stop{false};

// Allocator churn designed to hold allocator locks often: large
// allocations take the page-heap lock, small ones the transfer and
// central free list locks.
void Hammer(unsigned seed) {
  unsigned state = seed;
  std::vector<void*> live(64, nullptr);
  while (!g_stop.load(std::memory_order_relaxed)) {
    state = state * 1664525u + 1013904223u;
    const size_t slot = state % live.size();
    free(live[slot]);
    const size_t size = (state >> 8) % 2 ? (state >> 16) % 4096 + 1
                                         : size_t{512} * 1024;
    live[slot] = malloc(size);
    if (live[slot] != nullptr) {
      std::memset(live[slot], 1, size < 16 ? size : 16);
    }
  }
  for (void* p : live) free(p);
}

// Whole populations: a burst of small objects with a large block every
// 64th allocation, all freed together, so the small objects' spans empty
// and go back to the page heap, where they coalesce with the freed large
// blocks; then a release when the shim exports one.
void Populations(unsigned seed) {
  auto release = reinterpret_cast<size_t (*)(size_t)>(
      dlsym(RTLD_DEFAULT, "wscmalloc_release_memory"));
  unsigned state = seed;
  std::vector<void*> population;
  population.reserve(2048);
  while (!g_stop.load(std::memory_order_relaxed)) {
    for (int i = 0; i < 2048; ++i) {
      state = state * 1664525u + 1013904223u;
      const size_t size = i % 64 == 0 ? (state >> 8) % (size_t{1} << 20) +
                                            size_t{300} * 1024
                                      : (state >> 8) % 1024 + 1;
      void* p = malloc(size);
      if (p == nullptr) continue;
      std::memset(p, 3, size < 16 ? size : 16);
      population.push_back(p);
    }
    for (void* p : population) free(p);
    population.clear();
    if (release != nullptr) release(~size_t{0});
  }
}

// Short-lived threads, one at a time, each allocating a little and
// exiting.
void Churn() {
  unsigned round = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    ++round;
    std::thread([round] {
      void* blocks[32];
      for (unsigned i = 0; i < 32; ++i) {
        blocks[i] = malloc((round * 31 + i * 97) % 2048 + 16);
      }
      for (void* p : blocks) free(p);
    }).join();
  }
}

int ChildBody(bool do_exec) {
  // First mallocs after fork — the deadlock probe.
  for (int i = 0; i < 100; ++i) {
    void* p = malloc((i % 7 + 1) * 100);
    if (p == nullptr) return 1;
    std::memset(p, 2, 16);
    free(p);
  }
  void* big = malloc(size_t{1} << 20);
  if (big == nullptr) return 1;
  free(big);
  if (do_exec) {
    char arg0[] = "/bin/true";
    char* argv[] = {arg0, nullptr};
    execv(arg0, argv);
    return 1;  // exec failed
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool require_shim = false;
  int children = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--require-shim") == 0) {
      require_shim = true;
    } else if (std::strncmp(argv[i], "--children=", 11) == 0) {
      children = std::atoi(argv[i] + 11);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      return 2;
    }
  }

  auto is_active =
      reinterpret_cast<int (*)()>(dlsym(RTLD_DEFAULT, "wscmalloc_is_active"));
  const bool shim = is_active != nullptr && is_active() == 1;
  if (require_shim && !shim) {
    std::fprintf(stderr, "forkexec_stress: wscmalloc not interposed\n");
    return 1;
  }

  std::vector<std::thread> hammers;
  for (unsigned t = 0; t < 4; ++t) hammers.emplace_back(Hammer, t + 1);
  for (unsigned t = 0; t < 2; ++t) hammers.emplace_back(Populations, t + 11);
  std::thread churn(Churn);

  int failures = 0;
  for (int i = 0; i < children; ++i) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("fork");
      failures++;
      continue;
    }
    if (pid == 0) _exit(ChildBody(/*do_exec=*/i % 2 == 0));
    int status = 0;
    if (waitpid(pid, &status, 0) != pid ||
        !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      std::fprintf(stderr, "forkexec_stress: child %d failed (status %d)\n",
                   i, status);
      failures++;
    }
  }

  g_stop.store(true);
  for (auto& h : hammers) h.join();
  churn.join();

  if (failures != 0) return 1;
  std::printf("forkexec_stress: OK (%d children, shim=%s)\n", children,
              shim ? "wscmalloc" : "none");
  return 0;
}
