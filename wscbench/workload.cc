#include "workload.h"

#include <algorithm>
#include <cmath>

namespace wscbench {
namespace {

// Upper bounds on one pass, for the mmap reservations.
constexpr size_t kRpcMaxOpsPerRequest = 4 * kRpcRequestSlots + 16;
constexpr size_t kPhaseMaxOps = size_t{16} << 20;
constexpr uint32_t kPhaseMaxObjects = 4u << 20;

uint64_t WorkerSeed(uint64_t seed, int worker) {
  Rng r(seed ^ (0x51ed27f1d3a5b3c7ull * static_cast<uint64_t>(worker + 1)));
  return r.Next();
}

uint32_t LogUniform(Rng& rng, double lo, double hi) {
  const double v =
      std::exp(std::log(lo) + rng.Uniform() * (std::log(hi) - std::log(lo)));
  return std::max(static_cast<uint32_t>(lo), static_cast<uint32_t>(v));
}

// Fisher-Yates over a small index array.
template <typename T>
void Shuffle(Rng& rng, T* v, size_t n) {
  for (size_t i = n; i > 1; --i) std::swap(v[i - 1], v[rng.Next() % i]);
}

Op MakeOp(OpKind kind, uint32_t slot, uint32_t size = 0,
          uint8_t align_log2 = 0) {
  Op op;
  op.kind = kind;
  op.slot = slot;
  op.size = size;
  op.align_log2 = align_log2;
  return op;
}

// rpc_server: mostly <= 1 KiB, a tail to 32 KiB, nothing near the large
// path (kMaxSmallSize is 256 KiB).
uint32_t RpcSize(Rng& rng) {
  if (rng.Uniform() < 0.9) return LogUniform(rng, 8, 1024);
  return LogUniform(rng, 1024, 32768);
}

void GenerateRpc(uint64_t seed, Stream* s) {
  Rng rng(seed);
  s->ops.Reserve(kRpcStreamRequests * kRpcMaxOpsPerRequest);
  s->slots = kRpcRequestSlots + 1 + kRpcLruSlots;
  uint32_t lru_next = 0;
  uint32_t die[kRpcRequestSlots];
  uint32_t handoff[kRpcRequestSlots];
  for (uint32_t r = 0; r < kRpcStreamRequests; ++r) {
    s->ops.Push(MakeOp(OpKind::kDrainInbox, 0));
    const uint32_t n = static_cast<uint32_t>(rng.Range(16, 64));
    uint32_t str_size = static_cast<uint32_t>(rng.Range(16, 48));
    s->ops.Push(MakeOp(OpKind::kMalloc, kRpcStringSlot, str_size));
    // The string grows a few times, spread through the burst.
    const uint32_t grow_every = n / static_cast<uint32_t>(rng.Range(2, 5));
    uint32_t ndie = 0, nhandoff = 0;
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t size = RpcSize(rng);
      const double fate = rng.Uniform();
      if (fate < 1.0 / 32) {
        s->ops.Push(MakeOp(OpKind::kReplace,
                           kRpcStringSlot + 1 + lru_next, size));
        lru_next = (lru_next + 1) % kRpcLruSlots;
      } else {
        s->ops.Push(MakeOp(OpKind::kMalloc, i, size));
        if (fate < 1.0 / 32 + 1.0 / 8) {
          handoff[nhandoff++] = i;
        } else {
          die[ndie++] = i;
        }
      }
      if (grow_every > 0 && (i + 1) % grow_every == 0) {
        str_size = str_size * 2 - static_cast<uint32_t>(rng.Range(0, 8));
        s->ops.Push(MakeOp(OpKind::kRealloc, kRpcStringSlot, str_size));
      }
    }
    Shuffle(rng, die, ndie);
    for (uint32_t i = 0; i < ndie; ++i) {
      s->ops.Push(MakeOp(OpKind::kFree, die[i]));
    }
    s->ops.Push(MakeOp(OpKind::kFree, kRpcStringSlot));
    for (uint32_t i = 0; i < nhandoff; ++i) {
      s->ops.Push(MakeOp(OpKind::kHandoff, handoff[i]));
    }
    s->ops.Push(MakeOp(OpKind::kRequestEnd, 0));
    ++s->requests;
  }
}

// phase_heap size bands, one per phase, in ascending order every cycle.
uint32_t BandSize(Rng& rng, int band) {
  switch (band) {
    case 0:
      return static_cast<uint32_t>(rng.Range(16, 128));
    case 1:
      return static_cast<uint32_t>(rng.Range(1024, 8192));
    case 2:
      return static_cast<uint32_t>(rng.Range(32 << 10, 240 << 10));
    default:
      return LogUniform(rng, 256 << 10, 8 << 20);
  }
}

// Emits ops, closing a request every kPhaseRequestCalls calls.
struct PhaseEmitter {
  Stream* s;
  uint32_t calls = 0;
  void Call(const Op& op) {
    s->ops.Push(op);
    if (++calls == kPhaseRequestCalls) End();
  }
  void End() {
    if (calls == 0) return;
    s->ops.Push(MakeOp(OpKind::kRequestEnd, 0));
    ++s->requests;
    calls = 0;
  }
};

void GeneratePhase(uint64_t seed, Stream* s) {
  Rng rng(seed);
  s->ops.Reserve(kPhaseMaxOps);
  // Objects of phase k live in slot bank k % 2; survivors of phase k are
  // freed by phase k + 1's drain, before phase k + 2 reuses the bank.
  MmapVec<uint32_t> count_per_phase(kPhaseBands);
  count_per_phase.Resize(kPhaseBands);
  MmapVec<uint32_t> order(kPhaseMaxObjects);
  // Survivor flags per phase, indexed by object number.
  MmapVec<uint8_t> survive[kPhaseBands];
  for (auto& v : survive) v.Reserve(kPhaseMaxObjects);
  // Draw every phase's sizes first so the bank size is known.
  MmapVec<uint32_t> sizes[kPhaseBands];
  MmapVec<uint8_t> kinds[kPhaseBands];  // 0 malloc, 1 realloc chain, 2 memalign
  uint32_t bank = 0;
  for (int band = 0; band < kPhaseBands; ++band) {
    sizes[band].Reserve(kPhaseMaxObjects);
    kinds[band].Reserve(kPhaseMaxObjects);
    uint64_t bytes = 0;
    while (bytes < kPhaseTargetBytes) {
      uint32_t size = BandSize(rng, band);
      const double u = rng.Uniform();
      uint8_t kind = 0;
      if (u < 1.0 / 256) {
        kind = 2;
        size = (size + 4095) & ~4095u;
      } else if (u < 1.0 / 256 + 1.0 / 16) {
        kind = 1;
      }
      sizes[band].Push(size);
      kinds[band].Push(kind);
      survive[band].Push(rng.Uniform() < 0.1 ? 1 : 0);
      bytes += size;
    }
    count_per_phase[band] = static_cast<uint32_t>(sizes[band].size());
    bank = std::max(bank, count_per_phase[band]);
  }
  s->slots = 2 * bank;
  PhaseEmitter emit{s};
  for (int band = 0; band < kPhaseBands; ++band) {
    const uint32_t base = static_cast<uint32_t>(band % 2) * bank;
    const uint32_t n = count_per_phase[band];
    for (uint32_t i = 0; i < n; ++i) {
      const uint32_t size = sizes[band][i];
      switch (kinds[band][i]) {
        case 2:
          emit.Call(MakeOp(OpKind::kMemalign, base + i, size, 12));
          break;
        case 1:
          emit.Call(MakeOp(OpKind::kMalloc, base + i,
                           std::max<uint32_t>(16, size / 4)));
          emit.Call(MakeOp(OpKind::kRealloc, base + i,
                           std::max<uint32_t>(16, size / 2)));
          emit.Call(MakeOp(OpKind::kRealloc, base + i, size));
          break;
        default:
          emit.Call(MakeOp(OpKind::kMalloc, base + i, size));
      }
    }
    // Drain: the previous phase's survivors (absent on the first pass),
    // then ~90% of this phase in interleaved order, so neighbours in a
    // span die at different times (Fig. 5's fragmentation regime).
    const int prev = (band + kPhaseBands - 1) % kPhaseBands;
    const uint32_t prev_base = static_cast<uint32_t>(prev % 2) * bank;
    for (uint32_t i = 0; i < count_per_phase[prev]; ++i) {
      if (survive[prev][i]) {
        emit.Call(MakeOp(OpKind::kFreeIfAny, prev_base + i));
      }
    }
    const uint32_t stride = 1 + static_cast<uint32_t>(rng.Range(7, 15));
    order.Resize(0);
    for (uint32_t start = 0; start < stride; ++start) {
      for (uint32_t i = start; i < n; i += stride) order.Push(i);
    }
    for (uint32_t k = 0; k < order.size(); ++k) {
      const uint32_t i = order[k];
      if (!survive[band][i]) emit.Call(MakeOp(OpKind::kFree, base + i));
    }
    emit.End();
    emit.Call(MakeOp(OpKind::kRelease, 0));
    emit.End();
  }
}

}  // namespace

bool ParseWorkload(std::string_view name, Workload* out) {
  if (name == "rpc_server") {
    *out = Workload::kRpcServer;
  } else if (name == "phase_heap") {
    *out = Workload::kPhaseHeap;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadName(Workload w) {
  return w == Workload::kRpcServer ? "rpc_server" : "phase_heap";
}

WorkloadShape ShapeOf(Workload w) {
  WorkloadShape shape;
  if (w == Workload::kRpcServer) {
    shape.workers = 3;
    shape.requests_per_thread = 32768;
    shape.warmup_requests = 2048;
  } else {
    shape.workers = 2;
    shape.stop_at_wrap = true;
  }
  return shape;
}

void Generate(Workload w, uint64_t seed, Streams* out) {
  out->workload = w;
  out->seed = seed;
  out->workers = ShapeOf(w).workers;
  for (int i = 0; i < out->workers; ++i) {
    Stream* s = &out->per_worker[i];
    s->requests = 0;
    if (w == Workload::kRpcServer) {
      GenerateRpc(WorkerSeed(seed, i), s);
    } else {
      GeneratePhase(WorkerSeed(seed, i), s);
    }
  }
}

uint64_t StreamHash(const Streams& s) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < s.workers; ++i) {
    const Stream& st = s.per_worker[i];
    const auto* bytes = reinterpret_cast<const unsigned char*>(st.ops.data());
    const size_t n = st.ops.size() * sizeof(Op);
    for (size_t k = 0; k < n; ++k) {
      h ^= bytes[k];
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

}  // namespace wscbench
