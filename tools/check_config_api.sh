#!/usr/bin/env bash
# CI check: benches and tests must construct AllocatorConfig through
# AllocatorConfig::Builder (the validating public API), never by assigning
# config fields directly. Direct assignment skips validation and silently
# produces configs the allocator would reject (or worse, misinterpret —
# e.g. NUCA with one LLC domain). Only src/tcmalloc/ itself and the fleet
# placement layer (src/fleet/) may touch the fields.
#
#   tools/check_config_api.sh [repo-root]
#
# Exits non-zero listing every offending file:line.

set -u

ROOT="${1:-$(dirname "$0")/..}"

# Every knob field of AllocatorConfig (tcmalloc/config.h). Reading them is
# fine; assigning them outside src/ is not.
FIELDS='num_vcpus|per_thread_front_end|per_cpu_cache_bytes|dynamic_cpu_caches'
FIELDS+='|cpu_cache_resize_interval|cpu_cache_grow_candidates'
FIELDS+='|per_cpu_cache_min_bytes|nuca_transfer_cache|num_llc_domains'
FIELDS+='|transfer_cache_batches|nuca_shard_batches|span_prioritization'
FIELDS+='|cfl_num_lists|lifetime_aware_filler|filler_capacity_threshold'
FIELDS+='|sample_interval_bytes|soft_limit_bytes|hard_limit_bytes'
FIELDS+='|arena_base|arena_bytes'
FIELDS+='|real_memory|real_memory_reserve_bytes'

# Match `<expr>.<field> =` but not `==` (comparisons stay legal).
offenders="$(grep -rEn "\.(${FIELDS})[[:space:]]*=([^=]|$)" \
  "$ROOT/bench" "$ROOT/tests" --include='*.cc' --include='*.h' 2>/dev/null)"

if [ -n "$offenders" ]; then
  echo "check_config_api: direct AllocatorConfig field assignment found;" >&2
  echo "use AllocatorConfig::Builder instead:" >&2
  echo "$offenders" >&2
  exit 1
fi

# Memory is part of the same contract: benches and tests get it by
# building a config and letting the allocator construct its own — the
# simulator's SystemAllocator arena, or RealThreadsAllocator's
# RealMemoryBacking for a WithRealMemory() config — never by instantiating
# either directly. tests/tcmalloc/ is exempt: the allocator's own unit
# tests exercise those classes in isolation.
ctors="$(grep -rEn \
  '\b(SystemAllocator|RealMemoryBacking)[[:space:]]*\(' \
  "$ROOT/bench" "$ROOT/tests" --include='*.cc' --include='*.h' 2>/dev/null |
  grep -v "^$ROOT/tests/tcmalloc/")"

if [ -n "$ctors" ]; then
  echo "check_config_api: direct memory construction found; build a" >&2
  echo "config with AllocatorConfig::Builder and let the allocator own its" >&2
  echo "memory (tests/tcmalloc/ is the only exemption):" >&2
  echo "$ctors" >&2
  exit 1
fi
echo "check_config_api: OK (bench/ and tests/ construct AllocatorConfig via Builder)"
