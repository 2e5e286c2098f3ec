#!/usr/bin/env bash
# CI check: libwscmalloc.so must export the complete malloc interposition
# surface — a missing symbol silently falls through to glibc, which then
# tries to free wscmalloc pointers (or vice versa) and corrupts the heap
# far from the cause. Also asserts the converse: the shim's C++ internals
# stay hidden, so the only dynamic symbols the .so contributes are the
# intended malloc surface plus the wscmalloc_* introspection API. A C++
# export (any _Z* name, libstdc++'s weak template instantiations
# included) could interpose a host library's own copy, so it fails too.
# src/shim/libwscmalloc.map enforces the same list at link time; this
# check keeps its own copy so a symbol dropped from the map is caught.
#
# It also pins the cache-hit path in the disassembly (objdump -d): malloc
# must inline RealThreadsAllocator::Allocate and AllocateClass rather than
# call them (GCC's -O2 size limits have outlined them before), and
# malloc, free and RealThreadsAllocator::FreeAddr must hold no atomic
# read-modify-write or fence (a lock prefix, an xchg with memory, mfence).
#
#   tools/check_shim_symbols.sh build/src/shim/libwscmalloc.so

set -u

SHIM="${1:-build/src/shim/libwscmalloc.so}"
if [ ! -f "$SHIM" ]; then
  echo "check_shim_symbols: missing $SHIM (build the wscmalloc target)" >&2
  exit 1
fi

REQUIRED='malloc free calloc realloc reallocarray posix_memalign
aligned_alloc memalign valloc pvalloc malloc_usable_size
wscmalloc_is_active wscmalloc_release_memory wscmalloc_stats_json
wscmalloc_stats_timeseries'

# Defined (non-undefined) exported dynamic symbols.
exported="$(nm -D --defined-only "$SHIM" | awk '{print $3}')"

failures=0
for sym in $REQUIRED; do
  if ! printf '%s\n' "$exported" | grep -qx "$sym"; then
    echo "check_shim_symbols: MISSING export: $sym" >&2
    failures=$((failures + 1))
  fi
done

# Leaked internals: anything exported beyond the malloc surface and the
# wscmalloc_* API. Toolchain boilerplate (_init, _fini, _edata, ...) is
# tolerated; mangled C++ names (_Z*) are not.
leaked="$(printf '%s\n' "$exported" | grep -vE '^(_[^Z]|$)' | while read -r s; do
  printf '%s\n' "$REQUIRED" | tr ' ' '\n' | grep -qx "$s" || echo "$s"
done)"
if [ -n "$leaked" ]; then
  echo "check_shim_symbols: unexpected exports (hide internal symbols):" >&2
  echo "$leaked" >&2
  failures=$((failures + 1))
fi

# The instructions of every function whose demangled name starts with
# $1 (out-of-line .cold parts included), one per line.
disasm="$(objdump -d --no-show-raw-insn -C "$SHIM")"
body() {
  printf '%s\n' "$disasm" | awk -v name="<$1" '
    /^[0-9a-f]+ <.*>:$/ { inside = index($0, name) == length($1) + 2; next }
    inside && NF'
}

malloc_body="$(body 'wsc::shim::ShimMalloc(')"
outlined="$(printf '%s\n' "$malloc_body" | grep -E \
  '\s(call|j[a-z]+)\s.*<wsc::tcmalloc::RealThreadsAllocator::(Allocate|AllocateClass)\(')"
if [ -n "$outlined" ]; then
  echo "check_shim_symbols: ShimMalloc calls the hit path out of line:" >&2
  echo "$outlined" >&2
  failures=$((failures + 1))
fi
for fn in 'wsc::shim::ShimMalloc(' 'wsc::shim::ShimFree(' \
          'wsc::tcmalloc::RealThreadsAllocator::FreeAddr('; do
  code="$(body "$fn")"
  if [ -z "$code" ]; then
    echo "check_shim_symbols: no code found for $fn" >&2
    failures=$((failures + 1))
    continue
  fi
  # An xchg between two registers touches no memory (GCC pads with the
  # nop xchg %ax,%ax).
  atomic="$(printf '%s\n' "$code" | grep -E '\slock(\s|$)|\smfence|\sxchg' |
            grep -vE '\sxchg\s+%[a-z0-9]+,%[a-z0-9]+\s*$')"
  if [ -n "$atomic" ]; then
    echo "check_shim_symbols: atomic instruction on the hit path in $fn" >&2
    echo "$atomic" >&2
    failures=$((failures + 1))
  fi
done

if [ "$failures" -ne 0 ]; then
  echo "check_shim_symbols: FAILED"
  exit 1
fi
count="$(printf '%s\n' "$REQUIRED" | tr ' ' '\n' | grep -c .)"
echo "check_shim_symbols: OK ($count symbols exported, no leaks," \
     "hit path inline and free of atomics)"
