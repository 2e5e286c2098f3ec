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

if [ "$failures" -ne 0 ]; then
  echo "check_shim_symbols: FAILED"
  exit 1
fi
count="$(printf '%s\n' "$REQUIRED" | tr ' ' '\n' | grep -c .)"
echo "check_shim_symbols: OK ($count symbols exported, no leaks)"
