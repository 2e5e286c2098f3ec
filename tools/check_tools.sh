#!/usr/bin/env bash
# Tools lint: every tools/*.py must at least byte-compile, and the tools
# that carry a standalone --self-test must pass it.
#
# The perf gate and the JSON validators are all Python: a syntax error
# in one of them would otherwise surface as a mysterious red CI job long
# after the commit that broke it. This script is the cheap tripwire — no
# build needed, runs in seconds.
#
#   tools/check_tools.sh
#
# Exit status: 0 when every tool compiles and every self-test passes.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
FAIL=0

for tool in "$ROOT"/tools/*.py; do
  if python3 -m py_compile "$tool"; then
    echo "check_tools: compile OK: ${tool#"$ROOT"/}"
  else
    echo "check_tools: FAIL: ${tool#"$ROOT"/} does not compile"
    FAIL=1
  fi
done

# Standalone self-tests (tools whose --self-test needs no input files;
# check_bench_regression.py's self-test needs bench output and runs in
# the perf-gate job instead).
for tool in check_preload_conservation.py check_openmetrics.py; do
  if python3 "$ROOT/tools/$tool" --self-test; then
    echo "check_tools: self-test OK: tools/$tool"
  else
    echo "check_tools: FAIL: tools/$tool --self-test"
    FAIL=1
  fi
done

if [ "$FAIL" -ne 0 ]; then
  echo "check_tools: FAIL"
  exit 1
fi
echo "check_tools: OK"
