#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in,
# then runs it with the given arguments. Run from the repository root:
#
#   bash bench/perf/run.sh --workload solve-cold --seed 1 --seconds 15 --trace 0
#
# Build output goes to stderr, so the last line on stdout is the result.
# The shared dune cache is off: the build reads and writes only here.
set -euo pipefail
dune build --root . --cache=disabled --display=quiet ./bench/perf/perf.exe 1>&2
exec ./_build/default/bench/perf/perf.exe "$@"
