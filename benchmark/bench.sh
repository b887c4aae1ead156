#!/bin/sh
# Build the benchmark from the sources in the current directory (the root
# of a checkout), then run it with the given arguments, for example
#   bash benchmark/bench.sh --workload answer-grid --seed 42 --seconds 10 --trace 0
# Build output goes to stderr, so the benchmark's own JSON line stays the
# last line of standard output. A failed build exits non-zero.
set -e
dune build --root . --display quiet ./benchmark/run.exe 1>&2
exec ./_build/default/benchmark/run.exe "$@"
