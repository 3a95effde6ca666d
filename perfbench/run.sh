#!/bin/sh
# Build the benchmark from source in this checkout, then run it.
#
#   sh perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output stays in ./_build; the dune
# cache is disabled so nothing is written outside the checkout. Exits
# nonzero, printing no result, when the compiler sources are missing or do
# not build.
set -eu
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
