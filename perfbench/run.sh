#!/bin/sh
# Build the benchmark from this checkout's sources, then run it:
#   sh perfbench/run.sh --workload tdp-20k --seed 1 --seconds 30 --trace 0
# The last line of stdout is the result object (see perfbench/README.md).
cd "$(dirname "$0")/.." || exit 2
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: no program sources here (dune-project and lib/ missing)" >&2
  exit 2
fi
# --cache=disabled: the build reads and writes nothing outside the checkout.
dune build --root . --cache=disabled ./perfbench/main.exe 1>&2 || exit 2
exec ./_build/default/perfbench/main.exe "$@"
