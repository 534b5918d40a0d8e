#!/usr/bin/env bash
# Build the SEED server and the benchmark from source, then run the
# benchmark with the given arguments, e.g.
#   bash perfbench/run.sh --workload edit --seed 1 --seconds 10 --trace 0
# Run it from the root of a SEED checkout; elsewhere it exits non-zero.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d bin ] || [ ! -d lib ]; then
  echo "perfbench: not a SEED source checkout: $(pwd)" >&2
  exit 2
fi
# the shared dune cache lives outside the checkout; keep everything inside
export DUNE_CACHE=disabled
dune build --root . ./bin/seed_cli.exe ./perfbench/main.exe 1>&2
if [ -d .git ]; then
  PERFBENCH_REV=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
else
  PERFBENCH_REV=unknown
fi
export PERFBENCH_REV
exec ./_build/default/perfbench/main.exe \
  --server ./_build/default/bin/seed_cli.exe "$@"
