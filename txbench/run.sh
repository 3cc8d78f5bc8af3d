#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it.
#   bash txbench/run.sh --workload hot-read --seed 1 --seconds 30 --trace 0
# Run it from the root of a checkout; all arguments go to txbench/main.exe.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "txbench: no dune-project or lib/ here; run it from a full checkout" >&2
  exit 2
fi
# keep every build output inside the checkout
export DUNE_CACHE=disabled
dune build --root . --display quiet ./txbench/main.exe >&2
TXBENCH_COMMIT=unknown
if [ -d .git ]; then TXBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || echo unknown); fi
TXBENCH_SOURCE=$(find lib bin -type f \( -name '*.ml' -o -name '*.mli' -o -name dune \) \
  | LC_ALL=C sort | xargs cat | md5sum | cut -d' ' -f1)
export TXBENCH_COMMIT TXBENCH_SOURCE
exec ./_build/default/txbench/main.exe "$@"
