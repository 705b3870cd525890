#!/usr/bin/env bash
# Builds rgleak and the harness from this checkout, then runs one
# workload:  bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: $(pwd) is not an rgleak source tree" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; build without it.
DUNE_CACHE=disabled dune build --root . ./bin/rgleak.exe 1>&2
bash perfbench/build.sh ./harness/main.exe 1>&2
exec ./perfbench/_dune/_build/default/harness/main.exe "$@"
