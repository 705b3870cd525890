#!/usr/bin/env bash
# Builds the perfbench dune project (perfbench/_dune) from this
# checkout.  Arguments are dune build targets relative to that project:
#   bash perfbench/build.sh ./harness/main.exe    the harness
#   bash perfbench/build.sh @runtest              the harness self-tests
set -euo pipefail
cd "$(dirname "$0")/.."
# The project compiles the repository's own libraries.
ln -sfn ../../lib perfbench/_dune/lib
# The shared dune cache lives outside the checkout; build without it.
DUNE_CACHE=disabled exec dune build --root perfbench/_dune "$@"
