#!/bin/sh
# Build and run the IPDS benchmark from the root of a source checkout:
#   sh ipdsbench/run.sh --workload compile --seed 1 --seconds 30 --trace 0
#   sh ipdsbench/run.sh --self-test
# Build output goes to stderr, so the last stdout line is the result.
set -e
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "ipdsbench: run from the root of an ipds source checkout" >&2
  exit 1
fi
DUNE_CACHE=disabled dune build --root . ./ipdsbench/main.exe ./bin/ipds.exe 1>&2
exec ./_build/default/ipdsbench/main.exe "$@"
