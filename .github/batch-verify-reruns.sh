#!/usr/bin/env bash
# Reruns of the installed `tetrafermat batch-verify` on the corpora that
# cover its paths, each compared byte for byte with the first run, and the
# expected exit codes.  Writes its outputs to the current directory:
#
#   cd "$(mktemp -d)" && bash /path/to/.github/batch-verify-reruns.sh
set -eu

# run NAME EXPECTED ARGS...: batch-verify ARGS into NAME, exiting EXPECTED
run() {
  local name=$1 expected=$2 code=0
  shift 2
  tetrafermat batch-verify "$@" > "$name" || code=$?
  echo "tetrafermat batch-verify $*: exit $code, expected $expected"
  test "$code" -eq "$expected"
}

# twice with the same arguments, the same text both times
rerun() {
  run first.txt "$@"
  run second.txt "$@"
  cmp first.txt second.txt
}

# one chunk, checked on columns
rerun 0 --seed 1 --count 300
# three chunks of batch.CHUNK instances; a chunk is validated on columns
# through numpy's frexp, ldexp and edge lengths, with math.hypot on the
# near-longest edges
rerun 0 --seed 1 --count 2500
# a two-word seed over two chunks, drawn on integer columns that re-derive
# numpy's SeedSequence and PCG64 streams
rerun 0 --seed 4294967296 --count 1100
# rows leave the lockstep sweeps mid-iteration and go on through newton on
# floats within the budget left: the columns give every interior row
# newton's outcome, and each one that ends MAXITER keeps it and ends in
# no convergence (exit 4)
rerun 4 --count 300 --max-iter 4
# rows 288 and 492 take a shortened step and finish on floats inside the
# column solve
rerun 0 --seed 3 --count 1000
# thousands of failures over three chunks, each chunk's verdict reduced
# over its residual columns (exit 4)
rerun 4 --seed 1 --count 2500 --tol 1e-15
