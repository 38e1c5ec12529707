#!/usr/bin/env bash
# Compares what the command line of the working tree prints with what that
# of the commit BASE prints, byte for byte: stdout, stderr and the exit
# code of each run, and exits non-zero at the first difference.  For a
# change that must not move any answer (a refactor); one that moves
# answers on purpose fails it, so it gates no CI job.  Runs from any
# directory of the repository, with the package's dependencies installed:
#
#   bash .github/same-output.sh HEAD~1
#
# BASE's source is extracted with `git archive` into a temporary directory,
# which is removed on exit; nothing is downloaded.  The runs:
# - batch-verify on seeds 0-19 x 1000;
# - batch-verify on every corpus of batch-verify-reruns.sh;
# - batch-verify on seeds 2, 5 and 3 x 1000 at budgets 40, 8 and 6, where
#   rows leave the lockstep sweeps and finish on floats;
# - batch-verify on seed 0 x 8 at budget 1, where every interior row ends
#   MAXITER and takes the per-instance path (exit 4);
# - batch-verify on seed 0 x 1 and x 1025 (CHUNK + 1, a last chunk of one
#   row): the draw, the least-pull selection and the reduction each see a
#   single row, an interior one on seed 0;
# - solve and verify, in text and in JSON, on the unit right corner and on
#   seed-0 input 0 scaled by 1e-102, 1e-300 and 1e300;
# - the Nelder-Mead oracle, which no command calls: the float.hex of every
#   coordinate of oracle_solve(t, seed=i) for t = random_tetrahedron(s, i),
#   s in 0-1 and i in 0-99, and for the same tetrahedra stretched x 1e3 in
#   x (the needle corpus), printed by BASE's source and by the tree's.
set -eu

base=${1:?usage: same-output.sh BASE}
repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# python -m puts the current directory first on the path: run where no
# package of either tree can shadow the other
cd "$work"
mkdir "$work/base"
git -C "$repo" archive "$(git -C "$repo" rev-parse --verify "$base^{commit}")" src \
  | tar -x -C "$work/base"

# same ARGS...: tetrafermat ARGS on BASE and on the working tree, compared
same() {
  local side src code
  for side in base tree; do
    src=$work/base/src
    [ "$side" = tree ] && src=$repo/src
    code=0
    PYTHONPATH=$src python3 -m tetrafermat.cli "$@" \
      > "$work/$side.out" 2> "$work/$side.err" || code=$?
    echo "exit $code" >> "$work/$side.out"
  done
  if cmp -s "$work/base.out" "$work/tree.out" \
    && cmp -s "$work/base.err" "$work/tree.err"; then
    echo "same: tetrafermat $*"
  else
    echo "DIFFERENT: tetrafermat $*"
    diff "$work/base.out" "$work/tree.out" | head -20 || true
    diff "$work/base.err" "$work/tree.err" | head -20 || true
    exit 1
  fi
}

for seed in $(seq 0 19); do
  same batch-verify --seed "$seed" --count 1000
done
# each `rerun EXPECTED ARGS...` line of the reruns script
grep '^rerun ' "$repo/.github/batch-verify-reruns.sh" | while read -r _ _ args; do
  # shellcheck disable=SC2086
  same batch-verify $args
done
same batch-verify --seed 2 --max-iter 40
same batch-verify --seed 5 --max-iter 8
same batch-verify --seed 3 --max-iter 6
same batch-verify --count 8 --max-iter 1
same batch-verify --count 1
same batch-verify --count 1025

# the input files, written once from the working tree's sampling
PYTHONPATH=$repo/src python3 - "$work" <<'EOF'
import json
import sys

from tetrafermat.sampling import random_tetrahedron

work = sys.argv[1]
inputs = {"corner": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]}
for f in (1e-102, 1e-300, 1e300):
    inputs[f"seed0-{f:g}"] = (random_tetrahedron(0, 0).vertices * f).tolist()
for name, vertices in inputs.items():
    with open(f"{work}/{name}.json", "w") as fh:
        json.dump({"vertices": vertices}, fh)
EOF
for name in corner seed0-1e-102 seed0-1e-300 seed0-1e+300; do
  for command in solve verify; do
    for format in text json; do
      same "$command" --input "$work/$name.json" --format "$format"
    done
  done
done

# the oracle's answers, each side from its own sampling and solver
for side in base tree; do
  src=$work/base/src
  [ "$side" = tree ] && src=$repo/src
  PYTHONPATH=$src python3 - > "$work/$side.oracle" <<'EOF'
from tetrafermat import Tetrahedron
from tetrafermat.sampling import random_tetrahedron
from tetrafermat.solver import oracle_solve

for stretch in ((1.0, 1.0, 1.0), (1e3, 1.0, 1.0)):
    for s in range(2):
        for i in range(100):
            t = Tetrahedron(random_tetrahedron(s, i).vertices * stretch)
            print(s, i, *map(float.hex, oracle_solve(t, seed=i).tolist()))
EOF
done
if cmp -s "$work/base.oracle" "$work/tree.oracle"; then
  echo "same: oracle_solve on seeds 0-1 x 100, plain and stretched x 1e3 in x"
else
  echo "DIFFERENT: oracle_solve on seeds 0-1 x 100, plain and stretched x 1e3 in x"
  diff "$work/base.oracle" "$work/tree.oracle" | head -20 || true
  exit 1
fi
