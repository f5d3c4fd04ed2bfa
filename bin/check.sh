#!/bin/sh
# The full local gate, in CI order: build everything, run the static-analysis
# lint sweep, run the test suite, then check the benchmark harnesses (the
# perfbench self-test, and the paper tables exercising every experiment end
# to end).
#
#   bin/check.sh
#
# Exits non-zero on the first failing stage.
set -eu

cd "$(dirname "$0")/.."

echo "== dune build =="
dune build

echo "== dune build @lint =="
dune build @lint

echo "== dune runtest =="
dune runtest

echo "== dune build @absint (translation validation + missed-guard golden) =="
dune build @absint

echo "== dune build @policy (specialization-policy census golden) =="
dune build @policy

echo "== dune build @stats (counter-registry golden) =="
dune build @stats

echo "== dune build @chaos (fault-injection fuzz smoke) =="
dune build @chaos

echo "== dune build @parallel (pool determinism: --jobs 4 == --jobs 1) =="
dune build @parallel

echo "== dune build @profile (attribution balance + trace-event export) =="
dune build @profile

echo "== dune build @serve (overload smoke: invariants + --jobs determinism) =="
dune build @serve

echo "== dune build @bg (background compilation: --jobs identity + off-identity + overflow) =="
dune build @bg

echo "== dune build @obs (observability: off/on byte-identity + artifact determinism + flow balance) =="
dune build @obs

echo "== bench check-model (model cycles vs committed BENCH_wall.json) =="
dune exec bench/main.exe -- check-model

echo "== perfbench self-test (benchmark harness invariants) =="
python3 perfbench/run.py --self-test

echo "== bench smoke (paper tables) =="
dune exec bench/main.exe -- tables > /dev/null

echo "check: all stages passed"
