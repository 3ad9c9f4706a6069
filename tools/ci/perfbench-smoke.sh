#!/usr/bin/env bash
# The repo benchmark (perfbench/, declared in BENCHMARK.json) on every
# workload: one short untraced run each plus one traced sim-table1 run. It
# checks what the benchmark itself checks (correct outputs, pinned hashes,
# exact counts), not wall-clock figures: those gate only once
# `run.py --steady` holds them on the CI runner.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
lane perfbench-smoke perfbench-sim-table1.out perfbench-svc-closed.out \
  perfbench-svc-open.out perfbench-sim-table1-traced.out
# run.py builds into $CARGO_TARGET_DIR, by default .bench_build under the
# working directory: keep it at the repo root, where later runs reuse it.
export CARGO_TARGET_DIR=${CARGO_TARGET_DIR:-$ROOT/.bench_build}

for w in sim-table1 svc-closed svc-open; do
  python3 "$ROOT/perfbench/run.py" --workload "$w" --seconds 1 --trace 0 \
    | tee "perfbench-$w.out"
done
python3 "$ROOT/perfbench/run.py" --workload sim-table1 --seconds 1 \
  --trace 1 | tee perfbench-sim-table1-traced.out

python3 - <<'PY'
import json
runs = ['sim-table1', 'svc-closed', 'svc-open', 'sim-table1-traced']
for run in runs:
    text = open(f'perfbench-{run}.out').read()
    lines = [l for l in text.splitlines() if l.startswith('{')]
    result = json.loads(lines[-1])
    assert result['correct'] is True, (run, result)
    assert result['failed'] == 0, (run, result)
    exact = [json.loads(l) for l in lines[:-1]]
    assert any('exact' in e for e in exact), (run, 'no exact line')
    print(f"ok: {run}: {result['attempted']} attempted, "
          f"exact {exact[-1]['exact']}")
PY
