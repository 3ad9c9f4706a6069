#!/usr/bin/env bash
# Engine and realtime-driver throughput gated against the committed
# baselines, and the parallel sweep's jobs-invariant output. A tripwire for
# gross slowdowns and schema drift, not a statistically careful benchmark
# (shared CI runners are too noisy for tight ratio gates; see
# docs/PERFORMANCE.md).
set -euo pipefail
source "$(dirname "$0")/lib.sh"
lane perf-smoke BENCH_engine.json BENCH_rt.json sweep_j1.json sweep_j1.csv
build default bench_engine bench_rt gossiplab

# The smallest size per workload plus the large-n cases (n = 100k must
# complete in CI).
AG_BENCH_JSON=BENCH_engine.json "$ROOT/build/bench/bench_engine" \
  --benchmark_filter='/256/|Large'

# Only the case names shared with the smoke run are compared, only
# regressions fail, and the 40% tolerance is sized for shared-runner noise:
# the gate exists to catch 2x-style regressions, not 5% drift. Two passes:
# steps_per_sec (the historical gate) and envelopes_per_sec as
# higher-better, so delivery throughput cannot silently backslide. Then the
# deterministic totals steps and envelopes are gated exactly: a
# lower-better and a higher-better pass, both at tolerance 0.
python3 "$ROOT/tools/bench_gate.py" \
  --baseline "$ROOT/BENCH_engine_seed.json" \
  --current BENCH_engine.json | tee bench_gate.txt
python3 "$ROOT/tools/bench_gate.py" \
  --baseline "$ROOT/BENCH_engine_seed.json" \
  --current BENCH_engine.json \
  --counter envelopes_per_sec \
  --direction higher-better | tee bench_gate_env.txt
python3 "$ROOT/tools/bench_gate.py" \
  --baseline "$ROOT/BENCH_engine_seed.json" \
  --current BENCH_engine.json \
  --counter steps --counter envelopes \
  --direction lower-better --tolerance 0 | tee bench_gate_totals_lo.txt
python3 "$ROOT/tools/bench_gate.py" \
  --baseline "$ROOT/BENCH_engine_seed.json" \
  --current BENCH_engine.json \
  --counter steps --counter envelopes \
  --direction higher-better --tolerance 0 | tee bench_gate_totals_hi.txt
summary 'bench gate (steps_per_sec vs BENCH_engine_seed.json)' bench_gate.txt
summary 'bench gate (envelopes_per_sec, higher-better)' bench_gate_env.txt
summary 'bench gate (steps, envelopes: exact)' \
  bench_gate_totals_lo.txt bench_gate_totals_hi.txt

# Realtime driver overhead: wall_ms_per_ktick is lower-better and dominated
# by deliberate pacing, so the cross-run baseline gate gets a deliberately
# loose 100% tolerance (catch a 2x-style regression). The recorder-on /
# recorder-off *ratio* comes from the same binary in the same run, which is
# why it can hold the flight recorder to its <= 5% overhead bound
# (docs/OBSERVABILITY.md).
AG_BENCH_JSON=BENCH_rt.json "$ROOT/build/bench/bench_rt"
python3 "$ROOT/tools/bench_gate.py" \
  --baseline "$ROOT/BENCH_rt_seed.json" \
  --current BENCH_rt.json \
  --counter wall_ms_per_ktick \
  --direction lower-better --tolerance 1.0 \
  --ratio-num 'rt/none+recorder/ears/n:32/f:8/d:3/delta:2' \
  --ratio-den 'rt/none/ears/n:32/f:8/d:3/delta:2' \
  --max-ratio 1.05 | tee bench_gate_rt.txt
summary 'bench gate (rt wall_ms_per_ktick + recorder ratio)' bench_gate_rt.txt

# The parallel sweep's output must not depend on --jobs.
gossiplab sweep --alg ears --n 64,128 --seeds 2 \
  --jobs 1 --json sweep_j1.json > sweep_j1.csv
gossiplab sweep --alg ears --n 64,128 --seeds 2 \
  --jobs 4 --json sweep_j4.json > sweep_j4.csv
diff sweep_j1.csv sweep_j4.csv
diff sweep_j1.json sweep_j4.json

python3 - <<'PY'
import json
bench = json.load(open('BENCH_engine.json'))
assert bench['schema'] == 'asyncgossip-bench-v1', bench['schema']
assert bench['suite'] == 'engine', bench['suite']
assert bench['cases'], 'engine bench report has no cases'
for case in bench['cases']:
    c = case['counters']
    assert c.get('steps_per_sec', 0) > 0, case
    assert c.get('envelopes_per_sec', 0) > 0, case
sweep = json.load(open('sweep_j1.json'))
assert sweep['schema'] == 'asyncgossip-bench-v1'
assert sweep['suite'] == 'sweep'
assert len(sweep['cases']) == 4, sweep['cases']
assert all(case['counters']['completed'] == 1
           for case in sweep['cases'])
print(f"ok: {len(bench['cases'])} engine cases, "
      f"{len(sweep['cases'])} sweep cases, jobs-invariant output")
PY
