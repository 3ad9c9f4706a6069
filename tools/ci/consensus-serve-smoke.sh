#!/usr/bin/env bash
# Consensus as a serving system: Canetti-Rabin deciding on the threaded and
# the multi-process UDP drivers, the replicated KV service end to end, and
# the serving bench gated against its committed baseline.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
lane consensus-serve-smoke cr_rt.json cr_rt.trace cr_udp.json \
  serve_commit.log loadgen.obs loadgen_report.json BENCH_svc.json
build default gossiplab tracecheck bench_svc

# Canetti-Rabin over the TEARS transport on real threads with injected
# crashes must decide (exit 0 already encodes agreement/validity/
# termination via the aggregated per-process notes), and the recorded
# trace must lint clean offline under the realized bounds.
gossiplab rt --algorithm cr-tears --n 32 --f 8 \
  --inject crash --seed 7 --tick-us 200 \
  --record cr_rt.trace --out cr_rt.json
tracecheck cr_rt.trace

# The same protocol across OS process boundaries: one process per replica,
# ConsensusPayload on real UDP datagrams, the verdict carried home through
# the worker note files.
gossiplab rt --transport udp --algorithm cr-ears \
  --n 8 --f 3 --seed 11 --tick-us 200 --out cr_udp.json

# serve commits every request through a consensus slot and streams the
# committed log; loadgen drives the datagram front-end open-loop and
# streams acked observations; histcheck replays the log and cross-checks
# every ack.
gossiplab serve --port 19291 --duration 20 \
  --alg cr-tears --n 8 --f 3 --seed 7 \
  --log serve_commit.log > serve_stdout.log 2>serve_stderr.log &
serve_pid=$!
for _ in $(seq 1 100); do
  grep -q "serving on" serve_stdout.log && break
  sleep 0.2
done
grep -q "serving on" serve_stdout.log || {
  cat serve_stdout.log serve_stderr.log; exit 1; }
gossiplab loadgen --target udp --port 19291 \
  --requests 5000 --rate 1000 --seed 7 --obs loadgen.obs \
  --json loadgen_report.json
# Let the --duration window elapse so the server closes its committed-log
# stream cleanly before the history check reads it.
wait "$serve_pid"
gossiplab histcheck \
  --log serve_commit.log --obs loadgen.obs

python3 - <<'PY'
import json
for path in ('cr_rt.json', 'cr_udp.json'):
    rt = json.load(open(path))
    assert rt['schema'] == 'asyncgossip-telemetry-v1', path
    s = rt['summary']
    assert s['completed'] == 1, (path, s)
    assert s['audit_violations'] == 0, (path, s)
    assert s['consensus_all_decided'] == 1, (path, s)
    assert s['consensus_agreement'] == 1, (path, s)
    assert s['consensus_validity'] == 1, (path, s)
    assert s['consensus_core_violations'] == 0, (path, s)
    print(f"ok: {path} decided value "
          f"{int(s['consensus_decided_value'])} at phase "
          f"{int(s['consensus_decision_phase'])} with "
          f"{int(s['consensus_survivors'])} survivors")
lg = json.load(open('loadgen_report.json'))
assert lg['schema'] == 'asyncgossip-bench-v1', lg['schema']
assert lg['suite'] == 'loadgen', lg['suite']
c = lg['cases'][0]['counters']
assert c['complete'] == 1, c
assert c['acked'] == 5000, c
assert c['p95_us'] > 0, c
print(f"ok: loadgen acked {int(c['acked'])} at "
      f"{c['achieved_rate']:.0f}/s, p95 {int(c['p95_us'])} us")
PY

# The serving path's regression gate, mirroring the engine/rt gates: commit
# throughput must not backslide (higher-better) and the paced-run commit
# latency must not blow up (lower-better), both at the standard 40%
# shared-runner tolerance.
AG_BENCH_JSON=BENCH_svc.json "$ROOT/build/bench/bench_svc"
python3 "$ROOT/tools/bench_gate.py" \
  --baseline "$ROOT/BENCH_svc_seed.json" \
  --current BENCH_svc.json \
  --counter acked_per_sec \
  --direction higher-better | tee bench_gate_svc.txt
python3 "$ROOT/tools/bench_gate.py" \
  --baseline "$ROOT/BENCH_svc_seed.json" \
  --current BENCH_svc.json \
  --counter p95_us \
  --direction lower-better | tee bench_gate_svc_p95.txt
summary 'bench gate (svc acked_per_sec, higher-better)' bench_gate_svc.txt
summary 'bench gate (svc p95_us, lower-better)' bench_gate_svc_p95.txt
