#!/usr/bin/env bash
# Telemetry artifacts: a bench JSON report, a telemetry report, and the
# realtime runtime's acceptance run with its trace, flight log, spans and
# live stats, each parsed back independently of the repo's own readers.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
lane telemetry-artifacts BENCH_smoke.json report_sample.json \
  spread_sample.csv rt_sample.json rt_sample.trace rt_sample.flight \
  rt_spans.trace.json rt_stats.ndjson
build default bench_table1_gossip gossiplab tracecheck

AG_BENCH_JSON=BENCH_smoke.json "$ROOT/build/bench/bench_table1_gossip" \
  --benchmark_filter='/64/25/1/1/'

gossiplab report --algorithm ears --n 64 --f 16 \
  --out report_sample.json --spread-csv spread_sample.csv

# EARS over the threaded transport with injected crashes must reach
# gathering, and the recorded trace must lint clean offline. The same run
# exercises the flight recorder (--spans) and the live-stats stream, then
# converts the flight log to Perfetto-loadable Chrome trace JSON.
gossiplab rt --algorithm ears --n 32 --f 8 \
  --inject crash --seed 7 --tick-us 200 \
  --record rt_sample.trace --out rt_sample.json \
  --spans rt_sample.flight \
  --stats-interval-ms 20 --stats-out rt_stats.ndjson
tracecheck rt_sample.trace
gossiplab spans --in rt_sample.flight \
  --out rt_spans.trace.json

python3 - <<'PY'
import json
bench = json.load(open('BENCH_smoke.json'))
assert bench['schema'] == 'asyncgossip-bench-v1', bench['schema']
assert bench['cases'], 'bench report has no cases'
for case in bench['cases']:
    assert 'msgs' in case['counters'], case
    assert 'steps' in case['counters'], case
    assert 'steps_per_dd' in case['counters'], case
report = json.load(open('report_sample.json'))
assert report['schema'] == 'asyncgossip-telemetry-v1'
assert report['spread'], 'telemetry report has no time-series'
assert report['phases'], 'telemetry report has no phase markers'
assert len(report['processes']) == 64
rt = json.load(open('rt_sample.json'))
assert rt['schema'] == 'asyncgossip-telemetry-v1'
assert rt['run']['runtime'] == 'realtime-threads', rt['run']
assert rt['summary']['completed'] == 1, rt['summary']
assert rt['summary']['gathering_ok'] == 1, rt['summary']
assert rt['summary']['audit_violations'] == 0, rt['summary']
assert rt['summary']['recorder_enabled'] == 1, rt['summary']
assert rt['summary']['recorder_records'] > 0, rt['summary']
# The exported spans must be real Chrome trace-event JSON: an
# independent parse (not the repo's own json_valid) plus shape
# checks on the async span events and their send/deliver pairing.
spans = json.load(open('rt_spans.trace.json'))
assert spans['otherData']['schema'] == 'asyncgossip-spans-v1'
events = spans['traceEvents']
begins = {e['id'] for e in events if e.get('ph') == 'b'}
ends = {e['id'] for e in events if e.get('ph') == 'e'}
zones = [e for e in events if e.get('ph') == 'X']
assert begins, 'no send spans in the exported trace'
assert ends <= begins, 'delivery span without a matching send'
assert zones, 'no profiling zones in the exported trace'
assert all(e['ts'] >= 0 for e in events if 'ts' in e)
stats = [json.loads(line)
         for line in open('rt_stats.ndjson') if line.strip()]
assert stats, 'no live-stats snapshots emitted'
assert all(s['schema'] == 'asyncgossip-stats-v1' for s in stats)
assert len(stats[-1]['per_process_steps']) == 32, stats[-1]
print(f"ok: {len(bench['cases'])} bench cases, "
      f"{len(report['spread'])} spread samples, "
      f"rt completed at t={rt['summary']['completion_time']}, "
      f"{len(begins)} spans, {len(zones)} zones, "
      f"{len(stats)} stats snapshots")
PY
