#!/usr/bin/env bash
# The multi-process rt driver's acceptance runs: separate OS processes over
# UDP loopback, merged into one trace that must lint clean offline under
# the run's realized bounds, the contract the threaded driver answers to.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
lane rt-multiproc-smoke rt_udp.json rt_udp.trace rt_udp_faults.json \
  rt_udp_faults.trace
build default gossiplab tracecheck

# 32 processes with injected crashes.
gossiplab rt --transport udp --algorithm ears \
  --n 32 --f 8 --inject crash --seed 7 --tick-us 200 \
  --record rt_udp.trace --out rt_udp.json
tracecheck rt_udp.trace

# The socket fault shim on: datagram loss, duplication and reordering at
# the wire, absorbed by retransmits and the realized bounds.
gossiplab rt --transport udp --algorithm tears \
  --n 16 --f 4 --inject crash --seed 11 --tick-us 200 \
  --wire-drop 0.1 --wire-dup 0.05 --wire-reorder 0.1 \
  --record rt_udp_faults.trace --out rt_udp_faults.json
tracecheck rt_udp_faults.trace

python3 - <<'PY'
import json
for path in ('rt_udp.json', 'rt_udp_faults.json'):
    rt = json.load(open(path))
    assert rt['schema'] == 'asyncgossip-telemetry-v1', path
    assert rt['run']['runtime'] == 'realtime-multiproc', rt['run']
    assert rt['run']['transport'] == 'udp', rt['run']
    s = rt['summary']
    assert s['completed'] == 1, (path, s)
    assert s['audit_violations'] == 0, (path, s)
    assert s['crashes'] > 0, (path, s)
    assert s['gathering_ok'] == 1, (path, s)
    print(f"ok: {path} completed at t={s['completion_time']} "
          f"with {int(s['crashes'])} crashes, "
          f"realized d={int(s['realized_d'])} "
          f"delta={int(s['realized_delta'])}")
PY
