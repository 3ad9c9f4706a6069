#!/usr/bin/env bash
# The SLO soak: one million requests committed through consensus slots
# while the fault plan crashes replicas (within the tolerated budget f) and
# stalls slots at 1%; then the full committed history replays and
# cross-checks clean.
# Usage: tools/ci/consensus-soak-nightly.sh SEED. Seed rotation varies the
# crash slots, victims and stall draws across nights; the history
# checker's verdict must hold for every seed.
set -euo pipefail
seed=${1:?usage: tools/ci/consensus-soak-nightly.sh SEED}
source "$(dirname "$0")/lib.sh"
lane consensus-soak-nightly soak_report.json overbudget.log overbudget.obs
build default gossiplab

gossiplab loadgen --target inproc \
  --requests 1000000 --alg cr-tears --n 8 --f 3 \
  --crashes 2 --stall-p 0.01 --seed "$seed" \
  --log soak.log --obs soak.obs --json soak_report.json \
  | tee soak_stdout.log
grep -q -- '-> complete' soak_stdout.log
gossiplab histcheck --log soak.log --obs soak.obs

# The honesty case: a crash plan that exceeds f must surface as an
# INCOMPLETE run with exit 1, never a fabricated ack, and whatever DID
# commit before the majority died must still check out.
rc=0
gossiplab loadgen --target inproc \
  --requests 5000 --alg cr-tears --n 8 --f 3 \
  --crashes 5 --crash-horizon 8 --seed "$seed" \
  --log overbudget.log --obs overbudget.obs \
  | tee overbudget_stdout.log || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "over-budget soak exited $rc; want the honest exit 1" >&2
  exit 1
fi
grep -q INCOMPLETE overbudget_stdout.log
gossiplab histcheck \
  --log overbudget.log --obs overbudget.obs

python3 - <<'PY' | tee soak_summary.txt
import json
soak = json.load(open('soak_report.json'))
assert soak['schema'] == 'asyncgossip-bench-v1', soak['schema']
c = soak['cases'][0]['counters']
assert c['complete'] == 1 and c['acked'] == 1000000, c
summary = (f"soak: {int(c['acked'])} acked at "
           f"{c['achieved_rate']:.0f}/s over {int(c['slots'])} "
           f"slots ({int(c['slots_stalled'])} stalled), commit "
           f"p95 {int(c['p95_us'])} us, p99 {int(c['p99_us'])} us")
print(summary)
PY
summary 'consensus soak' soak_summary.txt
