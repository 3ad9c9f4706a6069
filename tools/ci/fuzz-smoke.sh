#!/usr/bin/env bash
# A ~30-second slice of fuzz-nightly: enough iterations to catch a gross
# regression in any algorithm or the oracle itself, cheap enough to run on
# every PR. Fixed seeds keep failures reproducible.
set -euo pipefail
source "$(dirname "$0")/lib.sh"
lane fuzz-smoke fuzz_inject.spec.json fuzz_inject.trace \
  statcheck_smoke.json fuzz_smoke.spec.json fuzz_smoke.trace
build default gossiplab tracecheck

# A clean slice must find nothing.
gossiplab fuzz --iters 2000 --budget-ms 30000 \
  --seed 1 --out fuzz_smoke

# The injected-violation pipeline: find, shrink, replay, lint.
set -x
# The injected run MUST fail (exit 1) and write both artifacts.
if gossiplab fuzz --iters 50 --seed 3 \
    --inject double-step --out fuzz_inject; then
  echo "fuzzer missed the injected violation" >&2
  exit 1
fi
test -s fuzz_inject.spec.json
test -s fuzz_inject.trace
# The shrunk artifact replays bit-identically and lints clean.
gossiplab replay --in fuzz_inject.spec.json
tracecheck fuzz_inject.trace
set +x

# The Table 1 envelopes at smoke size.
gossiplab statcheck --trials 6 --n 8,12,16 \
  --seed 1 --out statcheck_smoke.json
