#!/usr/bin/env bash
# Deep fuzz (20 minutes) and the Table 1 envelopes at the nightly budget.
# Usage: tools/ci/fuzz-nightly.sh SEED. CI rotates the seed every night so
# coverage accumulates across runs; the failing seed is in the log and the
# shrunk repro is an artifact either way.
set -euo pipefail
seed=${1:?usage: tools/ci/fuzz-nightly.sh SEED}
source "$(dirname "$0")/lib.sh"
lane fuzz-nightly fuzz_nightly.spec.json fuzz_nightly.trace \
  statcheck_nightly.json
build default gossiplab tracecheck

gossiplab fuzz --iters 2000000 \
  --budget-ms 1200000 --seed "$seed" \
  --out fuzz_nightly

gossiplab statcheck --trials 40 \
  --n 12,16,24,32,48,64 --seed "$seed" \
  --out statcheck_nightly.json
