#!/usr/bin/env bash
# The multi-threaded subsystems under ThreadSanitizer: the realtime runtime,
# the parallel sweep runner, the flight recorder's SPSC rings and the
# engine's sharded stepping pool. TSan instruments their real thread
# interleavings (the seqlock-style ring protocol in common/spsc_ring.h and
# the frozen-snapshot discipline in sim/engine.cpp are only trustworthy
# because this lane checks them).
# Usage: tools/ci/tsan-nightly.sh SEED. Seed rotation varies the crash
# plans and delay draws across nights: the rt tests assert outcome-level
# determinism and realized-bound contracts, and the EngineJobs suite
# asserts bit-identical traces at jobs=1/2/8, which hold for any seed by
# construction.
set -euo pipefail
seed=${1:?usage: tools/ci/tsan-nightly.sh SEED}
source "$(dirname "$0")/lib.sh"
lane tsan-nightly rt_tsan.json rt_tsan.flight
build tsan ag_tests gossiplab

# rt, transport, wire, sweep, flight-recorder, engine-jobs, consensus and
# svc tests.
(cd "$ROOT" && AG_RT_SEED=$seed ctest --preset tsan \
  -R 'Rt|Sweep|Flight|EngineJobs|Transport|Wire|Consensus|Svc')

# The realtime CLI with the recorder and live stats on.
"$ROOT/build-tsan/tools/gossiplab" rt --algorithm ears --n 16 --f 4 \
  --inject all --seed "$seed" --tick-us 500 \
  --out rt_tsan.json --spans rt_tsan.flight --stats-interval-ms 20
