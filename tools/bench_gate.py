#!/usr/bin/env python3
"""Bench-regression gate: diff an asyncgossip-bench-v1 report against a
committed baseline and fail (exit 1) when a tracked counter regressed
beyond the tolerance.

Usage:
  bench_gate.py --baseline BENCH_engine_seed.json --current BENCH_engine.json
                [--counter steps_per_sec ...] [--tolerance 0.40]
                [--direction higher-better|lower-better]
  bench_gate.py --current BENCH_rt.json --counter wall_ms_per_ktick \\
                --ratio-num 'rt/none+recorder/ears/...' \\
                --ratio-den 'rt/none/ears/...' --max-ratio 1.05

Two checks, composable in one invocation:

Baseline diff (needs --baseline): only case names present in *both*
documents are compared (CI smoke runs filter the bench to a subset of the
baseline grid). --direction says which way is a regression: higher-better
counters (steps/sec) fail on downward moves, lower-better counters
(wall_ms_per_ktick) fail on upward moves; the other direction never fails.
The default 40% tolerance absorbs shared-runner noise (see
docs/PERFORMANCE.md on why tighter ratio gates are not trustworthy in CI);
catching a genuine 2x slowdown is the design point, not 5% drifts.
--counter repeats to gate several counters in one pass. Deterministic
totals (steps, envelopes) are gated exactly by two passes at --tolerance 0,
one lower-better and one higher-better.

Within-report ratio (needs --ratio-num/--ratio-den): counter(num) /
counter(den) over the --current report alone must stay <= --max-ratio.
Both cases come from the same binary in the same run, so this tolerates a
much tighter bound than a cross-run diff — it is how CI holds the flight
recorder's rt overhead to <= 5% (docs/OBSERVABILITY.md).

Stdlib only — the CI image has no extra Python packages.
"""

import argparse
import json
import sys


def load_cases(path):
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("schema") != "asyncgossip-bench-v1":
        sys.exit(f"{path}: unexpected schema {doc.get('schema')!r}")
    return {case["name"]: case["counters"] for case in doc["cases"]}


def check_baseline(args, counter, baseline, current):
    """Returns the number of failing cases of the baseline diff."""
    shared = sorted(set(baseline) & set(current))
    if not shared:
        sys.exit("bench gate: no case names shared between baseline and "
                 "current report — wrong suite or empty run?")

    lower_better = args.direction == "lower-better"
    rows = []
    failures = 0
    for name in shared:
        base = baseline[name].get(counter)
        cur = current[name].get(counter)
        if base is None or cur is None or base <= 0:
            rows.append((name, base, cur, None, "skip (missing counter)"))
            continue
        delta = cur / base - 1.0
        regressed = (delta > args.tolerance) if lower_better \
            else (delta < -args.tolerance)
        failures += regressed
        rows.append((name, base, cur, delta,
                     "FAIL" if regressed else "ok"))

    name_w = max(len(r[0]) for r in rows)
    sign = "+" if lower_better else "-"
    print(f"bench gate: counter={counter} direction={args.direction} "
          f"tolerance={sign}{args.tolerance:.0%} ({len(shared)} shared "
          f"case(s))")
    print(f"{'case'.ljust(name_w)}  {'baseline':>12}  {'current':>12}  "
          f"{'delta':>8}  status")
    for name, base, cur, delta, status in rows:
        base_s = f"{base:,.3f}" if base is not None else "-"
        cur_s = f"{cur:,.3f}" if cur is not None else "-"
        delta_s = f"{delta:+.1%}" if delta is not None else "-"
        print(f"{name.ljust(name_w)}  {base_s:>12}  {cur_s:>12}  "
              f"{delta_s:>8}  {status}")

    only_base = sorted(set(baseline) - set(current))
    if only_base:
        print(f"(not run this time: {', '.join(only_base)})")

    if failures:
        print(f"bench gate: {failures} case(s) regressed more than "
              f"{args.tolerance:.0%}")
    return failures


def check_ratio(args, current):
    """Returns 1 if the within-report ratio check failed, else 0."""
    if len(args.counter) != 1:
        sys.exit("bench gate: the ratio check takes exactly one --counter")
    counter = args.counter[0]
    for case in (args.ratio_num, args.ratio_den):
        if case not in current:
            sys.exit(f"bench gate: ratio case {case!r} not in "
                     f"{args.current}")
        if counter not in current[case]:
            sys.exit(f"bench gate: ratio case {case!r} has no counter "
                     f"{counter!r}")
    num = current[args.ratio_num][counter]
    den = current[args.ratio_den][counter]
    if den <= 0:
        sys.exit(f"bench gate: ratio denominator {args.ratio_den!r} has "
                 f"non-positive {counter} ({den})")
    ratio = num / den
    ok = ratio <= args.max_ratio
    print(f"bench gate ratio: {counter}")
    print(f"  num {args.ratio_num} = {num:,.3f}")
    print(f"  den {args.ratio_den} = {den:,.3f}")
    print(f"  ratio {ratio:.4f} vs max {args.max_ratio:.4f} "
          f"-> {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline",
                        help="committed baseline report (omit for a "
                             "ratio-only invocation)")
    parser.add_argument("--current", required=True)
    parser.add_argument("--counter", action="append",
                        help="counter to gate; repeatable (default "
                             "steps_per_sec)")
    parser.add_argument("--tolerance", type=float, default=0.40,
                        help="max fractional regression (default 0.40)")
    parser.add_argument("--direction", default="higher-better",
                        choices=("higher-better", "lower-better"),
                        help="which way the counter regresses "
                             "(default higher-better)")
    parser.add_argument("--ratio-num",
                        help="within-report ratio check: numerator case")
    parser.add_argument("--ratio-den",
                        help="within-report ratio check: denominator case")
    parser.add_argument("--max-ratio", type=float, default=1.05,
                        help="ratio check bound (default 1.05)")
    args = parser.parse_args()
    if args.counter is None:
        args.counter = ["steps_per_sec"]

    ratio_mode = args.ratio_num is not None or args.ratio_den is not None
    if ratio_mode and (args.ratio_num is None or args.ratio_den is None):
        sys.exit("bench gate: --ratio-num and --ratio-den go together")
    if not ratio_mode and args.baseline is None:
        sys.exit("bench gate: --baseline is required unless running a "
                 "ratio-only check")

    current = load_cases(args.current)
    failures = 0
    if ratio_mode:
        failures += check_ratio(args, current)
    if args.baseline is not None:
        baseline = load_cases(args.baseline)
        for counter in args.counter:
            failures += check_baseline(args, counter, baseline, current)
    if failures:
        return 1
    print("bench gate: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
