#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark.

    python3 tools/perf_pairs.py --base HEAD~1 --workload sim-table1 \\
        --pairs 8 --seconds 4 [--trace-runs 1] [--workdir DIR]

Exports <base> (any git revision) with `git archive` into a work directory
and runs perfbench/run.py from that copy and from the working tree, each
side with its own CARGO_TARGET_DIR, so each side builds from its own
sources. Pair i runs both sides on seed i, base first on odd seeds and the
working tree first on even ones, so a drift of the host's speed during the
run weighs on both sides alike.

For every end-to-end metric in BENCHMARK.json it prints each side's median
and interquartile range, the change of the median in percent, and in how
many pairs the working tree was better (the metric's "better" direction;
ties count for neither side). With --trace-runs K it then makes K traced
(--trace 1) runs per side, alternating, and prints every per-layer metric
of each.

The work directory defaults to a fresh temporary one, removed at exit.
Give --workdir to keep the two builds for the next call (the export is
redone when <base> names another commit).

Exit code: 0 when every run reported "correct": true, 1 when any run
reported "correct": false, 2 on usage, git or build errors and on runs
that produced no result.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sim-table1", "svc-closed", "svc-open")
SIDES = ("base", "change")


def log(msg):
    print(f"perf_pairs: {msg}", file=sys.stderr, flush=True)


def git(*args):
    proc = subprocess.run(["git", "-C", str(ROOT), *args],
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        log(f"git {' '.join(args)} failed")
        sys.exit(2)
    return proc.stdout.strip()


def export_base(rev, workdir):
    """Exports `rev` into workdir/base unless it already holds it."""
    commit = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    tree = workdir / "base"
    stamp = workdir / "base.commit"
    if tree.is_dir() and stamp.is_file() and stamp.read_text() == commit:
        return tree, commit
    shutil.rmtree(tree, ignore_errors=True)
    shutil.rmtree(workdir / "base-build", ignore_errors=True)
    tree.mkdir(parents=True)
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", commit],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(tree)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() != 0 or untar.returncode != 0:
        log(f"could not export {rev}")
        sys.exit(2)
    stamp.write_text(commit)
    return tree, commit


def run_side(tree, build, workload, seed, seconds, trace):
    """One perfbench run; returns its result object."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    env = dict(os.environ, CARGO_TARGET_DIR=str(build))
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=tree)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        log(f"{tree.name}: {workload} seed {seed} gave no result "
            f"(exit {proc.returncode})")
        sys.exit(2)
    return json.loads(lines[-1])


def alternate(trees, builds, workload, seeds, seconds, trace):
    """Runs both sides on each seed, alternating who goes first."""
    results = {side: [] for side in SIDES}
    for seed in seeds:
        order = SIDES if seed % 2 == 1 else SIDES[::-1]
        for side in order:
            result = run_side(trees[side], builds[side], workload, seed,
                              seconds, trace)
            results[side].append(result)
            log(f"seed {seed} {side}: correct={result['correct']}")
    return results


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def print_pairs(results, end_to_end):
    base, change = results["base"], results["change"]
    pairs = len(base)
    print(f"{'metric':<14}{'base median':>13}{'IQR':>11}"
          f"{'change median':>15}{'IQR':>11}{'change':>9}{'wins':>8}")
    for name, better in end_to_end.items():
        if name not in base[0]["metrics"]:
            continue
        b = [r["metrics"][name]["value"] for r in base]
        c = [r["metrics"][name]["value"] for r in change]
        bq1, bmed, bq3 = quartiles(b)
        cq1, cmed, cq3 = quartiles(c)
        pct = (cmed - bmed) / bmed * 100 if bmed else 0.0
        sign = 1 if better == "higher" else -1
        wins = sum(1 for x, y in zip(b, c) if sign * (y - x) > 0)
        print(f"{name:<14}{bmed:>13.6g}{bq3 - bq1:>11.3g}"
              f"{cmed:>15.6g}{cq3 - cq1:>11.3g}{pct:>+8.1f}%"
              f"{wins:>5}/{pairs}")


def print_traces(results):
    runs = len(results["base"])
    names = list(results["base"][0]["metrics"])
    header = "".join(f"{f'{side} {i + 1}':>12}"
                     for side in SIDES for i in range(runs))
    print(f"{'per-layer metric':<28}{header}")
    for name in names:
        row = "".join(
            f"{r['metrics'].get(name, {}).get('value', float('nan')):>12.6g}"
            for side in SIDES for r in results[side])
        print(f"{name:<28}{row}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision to compare the working tree to")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--pairs", type=int, default=8)
    parser.add_argument("--seconds", type=int, default=4)
    parser.add_argument("--trace-runs", type=int, default=0,
                        help="traced runs per side after the pairs")
    parser.add_argument("--workdir", type=Path,
                        help="keep exports and builds here (default: temp)")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds < 1 or args.trace_runs < 0:
        parser.error("--pairs and --seconds must be >= 1, --trace-runs >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["better"] for m in spec["end_to_end"]}

    temp = None
    if args.workdir is None:
        temp = tempfile.mkdtemp(prefix="perf_pairs-")
        workdir = Path(temp)
    else:
        workdir = args.workdir.resolve()
        workdir.mkdir(parents=True, exist_ok=True)
    try:
        base_tree, commit = export_base(args.base, workdir)
        trees = {"base": base_tree, "change": ROOT}
        builds = {side: workdir / f"{side}-build" for side in SIDES}
        log(f"base {commit[:12]} vs working tree, {args.workload}, "
            f"{args.pairs} pairs of {args.seconds} s")
        results = alternate(trees, builds, args.workload,
                            range(1, args.pairs + 1), args.seconds, 0)
        print(f"{args.workload}: base {commit[:12]} vs working tree, "
              f"{args.pairs} alternating pairs, {args.seconds} s each")
        print_pairs(results, end_to_end)
        runs = [r for side in SIDES for r in results[side]]
        if args.trace_runs:
            traces = alternate(trees, builds, args.workload,
                               range(args.pairs + 1,
                                     args.pairs + 1 + args.trace_runs),
                               args.seconds, 1)
            print_traces(traces)
            runs += [r for side in SIDES for r in traces[side]]
    finally:
        if temp is not None:
            shutil.rmtree(temp, ignore_errors=True)
    failed = sum(1 for r in runs if not r["correct"])
    if failed:
        log(f"{failed} run(s) reported \"correct\": false")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
