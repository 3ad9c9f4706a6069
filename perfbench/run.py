#!/usr/bin/env python3
"""The repo benchmark: build perfbench from source, run one workload, and
pass its result through. See perfbench/README.md.

    python3 perfbench/run.py --workload sim-table1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --steady [--runs 5] [--seconds 10]

The first form prints the workload's result as the last line of stdout: one
JSON object with "correct", "attempted", "failed" and "metrics". The second
is the steadiness self-check: it runs each workload --runs times with
seeds 1..runs, prints each end-to-end metric's median and spread (the
interquartile range as a share of the median) against its bound from
BENCHMARK.json, and exits 1 if any run failed or any exact count differs
between runs.

The build goes to $CARGO_TARGET_DIR (default .bench_build) under the
checkout; a traced run writes its spans there too, under spans/.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("sim-table1", "svc-closed", "svc-open")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no asyncgossip sources under {ROOT / 'src'}; nothing to build")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            log("configure failed")
            sys.exit(2)
    cmd = ["cmake", "--build", str(out), "--target", "perfbench", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        log("build failed")
        sys.exit(2)
    return out / "perfbench"


def run_once(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{workload}-seed{seed}.jsonl")]
    env = dict(os.environ, AG_ENGINE_JOBS="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"{workload} seed {seed} timed out after {RUN_TIMEOUT_S} s")
        return 1, []
    return proc.returncode, proc.stdout.splitlines()


def steady(binary, args):
    """The steadiness self-check; returns the exit code."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in WORKLOADS:
        values, exact = {}, []
        for seed in range(1, args.runs + 1):
            code, lines = run_once(binary, workload, seed, args.seconds, 0)
            if code != 0 or len(lines) < 2:
                log(f"{workload} seed {seed}: run failed (exit {code})")
                return 1
            result = json.loads(lines[-1])
            if not result["correct"]:
                log(f"{workload} seed {seed}: incorrect result")
                status = 1
            exact.append(json.loads(lines[-2])["exact"])
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        if any(e != exact[0] for e in exact):
            log(f"{workload}: exact counts differ between runs: {exact}")
            status = 1
        print(f"{workload} ({args.runs} runs, {args.seconds} s each)")
        print(f"  {'metric':<16}{'median':>14}{'spread':>9}{'bound':>8}")
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med != 0:
                q = statistics.quantiles(vals, n=4)
                spread = (q[2] - q[0]) / med
            else:
                spread = 0.0
            bound = bounds.get(name, 0.0)
            flag = "  > bound/3" if spread > bound / 3 else ""
            print(f"  {name:<16}{med:>14.6g}{spread:>9.3f}{bound:>8.2f}{flag}")
            if flag:
                print("    runs: " + " ".join(f"{v:.4g}" for v in vals))
        print(f"  exact: {exact[0]}")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true",
                        help="run the steadiness self-check")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    if not args.steady and args.workload is None:
        parser.error("--workload is required (or --steady)")
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be >= 1 and --seed >= 0")

    binary = build()
    if args.steady:
        return steady(binary, args)
    code, lines = run_once(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    for line in lines:
        print(line)
    if code != 0 or not lines or not lines[-1].startswith("{\"correct\""):
        log(f"{args.workload} produced no result (exit {code})")
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
