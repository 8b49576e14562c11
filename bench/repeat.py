#!/usr/bin/env python3
"""Run every workload several times and print the spread of every metric.

    python3 bench/repeat.py --runs 10 --seconds 20 [--trace 0]
                            [--workloads decision,cones] [--json out.json]

Run k (1, 2, ...) uses seed k for every workload; the workload order is
reversed on every other run, so slow and fast stretches of the host fall on
all workloads alike.  For each workload and metric it prints the median, the
first and third quartiles (statistics.quantiles(values, n=4)) and the spread
(q3 - q1) / median, plus the share of failed verdicts.  Two more rows come
from each run's summary on standard error: the raw (unadjusted) median round
wall time and the median host slowness, to show what the host adjustment
removes.  Each run is a fresh process of bench/run.py, started after the
previous one has ended.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("decision", "ideal-depth", "rigidity", "cones")

#: the medians in run.py's summary line on standard error
RAW = {
    "(raw round wall)": (re.compile(r"raw round wall min/median/max [\d.]+/([\d.]+)/"), "s"),
    "(host slowness)": (re.compile(r"host slowness min/median/max [\d.]+/([\d.]+)/"), "ratio"),
}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["raw"] = {name: float(rx.search(proc.stderr).group(1)) for name, (rx, _) in RAW.items()}
    return result


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--json", help="also write every run and the summary here")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    if args.runs < 2:
        parser.error("--runs must be at least 2 for quartiles")

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for k in range(args.runs):
        order = workloads if k % 2 == 0 else workloads[::-1]
        for w in order:
            results[w].append(run_once(w, k + 1, args.seconds, args.trace))

    summary = {}
    for w in workloads:
        runs = results[w]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{w}: {len(runs)} runs, failed share {' '.join(f'{s:.6f}' for s in shares)}")
        summary[w] = {"failed_shares": shares, "metrics": {}}
        rows = [(name, m["unit"], [r["metrics"][name]["value"] for r in runs])
                for name, m in runs[0]["metrics"].items()]
        rows += [(name, unit, [r["raw"][name] for r in runs]) for name, (_, unit) in RAW.items()]
        for name, unit, values in rows:
            stats = summarize(values)
            summary[w]["metrics"][name] = stats
            print(f"  {name:30s} {stats['median']:14.6g} {unit:6s} "
                  f"q1 {stats['q1']:12.6g}  q3 {stats['q3']:12.6g}  spread {stats['spread']:.4f}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump({"args": vars(args), "runs": results, "summary": summary}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
