#!/usr/bin/env python3
"""Steadiness check: repeat each workload over several seeds and print, for
every end-to-end metric, its median, quartiles and spread beside its bound.

    python3 benchmark/steady.py --seeds 1-10
    python3 benchmark/steady.py --seeds 11-20 --workloads deep --save a.json
    python3 benchmark/steady.py --seeds 11-20 --workloads deep --against a.json

Spread is (q3 - q1) / median, with quartiles from
statistics.quantiles(values, n=4).  A spread above a third of the bound is
flagged `wide`, above the bound `OVER` (setup_s is exempt from the spread
rule).  With --against, each median is also compared with a saved set, and a
change for the worse beyond the bound is flagged `WORSE`.  Runs go one at a
time, each a fresh `run.py` process with --trace 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else float("inf")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--save", type=Path, help="write the raw results here")
    parser.add_argument("--against", type=Path, help="compare medians with a saved set")
    args = parser.parse_args()

    previous = json.loads(args.against.read_text()) if args.against else {}
    saved = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        saved[workload] = runs
        shares = {f"{r['failed']}/{r['attempted']}" for r in runs}
        ratios = {r["failed"] / r["attempted"] for r in runs}
        print(f"{workload}: correct {all(r['correct'] for r in runs)},"
              f" failed share {'same' if len(ratios) == 1 else 'DIFFERS'} ({', '.join(sorted(shares))})")
        print(f"  {'metric':<12} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>7} {'bound':>6}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            width = spread(values)
            flag = ""
            if name != "setup_s":
                flag = "OVER" if width > bound else "wide" if width > bound / 3 else ""
            if workload in previous:
                before = statistics.median(r["metrics"][name]["value"] for r in previous[workload])
                change = (median - before) / before
                if metric["better"] == "higher":
                    change = -change
                flag += f" vs saved {change:+.3f}" + (" WORSE" if change > bound else "")
            print(f"  {name:<12} {median:>12.6g} {q1:>12.6g} {q3:>12.6g}"
                  f" {width:>7.3f} {bound:>6} {flag}")
    if args.save:
        args.save.write_text(json.dumps(saved))
    return 0


if __name__ == "__main__":
    sys.exit(main())
