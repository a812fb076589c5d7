#!/usr/bin/env python3
"""Word length and gate count against k over the deep and corpus inputs.

    python3 benchmark/slopes.py --seeds 1-3

Fits size = slope * k + offset by least squares over every input with k > 0,
and prints the worst slope measured against the offsets frozen in
tests/test_acceptance.py (word <= 8k + 7, gates <= 170k + 200).  Nothing is
timed.
"""

from __future__ import annotations

import argparse
import sys

from inputs import corpus_instances, deep_instances
from run import load_program
from steady import seed_range

ACCEPTANCE = {"word_len": (8, 7), "gates": (170, 200)}


def fit(points):
    n = len(points)
    mean_k = sum(k for k, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    slope = (sum((k - mean_k) * (y - mean_y) for k, y in points)
             / sum((k - mean_k) ** 2 for k, _ in points))
    return slope, mean_y - slope * mean_k


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-3"))
    args = parser.parse_args()
    program = load_program()
    pkg = program.pkg
    for label, make in (("deep", deep_instances), ("corpus", corpus_instances)):
        points = {"word_len": [], "gates": []}
        for seed in args.seeds:
            for inst in make(seed):
                if inst.k == 0:
                    continue
                dec = pkg.synthesize(program.cli.parse_matrix(inst.text))
                points["word_len"].append((inst.k, len(dec.word)))
                if inst.dim in (2, 4):
                    circuit = pkg.emit(dec.word, inst.dim)
                    points["gates"].append((inst.k, pkg.gate_counts(circuit)["total"]))
        for name, pts in points.items():
            slope, offset = fit(pts)
            bound_slope, bound_offset = ACCEPTANCE[name]
            worst = max((y - bound_offset) / k for k, y in pts)
            print(f"{label:<7} {name:<9} {len(pts):>5} inputs, k {min(k for k, _ in pts)}"
                  f"..{max(k for k, _ in pts)}: fit {slope:.2f}k {offset:+.1f};"
                  f" worst ({name} - {bound_offset})/k = {worst:.2f}"
                  f" (acceptance bound {bound_slope})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
