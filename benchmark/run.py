#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of deltasynth.

    python3 benchmark/run.py --workload deep --seed 1 --seconds 25 --trace 0

Run from anywhere inside a checkout: the program is loaded from the
checkout's own `src/`.  Inputs are made from the seed by the reference code
in this directory, handed to deltasynth through `deltasynth.cli.main` and the
documented library calls, in this one process and thread, and every output is
checked.  Rounds of the workload repeat until the next one would end after
`--seconds`; at least one round runs.

With `--trace 0` the last stdout line carries the end-to-end metrics (timings
are medians over the rounds).  With `--trace 1` untraced and traced rounds
alternate, and a last round counts ring arithmetic; the last line carries the
per-layer metrics of one round.  Lines before it restate the metrics for
people.  The exit status is 0 when a result was printed, even if `correct`
is false.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from speed import SpeedClock, kernel_seconds, scaled  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Fresh interpreters timed for setup_s; one more runs first, untimed, so that
# bytecode caches are written the way any earlier invocation leaves them.
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import deltasynth.cli\n"
    "if not deltasynth.__file__.startswith(sys.argv[1]):\n"
    "    sys.exit('deltasynth imported from outside ' + sys.argv[1])\n"
    "deltasynth.circuits.verify_templates()\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MB"),
    ("gates", "gates"),
    ("t_count", "gates"),
    ("word_len", "ops"),
)


class Program:
    """The modules the benchmark calls into; attributes are looked up at
    each call, so the tracer's wrappers are seen."""

    def __init__(self, pkg, cli):
        self.pkg = pkg
        self.cli = cli


def load_program() -> Program:
    home = SRC / "deltasynth"
    if not (home / "cli.py").is_file():
        sys.exit(f"error: no deltasynth sources at {home}")
    sys.path.insert(0, str(SRC))
    import deltasynth
    import deltasynth.cli
    if Path(deltasynth.__file__).resolve().parent != home:
        sys.exit(f"error: deltasynth was imported from {deltasynth.__file__}, not {home}")
    deltasynth.verify_templates()
    return Program(deltasynth, deltasynth.cli)


def measure_setup() -> float:
    """Median set-up time, each run scaled by kernel samples taken just before
    it (the sampling clock stays off: it would run beside the child)."""
    argv = [sys.executable, "-c", SETUP_CODE, str(SRC)]
    times = []
    for i in range(SETUP_REPEATS + 1):
        samples = [kernel_seconds() for _ in range(3)]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL,
                              capture_output=True, check=False)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            sys.exit(f"error: set-up interpreter failed: {proc.stderr.decode(errors='replace')}")
        if i:
            times.append(scaled(elapsed, samples))
    return statistics.median(times)


class Runner:
    """Runs rounds of one workload, keeps the first round's outputs for the
    checks and compares every later round's outputs with them."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.peak_rss_mb = None
        self.rounds = 0
        self.errors = []

    def round(self):
        result = self.workload.run_round()
        self.rounds += 1
        if self.first is None:
            self.first = result.outputs
            # Taken before a second round's outputs sit beside the first's, so
            # it does not depend on how many rounds fit in the run.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        elif result.outputs != self.first:
            self.errors.append(f"round {self.rounds} outputs differ from round 1")
        result.outputs = None
        return result

    def check(self):
        checked = self.workload.check(self.first)
        checked.errors[:0] = self.errors
        return checked

    @property
    def attempted(self):
        return self.rounds * self.workload.ops_per_round


def run_untraced(runner, seconds):
    results, spans = [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        results.append(runner.round())
        spans.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.median(spans) > seconds:
            return results


def run_traced(runner, seconds, clock):
    """Alternate untraced and traced rounds, then one ring-counting round."""
    plain, traced, layer_values, spans = [], [], [], []
    start = time.perf_counter()
    while True:
        begin = time.perf_counter()
        plain.append(runner.round().wall_s)
        tracer = tracing.LayerTracer(clock)
        tracer.install()
        try:
            traced.append(runner.round().wall_s)
        finally:
            tracer.uninstall()
        layer_values.append(tracing.round_layer_values(tracer))
        spans.append(time.perf_counter() - begin)
        if time.perf_counter() - start + statistics.median(spans) > seconds:
            break
    ring = tracing.RingCounter()
    ring.install()
    try:
        runner.round()
    finally:
        ring.uninstall()
    # Counts repeat exactly from round to round; times take the median.
    values = {name: statistics.median(v[name] for v in layer_values)
              if isinstance(layer_values[-1][name], float) else layer_values[-1][name]
              for name in layer_values[0]}
    values["ring.add.calls"] = ring.adds
    values["ring.mul.calls"] = ring.muls
    values["ring.lift_steps"] = ring.lift_steps
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {name: values[name] for name, _ in tracing.PER_LAYER}


def report(workload, runner, checked, metrics, units, info):
    failed = checked.failed * runner.rounds
    print(f"workload {workload.name}: {runner.rounds} rounds,"
          f" {runner.attempted} operations attempted, {failed} failed,"
          f" correct {not checked.errors}")
    for name, value in info.items():
        print(f"  ({name} {value:.6g} {units.get(name, 's')})")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {units[name]}")
    for error in checked.errors[:20]:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps({
        "correct": not checked.errors,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    program = load_program()
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        clock = SpeedClock()
        workload = WORKLOADS[args.workload](program, args.seed, workdir, clock)
        runner = Runner(workload)
        if args.trace:
            with clock:
                metrics = run_traced(runner, args.seconds, clock)
            units = dict(tracing.PER_LAYER)
            info = {}
        else:
            setup_s = measure_setup()
            with clock:
                results = run_untraced(runner, args.seconds)
            info = {part: statistics.median(r.parts[part] for r in results)
                    for part in workload.parts}
            if "library_s" in info:
                info = {"matrices_per_s": workload.ops_per_round / info["library_s"]}
            units = dict(END_TO_END, matrices_per_s="1/s")
        checked = runner.check()
        if not args.trace:
            metrics = {
                "setup_s": setup_s,
                "round_s": statistics.median(r.wall_s for r in results),
                "peak_rss_mb": runner.peak_rss_mb,
                **checked.sizes,
            }
        report(workload, runner, checked, metrics, units, info)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
