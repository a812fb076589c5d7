"""The benchmark's tracer still finds and restores the functions it wraps,
and a traced benchmark run still passes its checks.

`benchmark/run.py --trace 1` wraps deltasynth functions by name from
outside the package; a rename or a changed call pattern would otherwise
only show as a crash or as silent zero counts in a benchmark run.
"""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import deltasynth
import deltasynth.circuits
import deltasynth.cli  # noqa: F401  (the tracer wraps cli functions too)
import deltasynth.engine
from deltasynth.ring import DOmega
from helpers import D_INV_SQRT2, D_ONE, mixing_ops, random_word_matrix

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores():
    tracing = load_tracing()
    wrapped = [(deltasynth, "synthesize"), (deltasynth.engine, "synthesize"),
               (deltasynth.engine, "reduction_round"),
               (deltasynth.engine, "solve_monomial"),
               (deltasynth.engine, "verify_decomposition"), (deltasynth, "emit"),
               (deltasynth.circuits, "emit"), (deltasynth.circuits, "circuit_to_matrix")]
    originals = {(module, name): getattr(module, name) for module, name in wrapped}
    ring_ops = (DOmega.__add__, DOmega.__sub__, DOmega.__mul__)
    tracer = tracing.LayerTracer(time.perf_counter)
    counter = tracing.RingCounter()
    m = random_word_matrix(4, 30, seed=3)
    # emit checks its templates on first use; do that outside the count
    deltasynth.verify_templates()
    tracer.install()
    counter.install()
    try:
        assert deltasynth.engine.reduction_round is not originals[
            (deltasynth.engine, "reduction_round")]
        dec = deltasynth.engine.synthesize(m)
        assert deltasynth.engine.verify_decomposition(m, dec)
        circuit = deltasynth.circuits.emit(dec.word, 4)
        assert deltasynth.circuits.circuit_to_matrix(circuit) == m
        # the program does no D[w] arithmetic; the reference values do
        program_ring_ops = (counter.adds, counter.muls)
        assert D_INV_SQRT2 * D_INV_SQRT2 + D_INV_SQRT2 * D_INV_SQRT2 == D_ONE
    finally:
        counter.uninstall()
        tracer.uninstall()
    assert dec.rounds
    assert tracer.calls["engine.synthesize"] == 1
    assert tracer.calls["engine.reduction_round"] == len(dec.rounds)
    # one classification per pass, whatever classify_pattern returns
    assert tracer.calls["engine.classify_pattern"] == sum(len(r.case_chain) for r in dec.rounds)
    assert tracer.calls["engine.solve_monomial"] == 1
    assert tracer.calls["engine.verify_decomposition"] == 1
    assert tracer.calls["linalg.apply_elementary"] == len(dec.word)
    assert tracer.calls["circuits.emit"] == 1
    assert tracer.calls["circuits.circuit_to_matrix"] == 1
    assert tracer.decompositions == [dec]
    assert program_ring_ops == (0, 0)
    assert (counter.adds, counter.muls) == (1, 2)
    values = tracing.round_layer_values(tracer)
    assert values["engine.mixing_ops"] == sum(map(mixing_ops, dec.rounds))
    for (module, name), original in originals.items():
        assert getattr(module, name) is original
    assert (DOmega.__add__, DOmega.__sub__, DOmega.__mul__) == ring_ops


def test_traced_benchmark_run_is_correct():
    """One traced `deep` round: every name the tracer wraps, the ring counter
    and the workload's reference checks run against the program as it is."""
    run = TRACING.parent / "run.py"
    proc = subprocess.run([sys.executable, str(run), "--workload", "deep", "--seed", "1",
                           "--seconds", "0", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
