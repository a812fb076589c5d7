"""Per-layer tracing by wrapping deltasynth's public functions from outside.

A wrapper is installed at every module attribute that holds the function
(engine calls `residue_matrix` through its own global, so wrapping only
`deltasynth.linalg.residue_matrix` would miss those calls) and removed again
afterwards.  Self time of a function is its time (on the given clock) minus
the time spent in wrapped functions it called.

Ring arithmetic is counted by a separate wrapper on `DOmega.__add__`,
`__sub__` and `__mul__`, installed on its own round: those run millions of
times, and timing them would swamp the self times of their callers.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict

# Functions whose calls are counted and timed, by layer.
TIMED = {
    "cli": ("main", "parse_matrix"),
    "circuits": ("parse_circuit", "render_circuit", "emit", "circuit_to_matrix"),
    "linalg": ("is_unitary", "residue_matrix", "apply_elementary", "delta_exponent"),
    "engine": ("synthesize", "reduction_round", "classify_pattern", "solve_monomial",
               "verify_decomposition"),
}

CASE_TAGS = ("dense2", "block3", "single_block", "full_rows", "double_block",
             "block_and_rows", "dense4")


def _program_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "deltasynth" or name.startswith("deltasynth."))]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved = []

    def set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class LayerTracer:
    """Counts and self times of the TIMED functions, plus what they return
    or receive that the per-layer metrics need."""

    def __init__(self, clock):
        self.clock = clock
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.decompositions = []
        self.simulated_gates = 0
        self._stack = [0.0]
        self._patches = _Patches()

    def _wrap(self, label, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        perf = self.clock
        observe = {"engine.synthesize": self.decompositions.append}.get(label)
        count_gates = label == "circuits.circuit_to_matrix"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count_gates:
                self.simulated_gates += len(args[0].gates)
            stack.append(0.0)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self_s[label] += elapsed - stack.pop()
                stack[-1] += elapsed
                calls[label] += 1
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def install(self):
        modules = _program_modules()
        by_name = {m.__name__: m for m in modules}
        for layer, names in TIMED.items():
            home = by_name[f"deltasynth.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._patches.set(module, attr, wrapper)

    def uninstall(self):
        self._patches.undo()


class RingCounter:
    """Counts D[w] additions, subtractions and products, and the exponent
    gaps the additions lift across (one multiplication by delta per step)."""

    def __init__(self):
        self.adds = 0
        self.muls = 0
        self.lift_steps = 0
        self._patches = _Patches()

    def install(self):
        ring = sys.modules["deltasynth.ring"]
        cls = ring.DOmega
        add, sub, mul = cls.__add__, cls.__sub__, cls.__mul__

        def counted_add(a, b):
            self.adds += 1
            self.lift_steps += abs(a.k - b.k)
            return add(a, b)

        def counted_sub(a, b):
            self.adds += 1
            self.lift_steps += abs(a.k - b.k)
            return sub(a, b)

        def counted_mul(a, b):
            self.muls += 1
            return mul(a, b)

        self._patches.set(cls, "__add__", counted_add)
        self._patches.set(cls, "__sub__", counted_sub)
        self._patches.set(cls, "__mul__", counted_mul)

    def uninstall(self):
        self._patches.undo()


PER_LAYER = (
    # (metric, unit)
    ("cli.parse_matrix.calls", "count"),
    ("cli.parse_matrix.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("circuits.parse_circuit.self_s", "s"),
    ("circuits.render_circuit.self_s", "s"),
    ("circuits.emit.calls", "count"),
    ("circuits.emit.self_s", "s"),
    ("circuits.circuit_to_matrix.self_s", "s"),
    ("circuits.circuit_to_matrix.gates", "gates"),
    ("circuits.circuit_to_matrix.us_per_gate", "us"),
    ("linalg.is_unitary.calls", "count"),
    ("linalg.is_unitary.self_s", "s"),
    ("linalg.residue_matrix.calls", "count"),
    ("linalg.residue_matrix.self_s", "s"),
    ("linalg.apply_elementary.calls", "count"),
    ("linalg.apply_elementary.self_s", "s"),
    ("linalg.delta_exponent.calls", "count"),
    ("engine.synthesize.self_s", "s"),
    ("engine.reduction_round.calls", "count"),
    ("engine.reduction_round.self_s", "s"),
    ("engine.classify_pattern.calls", "count"),
    ("engine.solve_monomial.self_s", "s"),
    ("engine.verify_decomposition.self_s", "s"),
    ("engine.mixing_ops", "ops"),
    *((f"engine.case.{tag}", "count") for tag in CASE_TAGS),
    ("ring.add.calls", "count"),
    ("ring.mul.calls", "count"),
    ("ring.lift_steps", "steps"),
    ("trace.overhead_s", "s"),
)


def round_layer_values(tracer: LayerTracer) -> dict:
    """Per-layer values of one traced round (everything but ring.* and trace.*)."""
    values = {}
    for name, _ in PER_LAYER:
        head, _, stat = name.rpartition(".")
        if stat == "calls" and head.count(".") == 1 and not head.startswith("ring"):
            values[name] = tracer.calls[head]
        elif stat == "self_s":
            values[name] = tracer.self_s[head]
    gates = tracer.simulated_gates
    values["circuits.circuit_to_matrix.gates"] = gates
    values["circuits.circuit_to_matrix.us_per_gate"] = (
        tracer.self_s["circuits.circuit_to_matrix"] / gates * 1e6 if gates else 0.0)
    cases = Counter()
    mixing = 0
    for dec in tracer.decompositions:
        for rnd in dec.rounds:
            cases.update(rnd.case_chain)
            mixing += sum(op.kind == "H" for op in rnd.left_ops + rnd.right_ops)
    values["engine.mixing_ops"] = mixing
    for tag in CASE_TAGS:
        values[f"engine.case.{tag}"] = cases[tag]
    return values
