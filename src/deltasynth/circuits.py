"""Lowering elementary-operator words to Clifford+T circuits.

A word over row operations on dimension 2 or 4 becomes a circuit on 1 or 2
qubits (wire 0 is the most significant basis bit).  Two-level Hadamard and
swap operations lower to controlled gates, routed through a CNOT change of
basis when the two levels differ in both bits.  Single-level phases on two
qubits lower to controlled-S powers when the phase is a power of i; odd
powers of w borrow one ancilla, flip it on the targeted basis state, rotate
it with T gates, and flip it back, so the ancilla always returns to zero.
The ops that fit a layout are a finite alphabet, so each is lowered once per
process and every emitted circuit shares its gates.

Circuits are simulated exactly on linalg's matrix form, Z[w] numerators N
over one least power of sqrt(2), the unitary being N / sqrt(2)^e.  X, CNOT,
the phases and W only permute rows and multiply them by powers of w, so they
are composed on the basis labels as (source row, phase) and touch no row.  H
replaces every amplitude pair by its sum and difference, turning one of the
two source rows by their phase difference first, and raises e by one, which
`least` lowers again while it can; the labels meet the rows once, at the end.
With a borrowed ancilla only the ancilla-|0> input columns are simulated;
the rest of the unitary does not bear on the data block or on the ancilla's
return to zero.

Every gate template is compared as (N, e), on all columns, with the
elementary-operator word it implements, once, the first time a circuit is
emitted.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    CircuitParseError,
    TemplateError,
    UnsupportedDimError,
    VerificationError,
)
from .linalg import (ElementaryOp, ExactMatrix, h_op, least, omega_op, row_surgery,
                     word_product, x_op)
from .ring import ZW_ONE, ZW_ZERO, ZOmega

SINGLE_WIRE_GATES = frozenset({"H", "S", "SDG", "T", "TDG", "X"})
GATE_NAMES = SINGLE_WIRE_GATES | {"CNOT", "W", "ANC_INIT", "ANC_FREE"}

_DIAG_POWER = {"S": 2, "SDG": 6, "T": 1, "TDG": 7}

# w^p on one wire as a minimal T/S gate sequence
_PHASE_SEQ = {
    0: (),
    1: ("T",),
    2: ("S",),
    3: ("S", "T"),
    4: ("S", "S"),
    5: ("SDG", "TDG"),
    6: ("SDG",),
    7: ("TDG",),
}


@dataclass(frozen=True)
class Gate:
    """One circuit instruction; W is a global phase of w^power."""

    name: str
    wires: tuple[int, ...] = ()
    power: int = 0

    def __post_init__(self) -> None:
        if self.name not in GATE_NAMES:
            raise ValueError(f"unknown gate {self.name!r}")
        if self.name == "W":
            if self.wires or not 1 <= self.power <= 7:
                raise ValueError("W takes no wires and a power in 1..7")
        elif self.power:
            raise ValueError(f"{self.name} takes no power")
        elif self.name == "CNOT":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise ValueError("CNOT takes two distinct wires")
        elif len(self.wires) != 1:
            raise ValueError(f"{self.name} takes exactly one wire")
        if any(w < 0 for w in self.wires):
            raise ValueError("wires are non-negative")

    def __str__(self) -> str:
        if self.name == "W":
            return f"W {self.power}"
        return " ".join([self.name, *map(str, self.wires)])


@dataclass(frozen=True)
class Circuit:
    data_qubits: int
    uses_ancilla: bool
    gates: tuple[Gate, ...]

    def __post_init__(self) -> None:
        if self.data_qubits not in (1, 2):
            raise ValueError("circuits cover 1 or 2 data qubits")
        bound = self.wire_count
        for gate in self.gates:
            wires = gate.wires
            if wires and max(wires) >= bound:
                raise ValueError(f"gate {gate} exceeds {bound} wires")
            if gate.name in ("ANC_INIT", "ANC_FREE"):
                if not self.uses_ancilla or gate.wires != (self.data_qubits,):
                    raise ValueError("ancilla markers must name the ancilla wire")

    @property
    def wire_count(self) -> int:
        return self.data_qubits + (1 if self.uses_ancilla else 0)

    @property
    def dim(self) -> int:
        return 1 << self.data_qubits


def _wire_mask(wire: int, n_wires: int) -> int:
    return 1 << (n_wires - 1 - wire)


def _fold(gates: Iterable[Gate], rows: Sequence[Sequence[ZOmega]], e: int,
          n_wires: int) -> tuple[list, int]:
    """The gates, in order, applied to N / sqrt(2)^e, as a new (N, e) with e
    least when it was least before; rows itself is not changed.  Basis state
    i holds w^p times working row s, kept as the label p * 2^n_wires + s;
    only H changes the working rows, and the labels meet them at the end."""
    size = 1 << n_wires
    mask = size - 1
    labels = list(range(size))
    rows = list(rows)
    for gate in gates:
        name = gate.name
        if name == "H":
            # (w^p x, w^q y) mixes to w^p (x + w^(q-p) y, x - w^(q-p) y): turn
            # one source row, mix the two in place, and keep w^p on both labels
            target = _wire_mask(gate.wires[0], n_wires)
            for i in range(size):
                if not i & target:
                    j = i | target
                    top, bot = labels[i] & mask, labels[j] & mask
                    turn = ((labels[j] >> n_wires) - (labels[i] >> n_wires)) & 7
                    if turn:
                        row_surgery(rows, "omega", bot, power=turn)
                    row_surgery(rows, "H", top, bot)
                    labels[j] = labels[i] - top + bot
            rows, e = least(rows, e + 1)
        elif name == "W":
            labels = [label + gate.power * size for label in labels]
        elif name in _DIAG_POWER:
            target = _wire_mask(gate.wires[0], n_wires)
            step = _DIAG_POWER[name] * size
            labels = [label + step if i & target else label for i, label in enumerate(labels)]
        elif name in ("X", "CNOT"):
            target = _wire_mask(gate.wires[-1], n_wires)
            control = _wire_mask(gate.wires[0], n_wires) if name == "CNOT" else 0
            labels = [labels[i ^ target] if i & control == control else labels[i]
                      for i in range(size)]
    return [[z.mul_omega_power(label >> n_wires) for z in rows[label & mask]]
            for label in labels], e


def apply_gate(gate: Gate, rows: Sequence[Sequence[ZOmega]], e: int,
               n_wires: int) -> tuple[list, int]:
    """gate @ (N / sqrt(2)^e) as a new (N, e): the one-gate fold."""
    return _fold((gate,), rows, e, n_wires)


def _simulate(gates: Iterable[Gate], n_wires: int,
              cols: Sequence[int] | None = None) -> tuple[list[list[ZOmega]], int]:
    """(N, e) with N / sqrt(2)^e the circuit's unitary on the input columns
    cols (all by default), N over Z[w] and e least."""
    size = 1 << n_wires
    cols = range(size) if cols is None else cols
    rows = [[ZW_ONE if i == j else ZW_ZERO for j in cols] for i in range(size)]
    return _fold(gates, rows, 0, n_wires)


def _phase_gates(wire: int, power: int) -> list[Gate]:
    return [Gate(name, (wire,)) for name in _PHASE_SEQ[power % 8]]


def _lambda_s(c: int, t: int) -> list[Gate]:
    return [Gate("T", (c,)), Gate("T", (t,)), Gate("CNOT", (c, t)),
            Gate("TDG", (t,)), Gate("CNOT", (c, t))]


def _lambda_s_dag(c: int, t: int) -> list[Gate]:
    return [Gate("TDG", (c,)), Gate("TDG", (t,)), Gate("CNOT", (c, t)),
            Gate("T", (t,)), Gate("CNOT", (c, t))]


def _lambda_h(c: int, t: int) -> list[Gate]:
    return [Gate("SDG", (t,)), Gate("H", (t,)), Gate("TDG", (t,)),
            Gate("CNOT", (c, t)),
            Gate("T", (t,)), Gate("H", (t,)), Gate("S", (t,))]


def _toffoli(c1: int, c2: int, t: int) -> list[Gate]:
    return [Gate("H", (t,)),
            Gate("CNOT", (c2, t)), Gate("TDG", (t,)),
            Gate("CNOT", (c1, t)), Gate("T", (t,)),
            Gate("CNOT", (c2, t)), Gate("TDG", (t,)),
            Gate("CNOT", (c1, t)), Gate("T", (c2,)), Gate("T", (t,)),
            Gate("H", (t,)),
            Gate("CNOT", (c1, c2)), Gate("T", (c1,)), Gate("TDG", (c2,)),
            Gate("CNOT", (c1, c2))]


def _lambda2_ix(c1: int, c2: int, t: int) -> list[Gate]:
    return _lambda_s(c1, c2) + _toffoli(c1, c2, t)


def _lambda2_minus_ix(c1: int, c2: int, t: int) -> list[Gate]:
    return _lambda_s_dag(c1, c2) + _toffoli(c1, c2, t)


# Each template against the word it implements, on 2 or 3 wires.
_TEMPLATES = (
    ("controlled-S", _lambda_s(0, 1), [omega_op(4, 2)], 2),
    ("controlled-Sdg", _lambda_s_dag(0, 1), [omega_op(4, 6)], 2),
    ("controlled-H", _lambda_h(0, 1), [h_op(3, 4)], 2),
    ("toffoli", _toffoli(0, 1, 2), [x_op(7, 8)], 3),
    ("doubly-controlled iX", _lambda2_ix(0, 1, 2),
     [x_op(7, 8), omega_op(7, 2), omega_op(8, 2)], 3),
    ("doubly-controlled -iX", _lambda2_minus_ix(0, 1, 2),
     [x_op(7, 8), omega_op(7, 6), omega_op(8, 6)], 3),
)


_templates_verified = False


def verify_templates() -> None:
    """Check every gate template, on all columns, against the word it
    implements; raise on mismatch."""
    global _templates_verified
    for name, gates, word, n_wires in _TEMPLATES:
        if _simulate(gates, n_wires) != word_product(word, 1 << n_wires):
            raise TemplateError(f"{name} template does not match its word")
    _templates_verified = True


def _lower_one_qubit(op: ElementaryOp) -> list[Gate]:
    if op.kind in ("H", "X"):
        return [Gate(op.kind, (0,))]
    power = op.power % 8
    if op.j == 2:
        return _phase_gates(0, power)
    return [Gate("W", (), power), *_phase_gates(0, (8 - power) % 8)]


def _conjugated(wrapper: list[Gate], inner: list[Gate]) -> list[Gate]:
    return wrapper + inner + wrapper


def _lower_two_level(kind: str, a: int, b: int) -> list[Gate]:
    diff = a ^ b
    if diff == 0b11:
        mapped = sorted((x ^ ((x >> 1) & 1) for x in (a, b)))
        return _conjugated([Gate("CNOT", (0, 1))],
                           _lower_two_level(kind, mapped[0], mapped[1]))
    if diff == 0b01:
        control, target, value = 0, 1, a >> 1
    else:
        control, target, value = 1, 0, a & 1
    inner = [Gate("CNOT", (control, target))] if kind == "X" else _lambda_h(control, target)
    if value == 0:
        return _conjugated([Gate("X", (control,))], inner)
    return inner


def _lower_two_qubit_phase(state: int, power: int) -> tuple[list[Gate], bool]:
    flips = [Gate("X", (w,)) for w, bit in enumerate((state >> 1 & 1, state & 1))
             if bit == 0]
    if power % 2 == 0:
        quarter = (power // 2) % 4
        if quarter == 0:
            return [], False
        body = _lambda_s_dag(0, 1) if quarter == 3 else _lambda_s(0, 1) * quarter
        return _conjugated(flips, body), False
    body = (_lambda2_ix(0, 1, 2) + _phase_gates(2, power)
            + _lambda2_minus_ix(0, 1, 2))
    return _conjugated(flips, body), True


def _lower_two_qubit(op: ElementaryOp) -> tuple[list[Gate], bool]:
    if op.kind == "omega":
        return _lower_two_qubit_phase(op.j - 1, op.power % 8)
    return _lower_two_level(op.kind, op.j - 1, op.m - 1), False


@functools.cache
def _lowered(op: ElementaryOp, qubits: int) -> tuple[tuple[Gate, ...], bool]:
    """op's gates on the given layout and whether they borrow the ancilla.
    The ops that fit dimension 2 or 4 are a finite alphabet (16 and 40 ops),
    so each one is lowered and its gates validated once per process."""
    gates, used = (_lower_one_qubit(op), False) if qubits == 1 else _lower_two_qubit(op)
    return tuple(gates), used


def emit(word: Sequence[ElementaryOp], dim: int) -> Circuit:
    """Clifford+T circuit whose unitary equals the product of the word.

    Gates are listed in application order, so the word's rightmost factor
    lowers first.  Only dimensions 2 and 4 have a qubit layout.
    """
    if dim not in (2, 4):
        raise UnsupportedDimError(f"no qubit layout for dimension {dim}")
    if not _templates_verified:
        verify_templates()
    qubits = 1 if dim == 2 else 2
    body: list[Gate] = []
    uses_ancilla = False
    for op in reversed(word):
        if max(op.j, op.m) > dim:
            raise ValueError(f"operator {op} exceeds dimension {dim}")
        gates, used = _lowered(op, qubits)
        body.extend(gates)
        uses_ancilla = uses_ancilla or used
    if uses_ancilla:
        body = [Gate("ANC_INIT", (qubits,)), *body, Gate("ANC_FREE", (qubits,))]
    return Circuit(qubits, uses_ancilla, tuple(body))


def circuit_to_matrix(circuit: Circuit) -> ExactMatrix:
    """Exact unitary on the data qubits.

    With an ancilla, only the ancilla-0 input columns are simulated and
    their ancilla-0 rows are the result; any amplitude they leave on
    ancilla-1 outputs is an error.
    """
    n_wires = circuit.wire_count
    if not circuit.uses_ancilla:
        return ExactMatrix(*_simulate(circuit.gates, n_wires))
    # the ancilla is the last wire, so its value is the basis index's low bit
    rows, e = _simulate(circuit.gates, n_wires, range(0, 1 << n_wires, 2))
    if any(any(row) for row in rows[1::2]):
        raise VerificationError("circuit does not return the ancilla to zero")
    return ExactMatrix(rows[0::2], e)


def gate_counts(circuit: Circuit) -> dict:
    counts = {"total": 0, "t_count": 0, "h": 0, "cnot": 0,
              "uses_ancilla": circuit.uses_ancilla}
    for gate in circuit.gates:
        if gate.name in ("ANC_INIT", "ANC_FREE"):
            continue
        counts["total"] += 1
        if gate.name in ("T", "TDG"):
            counts["t_count"] += 1
        elif gate.name == "H":
            counts["h"] += 1
        elif gate.name == "CNOT":
            counts["cnot"] += 1
    return counts


def render_circuit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.data_qubits}"]
    lines.extend(str(gate) for gate in circuit.gates)
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    """Inverse of render_circuit; # starts a comment, blank lines are skipped."""
    qubits = None
    gates: list[Gate] = []
    # a line that parsed once stands for the same gate wherever it repeats
    parsed: dict[str, Gate] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if (gate := parsed.get(line)) is not None:
            gates.append(gate)
            continue
        parts = line.split()
        if parts[0] == "qubits":
            if qubits is not None:
                raise CircuitParseError("duplicate qubits header", line=lineno)
            if gates:
                raise CircuitParseError("qubits header must come first", line=lineno)
            # int() takes any short decimal string; "²" is a digit, not decimal
            if len(parts) != 2 or not parts[1].isdecimal() or len(parts[1]) > 9:
                raise CircuitParseError("expected: qubits <1|2>", line=lineno)
            qubits = int(parts[1])
            continue
        if qubits is None:
            raise CircuitParseError("missing qubits header", line=lineno)
        name = parts[0]
        if name not in GATE_NAMES:
            raise CircuitParseError(f"unknown gate {name!r}", line=lineno)
        try:
            args = [int(p) for p in parts[1:]]
        except ValueError:
            raise CircuitParseError(f"bad arguments for {name}", line=lineno) from None
        try:
            if name == "W":
                if len(args) != 1:
                    raise ValueError("W takes one power argument")
                gate = Gate("W", (), args[0])
            else:
                gate = Gate(name, tuple(args))
        except ValueError as exc:
            raise CircuitParseError(str(exc), line=lineno) from None
        parsed[line] = gate
        gates.append(gate)
    if qubits is None:
        raise CircuitParseError("missing qubits header")
    uses_ancilla = any(g.name == "ANC_INIT" for g in gates)
    try:
        return Circuit(qubits, uses_ancilla, tuple(gates))
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from None
