"""Lowering elementary-operator words to Clifford+T circuits.

A word over row operations on dimension 1 to 4 becomes a circuit on 1 or 2
qubits (wire 0 is the most significant basis bit), a 3x3 word with level 4
idle.  Two-level Hadamard and swap operations lower to controlled gates,
routed through a CNOT change of basis when the two levels differ in both
bits.  On two qubits H[a,b] then H[c,d] on the other two levels is one
Clifford with no T (H on a wire, maybe between CNOTs), and the phases read
between them commute out around it.
Phase ops commute, so each maximal run of them lowers as one diagonal, the
phase polynomial c + a x0 + b x1 + d x0 x1 (mod 8): phases on wires 0 and 1,
and a controlled S or S^dag for d = 2 or 6, a CZ for d = 4, or for odd d the
product x0 x1 computed into one borrowed ancilla by a relative-phase
Toffoli, turned by w^d and uncomputed, so the ancilla returns to zero.  d is
odd when the run's powers add up to an odd number; such a run, unless it is
the last, lowers evenly and leaves w^1 owed to a later run.  The ancilla is
therefore borrowed exactly when det(U) is an odd power of w, which no
product of two-qubit Clifford+T gates has: their determinants are powers of
i.  emit keeps the global phase and the ancilla as two numbers: the w^c of
all diagonals add up to one W gate, placed first, and an odd last diagonal
brackets the circuit with ANC_INIT and ANC_FREE on the ancilla, the wire
after the data wires.  Each op and each diagonal is lowered once per
process, and a gate that meets its inverse on the same wires, past gates on
other wires only, cancels it.

Circuits are simulated exactly on linalg's matrix form, Z[w] numerators N
over one least power of sqrt(2), the unitary being N / sqrt(2)^e.  X, CNOT,
the phases and W only permute rows and multiply them by powers of w, so they
are composed on the basis labels as (source row, phase) and touch no row.  H
raises e by one and replaces every amplitude pair by its sum and difference:
the two source rows its labels name are mixed after turning one by their
phase difference.  A zero row is mixed like any other, since an ancilla-free
fold has no zero row.  `least` lowers e once per batch of Hs and again at
the end; the labels meet the rows once, at the end.  With a borrowed
ancilla only the ancilla-|0> input columns are simulated; the rest of the
unitary does not bear on the data block or on the ancilla's return to zero.

Every gate template is compared as (N, e), on all columns, with the
elementary-operator word it implements, once, the first time a circuit is
emitted.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InvariantError, SynthError, VerificationError
from .linalg import (ElementaryOp, ExactMatrix, h_op, least, omega_op, row_surgery,
                     word_product)
from .ring import ZW_ONE, ZW_SQRT2, ZW_ZERO, ZOmega

SINGLE_WIRE_GATES = frozenset({"H", "S", "SDG", "T", "TDG", "X"})
GATE_NAMES = SINGLE_WIRE_GATES | {"CNOT", "W", "ANC_INIT", "ANC_FREE"}

_DIAG_POWER = {"S": 2, "SDG": 6, "T": 1, "TDG": 7}

# w^p on one wire as a minimal T/S gate sequence, by p
_PHASE_SEQ = ((), ("T",), ("S",), ("S", "T"), ("S", "S"), ("SDG", "TDG"), ("SDG",),
              ("TDG",))


@dataclass(frozen=True)
class Gate:
    """One circuit instruction; W is a global phase of w^power."""

    name: str
    wires: tuple[int, ...] = ()
    power: int = 0

    def __post_init__(self) -> None:
        if type(self.name) is not str or self.name not in GATE_NAMES:
            raise SynthError(f"unknown gate {self.name!r}")
        if type(self.wires) is not tuple or not all(type(w) is int for w in self.wires):
            raise SynthError("wires must be a tuple of ints")
        if self.name == "W":
            if self.wires or type(self.power) is not int or not 1 <= self.power <= 7:
                raise SynthError("W takes no wires and a power in 1..7")
        elif type(self.power) is not int or self.power:
            raise SynthError(f"{self.name} takes no power")
        elif self.name == "CNOT":
            if len(self.wires) != 2 or self.wires[0] == self.wires[1]:
                raise SynthError("CNOT takes two distinct wires")
        elif len(self.wires) != 1:
            raise SynthError(f"{self.name} takes exactly one wire")
        if any(w < 0 for w in self.wires):
            raise SynthError("wires are non-negative")

    def __str__(self) -> str:
        if self.name == "W":
            return f"W {self.power}"
        return " ".join([self.name, *map(str, self.wires)])


@dataclass(frozen=True)
class Circuit:
    """Gates on data_qubits wires, plus the ancilla wire after them when an
    ANC_INIT marker borrows it; uses_ancilla records that marker."""

    data_qubits: int
    gates: tuple[Gate, ...]
    uses_ancilla: bool = field(init=False)

    def __post_init__(self) -> None:
        if type(self.data_qubits) is not int or self.data_qubits not in (1, 2):
            raise SynthError("circuits cover 1 or 2 data qubits")
        if type(self.gates) is not tuple or not all(isinstance(g, Gate) for g in self.gates):
            raise SynthError("circuit gates must be a tuple of Gates")
        object.__setattr__(self, "uses_ancilla",
                           any(gate.name == "ANC_INIT" for gate in self.gates))
        bound = self.wire_count
        for gate in self.gates:
            wires = gate.wires
            if wires and max(wires) >= bound:
                raise SynthError(f"gate {gate} exceeds {bound} wires")
            if gate.name in ("ANC_INIT", "ANC_FREE") and wires != (self.data_qubits,):
                raise SynthError("ancilla markers must name the ancilla wire")

    @property
    def wire_count(self) -> int:
        return self.data_qubits + (1 if self.uses_ancilla else 0)


def _wire_mask(wire: int, n_wires: int) -> int:
    return 1 << (n_wires - 1 - wire)


# H gates between two passes of `least`; each raises e by one, so numerators
# bounded by sqrt(2)^e gain half a bit per H at most.  Simulating the emitted
# `deep` circuits of seeds 1 / 2, none of which borrows the ancilla, took
# 0.27 / 0.25 CPU s at 1, 0.19 / 0.18 at 4, 0.18 / 0.16 at 8, 0.16 / 0.15 at
# 16, 0.16 / 0.15 at 32 and 0.16 / 0.14 at 64 (medians of 7).
_LEAST_EVERY = 16


def _fold(gates: Iterable[Gate], rows: Sequence[Sequence[ZOmega]], e: int,
          n_wires: int) -> tuple[list, int]:
    """The gates, in order, applied to N / sqrt(2)^e, as a new (N, e) with e
    least when it was least before; rows itself is not changed.  Basis state
    i holds w^p times working row s, kept as the label p * 2^n_wires + s;
    only H changes the working rows, and the labels meet them at the end.
    `least` runs after every _LEAST_EVERY Hs and once more at the end."""
    size = 1 << n_wires
    mask = size - 1
    labels = list(range(size))
    rows = list(rows)
    pending = 0
    for gate in gates:
        name = gate.name
        if name == "H":
            # (w^p x, w^q y) mixes to w^p (x + w^(q-p) y, x - w^(q-p) y): turn
            # one source row, mix the two, and keep w^p on both labels
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
            e, pending = e + 1, pending + 1
            if pending == _LEAST_EVERY:
                rows, e = least(rows, e)
                pending = 0
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
    if pending:
        rows, e = least(rows, e)
    return [[z.mul_omega_power(label >> n_wires) for z in rows[label & mask]]
            for label in labels], e


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


def _lambda_s(c: int, t: int, s: int = 1) -> list[Gate]:
    """Controlled S for s = 1, controlled S^dag for s = -1."""
    cnot = Gate("CNOT", (c, t))
    return [*_phase_gates(c, s), *_phase_gates(t, s), cnot, *_phase_gates(t, -s), cnot]


def _lambda_h(c: int, t: int) -> list[Gate]:
    return [Gate("SDG", (t,)), Gate("H", (t,)), Gate("TDG", (t,)),
            Gate("CNOT", (c, t)),
            Gate("T", (t,)), Gate("H", (t,)), Gate("S", (t,))]


# Maslov's relative-phase Toffoli from wires 0 and 1 onto the ancilla: 4 T
# and 3 CNOT.  It is its own inverse, so its relative phase cancels when it
# computes x0 x1 into the ancilla and again uncomputes it.
_RTOF = [Gate("H", (2,)), Gate("T", (2,)), Gate("CNOT", (1, 2)), Gate("TDG", (2,)),
         Gate("CNOT", (0, 2)), Gate("T", (2,)), Gate("CNOT", (1, 2)), Gate("TDG", (2,)),
         Gate("H", (2,))]

# w^(d x0 x1) on two qubits, by d: controlled S, CZ and controlled S^dag, or
# for odd d x0 x1 computed into the ancilla, turned by w^d and uncomputed
_PRODUCT_TERMS = {
    2: _lambda_s(0, 1),
    4: [Gate("H", (1,)), Gate("CNOT", (0, 1)), Gate("H", (1,))],
    6: _lambda_s(0, 1, -1),
    **{d: _RTOF + _phase_gates(2, d) + _RTOF for d in (1, 3, 5, 7)},
}

# H[a,b] H[c,d] on disjoint levels, by a xor b (levels from 0), which both
# pairs share: H on wire 1 or 0, or H on wire 0 between CNOTs swapping 2, 3
_PAIR_BLOCKS = {1: (Gate("H", (1,)),), 2: (Gate("H", (0,)),),
                3: (Gate("CNOT", (0, 1)), Gate("H", (0,)), Gate("CNOT", (0, 1)))}


# Each template against the word it implements, on 2 or 3 wires.  On all
# 8 columns an odd-d block is w^(d (t xor x0 x1)): w^d on rows 2, 4, 6, 7.
_TEMPLATES = (
    ("controlled-S", _PRODUCT_TERMS[2], [omega_op(4, 2)], 2),
    ("controlled-Sdg", _PRODUCT_TERMS[6], [omega_op(4, 6)], 2),
    ("controlled-H", _lambda_h(0, 1), [h_op(3, 4)], 2),
    ("controlled-Z", _PRODUCT_TERMS[4], [omega_op(4, 4)], 2),
    *((f"relative-phase Toffoli block d={d}", _PRODUCT_TERMS[d],
       [omega_op(row, d) for row in (2, 4, 6, 7)], 3) for d in (1, 3, 5, 7)),
    *((f"Hadamard pair on levels {a},{b} and {c},{d}", _PAIR_BLOCKS[(a - 1) ^ (b - 1)],
       [h_op(a, b), h_op(c, d)], 2)
      for a, b, c, d in ((1, 2, 3, 4), (1, 3, 2, 4), (1, 4, 2, 3))),
)


_templates_verified = False


def verify_templates() -> None:
    """Check every gate template, on all columns, against the word it
    implements; raise on mismatch."""
    global _templates_verified
    for name, gates, word, n_wires in _TEMPLATES:
        if _simulate(gates, n_wires) != word_product(word, 1 << n_wires):
            raise InvariantError(f"{name} template does not match its word")
    _templates_verified = True


_INVERSE = {"H": "H", "X": "X", "CNOT": "CNOT", "S": "SDG", "SDG": "S",
            "T": "TDG", "TDG": "T"}


def _push(body: list[Gate], gates: Iterable[Gate]) -> None:
    """Append gates to body.  A new gate that is the inverse of the last gate
    sharing a wire with it, on the same wires, removes that gate instead:
    the gates after it act on other wires or are W, so they commute."""
    for gate in gates:
        inverse, wires = _INVERSE.get(gate.name), gate.wires
        if inverse:
            i = len(body) - 1
            while i >= 0 and wires[0] not in body[i].wires and wires[-1] not in body[i].wires:
                i -= 1
            if i >= 0 and body[i].wires == wires and body[i].name == inverse:
                del body[i]
                continue
        body.append(gate)


def _lower_two_level(kind: str, a: int, b: int) -> list[Gate]:
    diff = a ^ b
    if diff == 0b11:
        mapped = sorted((x ^ ((x >> 1) & 1) for x in (a, b)))
        cnot = [Gate("CNOT", (0, 1))]
        return cnot + _lower_two_level(kind, mapped[0], mapped[1]) + cnot
    if diff == 0b01:
        control, target, value = 0, 1, a >> 1
    else:
        control, target, value = 1, 0, a & 1
    inner = [Gate("CNOT", (control, target))] if kind == "X" else _lambda_h(control, target)
    flip = [Gate("X", (control,))] if value == 0 else []
    return flip + inner + flip


@functools.cache
def _lowered(op: ElementaryOp, qubits: int) -> tuple[Gate, ...]:
    """The gates of a two-level op on the given layout.  These ops are a
    finite alphabet (2 and 12 ops in dimensions 2 and 4), so each one is
    lowered and its gates validated once per process."""
    if qubits == 1:
        return (Gate(op.kind, (0,)),)
    return tuple(_lower_two_level(op.kind, op.j - 1, op.m - 1))


@functools.cache
def _lowered_diagonal(powers: tuple[int, ...]) -> tuple[Gate, ...]:
    """The wire gates of diag(w^p for p in powers), powers mod 8, without its
    global phase w^powers[0]: 8 + 64 diagonals on 1 qubit, 4096 on 2.  One and
    two levels pad to (p, p, p, p) and (p0, p0, p1, p1), so one polynomial
    serves every layout; an odd x0 x1 term acts on the ancilla wire."""
    c, p01, p10, p11 = (p for p in powers for _ in range(4 // len(powers)))
    gates: list[Gate] = []
    _push(gates, _phase_gates(0, p10 - c) + _phase_gates(1, p01 - c)
          + _PRODUCT_TERMS.get((p11 - p10 - p01 + c) % 8, []))
    return tuple(gates)


def _less_one(powers: Sequence[int], level: int) -> tuple[int, ...]:
    """powers mod 8 with one taken off the given level."""
    return tuple((p - (i == level)) % 8 for i, p in enumerate(powers))


# The W counts as a gate, though emit adds it to the one global W: without it,
# 96 of the 12 288 owing choices change and gates rose on both word sets measured.
@functools.cache
def _diagonal_cost(powers: tuple[int, ...]) -> tuple[int, int]:
    """T count, then gate count with the W, of a diagonal's lowering."""
    gates = _lowered_diagonal(powers)
    return sum(g.name in ("T", "TDG") for g in gates), len(gates) + (powers[0] != 0)


def emit(word: Sequence[ElementaryOp], dim: int) -> Circuit:
    """Clifford+T circuit whose unitary equals the product of the word.

    Gates are listed in application order, so the word's rightmost factor
    lowers first; each run of phase ops lowers as one diagonal on the wires,
    and the diagonals' first powers add up to one global W, placed first.

    One pending diagonal holds the phases read since the last non-phase op,
    plus any w^1 owed.  An X read with no phase since then swaps its two
    levels' entries; any other op lowers the pending diagonal first, and so
    does the word's end.  On two qubits an odd diagonal lowers, without the
    ancilla, less w^1 on the cheapest level the op leaves alone, which then
    owes that w^1 (a lone debt there lowers nothing).  On two qubits an
    H[a,b] whose next non-phase op is H[c,d] on the other levels fuses with
    it when the pending diagonal plus the phases on c, d read in between
    adds up even: that sum lowers, then the pair's block, and the phases on
    a, b read in between become the pending diagonal.  Only the last
    diagonal can be odd, so the ancilla is borrowed exactly when the word's
    phase powers add up to an odd number, that is when det(U) is an odd
    power of w.  Dimensions 1 to 4 have a qubit layout: a 1x1 word is one
    idle qubit, and a 3x3 word runs on two qubits with level 4 idle.
    """
    if type(dim) is not int or dim not in (1, 2, 3, 4):
        raise SynthError(f"no qubit layout for dimension {dim}")
    for op in reversed(word):
        if max(op.j, op.m) > dim:
            raise SynthError(f"operator {op} exceeds dimension {dim}")
    if not _templates_verified:
        verify_templates()
    levels = 4 if dim == 3 else dim
    qubits = 1 if levels < 4 else 2
    body: list[Gate] = []
    global_power = 0
    pending = [0] * levels  # powers by level, the w^1 owed included
    phased = False  # a phase op was read since the last non-phase op

    def lower_diagonal(powers: Sequence[int]) -> None:
        nonlocal global_power
        global_power += powers[0]
        _push(body, _lowered_diagonal(tuple(p % 8 for p in powers)))

    ops, i = word[::-1], 0
    while i < len(ops):
        op, i = ops[i], i + 1
        if op.kind == "omega":
            pending[op.j - 1] += op.power
            phased = True
            continue
        busy = (op.j - 1, op.m - 1)
        if levels == 4 and op.kind == "H":
            nxt = i
            while nxt < len(ops) and ops[nxt].kind == "omega":
                nxt += 1
            before, after = pending[:], [0] * 4  # the diagonals around a pair
            for phase in ops[i:nxt]:
                (after if phase.j - 1 in busy else before)[phase.j - 1] += phase.power
            if (nxt < len(ops) and ops[nxt].kind == "H" and sum(before) % 2 == 0
                    and {ops[nxt].j - 1, ops[nxt].m - 1}.isdisjoint(busy)):
                lower_diagonal(before)
                _push(body, _PAIR_BLOCKS[busy[0] ^ busy[1]])
                pending, phased, i = after, True, nxt + 1
                continue
        if op.kind == "X" and not phased:
            pending[busy[0]], pending[busy[1]] = pending[busy[1]], pending[busy[0]]
        elif levels == 4 and sum(pending) % 2:
            owing = min((lv for lv in range(4) if lv not in busy),
                        key=lambda lv: _diagonal_cost(_less_one(pending, lv)))
            lower_diagonal(_less_one(pending, owing))
            pending = [int(lv == owing) for lv in range(4)]
        else:  # with no phase read, pending is zero and lowers to nothing
            lower_diagonal(pending)
            pending = [0] * levels
        phased = False
        _push(body, _lowered(op, qubits))
    lower_diagonal(pending)
    if global_power % 8:
        body.insert(0, Gate("W", (), global_power % 8))
    if levels == 4 and sum(pending) % 2:
        body = [Gate("ANC_INIT", (qubits,)), *body, Gate("ANC_FREE", (qubits,))]
    return Circuit(qubits, tuple(body))


def circuit_target(m: ExactMatrix) -> ExactMatrix:
    """The matrix emit's circuit for m's word equals: m itself on 2 or 4
    levels, a 1x1 (z) as z times the 2x2 identity, a 3x3 U as diag(U, 1)."""
    if m.dim in (2, 4):
        return m
    corner = m.rows[0][0] if m.dim == 1 else ZW_SQRT2 ** m.e
    rows = [[*row, ZW_ZERO] for row in m.rows] + [[ZW_ZERO] * m.dim + [corner]]
    return ExactMatrix(rows, m.e)


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
    names = Counter(gate.name for gate in circuit.gates)
    return {"total": len(circuit.gates) - names["ANC_INIT"] - names["ANC_FREE"],
            "t_count": names["T"] + names["TDG"], "uses_ancilla": circuit.uses_ancilla}


def render_circuit(circuit: Circuit) -> str:
    lines = [f"qubits {circuit.data_qubits}"]
    lines.extend(str(gate) for gate in circuit.gates)
    return "\n".join(lines) + "\n"


def plain_int(text: str) -> int | None:
    """int(text) for ASCII digits with an optional sign, else None; int()
    alone also reads "_" separators and every Unicode decimal digit."""
    if not text.isascii() or "_" in text:
        return None
    try:
        return int(text)
    except ValueError:  # not digits, or past int()'s digit limit
        return None


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
                raise SynthError("duplicate qubits header", lineno)
            qubits = plain_int(parts[1]) if len(parts) == 2 else None
            if qubits not in (1, 2):
                raise SynthError("expected: qubits <1|2>", lineno)
            continue
        if qubits is None:
            raise SynthError("missing qubits header", lineno)
        name = parts[0]
        if name not in GATE_NAMES:
            raise SynthError(f"unknown gate {name!r}", lineno)
        args = [plain_int(p) for p in parts[1:]]
        if None in args:
            raise SynthError(f"bad arguments for {name}", lineno)
        if name == "W" and len(args) != 1:
            raise SynthError("W takes one power argument", lineno)
        try:
            gate = Gate("W", (), args[0]) if name == "W" else Gate(name, tuple(args))
        except SynthError as exc:
            raise SynthError(str(exc), lineno) from None
        parsed[line] = gate
        gates.append(gate)
    if qubits is None:
        raise SynthError("missing qubits header")
    return Circuit(qubits, tuple(gates))
