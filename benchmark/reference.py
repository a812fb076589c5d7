"""Independent exact reference for the benchmark: matrices over D[w].

Nothing here imports deltasynth.  A matrix is held as Z[w] numerators over one
shared power of sqrt(2): value = N / sqrt(2)^e, with e kept minimal.  Each
numerator entry is split into its four coefficients (of 1, w, w^2, w^3) and a
row is stored as four coefficient lists, so multiplying a row by w is a
rotation of the lists and a Hadamard on any wire is an elementwise sum and
difference of paired rows, after which the shared exponent rises by one.

The module also reads and writes the two text formats of the command line
(matrix files and circuit files), so benchmark inputs and the checks on the
program's outputs never pass through the program's own arithmetic.
"""

from __future__ import annotations

# Gate names of the circuit text format; ANC_* are ancilla markers.
PHASE_POWER = {"T": 1, "S": 2, "SDG": 6, "TDG": 7}
DOCUMENTED_GATES = frozenset({"H", "S", "SDG", "T", "TDG", "X", "CNOT", "W",
                              "ANC_INIT", "ANC_FREE"})


def _neg(xs):
    return [-x for x in xs]


def rotate(row, p):
    """row * w^p, for a row given as its four coefficient lists."""
    p &= 7
    x0, x1, x2, x3 = row
    if p >= 4:
        x0, x1, x2, x3 = _neg(x0), _neg(x1), _neg(x2), _neg(x3)
        p -= 4
    if p == 0:
        return [x0, x1, x2, x3]
    if p == 1:
        return [_neg(x3), x0, x1, x2]
    if p == 2:
        return [_neg(x2), _neg(x3), x0, x1]
    return [_neg(x1), _neg(x2), _neg(x3), x0]


def times_sqrt2(row):
    """row * sqrt(2), with sqrt(2) = w - w^3."""
    x0, x1, x2, x3 = row
    return [[a - b for a, b in zip(x1, x3)], [a + b for a, b in zip(x0, x2)],
            [a + b for a, b in zip(x1, x3)], [a - b for a, b in zip(x2, x0)]]


def _sum_diff(lo, hi):
    return ([[a + b for a, b in zip(x, y)] for x, y in zip(lo, hi)],
            [[a - b for a, b in zip(x, y)] for x, y in zip(lo, hi)])


def _sqrt2_divides(row):
    x0, x1, x2, x3 = row
    return not (any((a ^ b) & 1 for a, b in zip(x0, x2))
                or any((a ^ b) & 1 for a, b in zip(x1, x3)))


class RefMatrix:
    """rows x cols matrix N / sqrt(2)^e over Z[w], e minimal."""

    __slots__ = ("rows", "e")

    def __init__(self, rows, e=0):
        self.rows = rows
        self.e = e
        self._reduce()

    @classmethod
    def identity(cls, dim, cols=None):
        """The identity, or the given subset of its columns."""
        cols = list(range(dim)) if cols is None else list(cols)
        rows = []
        for i in range(dim):
            ones = [1 if c == i else 0 for c in cols]
            zeros = [0] * len(cols)
            rows.append([ones, zeros, list(zeros), list(zeros)])
        return cls(rows, 0)

    @classmethod
    def from_entries(cls, entries, e):
        """From a grid of (x0, x1, x2, x3) numerators over sqrt(2)^e."""
        rows = [[[x[c] for x in row] for c in range(4)] for row in entries]
        return cls(rows, e)

    def copy(self):
        return RefMatrix([list(r) for r in self.rows], self.e)

    def entries(self):
        """Grid of (x0, x1, x2, x3) numerators; the value is each over sqrt(2)^e."""
        return [list(zip(*row)) for row in self.rows]

    def _reduce(self):
        while self.e > 0 and all(_sqrt2_divides(r) for r in self.rows):
            self.rows = [[[v >> 1 for v in xs] for xs in times_sqrt2(r)]
                         for r in self.rows]
            self.e -= 1

    def __eq__(self, other):
        return (isinstance(other, RefMatrix) and self.e == other.e
                and self.rows == other.rows)

    def least_delta_exponent(self):
        """Least k with delta^k * M integral, delta = 1 + w.

        sqrt(2) is delta^2 times a unit.  With e minimal some entry is not
        divisible by delta^2, so k is 2e, or 2e - 1 when delta divides every
        entry (x is divisible by delta exactly when its coefficient sum is
        even).
        """
        if self.e == 0:
            return 0
        odd = any((a + b + c + d) & 1 for row in self.rows
                  for a, b, c, d in zip(*row))
        return 2 * self.e if odd else 2 * self.e - 1

    # -- circuit gates (rows indexed by basis state, wire 0 most significant)

    def apply_gate(self, name, wires, power, n_wires):
        rows = self.rows
        size = len(rows)
        if name in ("ANC_INIT", "ANC_FREE"):
            return
        if name == "W":
            self.rows = [rotate(r, power) for r in rows]
            return
        if name == "CNOT":
            cm = 1 << (n_wires - 1 - wires[0])
            tm = 1 << (n_wires - 1 - wires[1])
            for i in range(size):
                if i & cm and not i & tm:
                    rows[i], rows[i | tm] = rows[i | tm], rows[i]
            return
        mask = 1 << (n_wires - 1 - wires[0])
        if name == "X":
            for i in range(size):
                if not i & mask:
                    rows[i], rows[i | mask] = rows[i | mask], rows[i]
        elif name == "H":
            for i in range(size):
                if not i & mask:
                    rows[i], rows[i | mask] = _sum_diff(rows[i], rows[i | mask])
            self.e += 1
            self._reduce()
        else:
            p = PHASE_POWER[name]
            for i in range(size):
                if i & mask:
                    rows[i] = rotate(rows[i], p)

    # -- elementary operators (kind, j, m, power), 1-based: ("omega", j, 0, p),
    #    ("H", j, m, 0) and ("X", j, m, 0) with j < m

    def apply_op_left(self, kind, j, m=0, power=0):
        """self := op @ self."""
        rows = self.rows
        if kind == "omega":
            rows[j - 1] = rotate(rows[j - 1], power)
        elif kind == "X":
            rows[j - 1], rows[m - 1] = rows[m - 1], rows[j - 1]
        elif kind == "H":
            lo, hi = _sum_diff(rows[j - 1], rows[m - 1])
            self.rows = [times_sqrt2(r) for r in rows]
            self.rows[j - 1], self.rows[m - 1] = lo, hi
            self.e += 1
            self._reduce()
        else:
            raise ValueError(f"unknown elementary kind {kind!r}")


def simulate_circuit(qubits, gates, uses_ancilla):
    """Exact unitary of a circuit on its data qubits, or None when the
    circuit leaves amplitude on ancilla |1> for an ancilla-|0> input.

    With an ancilla (the least significant wire) only the ancilla-|0> input
    columns are simulated: that is all the data block and the return check
    need.  gates are (name, wires, power) in application order.
    """
    n_wires = qubits + (1 if uses_ancilla else 0)
    size = 1 << n_wires
    cols = range(0, size, 2) if uses_ancilla else range(size)
    mat = RefMatrix.identity(size, cols)
    for name, wires, power in gates:
        mat.apply_gate(name, wires, power, n_wires)
    if not uses_ancilla:
        return mat
    if any(any(xs) for r in mat.rows[1::2] for xs in r):
        return None
    return RefMatrix([list(r) for r in mat.rows[0::2]], mat.e)


def word_product(word, dim):
    """Exact product w1 w2 ... wn of elementary ops, left factor first."""
    mat = RefMatrix.identity(dim)
    for op in reversed(word):
        mat.apply_op_left(*op)
    return mat


# -- matrix file format: entries (a + b*sqrt(2) + i*(c + d*sqrt(2))) / sqrt(2)^m

def format_entry(x, e):
    x0, x1, x2, x3 = x
    if not (x0 or x1 or x2 or x3):
        return "0"
    # x = x0 + i*x2 + ((x1 - x3) + i*(x1 + x3)) / sqrt(2); scale by sqrt(2).
    return f"{x1 - x3},{x0},{x1 + x3},{x2}/{e + 1}"


def render_matrix(mat, comments=()):
    lines = [f"# {c}" for c in comments]
    lines.append(f"dim {len(mat.rows)}")
    for row in mat.entries():
        lines.append(" ".join(format_entry(x, mat.e) for x in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    """Read a matrix file into a RefMatrix."""
    dim = None
    cells = []
    for raw in text.splitlines():
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if dim is None:
            if len(tokens) != 2 or tokens[0] != "dim":
                raise ValueError("expected header 'dim n'")
            dim = int(tokens[1])
            continue
        if len(tokens) != dim:
            raise ValueError(f"expected {dim} entries per row")
        cells.append([_parse_entry(t) for t in tokens])
    if dim is None or len(cells) != dim:
        raise ValueError("wrong number of rows")
    top = max(m for row in cells for _, m in row)
    entries = [[_scale(x, top - m) for x, m in row] for row in cells]
    return RefMatrix.from_entries(entries, top)


def _parse_entry(token):
    if token in ("0", "1"):
        return (int(token), 0, 0, 0), 0
    body, _, tail = token.partition("/")
    a, b, c, d = (int(p) for p in body.split(","))
    # a + i*c + sqrt(2)*(b + i*d), with sqrt(2) = w - w^3 and i = w^2
    return (a, b + d, c, d - b), int(tail or 0)


def _scale(x, shift):
    row = [[v] for v in x]
    for _ in range(shift):
        row = times_sqrt2(row)
    return tuple(v[0] for v in row)


# -- circuit file format

def render_circuit(qubits, gates):
    lines = [f"qubits {qubits}"]
    for name, wires, power in gates:
        lines.append(f"W {power}" if name == "W"
                     else " ".join([name, *map(str, wires)]))
    return "\n".join(lines) + "\n"


def parse_circuit(text):
    """(qubits, gates, comments) of a circuit file; gates as (name, wires, power).

    comments maps the `# key value` header lines the synth command writes.
    """
    qubits = None
    gates = []
    comments = {}
    for raw in text.splitlines():
        body, hash_, note = raw.partition("#")
        if hash_ and not body.strip():
            key, _, value = note.strip().partition(" ")
            comments.setdefault(key, value)
        parts = body.split()
        if not parts:
            continue
        if parts[0] == "qubits":
            qubits = int(parts[1])
        elif parts[0] not in DOCUMENTED_GATES:
            raise ValueError(f"undocumented gate {parts[0]!r}")
        elif parts[0] == "W":
            gates.append(("W", (), int(parts[1])))
        else:
            gates.append((parts[0], tuple(int(p) for p in parts[1:]), 0))
    if qubits is None:
        raise ValueError("missing qubits header")
    return qubits, gates, comments
