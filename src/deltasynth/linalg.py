"""Exact matrices over D[w], the elementary 1- and 2-level operators, and
the product of a word of them.

A matrix, dimension 1 through 4, is Z[w] numerators N over one least power
of sqrt(2): `ExactMatrix(rows, e)` is N / sqrt(2)^e, the paper's entries
(a + b*sqrt(2) + i*(c + d*sqrt(2))) / sqrt(2)^k over one shared k.  The
constructor lowers e while sqrt(2) divides every numerator, so equality and
hashing are structural.  `is_unitary` checks conj(N)^T N = 2^e * I over
Z[w], and `residue_matrix` reads residue bits off numerators.  Elementary
operators (a phase w^p on one basis vector, or a Hadamard-type or swap-type
mixing of two basis vectors) are what the synthesis engine emits.

Words multiply through `apply_elementary`, circuits through `circuits._fold`,
and the engine reduces its workspace by rows; all three use `row_surgery`,
but an exact Hadamard (always in the engine, when it divides in a word) is
the one kernel `mix_halved`.  Words and circuits keep e least with `least`.
`omega_op`, `h_op` and `x_op` share one op per value of the dimension-4
alphabet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .errors import SynthError
from .ring import ZW_ONE, ZW_ZERO, ZOmega, divide_by_sqrt2, residue_bits, times_sqrt2

MAX_DIM = 4


class ExactMatrix:
    """Square matrix N / sqrt(2)^e over D[w], dim 1..4, immutable.

    rows holds the Z[w] numerators N, and e is least: 0, or sqrt(2) does
    not divide every numerator.
    """

    __slots__ = ("rows", "e")

    def __init__(self, rows: Iterable[Iterable[ZOmega]], e: int = 0) -> None:
        try:
            grid = [list(row) for row in rows]
        except TypeError:
            raise SynthError("matrix rows must be iterable") from None
        dim = len(grid)
        if not 1 <= dim <= MAX_DIM:
            raise SynthError(f"dimension {dim} not supported")
        if any(len(row) != dim for row in grid):
            raise SynthError("matrix must be square")
        if not all([isinstance(z, ZOmega) for row in grid for z in row]):
            raise SynthError("matrix entries must be ZOmega numerators")
        if type(e) is not int:
            raise SynthError("sqrt(2) exponent must be an int")
        if e < 0:
            raise SynthError("sqrt(2) exponent must be >= 0")
        grid, self.e = least(grid, e)
        self.rows = tuple(map(tuple, grid))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.e == other.e and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.rows, self.e))

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows!r}, {self.e})"


def delta_exponent(m: ExactMatrix) -> int:
    """Least k with delta^k * m integral.

    sqrt(2)^e is delta^(2e) over a unit, and with e least delta^2 does not
    divide every numerator: k is 2e, or 2e - 1 when delta divides them all.
    """
    if any(residue_bits(z) & 1 for row in m.rows for z in row):
        return 2 * m.e
    return max(2 * m.e - 1, 0)


def is_unitary(m: ExactMatrix) -> bool:
    """U^dagger U = I, checked over Z[w] as conj(N)^T N = 2^e * I.  The Gram
    matrix is Hermitian: its upper triangle decides."""
    scale = ZOmega.from_int(1 << m.e)
    cols = list(zip(*m.rows))
    return all(
        sum((x.conj() * y for x, y in zip(a, b)), ZW_ZERO) == (scale if i == j else ZW_ZERO)
        for i, a in enumerate(cols) for j, b in enumerate(cols) if i <= j)


def residue_matrix(rows: Sequence[Sequence[ZOmega]]) -> tuple[tuple[int, ...], ...]:
    """The residue class mod delta^3 of every numerator; bit 0 is the unit
    pattern."""
    return tuple(tuple(residue_bits(z) for z in row) for row in rows)


OpKind = Literal["omega", "H", "X"]


@dataclass(frozen=True)
class ElementaryOp:
    """One-level phase (w^power on basis vector j) or a two-level H / X.

    Indices are 1-based, j < m for two-level kinds, which take no power.
    All three kinds have symmetric matrices, so an op means the same matrix
    whether it is applied to rows (on the left) or to columns (on the right).
    """

    kind: OpKind
    j: int
    m: int = 0
    power: int = 0

    def __post_init__(self) -> None:
        if not type(self.j) is type(self.m) is type(self.power) is int:
            raise SynthError("indices and power must be ints")
        if self.j < 1:
            raise SynthError("indices are 1-based")
        if self.kind == "omega":
            if not 1 <= self.power <= 7:
                raise SynthError("phase power must be 1..7")
            if self.m:
                raise SynthError("one-level op takes a single index")
        elif self.kind in ("H", "X"):
            if not self.j < self.m:
                raise SynthError("two-level op needs j < m")
            if self.power:
                raise SynthError("two-level op takes no power")
        else:
            raise SynthError(f"unknown kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "omega":
            return f"w[{self.j}]^{self.power}"
        return f"{self.kind}[{self.j},{self.m}]"


# One shared op per value of the MAX_DIM alphabet, by (kind, j, m or power)
_SHARED = {(op.kind, op.j, op.m or op.power): op for op in (
    *(ElementaryOp("omega", j, 0, p) for j in range(1, MAX_DIM + 1) for p in range(1, 8)),
    *(ElementaryOp(kind, j, m) for kind in ("H", "X")
      for m in range(2, MAX_DIM + 1) for j in range(1, m)))}


def _shared(kind: OpKind, j: int, x: int) -> ElementaryOp:
    """The shared op when j and x are ints in the alphabet, else a new op,
    which checks them; 1.0 and True equal 1 but take the second path."""
    if type(j) is type(x) is int and (op := _SHARED.get((kind, j, x))):
        return op
    return ElementaryOp(kind, j, 0, x) if kind == "omega" else ElementaryOp(kind, j, x)


def omega_op(j: int, power: int) -> ElementaryOp:
    return _shared("omega", j, power % 8)


def h_op(j: int, m: int) -> ElementaryOp:
    return _shared("H", j, m)


def x_op(j: int, m: int) -> ElementaryOp:
    return _shared("X", j, m)


def invert_elementary(op: ElementaryOp) -> ElementaryOp:
    """op^-1 (H and X are involutions, phases invert mod 8)."""
    if op.kind == "omega":
        return omega_op(op.j, 8 - op.power)
    return op


def row_surgery(rows: list, kind: OpKind, i: int, j: int = 0,
                power: int = 0) -> None:
    """Apply an elementary op in place to a list of rows, by 0-based index.

    "omega" multiplies row i by w^power, "X" swaps rows i and j, and "H"
    replaces them by x + y and x - y, leaving the division by sqrt(2) to the
    caller.  Changed rows become lists.
    """
    if kind == "omega":
        rows[i] = [e.mul_omega_power(power) for e in rows[i]]
    elif kind == "X":
        rows[i], rows[j] = rows[j], rows[i]
    else:
        top, bot = rows[i], rows[j]
        rows[i] = [x + y for x, y in zip(top, bot)]
        rows[j] = [x - y for x, y in zip(top, bot)]


def mix_halved(top: Sequence[ZOmega], bot: Sequence[ZOmega]) -> tuple[list, list] | None:
    """((x + y) / sqrt(2), (x - y) / sqrt(2)) over the entries of two rows, or
    None when sqrt(2) does not divide every one.  The sum is halved from
    (x + y) * sqrt(2) as divide_by_sqrt2 does, and the difference is the
    halved sum less y * sqrt(2), so the sum's parity decides."""
    sums, diffs = [], []
    for x, y in zip(top, bot):
        ya, yb, yc, yd = y.a, y.b, y.c, y.d
        a, b, c, d = x.a + ya, x.b + yb, x.c + yc, x.d + yd
        p, q, r, s = b - d, a + c, b + d, c - a
        if (p | q) & 1:  # r shares p's parity, and s shares q's
            return None
        p, q, r, s = p >> 1, q >> 1, r >> 1, s >> 1
        sums.append(ZOmega(p, q, r, s))
        diffs.append(ZOmega(p - yb + yd, q - ya - yc, r - yb - yd, s - yc + ya))
    return sums, diffs


def halved(rows: list[list[ZOmega]]) -> list[list[ZOmega]] | None:
    """Every numerator divided by sqrt(2), or None when one does not divide."""
    out = []
    for row in rows:
        half = []
        for z in row:
            q = divide_by_sqrt2(z)
            if q is None:
                return None
            half.append(q)
        out.append(half)
    return out


def least(rows: list[list[ZOmega]], e: int) -> tuple[list[list[ZOmega]], int]:
    """The same value N / sqrt(2)^e with e least.  The largest power of
    2 = sqrt(2)^2 that divides every coefficient, up to 2^(e // 2), comes
    out with one shift; sqrt(2) then divides every numerator once at most."""
    if e > 1:
        common = 0
        for row in rows:
            for z in row:
                common |= z.a | z.b | z.c | z.d
        # the lowest set bit of common is the least 2-adic valuation
        shift = min((common & -common).bit_length() - 1, e // 2) if common else e // 2
        if shift:
            rows = [[ZOmega(z.a >> shift, z.b >> shift, z.c >> shift, z.d >> shift)
                     for z in row] for row in rows]
            e -= 2 * shift
    while e and (halves := halved(rows)) is not None:
        rows, e = halves, e - 1
    return rows, e


def apply_elementary(op: ElementaryOp, rows: Sequence[Sequence[ZOmega]],
                     e: int) -> tuple[list, int]:
    """op @ (N / sqrt(2)^e) as a new (N, e), e least when it was least before.

    H[j,m] is (x + y, x - y) / sqrt(2) on rows j and m.  When sqrt(2) does
    not divide both sums, every other row is multiplied by sqrt(2) instead
    and e rises by one.  rows itself is not changed.
    """
    top = op.m if op.kind != "omega" else op.j
    if top > len(rows):
        raise SynthError(f"op {op} out of range for dimension {len(rows)}")
    i, j = op.j - 1, op.m - 1
    rows = list(rows)
    if op.kind != "H":
        row_surgery(rows, op.kind, i, j, op.power)
        return rows, e
    halves = mix_halved(rows[i], rows[j])
    if halves is None:
        row_surgery(rows, "H", i, j)
        return [row if r in (i, j) else [times_sqrt2(z) for z in row]
                for r, row in enumerate(rows)], e + 1
    rows[i], rows[j] = halves
    return least(rows, e)


def word_product(word: Sequence[ElementaryOp], dim: int) -> tuple[list, int]:
    """(N, e) of the word's product as written, left factor first."""
    if type(dim) is not int or dim < 1:
        raise SynthError(f"dimension {dim} not supported")
    rows = [[ZW_ONE if i == j else ZW_ZERO for j in range(dim)] for i in range(dim)]
    e = 0
    for op in reversed(word):
        rows, e = apply_elementary(op, rows, e)
    return rows, e


def word_matrix(word: Sequence[ElementaryOp], dim: int) -> ExactMatrix:
    """Exact product of the word as written, left factor first."""
    return ExactMatrix(*word_product(word, dim))
