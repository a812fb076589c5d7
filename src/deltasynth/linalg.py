"""Exact matrices over D[w], the elementary 1- and 2-level operators, and
the one product kernel.

Matrices are immutable tuples of tuples of DOmega, dimensions 1 through 4;
`scaled` gives the Z[w] numerators of delta^k * m, `residue_matrix` their
residue bits, and `is_scaled_unitary` checks unitarity on them.  Elementary
operators (a phase w^p on one basis vector, or a Hadamard-type or swap-type
mixing of two basis vectors) are what the synthesis engine emits.

Words, circuits and the oracle's searches multiply out as Z[w] numerators N
over one least power of sqrt(2), the value N / sqrt(2)^e, changed by one
row-surgery kernel and kept least by `least`.  D[w] entries are built only
to parse, print and compare; `mat_mul` and `adjoint` are the tests' reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

from .errors import UnsupportedDimError
from .ring import (D_ONE, D_ZERO, TWO_PLUS_SQRT2, UNIT_SQRT2, UNIT_SQRT2_INV, ZW_ONE,
                   ZW_SQRT2, ZW_ZERO, Bits, DOmega, ZOmega, divide_by_sqrt2, residue_bits)

MAX_DIM = 4


class ExactMatrix:
    """Square matrix over D[w], dim 1..4, immutable."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable[DOmega]]) -> None:
        grid = tuple(tuple(row) for row in rows)
        dim = len(grid)
        if not 1 <= dim <= MAX_DIM:
            raise UnsupportedDimError(f"dimension {dim} not supported")
        if any(len(row) != dim for row in grid):
            raise ValueError("matrix must be square")
        self.rows = grid

    @classmethod
    def identity(cls, dim: int) -> ExactMatrix:
        return cls(tuple(tuple(D_ONE if i == j else D_ZERO for j in range(dim))
                         for i in range(dim)))

    @property
    def dim(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> DOmega:
        return self.rows[i][j]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.rows!r})"


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    cols = list(zip(*b.rows))
    out = []
    for row in a.rows:
        out_row = []
        for col in cols:
            acc = D_ZERO
            for x, y in zip(row, col):
                if x.num and y.num:
                    acc = acc + x * y
            out_row.append(acc)
        out.append(out_row)
    return ExactMatrix(out)


def adjoint(m: ExactMatrix) -> ExactMatrix:
    dim = m.dim
    return ExactMatrix(tuple(tuple(m.rows[j][i].conj() for j in range(dim))
                             for i in range(dim)))


def delta_exponent(m: ExactMatrix) -> int:
    """Least k with delta^k * m integral: the max entry exponent."""
    return max(e.k for row in m.rows for e in row)


def is_unitary(m: ExactMatrix) -> bool:
    """U^dagger U = I, checked over Z[w] on the numerators of delta^k * m."""
    k = delta_exponent(m)
    return is_scaled_unitary(scaled(m, k), k)


def is_scaled_unitary(rows: Sequence[Sequence[ZOmega]], k: int) -> bool:
    """Whether rows, the Z[w] numerators N of delta^k * U, make U unitary.

    U^dagger U = I exactly when conj(N)^T N = (conj(delta) * delta)^k * I,
    and conj(delta) * delta = 2 + sqrt(2), so the check stays in Z[w].  The
    Gram matrix is Hermitian: its upper triangle decides.
    """
    cols = list(zip(*rows))
    scale = TWO_PLUS_SQRT2 ** k
    return all(
        sum((x.conj() * y for x, y in zip(a, b)), ZW_ZERO) == (scale if i == j else ZW_ZERO)
        for i, a in enumerate(cols) for j, b in enumerate(cols) if i <= j)


def scaled(m: ExactMatrix, k: int) -> list[list[ZOmega]]:
    """Z[w] numerators of delta^k * m (k at least the matrix's delta-exponent)."""
    if k < delta_exponent(m):
        raise ValueError(
            f"scaling exponent {k} below matrix delta-exponent {delta_exponent(m)}")
    return [[e.lift_to(k) for e in row] for row in m.rows]


def residue_matrix(rows: Sequence[Sequence[ZOmega]]) -> tuple[tuple[Bits, ...], ...]:
    """Residue bits mod delta^3 of every numerator; bit 0 is the unit pattern."""
    return tuple(tuple(residue_bits(z) for z in row) for row in rows)


OpKind = Literal["omega", "H", "X"]


@dataclass(frozen=True)
class ElementaryOp:
    """One-level phase (w^power on basis vector j) or a two-level H / X.

    Indices are 1-based, j < m for two-level kinds.  All three kinds have
    symmetric matrices, so an op means the same matrix whether it is applied
    to rows (on the left) or to columns (on the right).
    """

    kind: OpKind
    j: int
    m: int = 0
    power: int = 0

    def __post_init__(self) -> None:
        if self.j < 1:
            raise ValueError("indices are 1-based")
        if self.kind == "omega":
            if not 1 <= self.power <= 7:
                raise ValueError("phase power must be 1..7")
            if self.m:
                raise ValueError("one-level op takes a single index")
        elif self.kind in ("H", "X"):
            if not self.j < self.m:
                raise ValueError("two-level op needs j < m")
        else:
            raise ValueError(f"unknown kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "omega":
            return f"w[{self.j}]^{self.power}"
        return f"{self.kind}[{self.j},{self.m}]"


def omega_op(j: int, power: int) -> ElementaryOp:
    return ElementaryOp("omega", j, 0, power % 8)


def h_op(j: int, m: int) -> ElementaryOp:
    return ElementaryOp("H", j, m)


def x_op(j: int, m: int) -> ElementaryOp:
    return ElementaryOp("X", j, m)


def invert_elementary(op: ElementaryOp) -> list[ElementaryOp]:
    """A word for op^-1 (H and X are involutions, phases invert mod 8)."""
    if op.kind == "omega":
        return [omega_op(op.j, 8 - op.power)]
    return [op]


def row_surgery(rows: list, kind: OpKind, i: int, j: int = 0, power: int = 0) -> None:
    """Apply an elementary op to a list of rows in place (0-based indices).

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


def _halved(rows: list[list[ZOmega]]) -> list[list[ZOmega]] | None:
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
    """The same value N / sqrt(2)^e with e least: every numerator is divided
    by sqrt(2) while all of them divide."""
    while e and (halves := _halved(rows)) is not None:
        rows, e = halves, e - 1
    return rows, e


def as_matrix(rows: Sequence[Sequence[ZOmega]], e: int) -> ExactMatrix:
    """The entries N / sqrt(2)^e, as N * UNIT_SQRT2^e / delta^(2e)."""
    unit = UNIT_SQRT2 ** e
    return ExactMatrix([DOmega(z * unit, 2 * e) for z in row] for row in rows)


def numerators(m: ExactMatrix) -> tuple[list[list[ZOmega]], int]:
    """(N, e) with N / sqrt(2)^e = m and e least: the inverse of as_matrix.

    sqrt(2)^e * m is integral exactly when 2e reaches m's delta-exponent.
    """
    e = (delta_exponent(m) + 1) // 2
    unit = UNIT_SQRT2_INV ** e
    return [[z * unit for z in row] for row in scaled(m, 2 * e)], e


def apply_elementary(op: ElementaryOp, rows: Sequence[Sequence[ZOmega]],
                     e: int) -> tuple[list, int]:
    """op @ (N / sqrt(2)^e) as a new (N, e), e least when it was least before.

    H[j,m] is (x + y, x - y) / sqrt(2) on rows j and m; over the shared
    exponent every other row is multiplied by sqrt(2) instead, and e rises
    by one.  rows itself is not changed.
    """
    top = op.m if op.kind != "omega" else op.j
    if top > len(rows):
        raise ValueError(f"op {op} out of range for dimension {len(rows)}")
    rows = list(rows)
    if op.kind != "H":
        row_surgery(rows, op.kind, op.j - 1, op.m - 1, op.power)
        return rows, e
    rows = [row if i in (op.j - 1, op.m - 1) else [z * ZW_SQRT2 for z in row]
            for i, row in enumerate(rows)]
    row_surgery(rows, "H", op.j - 1, op.m - 1)
    return least(rows, e + 1)


def word_product(word: Sequence[ElementaryOp], dim: int) -> tuple[list, int]:
    """(N, e) of the word's product as written, left factor first."""
    rows = [[ZW_ONE if i == j else ZW_ZERO for j in range(dim)] for i in range(dim)]
    e = 0
    for op in reversed(word):
        rows, e = apply_elementary(op, rows, e)
    return rows, e


def word_matrix(word: Sequence[ElementaryOp], dim: int) -> ExactMatrix:
    """Exact product of the word as written, left factor first."""
    return as_matrix(*word_product(word, dim))
