"""Reduction of exact unitaries to elementary-operator words.

The engine reduces linalg's form U = N / sqrt(2)^e in place, at the least
delta-exponent k (2e, or 2e - 1), beside a grid of the classes mod delta^3 of
delta^k * U up to a common unit, one 3-bit int each: those of N at even k,
and of N / delta, read off N's coefficient parities, at odd k.  An op
refreshes the grid only where it wrote: a Hadamard re-reads the two rows that
`mix_halved` wrote, a phase maps its row's classes through `PHASE_RESIDUES`,
and a swap swaps two grid rows.  While k > 1, the mod-delta pattern must be
one of seven shapes, stated as 0/1 templates; a table maps each placement
to its shape and step lines.  Every shape is reduced by one step, applied
over and over: phase-align two lines that are congruent mod delta^3 (or mod
delta^2) and mix them with one two-level Hadamard, which divides their sum
and difference exactly by sqrt(2).  Congruence mod delta^3 strictly drops both
lines below k; congruence mod delta^2 hands off to a simpler shape at the
same k.  The two lines are the first two rows whose unit pattern has the
fewest units, mixed over its unit columns, except in the all-units 4x4 shape,
which mixes the first of its row pairs (0, 1), (0, 2) and (1, 2) that agree
mod delta^2 up to one phase and differ by w^2 in an even number of entries.
Each pass applies one Hadamard; within four passes, which the round counts,
the grid has no unit and k drops: from odd k every numerator is halved by
sqrt(2), and from even k only the grid is re-read.  At k = 0 the matrix is a
monomial unpicked by swaps and phases.

Ops act on rows; the one column step, the column variant of full_rows,
transposes the workspace, mixes rows and transposes back, and its ops are
right ops.  Inverting and re-ordering the applied ops yields a word whose
exact product equals the input.

The reduction certifies unitarity: the workspace is always L * U * R for
products L and R of unitary ops, so ending at I proves U unitary.  A Gram
check runs only after a failure, to tell non-unitary input from an engine bug.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import InvariantError, NotUnitaryError
from .linalg import (
    ElementaryOp,
    ExactMatrix,
    delta_exponent,
    h_op,
    halved,
    invert_elementary,
    is_unitary,
    mix_halved,
    omega_op,
    residue_matrix,
    row_surgery,
    word_matrix,
    x_op,
)
from .ring import OMEGA_POWERS, PHASE_RESIDUES, quotient_bits, residue_bits

MAX_HADAMARDS_PER_ROUND = 4


@dataclass(frozen=True)
class ReductionRound:
    """One full drop of the delta-exponent: k_before -> k_after < k_before."""

    left_ops: tuple[ElementaryOp, ...]
    right_ops: tuple[ElementaryOp, ...]
    k_before: int
    k_after: int
    case_chain: tuple[str, ...]


@dataclass(frozen=True)
class Decomposition:
    """word is a left-to-right product of elementary ops equal to the input."""

    word: tuple[ElementaryOp, ...]
    rounds: tuple[ReductionRound, ...]
    source_k: int
    dim: int


# The reducible shapes as 0/1 templates, each matched up to row and column
# permutation; the full_rows template with no full row is its column variant.
_SHAPES = (
    ("dense2", ("11", "11")),
    ("block3", ("110", "110", "000")),
    ("dense4", ("1111", "1111", "1111", "1111")),
    ("single_block", ("1100", "1100", "0000", "0000")),
    ("full_rows", ("1111", "1111", "0000", "0000")),
    ("full_rows", ("1100", "1100", "1100", "1100")),
    ("block_and_rows", ("1100", "1100", "1111", "1111")),
    ("double_block", ("1100", "1100", "0011", "0011")),
)


@functools.cache
def _shape_table() -> dict[tuple[tuple[int, ...], ...],
                           tuple[str, bool, tuple[int, ...], tuple[int, ...]]]:
    """Each placement of each template, mapped to its case step: the shape's
    name, whether to flip (full_rows with no full row), and, after the flip, the
    rows with the first fewest-units pattern, then the rest, and its unit columns."""
    table = {}
    for tag, template in _SHAPES:
        for rows in set(itertools.permutations(template)):
            for cols in itertools.permutations(zip(*rows)):
                pattern = tuple(zip(*(map(int, col) for col in cols)))
                flip = tag == "full_rows" and not any(map(all, pattern))
                lines = tuple(zip(*pattern)) if flip else pattern
                first = min(filter(any, lines), key=sum)
                order = tuple(sorted(range(len(lines)), key=lambda r: lines[r] != first))
                support = tuple(c for c, unit in enumerate(first) if unit)
                table[pattern] = tag, flip, order, support
    return table


def classify_pattern(pattern: Sequence[Sequence[int]]) -> str:
    """The name of the reducible shape a 0/1 unit pattern places.

    Raises InvariantError for anything else, which a unitary cannot produce
    at delta-exponent k > 1.
    """
    step = _shape_table().get(tuple(map(tuple, pattern)))
    if step is None:
        raise InvariantError(f"pattern {pattern!r} does not match any reducible shape")
    return step[0]


def phase_offset(row1: Sequence[int], row2: Sequence[int]) -> int:
    """x mod 4 with w^x * row1 = row2 as unit classes mod delta^3 (residue bits)."""
    if not all(r & 1 for r in (*row1, *row2)):
        raise InvariantError("phase alignment needs unit classes mod delta^3")
    offsets = {((r2 >> 1) - (r1 >> 1)) % 4 for r1, r2 in zip(row1, row2)}
    if len(offsets) != 1:
        raise InvariantError(f"no single omega power aligns {row1!r} with {row2!r}")
    return offsets.pop()


_UNIT_EXPONENT = {z: p for p, z in enumerate(OMEGA_POWERS)}


def solve_monomial(ws: _Workspace) -> list[ElementaryOp]:
    """Left ops (in application order) reducing the workspace at k = 0 to I.

    At exponent 0 a unitary has exactly one entry per row and column, a power
    of w; one swap per column plus one phase per diagonal slot clears it.
    """
    if ws.k != 0:
        raise InvariantError("delta-exponent must be 0")
    if any(sum(r & 1 for r in line) != 1 for line in (*ws.bits, *zip(*ws.bits))):
        raise InvariantError("not one unit per row and column")
    dim = len(ws.rows)
    start = len(ws.left_ops)
    for c in range(dim):
        r = next(i for i in range(dim) if ws.bits[i][c] & 1)
        if r != c:
            ws.apply(x_op(c + 1, r + 1))
        power = _UNIT_EXPONENT.get(ws.rows[c][c])
        if power is None:
            raise InvariantError(f"entry {ws.rows[c][c]!r} is not a power of w")
        ws.phase(c, -power)
    if any(z != OMEGA_POWERS[0] if i == j else z
           for i, row in enumerate(ws.rows) for j, z in enumerate(row)):
        raise InvariantError("monomial cleanup did not reach the identity")
    return ws.left_ops[start:]


class _Workspace:
    """The synthesis state: the numerators rows of U = rows / sqrt(2)^e,
    reduced in place to k = 0, with k least (2e, or 2e - 1 when delta divides
    every numerator; 0, or the grid has a unit), so e is (k + 1) // 2; the
    grid bits, always residue_matrix(rows) at even k and that of rows / delta
    at odd k; and the ops so far.  Ops act on rows, 0-based, and go to
    left_ops, or to right_ops while the workspace is flipped."""

    def __init__(self, m: ExactMatrix) -> None:
        self.rows = [list(row) for row in m.rows]
        self.k = delta_exponent(m)
        self.bits = ([self.read(row) for row in self.rows] if self.k & 1
                     else [list(row) for row in residue_matrix(self.rows)])
        self.left_ops: list[ElementaryOp] = []
        self.right_ops: list[ElementaryOp] = []
        self.flipped = False

    def read(self, row: Sequence) -> list:
        """The grid row of numerators at this k; None where it is not integral."""
        read = quotient_bits if self.k & 1 else residue_bits
        return [read(z) for z in row]

    def has_unit(self) -> bool:
        return any(r & 1 for row in self.bits for r in row)

    def divide_out_delta(self) -> None:
        """Lower k while delta divides delta^k * U, that is while the grid
        has no unit: from odd k sqrt(2) divides every numerator, and halving
        them lowers e; from even k only the grid changes."""
        while self.k and not self.has_unit():
            if self.k & 1:
                self.rows = halved(self.rows)
            self.k -= 1
            self.bits = [self.read(row) for row in self.rows]

    def flip(self) -> None:
        """Transpose rows and bits together; every op is a symmetric matrix,
        so an op on a row of the transpose is the same op on a column."""
        self.rows = [list(col) for col in zip(*self.rows)]
        self.bits = [list(col) for col in zip(*self.bits)]
        self.flipped = not self.flipped

    def congruence(self, a: int, b: int) -> int:
        """3 or 2 when rows a and b agree mod delta^3 or only mod delta^2, else 0."""
        la, lb = self.bits[a], self.bits[b]
        if la == lb:
            return 3
        if not any((x ^ y) & 3 for x, y in zip(la, lb)):
            return 2
        return 0

    def apply(self, op: ElementaryOp) -> None:
        """Apply op to the rows in place and refresh the grid rows it touched:
        a Hadamard re-reads its two rows, a phase maps its row's classes
        through the table, and a swap swaps two grid rows."""
        (self.right_ops if self.flipped else self.left_ops).append(op)
        i, j = op.j - 1, op.m - 1
        if op.kind != "H":
            row_surgery(self.rows, op.kind, i, j, op.power)
            if op.kind == "X":
                row_surgery(self.bits, "X", i, j)
            else:
                table = PHASE_RESIDUES[op.power & 3]
                self.bits[i] = [table[r] for r in self.bits[i]]
        else:
            # k holds exactly when sqrt(2) (at odd k, sqrt(2) * delta) divides x + y and x - y
            halves = mix_halved(self.rows[i], self.rows[j])
            bits = halves and [self.read(row) for row in halves]
            if not bits or None in bits[0] + bits[1]:
                raise InvariantError("Hadamard increased the delta-exponent")
            self.rows[i], self.rows[j] = halves
            self.bits[i], self.bits[j] = bits

    def phase(self, row: int, power: int) -> None:
        if power % 8:
            self.apply(omega_op(row + 1, power))

    def hadamard(self, a: int, b: int) -> None:
        """Mix two congruent rows; the congruence level fixes the outcome.

        Congruence mod delta^3 forces both rows strictly below k afterwards;
        congruence only mod delta^2 forces no increase.  Anything weaker means
        a case-analysis bug, not a property of the input.
        """
        level = self.congruence(a, b)
        if level < 2:
            raise InvariantError(
                f"lines {a},{b} not congruent mod delta^2 before Hadamard")
        self.apply(h_op(min(a, b) + 1, max(a, b) + 1))
        if level == 3 and any(r & 1 for t in (a, b) for r in self.bits[t]):
            raise InvariantError("congruent lines failed to drop")


def _align(ws: _Workspace, a: int, b: int, support: Sequence[int]) -> None:
    """Phase row a so that it agrees with row b mod delta^3 over support."""
    ws.phase(a, phase_offset(*([ws.bits[r][c] for c in support] for r in (a, b))))


def _reduce_dense4(ws: _Workspace) -> None:
    """The all-units 4x4 shape: mix the first row pair that passes its rule."""
    # each row's unit exponents relative to its column-0 entry
    rel = [[((r >> 1) - (row[0] >> 1)) % 4 for r in row] for row in ws.bits]
    for a, b in ((0, 1), (0, 2), (1, 2)):
        # agreement mod delta^2, and w^2 differences in an even number of
        # entries: for such rows, orthogonality mod delta^3
        diffs = [(x - y) % 4 for x, y in zip(rel[a], rel[b])]
        if all(d % 2 == 0 for d in diffs) and diffs.count(2) % 2 == 0:
            _align(ws, a, b, (0,))
            ws.hadamard(a, b)
            return
    triple = tuple((x - y) % 4 for x, y in zip(rel[2][1:], rel[0][1:]))
    raise InvariantError(f"unit triple {triple} excluded by unitarity")


def _reduce(ws: _Workspace, pattern: tuple[tuple[int, ...], ...]) -> None:
    """One case step for the pattern's table entry: the dense4 rule, or align
    and mix its two lines; block_and_rows falls back to its two full rows."""
    tag, flip, (a, b, *rest), support = _shape_table()[pattern]
    if tag == "dense4":
        _reduce_dense4(ws)
        return
    if flip:
        ws.flip()
    _align(ws, a, b, support)
    if tag == "block_and_rows" and ws.congruence(a, b) == 2:
        # the light rows keep their defect; align and mix the full rows instead
        a, b = rest
        _align(ws, a, b, support)
    ws.hadamard(a, b)
    if flip:
        ws.flip()


def reduction_round(ws: _Workspace) -> ReductionRound:
    """Apply ops to the workspace until its delta-exponent strictly drops,
    within MAX_HADAMARDS_PER_ROUND Hadamards: one per pass."""
    k = ws.k
    if k == 1:
        raise InvariantError("delta-exponent 1 cannot occur for a unitary")
    if len(ws.rows) == 1:
        raise InvariantError("a 1x1 unitary has delta-exponent 0")
    lefts, rights = len(ws.left_ops), len(ws.right_ops)
    chain: list[str] = []
    # the exponent is still k while some numerator is a unit mod delta
    while ws.has_unit():
        if len(chain) >= MAX_HADAMARDS_PER_ROUND:
            raise InvariantError("Hadamard budget for one round exhausted")
        pattern = tuple(tuple(r & 1 for r in row) for row in ws.bits)
        chain.append(classify_pattern(pattern))
        _reduce(ws, pattern)
    ws.divide_out_delta()
    if ws.k >= k:
        raise InvariantError(f"round ended at exponent {ws.k} >= {k}")
    return ReductionRound(tuple(ws.left_ops[lefts:]), tuple(ws.right_ops[rights:]),
                          k, ws.k, tuple(chain))


def synthesize(m: ExactMatrix) -> Decomposition:
    """Exact elementary-operator word for a unitary over D[w].

    The word multiplies out (left factor first) to exactly m.  Reaching I
    proves m unitary, so the Gram check runs only when the reduction raises
    an InvariantError: NotUnitaryError for a non-unitary m, else the error
    itself, an engine bug.
    """
    ws = _Workspace(m)
    source_k = ws.k
    rounds: list[ReductionRound] = []
    try:
        while ws.k:
            rounds.append(reduction_round(ws))
        solve_monomial(ws)
    except InvariantError:
        if not is_unitary(m):
            raise NotUnitaryError("input matrix is not unitary") from None
        raise

    word = [invert_elementary(op) for op in (*ws.left_ops, *reversed(ws.right_ops))]
    return Decomposition(tuple(word), tuple(rounds), source_k, m.dim)


def verify_decomposition(m: ExactMatrix, dec: Decomposition) -> bool:
    """Exact check: does the word multiply out to m?"""
    if dec.dim != m.dim:
        return False
    return word_matrix(dec.word, m.dim) == m
