"""Reduction of exact unitaries to elementary-operator words.

The engine builds the Z[w] numerators of delta^k * U once, at the least
delta-exponent k, from the matrix's numerators over sqrt(2)^e, and reduces
them in place, columns as well as rows, beside the grid of their residue
classes mod delta^3 (one 3-bit int each), which an op refreshes only where
it wrote.  While k > 1, the mod-delta pattern must be one of seven shapes,
stated as 0/1 templates; a table of their row and column permutations names
the pattern's shape and where the template's rows and columns lie.  Every
shape is reduced by one step, applied over and over: phase-align two lines
that are congruent mod delta^3 (or mod delta^2) and mix them with one
two-level Hadamard, which divides their sum and difference exactly by
sqrt(2).  Congruence mod delta^3 strictly drops both lines below k;
congruence mod delta^2 hands off to a simpler shape at the same k.  Which
two lines to mix is read off the shape, except for the all-units 4x4 shape,
which takes the same steps: unless rows 0 and 1 are aligned and mixed
outright, phases make row 0 and the first entries of rows 1 and 2 ones,
and row 2 mixes with whichever of rows 0 and 1 it agrees with mod delta^2,
differing by w^2 in an even number of entries.  At most four Hadamards
later, as the round counts among its own ops, delta divides every
numerator, and dividing it out lowers k; at k = 0 the matrix is a monomial
unpicked by swaps and phases.

Left ops act on rows, right ops on columns; inverting and re-ordering the
applied ops yields a word whose exact product equals the input.

The reduction certifies unitarity: the workspace is always exactly
delta^k * L * U * R for products L and R of unitary ops, so ending at I
proves U unitary.  A Gram check runs only after a failure, to tell a
non-unitary input from an engine bug.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Sequence

from .errors import InvariantError, NotUnitaryError, VerificationError
from .linalg import (
    ElementaryOp,
    ExactMatrix,
    h_op,
    invert_elementary,
    is_scaled_unitary,
    is_unitary,
    omega_op,
    residue_matrix,
    row_surgery,
    word_matrix,
    x_op,
)
from .ring import (OMEGA_POWERS, TWO_PLUS_SQRT2, UNIT_SQRT2, ZOmega, divide_by_delta,
                   divide_by_sqrt2, residue_bits)

MAX_HADAMARDS_PER_ROUND = 4


@dataclass(frozen=True)
class CasePattern:
    """A residue pattern matched to its template, the shape named by its
    case-chain string.

    row_perm/col_perm map template positions to actual indices (0-based):
    template row i of the shape lives at row row_perm[i].  transposed marks
    the column variant of full_rows, the only shape that is not
    permutation-equivalent to its transpose.
    """

    tag: str
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    transposed: bool = False


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
# permutation; the transposed full_rows template is its column variant.
_SHAPES = (
    ("dense2", ("11", "11"), False),
    ("block3", ("110", "110", "000"), False),
    ("dense4", ("1111", "1111", "1111", "1111"), False),
    ("single_block", ("1100", "1100", "0000", "0000"), False),
    ("full_rows", ("1111", "1111", "0000", "0000"), False),
    ("full_rows", ("1100", "1100", "1100", "1100"), True),
    ("block_and_rows", ("1100", "1100", "1111", "1111"), False),
    ("double_block", ("1100", "1100", "0011", "0011"), False),
)


@functools.cache
def _shape_table() -> dict[tuple[tuple[int, ...], ...], CasePattern]:
    """Each placement of each template, mapped to the first row and column
    permutations (in itertools order) that produce it."""
    table = {}
    for tag, template, transposed in _SHAPES:
        indices = range(len(template))
        seen = set()
        for row_perm in itertools.permutations(indices):
            rows = tuple(template[row_perm.index(r)] for r in indices)
            if rows in seen:
                continue
            seen.add(rows)
            for col_perm in itertools.permutations(indices):
                pattern = tuple(tuple(int(row[col_perm.index(c)]) for c in indices)
                                for row in rows)
                table.setdefault(pattern, CasePattern(tag, row_perm, col_perm, transposed))
    return table


def classify_pattern(pattern: Sequence[Sequence[int]]) -> CasePattern:
    """Match a 0/1 unit pattern against the reducible shapes.

    Raises InvariantError for anything else, which a unitary cannot produce
    at delta-exponent k > 1.
    """
    pat = _shape_table().get(tuple(map(tuple, pattern)))
    if pat is None:
        raise InvariantError(
            f"pattern {pattern!r} does not match any reducible shape")
    return pat


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
    if any(sum(map(bool, line)) != 1 for line in (*ws.rows, *zip(*ws.rows))):
        raise InvariantError("not one unit per row and column")
    dim = len(ws.rows)
    start = len(ws.left_ops)
    for c in range(dim):
        r = next(i for i in range(dim) if ws.rows[i][c])
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


def _div_sqrt2(z: ZOmega) -> ZOmega:
    """The Hadamard's mix z / sqrt(2) = z / delta^2 * UNIT_SQRT2, when exact."""
    q = divide_by_sqrt2(z)
    if q is None:
        raise InvariantError("Hadamard increased the delta-exponent")
    return q


class _Workspace:
    """The synthesis state: rows holds the Z[w] numerators of delta^k * U,
    built from the input at its least delta-exponent k and reduced in place
    to k = 0, the grid bits of their residue classes mod delta^3, always
    equal to residue_matrix(rows), and the ops applied so far.  k stays least
    (0, or some numerator is a unit mod delta).  Lines are rows for side "L"
    (ops applied on the left) and columns for side "R"; indices are 0-based.
    """

    def __init__(self, m: ExactMatrix) -> None:
        # sqrt(2)^e = delta^(2e) / UNIT_SQRT2^e; with e least, delta^2 does
        # not divide every numerator, so k drops by at most one
        unit = UNIT_SQRT2 ** m.e
        self.rows = [[z * unit for z in row] for row in m.rows]
        self.bits = [list(row) for row in residue_matrix(self.rows)]
        self.k = 2 * m.e
        self.divide_out_delta()
        self.left_ops: list[ElementaryOp] = []
        self.right_ops: list[ElementaryOp] = []

    def has_unit(self) -> bool:
        return any(r & 1 for row in self.bits for r in row)

    def divide_out_delta(self) -> None:
        """Divide every numerator by delta, lowering k, while all of them divide."""
        while self.k and not self.has_unit():
            self.rows = [[divide_by_delta(z) for z in row] for row in self.rows]
            self.bits = [list(row) for row in residue_matrix(self.rows)]
            self.k -= 1

    def exps(self) -> list[list[int | None]]:
        return [[r >> 1 if r & 1 else None for r in row] for row in self.bits]

    def lines(self, a: int, b: int, side: str = "L",
              support: Sequence[int] | None = None) -> tuple[list, list]:
        """Residue bits of lines a and b, restricted to support."""
        grid = self.bits if side == "L" else list(zip(*self.bits))
        cells = range(len(grid)) if support is None else support
        return [grid[a][c] for c in cells], [grid[b][c] for c in cells]

    def congruence(self, a: int, b: int, side: str = "L") -> int:
        """3 or 2 when lines a and b agree mod delta^3 or only mod delta^2, else 0."""
        la, lb = self.lines(a, b, side)
        if la == lb:
            return 3
        if not any((x ^ y) & 3 for x, y in zip(la, lb)):
            return 2
        return 0

    def apply(self, op: ElementaryOp, side: str = "L") -> None:
        """Apply op in place and refresh the grid lines it touched: one for a
        phase, two for a Hadamard, and a swap moves two grid lines."""
        (self.left_ops if side == "L" else self.right_ops).append(op)
        i, j = op.j - 1, op.m - 1
        touched = (i,) if op.kind == "omega" else (i, j)
        rows, bits = self.rows, self.bits
        if side == "R":
            # the touched columns as lines, keyed by index; written back below
            rows, bits = ({t: [row[t] for row in grid] for t in touched}
                          for grid in (rows, bits))
        row_surgery(rows, op.kind, i, j, op.power)
        if op.kind == "X":
            row_surgery(bits, "X", i, j)
        else:
            for t in touched:
                if op.kind == "H":
                    rows[t] = [_div_sqrt2(z) for z in rows[t]]
                bits[t] = [residue_bits(z) for z in rows[t]]
        if side == "R":
            for t in touched:
                for row, cells, z, b in zip(self.rows, self.bits, rows[t], bits[t]):
                    row[t], cells[t] = z, b

    def phase(self, line: int, power: int, side: str = "L") -> None:
        if power % 8:
            self.apply(omega_op(line + 1, power), side)

    def hadamard(self, a: int, b: int, side: str = "L") -> None:
        """Mix two congruent lines; the congruence level fixes the outcome.

        Congruence mod delta^3 forces both lines strictly below k afterwards;
        congruence only mod delta^2 forces no increase.  Anything weaker means
        a case-analysis bug, not a property of the input.
        """
        level = self.congruence(a, b, side)
        if level < 2:
            raise InvariantError(
                f"lines {a},{b} not congruent mod delta^2 before Hadamard")
        self.apply(h_op(min(a, b) + 1, max(a, b) + 1), side)
        if level == 3 and any(r & 1 for line in self.lines(a, b, side) for r in line):
            raise InvariantError("congruent lines failed to drop")


def _align(ws: _Workspace, a: int, b: int, support: Sequence[int], side: str) -> None:
    """Phase line a so that it agrees with line b mod delta^3 over support."""
    ws.phase(a, phase_offset(*ws.lines(a, b, side, support)), side)


def _align_and_mix(ws: _Workspace, a: int, b: int, support: Sequence[int],
                   side: str = "L") -> None:
    """The reduction step: align line a to line b over support, then mix them."""
    _align(ws, a, b, support, side)
    ws.hadamard(a, b, side)


def _phase_to_ones(ws: _Workspace, line: Sequence[int | None], support: Sequence[int],
                   side: str) -> None:
    """Phase the cross lines in support, on side, so that the line whose unit
    exponents are given has entries 1 mod delta^3 there."""
    for c in support:
        ws.phase(c, -line[c] % 4, side)


def _reduce_dense4(ws: _Workspace) -> None:
    """The all-units 4x4 shape, split by the phase differences of rows 0 and 1."""
    exps = ws.exps()
    diffs = [(exps[1][j] - exps[0][j]) % 4 for j in range(4)]
    split = sorted(diffs.count(v) for v in set(diffs))
    if split == [4]:
        _align_and_mix(ws, 0, 1, range(4))
        return
    if split == [2, 2]:
        partner = diffs.index(diffs[0], 1)
        if partner != 1:
            ws.apply(x_op(2, partner + 1), "R")
            exps = ws.exps()
    elif split != [1, 1, 1, 1]:
        found = "/".join(map(str, reversed(split)))
        raise InvariantError(
            f"row phase differences {diffs} split {found}, excluded by unitarity")
    _phase_to_ones(ws, exps[0], range(4), "R")
    _phase_to_ones(ws, [row[0] for row in ws.exps()], (1, 2), "L")
    exps = ws.exps()
    if split == [2, 2]:
        if exps[1][1] != 0 or exps[1][2] != exps[1][3]:
            raise InvariantError(f"pair structure lost: {exps[1]}")
        gap = exps[1][2]
        if gap == 2:
            ws.hadamard(0, 1)
            return
        if gap == 3:
            # shift the light columns: row 1 becomes the all-ones row
            _phase_to_ones(ws, exps[1], (2, 3), "R")
    # row 2 mixes with the row it agrees with mod delta^2 and differs from by
    # w^2 in an even number of entries (orthogonality mod delta^3); unitarity
    # excludes a third row that neither row 0 nor row 1 passes
    for r in (0, 1):
        row, third = ws.lines(r, 2)
        if ws.congruence(r, 2) and sum(x != y for x, y in zip(row, third)) % 2 == 0:
            ws.hadamard(r, 2)
            return
    raise InvariantError(f"unit triple {tuple(ws.exps()[2][1:])} excluded by unitarity")


def _reduce(ws: _Workspace, pat: CasePattern) -> None:
    """One case step for the matched shape: the dense4 procedure, or align
    and mix the template's first two lines.

    The support is the shape's unit block, or the whole line for full_rows.
    """
    if pat.tag == "dense4":
        _reduce_dense4(ws)
        return
    if pat.transposed:
        lines, cross, side = pat.col_perm, pat.row_perm, "R"
    else:
        lines, cross, side = pat.row_perm, pat.col_perm, "L"
    a, b = lines[:2]
    support = cross if pat.tag == "full_rows" else cross[:2]
    if pat.tag == "single_block":
        _phase_to_ones(ws, ws.exps()[b], support, "R")
    elif pat.tag == "block_and_rows":
        _align(ws, a, b, support, side)
        if ws.congruence(a, b, side) == 2:
            # the light rows keep their defect; mix the full rows instead
            a, b = lines[2:]
    _align_and_mix(ws, a, b, support, side)


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
        ops = ws.left_ops[lefts:] + ws.right_ops[rights:]
        if sum(1 for op in ops if op.kind == "H") >= MAX_HADAMARDS_PER_ROUND:
            raise InvariantError("Hadamard budget for one round exhausted")
        pattern = tuple(tuple(r & 1 for r in row) for row in ws.bits)
        pat = classify_pattern(pattern)
        chain.append(pat.tag)
        _reduce(ws, pat)
    ws.divide_out_delta()
    if ws.k >= k:
        raise InvariantError(f"round ended at exponent {ws.k} >= {k}")
    return ReductionRound(tuple(ws.left_ops[lefts:]), tuple(ws.right_ops[rights:]),
                          k, ws.k, tuple(chain))


def synthesize(m: ExactMatrix, *, debug: bool = False) -> Decomposition:
    """Exact elementary-operator word for a unitary over D[w].

    The word multiplies out (left factor first) to exactly m.  Reaching I
    proves m unitary, so the Gram check runs only when the reduction raises
    an InvariantError: NotUnitaryError for a non-unitary m, else the error
    itself, an engine bug.  debug re-checks unitarity after every round and
    the final product.
    """
    ws = _Workspace(m)
    source_k = ws.k
    rounds: list[ReductionRound] = []
    try:
        while ws.k:
            rounds.append(reduction_round(ws))
            if debug and not is_scaled_unitary(ws.rows, TWO_PLUS_SQRT2 ** ws.k):
                raise VerificationError("round output lost unitarity")
        solve_monomial(ws)
    except InvariantError:
        if not is_unitary(m):
            raise NotUnitaryError("input matrix is not unitary") from None
        raise

    word = [invert_elementary(op) for op in (*ws.left_ops, *reversed(ws.right_ops))]
    dec = Decomposition(tuple(word), tuple(rounds), source_k, m.dim)
    if debug and not verify_decomposition(m, dec):
        raise VerificationError("decomposition product mismatch")
    return dec


def verify_decomposition(m: ExactMatrix, dec: Decomposition) -> bool:
    """Exact check: does the word multiply out to m?"""
    if dec.dim != m.dim:
        return False
    return word_matrix(dec.word, m.dim) == m
