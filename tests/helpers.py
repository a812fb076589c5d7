"""Shared fixtures and the tests' independent reference.

The package computes with Z[w] numerators over a power of sqrt(2); the
tests check it against D[w] values (`DOmega` and the constants below), the
plain matrix product, adjoint and identity, sqrt(2)-conjugation, and two
exhaustive searches.  Both searches key their frontiers by exact products:
everything the generators reach in a few steps must round-trip.  The
T-count lower bound is computed exactly from the channel representation.
"""

import contextlib
import io
import random
from typing import Sequence

import pytest

from deltasynth.circuits import Gate, _fold
from deltasynth.cli import gate_pool
from deltasynth.errors import SynthError
from deltasynth.linalg import (ElementaryOp, ExactMatrix, apply_elementary, h_op, omega_op,
                               word_matrix, x_op)
from deltasynth.ring import (ZW_DELTA, ZW_ONE, ZW_OMEGA, ZW_ZERO, DOmega, ZOmega,
                             divide_by_sqrt2)


def conj_sq2(z: ZOmega) -> ZOmega:
    """sqrt(2)-conjugation: sqrt(2) -> -sqrt(2), i fixed, so w -> -w."""
    return ZOmega(-z.a, z.b, -z.c, z.d)


def identity(dim: int) -> ExactMatrix:
    """The dim x dim identity."""
    return ExactMatrix([ZW_ONE if i == j else ZW_ZERO for j in range(dim)]
                       for i in range(dim))


@contextlib.contextmanager
def raises_synth_error(match=None):
    """pytest.raises for SynthError itself, the exit-2 class: its subclasses
    NotUnitaryError and InvariantError do not pass."""
    with pytest.raises(SynthError, match=match) as info:
        yield info
    assert type(info.value) is SynthError


def stdin_bytes(data: bytes) -> io.TextIOWrapper:
    """A stand-in for sys.stdin that a shell feeds data: a text layer with
    the byte buffer beneath it that the CLI reads."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")


def mixing_ops(rnd) -> int:
    """The Hadamards a reduction round applied, to rows and to columns."""
    return sum(op.kind == "H" for op in rnd.left_ops + rnd.right_ops)


ZW_DELTA2 = ZW_DELTA * ZW_DELTA
# delta^2 = UNIT_SQRT2 * sqrt(2)
UNIT_SQRT2 = ZOmega(0, 1, 1, 1)
# conj(delta) * delta, the Gram scale of numerators over delta
TWO_PLUS_SQRT2 = ZOmega(-1, 0, 1, 2)
# 2/delta: delta times it is exactly 2.
TWO_OVER_DELTA = ZOmega(-1, 1, -1, 1)
# delta^2 = UNIT_SQRT2 * sqrt(2); its other three conjugates multiply to its inverse.
UNIT_SQRT2_INV = UNIT_SQRT2.conj() * conj_sq2(UNIT_SQRT2) * conj_sq2(UNIT_SQRT2.conj())

D_ZERO = DOmega(ZW_ZERO, 0)
D_ONE = DOmega(ZW_ONE, 0)
# 1/sqrt(2) = UNIT_SQRT2 / delta^2.
D_INV_SQRT2 = DOmega(UNIT_SQRT2, 2)

# monomial cleanup needs at most dim-1 swaps and dim phases
MONOMIAL_WORD_MAX = {1: 1, 2: 3, 3: 5, 4: 7}


def domega(z, e):
    """The D[w] reference value of z / sqrt(2)^e: z * UNIT_SQRT2^e / delta^(2e)."""
    return DOmega(z * UNIT_SQRT2 ** e, 2 * e)


def exact(grid):
    """The ExactMatrix of a grid of D[w] reference values.

    sqrt(2)^e * value is integral once 2e reaches the largest entry
    exponent k, and equals delta^(2e) * value / UNIT_SQRT2^e.
    """
    grid = [list(row) for row in grid]
    e = (max(x.k for row in grid for x in row) + 1) // 2
    unit = UNIT_SQRT2_INV ** e
    return ExactMatrix(([x.lift_to(2 * e) * unit for x in row] for row in grid), e)


def scaled(m, k):
    """Z[w] numerators of delta^k * m, through the D[w] reference; ValueError
    when k is below m's delta-exponent."""
    return [[domega(z, m.e).lift_to(k) for z in row] for row in m.rows]


def mat_mul(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    if a.dim != b.dim:
        raise ValueError("dimension mismatch")
    cols = list(zip(*b.rows))
    return ExactMatrix(([sum((x * y for x, y in zip(row, col)), ZW_ZERO) for col in cols]
                        for row in a.rows), a.e + b.e)


def adjoint(m: ExactMatrix) -> ExactMatrix:
    return ExactMatrix(([z.conj() for z in col] for col in zip(*m.rows)), m.e)


H_EXACT = exact([
    [D_INV_SQRT2, D_INV_SQRT2],
    [D_INV_SQRT2, -D_INV_SQRT2],
])
T_EXACT = exact([
    [D_ONE, D_ZERO],
    [D_ZERO, DOmega(ZW_OMEGA, 0)],
])


def op_alphabet(dim: int) -> list[ElementaryOp]:
    """Every elementary operator on the given dimension."""
    ops = [omega_op(j, p) for j in range(1, dim + 1) for p in range(1, 8)]
    for j in range(1, dim + 1):
        for m in range(j + 1, dim + 1):
            ops.append(h_op(j, m))
            ops.append(x_op(j, m))
    return ops


def enumerate_words(dim: int, max_len: int) -> dict[ExactMatrix, tuple[ElementaryOp, ...]]:
    """All products of at most max_len elementary operators, with a shortest
    left-to-right word for each.  Grows fast; intended for max_len <= 3."""
    ops = op_alphabet(dim)
    found = {identity(dim): ()}
    frontier = dict(found)
    for _ in range(max_len):
        fresh = {}
        for m, word in frontier.items():
            for op in ops:
                grown = ExactMatrix(*apply_elementary(op, m.rows, m.e))
                if grown not in found and grown not in fresh:
                    fresh[grown] = (op, *word)
        found.update(fresh)
        frontier = fresh
    return found


def search_gate_word(target: ExactMatrix, max_len: int,
                     pool: Sequence[Gate] | None = None) -> tuple[Gate, ...] | None:
    """Shortest gate word (in application order) whose circuit equals target.

    Breadth-first over the pool, deduplicating by exact product; None when no
    word of length at most max_len reaches the target.
    """
    if target.dim not in (2, 4):
        raise ValueError("search covers 1- or 2-qubit targets")
    qubits = 1 if target.dim == 2 else 2
    if pool is None:
        pool = gate_pool(qubits)
    start = identity(target.dim)
    if target == start:
        return ()
    seen = {start}
    frontier = {start: ()}
    for _ in range(max_len):
        fresh = {}
        for m, word in frontier.items():
            for gate in pool:
                grown = ExactMatrix(*_fold((gate,), m.rows, m.e, qubits))
                if grown in seen:
                    continue
                seen.add(grown)
                if grown == target:
                    return (*word, gate)
                fresh[grown] = (*word, gate)
        frontier = fresh
    return None


def random_word(dim, length, rng):
    ops = op_alphabet(dim)
    return [rng.choice(ops) for _ in range(length)]


def random_word_matrix(dim, length, seed):
    return word_matrix(random_word(dim, length, random.Random(seed)), dim)


# I, X, Y, Z as monomials: (column, power of w) by row
PAULIS_1Q = (((0, 0), (1, 0)), ((1, 0), (0, 0)), ((1, 6), (0, 2)), ((0, 0), (1, 4)))
PAULIS_2Q = tuple(tuple((2 * c0 + c1, p0 + p1) for c0, p0 in p for c1, p1 in q)
                  for p in PAULIS_1Q for q in PAULIS_1Q)


def t_count_bound(m: ExactMatrix) -> int:
    """The sde of U's channel representation tr(P U Q U^dag) / 2^n over the
    Pauli products P, Q on n qubits: the least s with sqrt(2)^s times every
    entry in Z[sqrt(2)].  No ancilla-free Clifford+T circuit for U has fewer
    T gates (Gosset, Kliuchnikov, Mosca and Russo, arXiv:1308.4134)."""
    qubits = m.dim.bit_length() - 1
    paulis = PAULIS_1Q if qubits == 1 else PAULIS_2Q
    adjoint_cols = [[z.conj() for z in row] for row in m.rows]
    traces = []
    for q in paulis:
        # N Q: column j of N, turned by w^p, is column c
        nq = [[ZW_ZERO] * m.dim for _ in range(m.dim)]
        for row, out in zip(m.rows, nq):
            for z, (c, p) in zip(row, q):
                out[c] = z.mul_omega_power(p)
        nqn = [[sum((x * y for x, y in zip(row, col)), ZW_ZERO) for col in adjoint_cols]
               for row in nq]
        # tr(P N Q N^dag) takes entry [c][i], turned by w^p, for each row i of P
        traces += [sum((nqn[c][i].mul_omega_power(p) for i, (c, p) in enumerate(pauli)),
                       ZW_ZERO) for pauli in paulis]
    # U = N / sqrt(2)^e, so the entries are the traces over sqrt(2)^(2e + 2n)
    sde = 2 * (m.e + qubits)
    while sde:
        halved = [divide_by_sqrt2(z) for z in traces]
        if any(z is None for z in halved):
            break
        traces, sde = halved, sde - 1
    return sde
