"""Shared fixtures for exercising the exact-matrix layer."""

import random

from deltasynth.linalg import ExactMatrix, word_matrix
from deltasynth.oracle import op_alphabet as alphabet
from deltasynth.ring import (D_INV_SQRT2, D_ONE, D_ZERO, UNIT_SQRT2, UNIT_SQRT2_INV,
                             DOmega, ZW_OMEGA)


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


H_EXACT = exact([
    [D_INV_SQRT2, D_INV_SQRT2],
    [D_INV_SQRT2, -D_INV_SQRT2],
])
T_EXACT = exact([
    [D_ONE, D_ZERO],
    [D_ZERO, DOmega(ZW_OMEGA, 0)],
])


def random_word(dim, length, rng):
    ops = alphabet(dim)
    return [rng.choice(ops) for _ in range(length)]


def random_word_matrix(dim, length, seed):
    return word_matrix(random_word(dim, length, random.Random(seed)), dim)
