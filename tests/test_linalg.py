import random

import pytest
from hypothesis import given, settings, strategies as st

from deltasynth.linalg import (
    ElementaryOp,
    ExactMatrix,
    delta_exponent,
    h_op,
    invert_elementary,
    is_unitary,
    mix_halved,
    omega_op,
    residue_matrix,
    row_surgery,
    word_matrix,
    x_op,
)
import deltasynth.linalg
from deltasynth.ring import (
    DOmega,
    ZOmega,
    ZW_ONE,
    ZW_OMEGA,
    ZW_SQRT2,
    ZW_ZERO,
    divide_by_sqrt2,
    from_sqrt2_form,
)
from helpers import (D_ONE, D_ZERO, H_EXACT, T_EXACT, UNIT_SQRT2, adjoint, exact, identity,
                     mat_mul, op_alphabet as alphabet, random_word_matrix, raises_synth_error,
                     scaled)


small = st.integers(min_value=-3, max_value=3)
entries = st.builds(from_sqrt2_form, small, small, small, small)


def matrices(dim):
    grid = st.lists(st.lists(entries, min_size=dim, max_size=dim),
                    min_size=dim, max_size=dim)
    return st.builds(ExactMatrix, grid, st.integers(min_value=0, max_value=3))


class TestExactMatrix:
    def test_dimension_limits(self):
        identity(1)
        identity(4)
        with raises_synth_error():
            ExactMatrix([[ZW_ONE] * 5] * 5)
        with raises_synth_error():
            ExactMatrix([[ZW_ONE, ZW_ZERO]])
        with raises_synth_error():
            ExactMatrix([[ZW_ONE]], -1)

    def test_equality_and_hash(self):
        assert identity(2) == identity(2)
        assert H_EXACT != identity(2)
        assert hash(H_EXACT) == hash(ExactMatrix(H_EXACT.rows, H_EXACT.e))
        # the constructor lowers e: sqrt(2) * I / sqrt(2) is I
        widened = ExactMatrix([[ZW_SQRT2, ZW_ZERO], [ZW_ZERO, ZW_SQRT2]], 1)
        assert widened == identity(2)
        assert hash(widened) == hash(identity(2))
        assert H_EXACT != ExactMatrix(H_EXACT.rows, H_EXACT.e + 2)

    @given(a=matrices(2), b=matrices(2), c=matrices(2))
    @settings(max_examples=25)
    def test_mat_mul_laws(self, a, b, c):
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))
        ident = identity(2)
        assert mat_mul(a, ident) == a
        assert mat_mul(ident, a) == a

    @given(a=matrices(2), b=matrices(2))
    @settings(max_examples=25)
    def test_adjoint(self, a, b):
        assert adjoint(adjoint(a)) == a
        assert adjoint(mat_mul(a, b)) == mat_mul(adjoint(b), adjoint(a))

    def test_adjoint_of_t(self):
        expected = exact([
            [D_ONE, D_ZERO],
            [D_ZERO, DOmega(ZW_OMEGA, 0).conj()],
        ])
        assert adjoint(T_EXACT) == expected

    def test_is_unitary(self):
        assert is_unitary(H_EXACT)
        assert is_unitary(T_EXACT)
        assert is_unitary(identity(3))
        assert not is_unitary(ExactMatrix([[ZOmega.from_int(2)]]))
        assert not is_unitary(exact([[D_ONE, D_ONE], [D_ZERO, D_ONE]]))
        # 2 / sqrt(2)^2 is 1, and sqrt(2) / sqrt(2)^2 is not unitary
        assert is_unitary(ExactMatrix([[ZOmega.from_int(2)]], 2))
        assert not is_unitary(ExactMatrix([[ZW_SQRT2]], 2))

    @given(dim=st.integers(min_value=1, max_value=4),
           length=st.integers(min_value=0, max_value=30),
           seed=st.integers(min_value=0, max_value=10 ** 6),
           data=st.data())
    @settings(max_examples=60)
    def test_is_unitary_matches_adjoint_product(self, dim, length, seed, data):
        # the Z[w] Gram check against U^dagger U = I over D[w], on a random
        # word's unitary, on it with one entry shifted or phased (a phase
        # keeps every column's norm, so only orthogonality can fail), and
        # on any matrix
        def reference(m):
            return mat_mul(adjoint(m), m) == identity(m.dim)

        m = random_word_matrix(dim, length, seed)
        assert is_unitary(m) and reference(m)
        i, j = data.draw(st.tuples(*[st.integers(min_value=0, max_value=dim - 1)] * 2))
        shifted = [list(row) for row in m.rows]
        shifted[i][j] = shifted[i][j] + data.draw(entries)
        phased = [list(row) for row in m.rows]
        phased[i][j] = phased[i][j].mul_omega_power(data.draw(st.integers(1, 7)))
        for other in (ExactMatrix(shifted, m.e), ExactMatrix(phased, m.e),
                      data.draw(matrices(dim))):
            assert is_unitary(other) == reference(other)

    def test_delta_exponent(self):
        assert delta_exponent(identity(4)) == 0
        assert delta_exponent(H_EXACT) == 2
        assert delta_exponent(T_EXACT) == 0
        # delta / sqrt(2): delta divides every numerator, so k is 2e - 1
        assert delta_exponent(exact([[DOmega(ZW_ONE, 1)]])) == 1
        assert delta_exponent(ExactMatrix([[ZW_ZERO]], 3)) == 0


class TestElementaryOps:
    def test_validation(self):
        with raises_synth_error():
            ElementaryOp("omega", 1, 0, 0)
        with raises_synth_error():
            ElementaryOp("omega", 0, 0, 1)
        with raises_synth_error():
            ElementaryOp("H", 2, 2)
        with raises_synth_error():
            ElementaryOp("X", 3, 1)
        with raises_synth_error():
            ElementaryOp("Y", 1, 2)

    @pytest.mark.parametrize("kind", ["H", "X"])
    def test_two_level_takes_no_power(self, kind):
        # with a power the op would print and multiply as kind[1,2], yet
        # compare unequal to it
        for power in (1, 3, 7):
            with raises_synth_error(match="two-level op takes no power"):
                ElementaryOp(kind, 1, 2, power)
        assert ElementaryOp(kind, 1, 2) == (h_op(1, 2) if kind == "H" else x_op(1, 2))

    def test_constructors_share_ops(self):
        # one op per value of the dimension-4 alphabet, and no other is kept
        assert omega_op(3, 5) is omega_op(3, -3) is invert_elementary(omega_op(3, 3))
        assert h_op(1, 4) is h_op(1, 4)
        assert x_op(2, 3) is x_op(2, 3)
        assert set(deltasynth.linalg._SHARED.values()) == set(alphabet(4))
        assert h_op(5, 9) == h_op(5, 9)
        assert len(deltasynth.linalg._SHARED) == len(alphabet(4))
        with raises_synth_error(match="phase power must be 1..7"):
            omega_op(1, 8)
        with raises_synth_error(match="two-level op needs j < m"):
            h_op(2, 1)
        # 1.0 equals 1 but is no index; an unhashable index is checked too
        for j in (1.0, [1]):
            with raises_synth_error(match="indices and power must be ints"):
                x_op(j, 2)

    def test_frozen_matrices(self):
        assert word_matrix([h_op(1, 2)], 2) == H_EXACT
        assert word_matrix([omega_op(2, 1)], 2) == T_EXACT
        swap = word_matrix([x_op(3, 4)], 4)
        ident = identity(4)
        assert swap.rows[0] == ident.rows[0]
        assert swap.rows[1] == ident.rows[1]
        assert swap.rows[2] == ident.rows[3]
        assert swap.rows[3] == ident.rows[2]

    def test_out_of_range(self):
        with raises_synth_error():
            word_matrix([h_op(1, 3)], 2)
        with raises_synth_error():
            word_matrix([omega_op(4, 1)], 3)

    @given(data=st.data())
    @settings(max_examples=40)
    def test_apply_matches_mat_mul(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=4))
        u, v = (data.draw(st.lists(st.sampled_from(alphabet(dim)), max_size=8))
                for _ in range(2))
        assert word_matrix(u + v, dim) == mat_mul(word_matrix(u, dim), word_matrix(v, dim))

    def test_invert_elementary(self):
        for dim in (2, 3, 4):
            for op in alphabet(dim):
                word = [op, invert_elementary(op)]
                assert word_matrix(word, dim) == identity(dim)

    def test_elementary_ops_are_unitary(self):
        for op in alphabet(4):
            assert is_unitary(word_matrix([op], 4))


def mix_then_halve(top, bot):
    """The reference for mix_halved: row_surgery's H mix, then
    divide_by_sqrt2 on each entry, and None when one does not divide."""
    rows = [top, bot]
    row_surgery(rows, "H", 0, 1)
    halves = [[divide_by_sqrt2(z) for z in r] for r in rows]
    return None if None in halves[0] + halves[1] else tuple(halves)


class TestMixHalved:
    @given(data=st.data())
    def test_matches_mix_then_halve(self, data):
        dim = data.draw(st.integers(min_value=1, max_value=4))
        row = st.lists(st.builds(ZOmega, small, small, small, small),
                       min_size=dim, max_size=dim)
        top, bot = data.draw(row), data.draw(row)
        if data.draw(st.booleans()):
            # top + sqrt(2) * u mixes with top to sums and differences
            # that sqrt(2) divides
            bot = [x + ZW_SQRT2 * u for x, u in zip(top, bot)]
        assert mix_halved(top, bot) == mix_then_halve(top, bot)

    def test_seeded_entries(self):
        # large coefficients, odd and even alike; half the pairs mix to
        # multiples of sqrt(2), and some of the rest do by chance
        rng = random.Random(32)
        outcomes = set()
        for _ in range(500):
            dim = rng.randint(1, 4)
            top, bot = ([ZOmega(*(rng.randrange(-2 ** 64, 2 ** 64) for _ in range(4)))
                         for _ in range(dim)] for _ in range(2))
            if rng.random() < 0.5:
                bot = [x + ZW_SQRT2 * u for x, u in zip(top, bot)]
            want = mix_then_halve(top, bot)
            assert mix_halved(top, bot) == want
            outcomes.add(want is None)
        assert outcomes == {True, False}


def unit_pattern(m, k):
    """Unit-indicator bits of delta^k * m: the mod-delta residue pattern."""
    return tuple(tuple(r & 1 for r in row)
                 for row in residue_matrix(scaled(m, k)))


class TestResidueMatrix:
    def test_hadamard_patterns(self):
        assert unit_pattern(H_EXACT, 2) == ((1, 1), (1, 1))
        for row in residue_matrix(scaled(H_EXACT, 2)):
            for bits in row:
                assert bits == 0b111

    def test_identity_pattern(self):
        assert unit_pattern(identity(3), 0) == (
            (1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_rejects_small_exponent(self):
        with pytest.raises(ValueError):
            scaled(H_EXACT, 1)

    def test_scaling_invariance_through_ingest(self):
        # the same values written with a wider denominator give the same
        # numerators and residues once ingested
        narrow = ExactMatrix([[from_sqrt2_form(1, 0, 0, 0)]], 1)
        wide = ExactMatrix([[from_sqrt2_form(2, 0, 0, 0)]], 3)
        assert narrow == wide
        assert scaled(narrow, 2) == scaled(wide, 2)
        assert residue_matrix(scaled(narrow, 3)) == residue_matrix(scaled(wide, 3))

    def test_rows_and_cols(self):
        rows = scaled(H_EXACT, 2)
        assert rows == [[UNIT_SQRT2, UNIT_SQRT2], [UNIT_SQRT2, -UNIT_SQRT2]]
        r = residue_matrix(rows)
        assert r[0] == r[1]  # -u = u mod delta^3, as 2 = 0 there
        m = random_word_matrix(4, 12, seed=5)
        k = delta_exponent(m)
        transpose = ExactMatrix(zip(*m.rows), m.e)
        assert residue_matrix(scaled(transpose, k)) == tuple(
            zip(*residue_matrix(scaled(m, k))))


class TestUnitaryResidueInvariants:
    def test_row_and_column_parity(self):
        # unit entries of the scaled residue pattern pair up in every row
        # and column whenever the exponent is positive
        for dim in (2, 3, 4):
            for seed in range(25):
                m = random_word_matrix(dim, 14, seed=seed * 7 + dim)
                k = delta_exponent(m)
                assert k != 1  # exponent one cannot occur for a unitary
                if k == 0:
                    continue
                pattern = unit_pattern(m, k)
                for row in pattern:
                    assert sum(row) % 2 == 0
                for j in range(dim):
                    assert sum(row[j] for row in pattern) % 2 == 0

    def test_pairwise_row_overlap_even(self):
        for dim in (2, 3, 4):
            for seed in range(25):
                m = random_word_matrix(dim, 14, seed=seed * 13 + dim)
                k = delta_exponent(m)
                if k == 0:
                    continue
                pattern = unit_pattern(m, k)
                for i in range(dim):
                    for j in range(i + 1, dim):
                        overlap = sum(a & b for a, b in zip(pattern[i], pattern[j]))
                        assert overlap % 2 == 0
