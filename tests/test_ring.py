import random

from hypothesis import example, given, settings, strategies as st

import pytest

from deltasynth.cli import parse_matrix, render_matrix
from deltasynth.linalg import ExactMatrix, residue_matrix
from deltasynth.ring import (
    DOmega,
    OMEGA_POWERS,
    PHASE_RESIDUES,
    QUOTIENT_RESIDUES,
    ZOmega,
    ZW_DELTA,
    ZW_OMEGA,
    ZW_ONE,
    ZW_SQRT2,
    ZW_ZERO,
    divide_by_delta,
    divide_by_sqrt2,
    from_sqrt2_form,
    quotient_bits,
    residue_bits,
    times_sqrt2,
    to_sqrt2_form,
)
from helpers import (D_INV_SQRT2, D_ONE, D_ZERO, TWO_OVER_DELTA, TWO_PLUS_SQRT2, UNIT_SQRT2,
                     UNIT_SQRT2_INV, ZW_DELTA2, conj_sq2, domega, exact, scaled)

coeff = st.integers(min_value=-30, max_value=30)
zomega = st.builds(ZOmega, coeff, coeff, coeff, coeff)
domega_values = st.builds(DOmega, zomega, st.integers(min_value=0, max_value=6))
# numerators that sqrt(2) divides a few times, so halving has work to do
sqrt2_multiples = st.builds(lambda z, s: z * ZW_SQRT2 ** s, zomega,
                            st.integers(min_value=0, max_value=3))


class TestZOmega:
    def test_frozen_products(self):
        # hand-expanded: (1+w)^2 = 1 + 2w + w^2
        assert ZW_DELTA * ZW_DELTA == ZOmega(0, 1, 2, 1)
        # w * w^3 = w^4 = -1
        assert ZW_OMEGA * ZOmega(1, 0, 0, 0) == ZOmega(0, 0, 0, -1)
        assert ZW_DELTA * TWO_OVER_DELTA == ZOmega.from_int(2)
        # UNIT_SQRT2 is a unit; its inverse is built from its conjugates
        assert UNIT_SQRT2 * UNIT_SQRT2_INV == ZW_ONE
        assert ZW_DELTA2 == ZW_SQRT2 * UNIT_SQRT2
        assert ZW_DELTA.conj() * ZW_DELTA == TWO_PLUS_SQRT2

    def test_omega_power_rotation(self):
        @given(x=zomega, p=st.integers(min_value=-8, max_value=16))
        def check(x, p):
            assert x.mul_omega_power(p) == x * OMEGA_POWERS[p % 8]
        check()

    @given(x=zomega, p=st.integers(min_value=0, max_value=7),
           c=st.sampled_from([0, 10 ** 999 + 7, -(10 ** 999) - 3,
                              *range(-7, 0), *range(1, 8)]))
    def test_product_with_scaled_omega_power(self, x, p, c):
        """x * (c * w^p) rotates x by p and scales every coefficient by c;
        c = 0 covers the zero operand."""
        y = ZOmega.from_int(c).mul_omega_power(p)
        rot = x.mul_omega_power(p)
        expected = ZOmega(rot.a * c, rot.b * c, rot.c * c, rot.d * c)
        assert x * y == y * x == expected

    @given(x=zomega, y=zomega, z=zomega)
    def test_ring_laws(self, x, y, z):
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZW_ZERO == x
        assert x * ZW_ONE == x
        assert x - x == ZW_ZERO

    @given(x=zomega, n=st.integers(min_value=0, max_value=12))
    def test_power_is_repeated_product(self, x, n):
        product = ZW_ONE
        for _ in range(n):
            product = product * x
        assert x ** n == product
        with pytest.raises(ValueError):
            x ** -1

    @given(x=zomega)
    def test_conjugations_are_involutions(self, x):
        assert x.conj().conj() == x
        assert conj_sq2(conj_sq2(x)) == x
        assert conj_sq2(x.conj()) == conj_sq2(x).conj()

    @given(x=zomega, y=zomega)
    def test_conjugations_are_ring_maps(self, x, y):
        assert (x + y).conj() == x.conj() + y.conj()
        assert (x * y).conj() == x.conj() * y.conj()
        assert conj_sq2(x + y) == conj_sq2(x) + conj_sq2(y)
        assert conj_sq2(x * y) == conj_sq2(x) * conj_sq2(y)

    def test_conj_fixes_reals_and_negates_i(self):
        i = ZOmega(0, 1, 0, 0)  # w^2
        assert i.conj() == -i
        assert ZW_SQRT2.conj() == ZW_SQRT2
        assert ZW_OMEGA.conj() == -ZOmega(1, 0, 0, 0)  # w^-1 = -w^3
        assert ZW_DELTA.conj() == ZOmega(-1, 0, 0, 1)

    def test_conj_sq2_negates_sqrt2(self):
        assert conj_sq2(ZW_SQRT2) == -ZW_SQRT2
        assert conj_sq2(ZOmega(0, 1, 0, 0)) == ZOmega(0, 1, 0, 0)
        assert conj_sq2(ZW_DELTA) == ZOmega(0, 0, -1, 1)


class TestDeltaDivisibility:
    def test_frozen_quotients(self):
        assert divide_by_delta(ZW_DELTA2) == ZW_DELTA
        assert divide_by_delta(ZW_ONE) is None
        assert divide_by_delta(ZW_ZERO) == ZW_ZERO
        assert divide_by_delta(ZOmega.from_int(2)) == TWO_OVER_DELTA

    @given(x=zomega)
    def test_times_delta_round_trip(self, x):
        assert divide_by_delta(x * ZW_DELTA) == x

    @given(x=zomega)
    def test_divisible_iff_residue_zero(self, x):
        q = divide_by_delta(x)
        assert (q is None) == (residue_bits(x) & 1 == 1)
        if q is not None:
            assert q * ZW_DELTA == x

    @given(x=st.one_of(zomega, zomega.map(lambda z: z * ZW_DELTA),
                       st.builds(ZOmega, *[st.integers()] * 4)))
    def test_matches_product_form(self, x):
        # the reference: x * (2/delta), halved when every coefficient is even
        y = x * TWO_OVER_DELTA
        expected = None if (y.a | y.b | y.c | y.d) & 1 else ZOmega(
            y.a >> 1, y.b >> 1, y.c >> 1, y.d >> 1)
        assert divide_by_delta(x) == expected

    @given(x=zomega)
    def test_divisible_iff_reducible_class(self, x):
        # mod delta^3 the non-unit classes are exactly the multiples of delta
        assert (divide_by_delta(x) is not None) == (residue_bits(x) & 1 == 0)


class TestSqrt2Divisibility:
    def test_frozen_quotients(self):
        assert divide_by_sqrt2(ZOmega.from_int(2)) == ZW_SQRT2
        assert divide_by_sqrt2(ZW_DELTA2) == UNIT_SQRT2
        assert divide_by_sqrt2(ZW_DELTA) is None
        assert divide_by_sqrt2(ZW_ZERO) == ZW_ZERO

    @given(x=zomega)
    def test_inverts_times_sqrt2(self, x):
        assert times_sqrt2(x) == x * ZW_SQRT2
        assert divide_by_sqrt2(times_sqrt2(x)) == x

    @given(x=zomega)
    def test_none_iff_sqrt2_does_not_divide(self, x):
        # sqrt(2) is delta^2 times a unit
        once = divide_by_delta(x)
        twice = None if once is None else divide_by_delta(once)
        q = divide_by_sqrt2(x)
        assert (q is None) == (twice is None)
        if q is not None:
            assert q * ZW_SQRT2 == x


# the eight classes mod delta^3, as (element, class); bit i of the class
# is the coordinate of delta^i
BASIS_TABLE = [
    (ZW_ZERO, 0b000),
    (ZW_ONE + ZW_OMEGA, 0b010),
    (ZW_ONE + ZOmega(0, 1, 0, 0), 0b100),
    (ZW_ONE + ZOmega(1, 0, 0, 0), 0b110),
    (ZW_ONE, 0b001),
    (ZW_OMEGA, 0b011),
    (ZOmega(0, 1, 0, 0), 0b101),
    (ZOmega(1, 0, 0, 0), 0b111),
]


class TestResidues:
    def test_basis_table(self):
        for element, bits in BASIS_TABLE:
            assert residue_bits(element) == bits

    @given(x=zomega)
    def test_bits_name_the_class(self, x):
        # independent oracle: x minus the representative
        # bit 0 + bit 1 * delta + bit 2 * delta^2 must be divisible by
        # delta three times
        bits = residue_bits(x)
        diff = x
        for i, basis in enumerate((ZW_ONE, ZW_DELTA, ZW_DELTA2)):
            if bits >> i & 1:
                diff = diff - basis
        for _ in range(3):
            diff = divide_by_delta(diff)
            assert diff is not None

    def test_quotient_sizes(self):
        for n in (1, 2, 3):
            classes = {residue_bits(element) & ((1 << n) - 1) for element, _ in BASIS_TABLE}
            assert len(classes) == 2 ** n

    def test_additive_exponent_two(self):
        # x + x = 2x = 0 mod delta^3 since 2 is delta^4 times a unit
        for element, _ in BASIS_TABLE:
            assert residue_bits(element + element) == 0

    def test_key_congruences(self):
        assert residue_bits(ZOmega.from_int(2)) == 0
        assert residue_bits(ZOmega.from_int(-1)) == residue_bits(ZW_ONE)
        assert residue_bits(ZW_ONE.mul_omega_power(4)) == residue_bits(ZW_ONE)

    def test_unit_exponents(self):
        # a unit is w^s mod delta^3 with s = bits >> 1
        for s in range(8):
            bits = residue_bits(OMEGA_POWERS[s])
            assert bits & 1 == 1
            assert bits >> 1 == s % 4
        assert residue_bits(ZW_DELTA) & 1 == 0

    @given(x=zomega)
    def test_phase_table(self, x):
        # the class of w^p * z for p in 0..7, for a representative of every
        # class and for x
        for z in (x, *(element for element, _ in BASIS_TABLE)):
            for p in range(8):
                assert (PHASE_RESIDUES[p % 4][residue_bits(z)]
                        == residue_bits(z.mul_omega_power(p)))

    def test_unit_sum_cancellation(self):
        # w^x + w^y = 0 mod delta^3 exactly when x = y mod 4
        for x in range(8):
            for y in range(8):
                total = OMEGA_POWERS[x] + OMEGA_POWERS[y]
                assert (residue_bits(total) == 0) == ((x - y) % 4 == 0)


def quotient_class(x):
    """The reference for quotient_bits: divide, then read the class."""
    q = divide_by_delta(x)
    return None if q is None else residue_bits(q)


class TestQuotientResidues:
    def test_table_on_parity_classes(self):
        # index 8a + 4b + 2c + d for coefficient parities a, b, c, d
        assert len(QUOTIENT_RESIDUES) == 16
        for i in range(16):
            x = ZOmega(i >> 3 & 1, i >> 2 & 1, i >> 1 & 1, i & 1)
            assert QUOTIENT_RESIDUES[i] == quotient_bits(x) == quotient_class(x)

    def test_seeded_sweep(self):
        # x mod 2 fixes x / delta mod delta^3, for coefficients of any size
        rng = random.Random(33)
        seen = set()
        for _ in range(2000):
            x = ZOmega(*(rng.randrange(-2 ** 80, 2 ** 80) for _ in range(4)))
            if rng.random() < 0.5:
                x = x * ZW_DELTA
            assert quotient_bits(x) == quotient_class(x)
            seen.add(quotient_bits(x))
        assert seen == {None, *range(8)}

    @given(x=st.builds(ZOmega, *[st.integers()] * 4))
    def test_none_iff_delta_does_not_divide(self, x):
        assert (quotient_bits(x) is None) == (divide_by_delta(x) is None)
        assert quotient_bits(x * ZW_DELTA) == residue_bits(x)


class TestDOmega:
    def test_canonicalization(self):
        assert DOmega(ZW_DELTA2, 2) == D_ONE
        assert DOmega(ZW_DELTA2, 1) == DOmega(ZW_DELTA, 0)
        assert DOmega(ZW_ZERO, 5) == D_ZERO
        assert DOmega(ZW_DELTA, 0).k == 0  # k = 0 admits divisible numerators
        x = DOmega(UNIT_SQRT2 * ZW_DELTA, 3)
        assert x.num == UNIT_SQRT2 and x.k == 2

    def test_inv_sqrt2(self):
        assert D_INV_SQRT2.k == 2
        assert D_INV_SQRT2.num == UNIT_SQRT2
        assert D_INV_SQRT2 * D_INV_SQRT2 == domega(from_sqrt2_form(1, 0, 0, 0), 2)
        sqrt2 = domega(from_sqrt2_form(0, 1, 0, 0), 0)
        assert D_INV_SQRT2 + D_INV_SQRT2 == sqrt2
        assert D_INV_SQRT2 * sqrt2 == D_ONE

    @given(x=domega_values, y=domega_values, z=domega_values)
    def test_ring_laws(self, x, y, z):
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) - y == x
        assert x * D_ONE == x and x + D_ZERO == x

    @given(x=domega_values)
    def test_results_are_canonical(self, x):
        assert x.k == 0 or divide_by_delta(x.num) is None

    @given(x=domega_values, p=st.integers(min_value=0, max_value=7))
    def test_omega_scaling(self, x, p):
        scaled = x.mul_omega_power(p)
        assert scaled.k == x.k
        assert scaled == x * DOmega(OMEGA_POWERS[p], 0)

    @given(x=domega_values, y=domega_values)
    def test_conj(self, x, y):
        assert x.conj().conj() == x
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()

    def test_conj_fixed_points(self):
        assert D_INV_SQRT2.conj() == D_INV_SQRT2
        t = DOmega(ZW_OMEGA, 0)
        assert t.conj() == DOmega(-ZOmega(1, 0, 0, 0), 0)

    @settings(max_examples=20)
    @given(x=domega_values)
    def test_lift_is_stepwise_product(self, x):
        step = x.num
        for gap in range(301):
            assert x.lift_to(x.k + gap) == step
            step = step * ZW_DELTA
        with pytest.raises(ValueError):
            x.lift_to(x.k - 1)

    def test_residue_at(self):
        # scaled H entry: delta^2 * (1/sqrt(2)) = unit in the w^3 class
        assert scaled(exact([[D_INV_SQRT2]]), 2) == [[UNIT_SQRT2]]
        assert residue_bits(D_INV_SQRT2.lift_to(2)) == 0b111
        assert residue_bits(D_ONE.lift_to(3)) == 0
        assert D_ONE.lift_to(2) == ZW_DELTA2
        with pytest.raises(ValueError):
            scaled(exact([[D_INV_SQRT2]]), 1)

    @given(x=domega_values, n=st.integers(min_value=1, max_value=3),
           extra=st.integers(min_value=0, max_value=4))
    def test_residue_at_matches_scaling(self, x, n, extra):
        # residues at exponent k are those of the numerator times delta^extra
        k = x.k + extra
        num = x.num
        for _ in range(extra):
            num = num * ZW_DELTA
        rows = scaled(exact([[x]]), k)
        assert rows == [[num]]
        assert DOmega(rows[0][0], k) == x
        bits = residue_matrix(rows)[0][0]
        mask = (1 << n) - 1
        assert bits & mask == residue_bits(num) & mask
        if extra == 0 and x.k > 0:
            assert bits & 1 == 1  # a canonical numerator is a unit mod delta
        if extra >= 3:
            assert bits == 0


def has_sqrt2_form(z):
    """Whether z is a + b*sqrt(2) + i*(c + d*sqrt(2)) for integers a..d."""
    return not (z.a ^ z.c) & 1


class TestSqrt2Form:
    def test_frozen_conversions(self):
        assert domega(from_sqrt2_form(1, 0, 0, 0), 0) == D_ONE
        assert domega(from_sqrt2_form(1, 0, 0, 0), 1) == D_INV_SQRT2
        assert domega(from_sqrt2_form(0, 0, 1, 0), 0) == DOmega(ZOmega(0, 1, 0, 0), 0)
        assert domega(from_sqrt2_form(2, 0, 0, 0), 2) == D_ONE
        assert to_sqrt2_form(ZW_ONE, 0) == (1, 0, 0, 0, 0)
        assert to_sqrt2_form(ZW_ONE, 1) == (1, 0, 0, 0, 1)
        assert to_sqrt2_form(ZW_ZERO, 0) == (0, 0, 0, 0, 0)
        assert to_sqrt2_form(ZW_ZERO, 7) == (0, 0, 0, 0, 0)
        assert to_sqrt2_form(ZOmega.from_int(2), 2) == (1, 0, 0, 0, 0)

    def test_omega_in_sqrt2_form(self):
        # w = (1 + i)/sqrt(2)
        assert domega(from_sqrt2_form(1, 0, 1, 0), 1) == DOmega(ZW_OMEGA, 0)
        assert to_sqrt2_form(ZW_OMEGA, 0) == (1, 0, 1, 0, 1)

    @given(a=coeff, b=coeff, c=coeff, d=coeff,
           m=st.integers(min_value=0, max_value=4096))
    @example(a=1, b=-2, c=3, d=5, m=4096)
    def test_round_trip_from_components(self, a, b, c, d, m):
        z = from_sqrt2_form(a, b, c, d)
        *form, k = to_sqrt2_form(z, m)
        assert domega(from_sqrt2_form(*form), k) == domega(z, m)

    @given(x=domega_values)
    def test_round_trip_from_value(self, x):
        m = exact([[x]])
        *form, k = to_sqrt2_form(m.rows[0][0], m.e)
        assert domega(from_sqrt2_form(*form), k) == x

    @given(a=coeff, b=coeff, c=coeff, d=coeff,
           m=st.integers(min_value=0, max_value=4))
    def test_widening_denominator_preserves_value(self, a, b, c, d, m):
        x = ExactMatrix([[from_sqrt2_form(a, b, c, d)]], m)
        widened = ExactMatrix([[from_sqrt2_form(2 * a, 2 * b, 2 * c, 2 * d)]], m + 2)
        assert widened == x

    @given(data=st.data(), dim=st.integers(min_value=1, max_value=4),
           e=st.integers(min_value=0, max_value=6), p=st.integers(min_value=0, max_value=4))
    @settings(max_examples=150)
    def test_conversions_match_reference(self, data, dim, e, p):
        # the per-entry form names the reference value with m least, a
        # shared factor sqrt(2)^p cancels, and a rendered matrix reads back
        grid = data.draw(st.lists(st.lists(sqrt2_multiples, min_size=dim, max_size=dim),
                                  min_size=dim, max_size=dim))
        m = ExactMatrix(grid, e)
        for z in (z for row in grid for z in row):
            *form, k = to_sqrt2_form(z, e)
            numerator = from_sqrt2_form(*form)
            assert domega(numerator, k) == domega(z, e)
            half = divide_by_sqrt2(numerator)
            assert k == 0 or half is None or not has_sqrt2_form(half)
        widened = ExactMatrix(([z * ZW_SQRT2 ** p for z in row] for row in grid), e + p)
        assert widened == m
        assert parse_matrix(render_matrix(m)) == m
