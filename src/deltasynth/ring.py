"""Exact arithmetic in Z[w] for w = exp(i*pi/4), and the D[w] reference.

Elements are integer coefficient vectors (a, b, c, d) standing for
a*w^3 + b*w^2 + c*w + d.  The distinguished element delta = 1 + w satisfies
delta^2 = sqrt(2) * (unit) and generates the prime ideal above 2, so every
element of D[w] = Z[1/sqrt(2), i] is num / delta^k for a unique minimal k.
That exponent is the complexity measure the synthesis engine reduces: its
case analysis reads the classes mod delta^3 of N at k = 2e and of N / delta
at k = 2e - 1, for U = N / sqrt(2)^e, with `residue_bits` and `quotient_bits`.

The package holds D[w] values as Z[w] numerators over a power of sqrt(2);
`from_sqrt2_form` and `to_sqrt2_form` convert one numerator to and from the
(a + b*sqrt(2) + i*(c + d*sqrt(2))) / sqrt(2)^m form of matrix files.
`DOmega`, one value as num / delta^k, is the tests' reference and has no
caller in the package; tests/helpers.py holds its constants.

Everything here is exact: coefficients are arbitrary-precision ints and
nothing is ever rounded.
"""

from __future__ import annotations


class ZOmega:
    """Element a*w^3 + b*w^2 + c*w + d of Z[w]."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    @classmethod
    def from_int(cls, d: int) -> ZOmega:
        return cls(0, 0, 0, d)

    def __repr__(self) -> str:
        return f"ZOmega({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self) -> str:
        return f"{self.a},{self.b},{self.c},{self.d}"

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ZOmega):
            return NotImplemented
        return (self.a == other.a and self.b == other.b
                and self.c == other.c and self.d == other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __add__(self, other: ZOmega) -> ZOmega:
        return ZOmega(self.a + other.a, self.b + other.b,
                      self.c + other.c, self.d + other.d)

    def __sub__(self, other: ZOmega) -> ZOmega:
        return ZOmega(self.a - other.a, self.b - other.b,
                      self.c - other.c, self.d - other.d)

    def __neg__(self) -> ZOmega:
        return ZOmega(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, other: ZOmega) -> ZOmega:
        if not isinstance(other, ZOmega):
            return NotImplemented
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return ZOmega(
            a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2,
            b1 * d2 + c1 * c2 + d1 * b2 - a1 * a2,
            c1 * d2 + d1 * c2 - a1 * b2 - b1 * a2,
            d1 * d2 - a1 * c2 - b1 * b2 - c1 * a2,
        )

    def mul_omega_power(self, p: int) -> ZOmega:
        """Multiply by w^p: a coefficient rotation with sign wrap (w^4 = -1)."""
        p &= 7
        a, b, c, d = self.a, self.b, self.c, self.d
        if p >= 4:
            a, b, c, d = -a, -b, -c, -d
            p -= 4
        if p == 0:
            return ZOmega(a, b, c, d)
        if p == 1:
            return ZOmega(b, c, d, -a)
        if p == 2:
            return ZOmega(c, d, -a, -b)
        return ZOmega(d, -a, -b, -c)

    def conj(self) -> ZOmega:
        """Complex conjugation: i -> -i, so w^k -> w^(-k)."""
        return ZOmega(-self.c, -self.b, -self.a, self.d)

    def __pow__(self, n: int) -> ZOmega:
        """self^n for n >= 0, by repeated squaring."""
        if n < 0:
            raise ValueError("exponent must be >= 0")
        if n == 0:
            return ZOmega(0, 0, 0, 1)
        half = self ** (n >> 1)
        return half * half * self if n & 1 else half * half


ZW_ZERO = ZOmega(0, 0, 0, 0)
ZW_ONE = ZOmega(0, 0, 0, 1)
ZW_OMEGA = ZOmega(0, 0, 1, 0)
ZW_DELTA = ZW_ONE + ZW_OMEGA
ZW_SQRT2 = ZOmega(-1, 0, 1, 0)  # w - w^3

OMEGA_POWERS = tuple(ZW_ONE.mul_omega_power(p) for p in range(8))


def divide_by_delta(x: ZOmega) -> ZOmega | None:
    """x / delta when delta divides x, else None.

    delta * (2/delta) = 2, so x * (2/delta) must have all-even coefficients
    exactly when delta | x, and halving that product is the quotient.
    """
    # x * (1 - w + w^2 - w^3), written out
    a, b, c, d = x.a, x.b, x.c, x.d
    a, b, c, d = a - b + c - d, a + b - c + d, b + c - a - d, a - b + c + d
    if (a | b | c | d) & 1:
        return None
    return ZOmega(a >> 1, b >> 1, c >> 1, d >> 1)


def times_sqrt2(x: ZOmega) -> ZOmega:
    """x * sqrt(2), with sqrt(2) = w - w^3 written out."""
    return ZOmega(x.b - x.d, x.a + x.c, x.b + x.d, x.c - x.a)


def divide_by_sqrt2(x: ZOmega) -> ZOmega | None:
    """x / sqrt(2) when sqrt(2) divides x, else None.

    sqrt(2) * sqrt(2) = 2, so x * sqrt(2) has all-even coefficients exactly
    when sqrt(2) | x, and halving that product is the quotient.
    """
    # times_sqrt2(x), written out on the hot path
    a, b, c, d = x.b - x.d, x.a + x.c, x.b + x.d, x.c - x.a
    if (a | b | c | d) & 1:
        return None
    return ZOmega(a >> 1, b >> 1, c >> 1, d >> 1)


def residue_bits(x: ZOmega) -> int:
    """The class of x mod delta^3 as one int r: bit i of r is the coordinate
    of delta^i in the additive basis {1, delta, delta^2}.

    Z[w]/(delta^3) has 8 elements and exponent-2 additive group, so the
    coordinates are bits and are linear in the coefficients mod 2.  The low
    n bits are the class mod delta^n.  x is a unit exactly when bit 0 is
    set, and a unit is w^(r >> 1) mod delta^3.
    """
    a, b, c, d = x.a & 1, x.b & 1, x.c & 1, x.d & 1
    return a ^ b ^ c ^ d | (a ^ c) << 1 | (a ^ b) << 2


# quotient_bits's values by x's coefficient parities a, b, c, d, at 8a + 4b + 2c + d
QUOTIENT_RESIDUES = tuple(
    None if (q := divide_by_delta(ZOmega(i >> 3, i >> 2 & 1, i >> 1 & 1, i & 1))) is None
    else residue_bits(q) for i in range(16))


def quotient_bits(x: ZOmega) -> int | None:
    """residue_bits(x / delta), or None when delta does not divide x; x mod
    delta^4 decides both, and delta^4 is 2 times a unit."""
    return QUOTIENT_RESIDUES[(x.a & 1) << 3 | (x.b & 1) << 2 | (x.c & 1) << 1 | x.d & 1]


# PHASE_RESIDUES[p][r] is the class of w^p * x for any x of class r, read off
# r's representative, the sum of delta^i over its set bits i.  w^4 * x = -x,
# which is x mod delta^3, so p runs over 0..3.
PHASE_RESIDUES = tuple(tuple(
    residue_bits(sum((ZW_DELTA ** i for i in range(3) if r >> i & 1), ZW_ZERO)
                 .mul_omega_power(p)) for r in range(8)) for p in range(4))


class DOmega:
    """num / delta^k in D[w], kept in canonical form: the tests' reference.

    Canonical: k == 0, or delta does not divide num; and num == 0 forces
    k == 0.  The constructor reduces any (num, k) pair, so k afterwards is
    the least delta-exponent of the value and equality is structural.
    """

    __slots__ = ("num", "k")

    def __init__(self, num: ZOmega, k: int) -> None:
        if k < 0:
            raise ValueError("delta exponent must be >= 0")
        if not num:
            self.num = ZW_ZERO
            self.k = 0
            return
        while k > 0:
            quotient = divide_by_delta(num)
            if quotient is None:
                break
            num = quotient
            k -= 1
        self.num = num
        self.k = k

    def __repr__(self) -> str:
        return f"DOmega({self.num!r}, {self.k})"

    def __str__(self) -> str:
        return f"{self.num}/{self.k}"

    def __bool__(self) -> bool:
        return bool(self.num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DOmega):
            return NotImplemented
        return self.k == other.k and self.num == other.num

    def __hash__(self) -> int:
        return hash((self.num, self.k))

    def lift_to(self, k: int) -> ZOmega:
        """num scaled so the value equals result / delta^k (k >= self.k)."""
        return self.num * ZW_DELTA ** (k - self.k)

    def __add__(self, other: DOmega) -> DOmega:
        k = self.k if self.k >= other.k else other.k
        return DOmega(self.lift_to(k) + other.lift_to(k), k)

    def __sub__(self, other: DOmega) -> DOmega:
        k = self.k if self.k >= other.k else other.k
        return DOmega(self.lift_to(k) - other.lift_to(k), k)

    def __neg__(self) -> DOmega:
        return DOmega(-self.num, self.k)

    def __mul__(self, other: DOmega) -> DOmega:
        return DOmega(self.num * other.num, self.k + other.k)

    def mul_omega_power(self, p: int) -> DOmega:
        return DOmega(self.num.mul_omega_power(p), self.k)

    def conj(self) -> DOmega:
        """Complex conjugation."""
        # conj(delta) = 1 + w^-1 = w^-1 * delta, so the denominator
        # contributes a factor w^k to the numerator.
        return DOmega(self.num.conj().mul_omega_power(self.k), self.k)


def from_sqrt2_form(a: int, b: int, c: int, d: int) -> ZOmega:
    """a + b*sqrt(2) + i*(c + d*sqrt(2)) as an element of Z[w]."""
    # 1 = w^0, i = w^2, sqrt(2) = w - w^3, i*sqrt(2) = w + w^3.
    return ZOmega(d - b, c, b + d, a)


def to_sqrt2_form(z: ZOmega, e: int) -> tuple[int, int, int, int, int]:
    """(a, b, c, d, m) with (a + b*sqrt(2) + i*(c + d*sqrt(2))) / sqrt(2)^m
    equal to z / sqrt(2)^e and m least."""
    while e and (half := divide_by_sqrt2(z)) is not None:
        z, e = half, e - 1
    if (z.a ^ z.c) & 1:
        # Real and imaginary parts sit on half-integer sqrt(2) multiples;
        # widen the denominator by one sqrt(2) to clear them.
        z, e = times_sqrt2(z), e + 1
    return (z.d, (z.c - z.a) >> 1, z.b, (z.c + z.a) >> 1, e)
