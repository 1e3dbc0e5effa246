"""Exact arithmetic over Q and real quadratic extensions Q(sqrt(d)).

No float decides anything here; floats appear only in figures and are
refused as input. Rational values are plain ``fractions.Fraction``;
irrational ones are ``Surd`` instances a + b*sqrt(d), with ``+``, ``-``,
``*``, ``abs``, ``sign``, ``bounds``, ``float`` and ``str``, mixed with int
and Fraction. A rational result comes back a ``Fraction``, so a ``Surd`` is
always irrational and never equals one. ``exact_sign(a - b)`` compares two
values; ``math.floor`` and ``math.ceil`` floor and ceil them.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import index
from typing import Union

from .lattice import Value

Exact = Union[int, Fraction, "Surd"]


def _split_square(n: int) -> tuple[int, int]:
    """Return (s, d) with n = s*s*d and d squarefree.

    The power of 2 is read off the low bits, then odd f are tried while
    f^3 <= m: about n^(1/3)/2 steps. The cofactor m left has no prime
    factor below f and is below f^3, so it is 1, p, p^2 or p*q with p != q:
    a square exactly when isqrt(m)^2 == m, and squarefree otherwise.
    """
    if n <= 0:
        raise ValueError("expected a positive integer")
    k = (n & -n).bit_length() - 1  # the exponent of 2 in n
    m, s, d = n >> k, 1 << (k // 2), 1 << (k % 2)
    f = 3
    while f * f * f <= m:
        k = 0
        while m % f == 0:
            m //= f
            k += 1
        s *= f ** (k // 2)
        if k % 2:
            d *= f
        f += 2
    r = isqrt(m)
    if r * r == m:
        return s * r, d
    return s, d * m


def _refuse_floats(*xs) -> None:
    if any(isinstance(x, float) for x in xs):
        raise ValueError("a float is not exact; pass an int or Fraction")


def sqrt_exact(x) -> Exact:
    """Exact square root of a nonnegative rational, as Fraction or Surd."""
    _refuse_floats(x)
    x = Fraction(x)
    if x < 0:
        raise ValueError("square root of a negative rational")
    if x == 0:
        return Fraction(0)
    sn, dn = _split_square(x.numerator)
    sd, dd = _split_square(x.denominator)
    # sqrt(n/m) = (sn/sd) * sqrt(dn/dd) = (sn/(sd*dd)) * sqrt(dn*dd); dn and
    # dd are squarefree and coprime (n/m is reduced), so dn*dd is squarefree
    coeff, rad = Fraction(sn, sd * dd), dn * dd
    if rad == 1:
        return coeff
    return _make(Fraction(0), coeff, rad)


def _make(a: Fraction, b: Fraction, d: int) -> Exact:
    """a + b*sqrt(d), unchecked: d is squarefree, taken from a Surd or a
    fresh square split, so it is never factored again."""
    if b == 0:
        return a
    s = object.__new__(Surd)
    s.a, s.b, s.d = a, b, d
    return s


def sign_sqrt(a: Fraction, b: Fraction, r: Fraction) -> int:
    """Exact sign of a + b*sqrt(r) for rationals a, b and r >= 0, square or
    not: a*a is compared with b*b*r, so r is never factored."""
    if not b or not r:
        return (a > 0) - (a < 0)
    sb = 1 if b > 0 else -1
    if not a or (a > 0) == (sb > 0):
        return sb
    # opposite signs: compare |b*sqrt(r)| with |a| via squares
    bb, aa = b * b * r, a * a
    return sb if bb > aa else -sb if aa > bb else 0


def floor_sqrt(a: int, b: int, d: int, den: int) -> int:
    """floor((a + b*sqrt(d)) / den) for integers a, b, d >= 0 and den > 0:
    floor(b*sqrt(d)) is one isqrt, and floor(x/den) = floor(floor(x)/den)."""
    if b:
        bb = b * b * d
        r = isqrt(bb)
        a += r if b > 0 else -r - (r * r != bb)
    return a // den


class Surd(Value):
    """An irrational number a + b*sqrt(d), with a, b rational and d squarefree."""

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        _refuse_floats(a, b, d)
        b = Fraction(b)
        if b == 0:
            raise ValueError("rational value; use Fraction instead")
        s, d0 = _split_square(index(d))
        if d0 == 1:
            raise ValueError(f"{d} is a perfect square; the value is rational")
        self.a = Fraction(a)
        self.b = b * s
        self.d = d0

    # -- helpers ---------------------------------------------------------

    def _coerce(self, other) -> tuple[Fraction, Fraction]:
        if isinstance(other, Surd):
            if other.d != self.d:
                raise ValueError(
                    f"cannot mix sqrt({self.d}) and sqrt({other.d}) exactly"
                )
            return other.a, other.b
        if isinstance(other, (int, Fraction)):
            return Fraction(other), Fraction(0)
        return NotImplemented

    def sign(self) -> int:
        """Exact sign of a + b*sqrt(d)."""
        return sign_sqrt(self.a, self.b, self.d)

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        oa, ob = pair
        return _make(self.a + oa, self.b + ob, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        oa, ob = pair
        return _make(self.a - oa, self.b - ob, self.d)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _make(-self.a, -self.b, self.d)

    def __pos__(self):
        return self

    def __abs__(self):
        return self if self.sign() > 0 else -self

    def __mul__(self, other):
        pair = self._coerce(other)
        if pair is NotImplemented:
            return NotImplemented
        oa, ob = pair
        return _make(
            self.a * oa + self.b * ob * self.d,
            self.a * ob + self.b * oa,
            self.d,
        )

    __rmul__ = __mul__

    # -- conversions -----------------------------------------------------

    def bounds(self, bits: int = 64) -> tuple[Fraction, Fraction]:
        """A rational interval [lo, hi] containing the value, width <= 2*b/2^bits."""
        scale = 1 << bits
        s = isqrt(self.d * scale * scale)
        lo = self.a + self.b * Fraction(s, scale)
        hi = self.a + self.b * Fraction(s + 1, scale)
        return (lo, hi) if self.b >= 0 else (hi, lo)

    def __floor__(self) -> int:
        den = lcm(self.a.denominator, self.b.denominator)
        return floor_sqrt(int(self.a * den), int(self.b * den), self.d, den)

    def __ceil__(self) -> int:
        return -((-self).__floor__())

    def __float__(self):
        lo, hi = self.bounds(64)
        return float((lo + hi) / 2)

    def __repr__(self):
        return f"Surd({self.a}, {self.b}, {self.d})"

    def __str__(self):
        if self.a == 0:
            return f"{self.b}*sqrt({self.d})"
        return f"{self.a} + {self.b}*sqrt({self.d})"


def exact_sign(x: Exact) -> int:
    if isinstance(x, Surd):
        return x.sign()
    return (x > 0) - (x < 0)
