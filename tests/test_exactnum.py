"""Exact quadratic-surd arithmetic."""

import math
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, strategies as st

from gridrays import exactnum
from gridrays.exactnum import Surd, exact_sign, sign_sqrt, sqrt_exact
from gridrays.rays import digitize


def test_sqrt_of_perfect_square_is_rational():
    assert sqrt_exact(4) == 2
    assert sqrt_exact(Fraction(9, 16)) == Fraction(3, 4)
    assert not isinstance(sqrt_exact(Fraction(49, 25)), Surd)


def test_sqrt_two_is_irrational_surd():
    r = sqrt_exact(2)
    assert isinstance(r, Surd)
    assert not isinstance(r, (int, Fraction))
    assert r * r == 2


def test_square_factor_extraction():
    # sqrt(8) = 2 sqrt(2): the two objects must compare equal
    assert sqrt_exact(8) == 2 * sqrt_exact(2)
    assert sqrt_exact(Fraction(1, 2)) * sqrt_exact(2) == 1


def test_arithmetic_and_comparisons():
    r = sqrt_exact(2)
    assert exact_sign(r - 1) > 0 > exact_sign(r - Fraction(3, 2))
    assert (1 + r) * (1 - r) == -1  # conjugate product
    assert r + r == 2 * r
    assert exact_sign(r - Fraction(141421356, 100000000)) == 1
    assert exact_sign(r - Fraction(141421357, 100000000)) == -1


def test_floor_ceil_match_float_for_safe_values():
    for n in (2, 3, 5, 26, 99):
        r = sqrt_exact(n)
        assert math.floor(r) == math.floor(math.sqrt(n))
        assert math.ceil(r) == math.ceil(math.sqrt(n))
    assert math.floor(-sqrt_exact(2)) == -2
    assert math.ceil(-sqrt_exact(2)) == -1


@given(st.fractions(min_value=0, max_value=1000, max_denominator=1000))
def test_sqrt_squares_back(q):
    r = sqrt_exact(q)
    assert r * r == q
    assert exact_sign(r) == (1 if q > 0 else 0)


@given(st.integers(min_value=1, max_value=500), st.integers(-50, 50),
       st.integers(-50, 50))
def test_ordering_consistent_with_floats(n, a, b):
    r = sqrt_exact(n)
    x = a + b * r
    if isinstance(x, Surd):
        approx = a + b * math.sqrt(n)
        if abs(approx) > 1e-6:
            assert exact_sign(x) == (1 if approx > 0 else -1)
        assert math.floor(x) <= approx < math.floor(x) + 1


def test_rational_results_collapse_to_fraction():
    r = sqrt_exact(3)
    assert not isinstance(r - r, Surd)
    assert r - r == 0
    assert isinstance(r * r, (int, Fraction))


def test_invalid_sqrt():
    with pytest.raises(ValueError):
        sqrt_exact(-1)


@pytest.mark.parametrize("build", [
    lambda: Surd(0, 1, 2.7),  # int(2.7) made this sqrt(2)
    lambda: digitize(1, Surd(0, 1, 2.7)),
    lambda: Surd(0.1, 1, 2),  # the float's binary value, not 1/10
    lambda: sqrt_exact(0.1),  # radicand 7205759403792794
], ids=["radicand", "digitize", "coefficient", "sqrt_exact"])
def test_floats_are_refused(build):
    with pytest.raises(ValueError, match="float"):
        build()


def test_surd_has_no_division_or_ordering():
    r = sqrt_exact(2)
    for op in (lambda: r / 2, lambda: 1 / r, lambda: r < 2, lambda: 1 >= r):
        with pytest.raises(TypeError):
            op()


def test_sqrt_exact_splits_numerator_and_denominator_once(monkeypatch):
    calls = []
    real = exactnum._split_square
    want = Surd(0, Fraction(2, 3), 6)
    monkeypatch.setattr(exactnum, "_split_square",
                        lambda n: calls.append(n) or real(n))
    # sqrt(8/3) = (2/3) sqrt(6): dn*dd = 2*3 is squarefree, no third split
    assert sqrt_exact(Fraction(8, 3)) == want
    assert calls == [8, 3]


def test_surd_arithmetic_never_refactors(monkeypatch):
    r = sqrt_exact(Fraction(7, 3))
    one_plus = 1 + r

    def boom(n):
        raise AssertionError(f"refactored {n}")

    monkeypatch.setattr(exactnum, "_split_square", boom)
    assert -(-r) == r and abs(-r) == r
    assert (r + 1) - 1 == r and 2 - r == -(r - 2)
    assert r * r == Fraction(7, 3)
    assert one_plus * one_plus == 2 * r + Fraction(10, 3)
    assert exact_sign(r - 1) > 0 > exact_sign(r - 2)
    assert math.floor(-r) == -2 and math.ceil(r) == 2


def test_sign_sqrt_exact_cases():
    assert sign_sqrt(Fraction(-2), Fraction(1), Fraction(4)) == 0
    assert sign_sqrt(Fraction(3, 2), Fraction(-1), Fraction(9, 4)) == 0
    assert sign_sqrt(Fraction(-2), Fraction(1), Fraction(5)) == 1
    assert sign_sqrt(Fraction(5), Fraction(-9), Fraction(0)) == 1
    assert sign_sqrt(Fraction(0), Fraction(0), Fraction(2)) == 0
    assert sign_sqrt(Fraction(0), Fraction(-1), Fraction(3)) == -1


small = st.fractions(min_value=-40, max_value=40, max_denominator=12)


@given(small, small, st.fractions(min_value=0, max_value=400,
                                  max_denominator=30))
def test_sign_sqrt_matches_enclosure(a, b, r):
    n, m = r.numerator, r.denominator
    if b == 0 or (isqrt(n) ** 2 == n and isqrt(m) ** 2 == m):
        x = a + b * Fraction(isqrt(n), isqrt(m))
        want = (x > 0) - (x < 0)
    else:
        # sqrt(r) = sqrt(n m) / m lies in [s, s+1] / (m 2^256); the value is
        # irrational, hence nonzero, and the enclosure is far narrower
        s = isqrt(n * m << 512)
        lo = a + b * Fraction(s, m << 256)
        hi = a + b * Fraction(s + 1, m << 256)
        assert (lo > 0) == (hi > 0)
        want = 1 if lo > 0 else -1
    assert sign_sqrt(a, b, r) == want


def _floor_by_refinement(x):
    """Surd floor as it used to be found: narrow [lo, hi] until both ends
    share a floor."""
    bits = 32
    while True:
        lo, hi = x.bounds(bits)
        if lo.numerator // lo.denominator == hi.numerator // hi.denominator:
            return lo.numerator // lo.denominator
        bits *= 2


@given(small, small.filter(bool), st.sampled_from([2, 3, 5, 6, 7, 10, 9973,
                                                    10**12 + 39]))
def test_floor_matches_bounds_refinement(a, b, d):
    x = exactnum._make(a, b, d)  # unchecked, so the large d is not factored
    assert math.floor(x) == _floor_by_refinement(x)
    assert math.ceil(x) == -_floor_by_refinement(-x)


def test_floor_sqrt_integer_cases():
    assert exactnum.floor_sqrt(0, 1, 4, 1) == 2  # a square radicand is exact
    assert exactnum.floor_sqrt(0, -1, 4, 1) == -2
    assert exactnum.floor_sqrt(0, -1, 2, 1) == -2
    assert exactnum.floor_sqrt(7, 0, 0, 2) == 3
    assert exactnum.floor_sqrt(-7, 0, 0, 2) == -4
    assert exactnum.floor_sqrt(1, 3, 2, 5) == 1  # (1 + 3*sqrt2)/5 = 1.05


def _split_square_by_sqrt_trial(n):
    """The square split as it used to be found: trial division up to sqrt."""
    s, d = 1, 1
    f = 2
    m = n
    while f * f <= m:
        k = 0
        while m % f == 0:
            m //= f
            k += 1
        s *= f ** (k // 2)
        if k % 2:
            d *= f
        f += 1
    d *= m
    return s, d


# primes up to ~10^5 keep the sqrt-trial oracle fast; the cube-root loop
# must still classify their squares and products from the cofactor alone
PRIMES = [2, 3, 5, 7, 11, 13, 97, 101, 997, 1009, 9973, 10007, 65521, 65537,
          99989, 99991]


@given(st.sampled_from(PRIMES), st.sampled_from(PRIMES),
       st.integers(1, 3), st.integers(0, 3), st.integers(1, 60))
def test_split_square_matches_sqrt_trial(p, q, a, b, small_factor):
    # covers p^2, p*q and p^2*q (a = 2, b = 1) with large primes
    n = p ** a * q ** b * small_factor
    assert exactnum._split_square(n) == _split_square_by_sqrt_trial(n)


@given(st.integers(1, 10 ** 7))
def test_split_square_matches_sqrt_trial_on_integers(n):
    assert exactnum._split_square(n) == _split_square_by_sqrt_trial(n)


def test_split_square_large_prime_cofactors():
    p, q = 999983, 1000003  # primes near 10^6
    assert exactnum._split_square(p * p) == (p, 1)
    assert exactnum._split_square(p * q) == (1, p * q)
    assert exactnum._split_square(12 * p * p) == (2 * p, 3)
    assert exactnum._split_square(1000000000039) == (1, 1000000000039)
    k = sqrt_exact(Fraction(1000000000039, 1000000000000))
    assert (k.a, k.b, k.d) == (0, Fraction(1, 1000000), 1000000000039)


@given(st.integers(-10 ** 6, 10 ** 6), st.integers(-10 ** 6, 10 ** 6),
       st.integers(0, 10 ** 4), st.integers(1, 10 ** 4))
def test_sign_sqrt_integer_form_matches_rational_form(a, b, r, rd):
    # a + b sqrt(r/rd) has the sign of a*rd + b sqrt(r*rd), all integers
    assert sign_sqrt(a * rd, b, r * rd) == sign_sqrt(Fraction(a), Fraction(b),
                                                     Fraction(r, rd))
