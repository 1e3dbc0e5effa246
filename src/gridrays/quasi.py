"""Quasi-isometry certificates between the plane and the grid.

The three maps of interest: the floor map from the Euclidean plane onto
the grid, the inclusion of the grid back into the plane, and the identity
between two word metrics from different generating sets. All verdicts are
exact: Euclidean distances are compared through their squared rational
values, so a multiplicative constant k enters only as k^2 (which lets the
boundary case k = sqrt(2) be tested exactly). Every verdict is an integer
cross-multiplication; a Fraction or Surd is built only for the margin of a
side that fails.

A floor or inclusion claim that holds for every pair of the map's domain
is decided by :func:`proven`, an integer comparison on k^2 and c, and
then reads no pair: the floor map holds iff k^2 >= 2 and c >= 2, the
inclusion iff k^2 >= 2. The per-pair kernel decides everything else.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import islice, repeat
from math import floor, gcd, isqrt
from typing import Iterable, Iterator, Optional, Sequence, Union

from .exactnum import Exact, Surd, _make, sign_sqrt, sqrt_exact
from .lattice import GeneratingSet, LatticePoint, Value

PlanePoint = tuple[Fraction, Fraction]

Pair = tuple[tuple, tuple]


def floor_map(p: PlanePoint) -> LatticePoint:
    """Componentwise floor, the quasi-isometry from the plane to the grid."""
    return (floor(p[0]), floor(p[1]))


def _pair_terms(p, q) -> tuple[int, int, int, int]:
    """Integers (X, Y, t, g) for two rational points (int or Fraction
    coordinates): p - q = (X/t, Y/t) with t > 0, and g is the word metric
    between floor(p) and floor(q). Each coordinate is read once, through
    the public ``as_integer_ratio`` of int and Fraction."""
    a, b = p[0].as_integer_ratio()
    e, f = p[1].as_integer_ratio()
    h, i = q[0].as_integer_ratio()
    m, n = q[1].as_integer_ratio()
    g = abs(a // b - h // i) + abs(e // f - m // n)
    X, tx = a * i - h * b, b * i
    Y, ty = e * n - m * f, f * n
    if tx == ty:
        return X, Y, tx, g
    return X * ty, Y * tx, tx * ty, g


class QIParams(Value):
    """Constants (k, c) of a quasi-isometric embedding, k >= 1, c >= 0.

    ``k_sq`` is the authoritative field; pass ``k`` for rational constants
    or use :meth:`from_k_squared` for symbolic square roots.
    """

    __slots__ = ("k_sq", "c", "k_label", "_ints", "_k")

    def __init__(self, k_sq: Fraction, c: Fraction, k_label: str = ""):
        k_sq, c = Fraction(k_sq), Fraction(c)
        if k_sq < 1 or c < 0:
            raise ValueError("need k >= 1 and c >= 0")
        self.k_sq, self.c, self.k_label = k_sq, c, k_label or f"sqrt({k_sq})"
        self._k = None  # sqrt(k_sq), on first use
        # k^2 = K/Kd and c = C/Cd, plus K*Cd^2, Kd*Cd^2 and K*Kd, for
        # _violations
        K, Kd = k_sq.numerator, k_sq.denominator
        C, Cd = c.numerator, c.denominator
        self._ints = (K, Kd, C, Cd, K * Cd * Cd, Kd * Cd * Cd, K * Kd)

    @classmethod
    def from_k(cls, k, c) -> "QIParams":
        k = Fraction(k)
        if k < 1:  # k * k would pass for a negative k
            raise ValueError("need k >= 1 and c >= 0")
        return cls(k * k, Fraction(c), k_label=str(k))

    @classmethod
    def from_k_squared(cls, k_sq, c) -> "QIParams":
        return cls(Fraction(k_sq), Fraction(c))

    @property
    def k(self) -> Exact:
        """k = sqrt(k_sq) exactly, factored on first use only."""
        if self._k is None:
            self._k = sqrt_exact(self.k_sq)
        return self._k


class Violation(Value):
    # side "upper" or "lower"; margin L^2 - R^2 > 0 of its L <= R failing
    __slots__ = ("pair", "side", "margin")

    def __init__(self, pair: Pair, side: str, margin: Exact):
        self.pair, self.side, self.margin = pair, side, margin


class QIReport(Value):
    __slots__ = ("map_name", "params", "pairs_checked", "violations")

    def __init__(self, map_name: str, params: QIParams, pairs_checked: int = 0,
                 violations: Optional[list] = None):
        self.map_name, self.params = map_name, params
        self.pairs_checked = pairs_checked
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


def _violations(pair: Pair, params: QIParams, d: int, sq: int, t: int,
                d_is_target: bool) -> list[Violation]:
    """Upper d_Y <= k d_X + c and lower d_X <= k (d_Y + c) for the distances
    d/t and sqrt(sq)/t (integers, t > 0). A side L <= R fails when L > 0 and
    L^2 > R^2; with k^2 = K/Kd and c = C/Cd, each test is one comparison of
    integers scaled by D = Kd Cd^2 t^2, and a margin (L^2 - R^2) is built
    only for a side that fails. If d is d_Y, c stays beside it and every term
    is rational; if d is d_X, c stays beside d_X, and each sign of a + b*k,
    that is of a*Kd + b*sqrt(K*Kd), is decided by sign_sqrt unfactored.
    """
    K, Kd, C, Cd, KC2, KdC2, KKd = params._ints
    out = []
    if d_is_target:
        # upper: L = d_Y - c = u / (t Cd), R^2 = k^2 d_X^2
        u = d * Cd - C * t
        if u > 0:
            m = u * u * Kd - KC2 * sq
            if m > 0:
                out.append(Violation(pair, "upper", Fraction(m, KdC2 * t * t)))
        # lower: L^2 = d_X^2, R = k (d_Y + c) = k w / (t Cd)
        w = d * Cd + C * t
        m = sq * KdC2 - K * w * w
        if m > 0:
            out.append(Violation(pair, "lower", Fraction(m, KdC2 * t * t)))
        return out
    # upper: L^2 = d_Y^2, R = k d_X + c, D (L^2 - R^2) = m0 + m1 k
    m1 = -2 * C * Cd * Kd * d * t
    m0 = sq * KdC2 - KC2 * d * d - C * C * Kd * t * t
    if sign_sqrt(m0 * Kd, m1, KKd) > 0:
        out.append(Violation(pair, "upper", _margin(params, m0, m1, t)))
    # lower: L = d_X - c k, R^2 = k^2 d_Y^2, D (L^2 - R^2) = m0 + m1 k
    if sign_sqrt(d * Cd * Kd, -C * t, KKd) > 0:
        m0 = KdC2 * d * d + C * C * K * t * t - KC2 * sq
        if sign_sqrt(m0 * Kd, m1, KKd) > 0:
            out.append(Violation(pair, "lower", _margin(params, m0, m1, t)))
    return out


def _margin(params: QIParams, m0: int, m1: int, t: int) -> Exact:
    """(m0 + m1 k) / D: when m1 != 0 and k = b*sqrt(d) is irrational, one
    Surd made from these integers and k's b and d; else a Fraction."""
    D = params._ints[5] * t * t
    k = params.k if m1 else 0
    if isinstance(k, Surd):
        return _make(Fraction(m0, D), Fraction(m1, D) * k.b, k.d)
    return Fraction(m0 + m1 * k, D)


class FloorMap:
    """f(x, y) = (floor x, floor y) from (R^2, l2) to the grid."""

    name, domain = "floor", "plane"

    def check_pair(self, p: PlanePoint, q: PlanePoint,
                   params: QIParams) -> list[Violation]:
        X, Y, t, g = _pair_terms(p, q)
        return _violations((p, q), params, g * t, X * X + Y * Y, t, True)


class InclusionMap:
    """The inclusion of the grid (word metric) into (R^2, l2)."""

    name, domain = "inclusion", "lattice"

    def check_pair(self, p: LatticePoint, q: LatticePoint,
                   params: QIParams) -> list[Violation]:
        X, Y, t, _ = _pair_terms(p, q)
        return _violations((p, q), params, abs(X) + abs(Y), X * X + Y * Y, t,
                           False)


class GensetMap:
    """The identity of the grid between two word metrics."""

    def __init__(self, S: GeneratingSet, S2: GeneratingSet,
                 radius_cap: int = 64):
        self.S = S
        self.S2 = S2
        self.radius_cap = radius_cap
        self.name, self.domain = "genset", "lattice"

    def check_pair(self, p: LatticePoint, q: LatticePoint,
                   params: QIParams) -> list[Violation]:
        # a plane pair has no word length: a basis would read fractional
        # coordinates, and a larger set would grow its table for nothing
        if p[0].denominator * p[1].denominator * q[0].denominator \
                * q[1].denominator != 1:
            raise ValueError(f"pair ({p[0]}, {p[1]}), ({q[0]}, {q[1]}) is not "
                             "a pair of lattice points")
        v, cap = (q[0] - p[0], q[1] - p[1]), self.radius_cap
        dx = self.S.distance(v, cap)
        dy = None if dx is None else self.S2.distance(v, cap)
        if dy is None:
            raise ValueError(f"pair {p}, {q} outside radius cap {cap}")
        return _violations((p, q), params, dy, dx * dx, 1, True)


Map = Union[FloorMap, InclusionMap, GensetMap]


def proven(qmap: Map, params: QIParams) -> bool:
    """Whether the claim (k, c) holds for every pair of the map's domain by
    a closed-form rule. With k^2 = K/Kd and c = C/Cd, each rule is one
    comparison of integers.

    The floor map holds iff k^2 >= 2 and c >= 2. Write A, B for the floor
    differences of a pair and x+ for max(x, 0). Upper side: a floor
    difference A >= 1 needs a coordinate difference above A - 1, so the
    pair lies at least sqrt((A-1)+^2 + (B-1)+^2) apart in the plane, and
    A + B <= (A-1)+ + (B-1)+ + 2 <= sqrt(2) sqrt(...) + 2; k^2 >= 2 and
    c >= 2 are enough. The diagonal ((0, 0), (n, n)) needs k^2 >= 2 and
    the corner pair ((1 - d, 1 - d), (1, 1)) needs c >= 2. Lower side: the
    pair lies less than sqrt((A+1)^2 + (B+1)^2) <= A + B + 2 apart, which
    k >= 1 and c >= 2 bound.

    The inclusion holds iff k^2 >= 2, whatever c is: l2 <= l1 for the
    upper side, |a| + |b| <= sqrt(2) sqrt(a^2 + b^2) for the lower side,
    and the diagonal needs k^2 >= 2.

    Every other map gets False: the dispatch is on the exact type, so a
    generating set, whose ``check_pair`` refuses plane pairs and pairs past
    its radius cap, and any subclass keep the per-pair kernel.
    """
    K, Kd, C, Cd = params._ints[:4]
    kind = type(qmap)
    if kind is FloorMap:
        return K >= 2 * Kd and C >= 2 * Cd
    return kind is InclusionMap and K >= 2 * Kd


# ---------------------------------------------------------------------------
# sampling


_DENOMINATORS = (1, 2, 3, 4, 5, 7, 8, 16, 32, 64)


def _fraction(n: int, d: int) -> Fraction:
    """n/d for integers n and d > 0, reduced by one gcd and built as the
    stdlib's ``Fraction._from_coprime_ints`` (3.12+) builds it, with none of
    ``Fraction.__new__``'s type dispatch."""
    g = gcd(n, d)
    f = object.__new__(Fraction)
    f._numerator, f._denominator = n // g, d // g
    return f


def _plane_points(box, seed: int) -> Iterator[PlanePoint]:
    """Endless seeded stream of points in [lo, hi]^2 with small denominators.

    The draws are those of ``rng.choice(_DENOMINATORS)`` and two
    ``rng.randint(nlo, nhi)``, read from ``getrandbits`` through the same
    rejection loops (n values: k = n.bit_length() bits, redrawn while >= n),
    so each seed gives the same points. An empty numerator range raises
    ValueError at the draw that picks its denominator."""
    lo, hi = Fraction(box[0]), Fraction(box[1])
    (ln, ld), (hn, hd) = lo.as_integer_ratio(), hi.as_integer_ratio()
    # (den, nlo, width, bits) per denominator, nlo = ceil(lo*den) and
    # nlo + width - 1 = floor(hi*den)
    rows = []
    for den in _DENOMINATORS:
        nlo = -(-ln * den // ld)
        width = hn * den // hd - nlo + 1
        rows.append((den, nlo, width, width.bit_length()))
    bits = random.Random(seed).getrandbits
    nrows = len(rows)
    krows = nrows.bit_length()
    while True:
        r = bits(krows)
        while r >= nrows:
            r = bits(krows)
        den, nlo, width, k = rows[r]
        if width < 1:
            raise ValueError(f"empty numerator range for denominator {den} "
                             f"in the box [{lo}, {hi}]")
        x = bits(k)
        while x >= width:
            x = bits(k)
        y = bits(k)
        while y >= width:
            y = bits(k)
        yield _fraction(nlo + x, den), _fraction(nlo + y, den)


def sample_plane_points(box: tuple[Fraction, Fraction], count: int,
                        seed: int) -> list[PlanePoint]:
    """Seeded rational points in [lo, hi]^2 with small denominators."""
    return list(islice(_plane_points(box, seed), count))


def sample_plane_pairs(box, count, seed) -> list[tuple[PlanePoint, PlanePoint]]:
    return list(islice(iter_pairs(FloorMap(), "random", seed, box), count))


class LatticeBall:
    """The grid points of l1 norm <= radius, x-major, as a sequence that
    lists nothing: index i maps to the i-th point in O(1) integer ops."""

    def __init__(self, radius: int):
        self.radius = radius

    def __len__(self) -> int:
        return 2 * self.radius * (self.radius + 1) + 1

    def __iter__(self) -> Iterator[LatticePoint]:
        r = self.radius
        return ((x, y) for x in range(-r, r + 1)
                for y in range(abs(x) - r, r - abs(x) + 1))

    def __getitem__(self, i: int) -> LatticePoint:
        n = len(self)
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("lattice ball index out of range")
        if i > n // 2:
            # the ball is symmetric under p -> -p, which reverses the order
            x, y = self[n - 1 - i]
            return -x, -y
        # the columns x = -r + j for j <= r hold 2j + 1 points each, j^2 before
        j = isqrt(i)
        return j - self.radius, i - j * j - j


def iter_pairs(qmap: Map, strategy: str, seed: int = 0,
               box: tuple[Fraction, Fraction] = (Fraction(-100), Fraction(100)),
               radius: int = 10) -> Iterator[Pair]:
    """Pairs (p, q) from the map's domain, drawn lazily: ``grid`` walks the
    product of the half-integer points of [-4, 4]^2 or of the l1 ball of
    ``radius``; ``random`` pairs consecutive seeded points of ``box``, or
    draws both points from the ball with a seeded ``rng.choice``."""
    ball = LatticeBall(radius)
    if strategy == "grid":
        pts = ball if qmap.domain == "lattice" else [
            (Fraction(i, 2), Fraction(j, 2))
            for i in range(-8, 9) for j in range(-8, 9)]
        # nested loops, since product would list a ball before its first pair
        return ((p, q) for p in pts for q in pts)
    if strategy == "random":
        if qmap.domain == "plane":
            pts = _plane_points(box, seed)
            return zip(pts, pts)
        # rng.choice reads only len and indices: O(1) memory for any radius
        choice = random.Random(seed).choice
        return ((choice(ball), choice(ball)) for _ in repeat(None))
    raise ValueError(f"unknown strategy {strategy!r}")


# ---------------------------------------------------------------------------
# operations


def check_embedding(qmap: Map, params: QIParams,
                    pairs: Iterable[Pair]) -> QIReport:
    """Evaluate both quasi-isometry inequalities exactly on every pair.

    A claim that :func:`proven` holds for the whole domain reads no
    coordinate: the pairs are read once and counted, with no violation, so
    ``pairs_checked`` then counts pairs without validating them (a pair of
    strings is counted too; only a non-pair fails to unpack).
    """
    report = QIReport(map_name=qmap.name, params=params)
    if proven(qmap, params):
        report.pairs_checked = sum(1 for _p, _q in pairs)
        return report
    for p, q in pairs:
        report.pairs_checked += 1
        report.violations.extend(qmap.check_pair(p, q, params))
    return report


def find_violation(qmap: Map, params: QIParams, strategy: str,
                   budget: int, seed: int = 0,
                   box: tuple[Fraction, Fraction] = (Fraction(-100), Fraction(100))
                   ) -> Optional[Violation]:
    """Search for a witness pair violating one inequality.

    Strategies: ``diagonal-ray`` scans the pairs ((0,0), (n,n)) where the
    violating family for k < sqrt(2) lives; ``grid`` and ``random`` check
    the pairs of :func:`iter_pairs`, from the map's own domain (plane or
    lattice), as they are drawn, so an early witness is cheap.

    On a claim that :func:`proven` holds, ``diagonal-ray`` answers None
    without checking a pair; ``grid`` and ``random`` scan as on any other.
    """
    if strategy == "diagonal-ray":
        if proven(qmap, params):
            return None
        # on the lattice diagonal both plane maps see d = 2n and d^2 = 2n^2;
        # a subclass may redefine check_pair, so it is asked per pair
        lattice_pair = type(qmap) in (FloorMap, InclusionMap)
        target = type(qmap) is FloorMap
        # the pair's coordinates come from the map's domain
        num = int if qmap.domain == "lattice" else Fraction
        zero = num(0)
        for n in range(1, budget + 1):
            if lattice_pair:
                found = _violations(None, params, 2 * n, 2 * n * n, 1, target)
            else:
                found = qmap.check_pair((zero, zero), (num(n), num(n)), params)
            if found:
                pair = ((zero, zero), (num(n), num(n)))
                return Violation(pair, found[0].side, found[0].margin)
        return None
    for a, b in islice(iter_pairs(qmap, strategy, seed, box), max(budget, 0)):
        found = qmap.check_pair(a, b, params)
        if found:
            return found[0]
    return None


class RoundtripReport(Value):
    __slots__ = ("max_sq_displacement", "argmax", "samples")


def roundtrip_displacement(samples: Iterable[PlanePoint]) -> RoundtripReport:
    """Largest squared l2 displacement of inclusion-after-floor on the samples,
    read once, so a stream is never listed.

    The supremum over the whole plane is 2 (displacement sqrt(2)), never
    attained.
    """
    # -1 lets the first point name the argmax when no point leaves its cell
    best_n, best_d, count = -1, 1, 0
    arg = (Fraction(0), Fraction(0))
    for count, p in enumerate(samples, 1):
        a, b = p[0].as_integer_ratio()
        e, f = p[1].as_integer_ratio()
        # p - floor(p) = (x/(b f), y/(b f)), with numerators mod b and mod f
        x, y, bf = a % b * f, e % f * b, b * f
        sn, sd = x * x + y * y, bf * bf
        if sn * best_d > best_n * sd:
            best_n, best_d, arg = sn, sd, p
    return RoundtripReport(Fraction(max(best_n, 0), best_d), arg, count)


class SurjectivityReport(Value):
    # the certified D, and the largest squared distance to the image seen
    __slots__ = ("map_name", "bound", "max_sq_distance", "targets")


def quasi_surjectivity_bound(qmap: Map,
                             targets: Sequence[tuple]) -> SurjectivityReport:
    """Certify a coarse-density bound D over the probe targets.

    The floor map is onto the grid, and every plane point is within
    sqrt(1/2) of a lattice point, so D = 1 certifies both maps; the report
    carries the exact squared distances observed.
    """
    best_n, best_d = 0, 1
    if isinstance(qmap, FloorMap):
        for t in targets:
            # lattice targets are hit exactly: floor of the point itself
            if t[0].denominator != 1 or t[1].denominator != 1:
                raise ValueError(f"target {t} is not a lattice point")
    elif isinstance(qmap, InclusionMap):
        for t in targets:
            a, b = t[0].as_integer_ratio()
            e, f = t[1].as_integer_ratio()
            # nearest corner of the cell: min(frac, 1 - frac) per axis
            x, y = a % b, e % f
            x, y = min(x, b - x) * f, min(y, f - y) * b
            sn, sd = x * x + y * y, b * b * f * f
            if sn * best_d > best_n * sd:
                best_n, best_d = sn, sd
        if best_n >= best_d:
            raise AssertionError("cell geometry bound exceeded")
    else:
        raise ValueError("surjectivity probing supports floor and inclusion")
    return SurjectivityReport(qmap.name, Fraction(1), Fraction(best_n, best_d),
                              len(targets))


# ---------------------------------------------------------------------------
# the displayed inequality chains for the floor map


def floor_chain_holds(p: PlanePoint, q: PlanePoint) -> bool:
    """Exact per-pair check of the displayed upper and lower chains:
    d_grid <= 2 max(|dx|, |dy|) + 2 <= 2 d_plane + 2 and
    d_grid >= d_plane - 2 >= (1/2) d_plane - 2."""
    X, Y, t, g = _pair_terms(p, q)
    mx = max(abs(X), abs(Y))
    sq = X * X + Y * Y
    if g * t > 2 * mx + 2 * t:
        return False
    if mx * mx > sq:  # 2 max + 2 <= 2 sqrt(sq) + 2
        return False
    # lower: d_grid >= sqrt(sq) - 2, i.e. sqrt(sq) <= d_grid + 2
    lhs = (g + 2) * t
    return sq <= lhs * lhs
