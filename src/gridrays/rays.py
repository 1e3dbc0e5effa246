"""Geodesic rays of the grid as digit streams.

A ray from the origin is an infinite digit string over {0,1,2,3,4}
(east, north, west, south, east) whose digits all lie in {m, m+1} for the
realized minimum digit m; such strings are exactly the unit-speed
geodesic rays. Representable rays have a finite preamble followed by
either a periodic tail or a Sturmian tail generated by digitizing a
straight line of exact (possibly quadratic-irrational) direction. The
class is closed under the splice operation, which is the engine of the
trivial-topology demonstration.

Literal grammar: ``"<preamble>(<period>)"`` for eventually periodic rays,
e.g. ``"01(0011)"`` or ``"(0)"`` for the east ray; ``"slope:<p>/<q>@<k>"``
for a digitized direction with quadrant index k in 1..4.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import accumulate, chain, compress, count, repeat
from math import ceil, floor, gcd, isqrt, lcm
from operator import add, floordiv, itemgetter, mul, sub
from typing import Optional, Union

from .exactnum import Exact, Surd, _make, exact_sign, floor_sqrt, sign_sqrt
from .lattice import (DISPLACEMENTS, ORIGIN, WINDOW_SIGNS, LatticePoint,
                      Value, quadrant_windows, word_metric)

#: (horizontal digit, vertical digit) for each quadrant window w, whose
#: rays use digits {w, w+1}
WINDOW_DIGITS: dict[int, tuple[int, int]] = {
    0: (0, 1),   # east / north
    1: (2, 1),   # west / north
    2: (2, 3),   # west / south
    3: (4, 3),   # east / south
}

DIVERGENCE_PROBE = 10  # bound used when reporting a divergence witness

MAX_PERIOD = 100_000  # longest period a rational staircase may have


class InvalidRay(ValueError):
    """A ray code failed validation."""


class QuadrantMismatch(ValueError):
    """Splice operands do not share a quadrant window."""


#: the windows of each set of valid digits, tabulated by quadrant_windows
_DIGIT_WINDOWS = {ds: quadrant_windows(map(DISPLACEMENTS.__getitem__, ds))
                  for ds in (frozenset(d for d in range(5) if m >> d & 1)
                             for m in range(32))}


def digit_windows(digits) -> frozenset[int]:
    """Quadrant windows consistent with every digit of the iterable (none
    if a digit is invalid)."""
    return _DIGIT_WINDOWS.get(frozenset(digits), frozenset())


#: bytes.translate tables writing east digits as 0, or as 4 in window 3
_REALIZE = ((bytes.maketrans(b"\4", b"\0"),) * 3
            + (bytes.maketrans(b"\0", b"\4"),))
#: bytes.translate tables from digit text to digits and back
_FROM_ASCII = bytes.maketrans(b"01234", bytes(range(5)))
_TO_ASCII = bytes.maketrans(bytes(range(5)), b"01234")
_DX, _DY = ({d: v[i] for d, v in DISPLACEMENTS.items()} for i in (0, 1))
#: bytes.translate tables writing each digit as 1 + its x (or y) step
_DX1 = bytes.maketrans(bytes(range(5)), b"\2\1\0\1\2")
_DY1 = bytes.maketrans(bytes(range(5)), b"\1\2\1\0\1")


def _realize(digits, w: int) -> tuple[int, ...]:
    """The digits with east ones written as 0 or 4 to fit window w."""
    return tuple(bytes(digits).translate(_REALIZE[w]))


def _walk(digits, start: LatticePoint = ORIGIN) -> list[LatticePoint]:
    """Positions after 0, 1, ..., len(digits) steps from ``start``."""
    x, y = start
    return list(zip(accumulate(map(_DX.__getitem__, digits), initial=x),
                    accumulate(map(_DY.__getitem__, digits), initial=y)))


# ---------------------------------------------------------------------------
# the staircase kernel


class Staircase:
    """The staircase of the line leaving ``anchor`` with (reflected,
    nonnegative) direction (dx, dy): one step per grid line crossed, in
    order along the line, horizontal first on exact lattice hits.

    Its first n steps hold H(n) = floor((n+1)*ux + rho) horizontal ones,
    clamped to [0, n] (the lower mechanical word; Lothaire, Algebraic
    Combinatorics on Words, ch. 2), ux being the l1-normalized horizontal
    speed and rho = frac(x0)*uy - frac(y0)*ux. The floor is the tie rule,
    the clamp covers axis-parallel lines. ux = (P + Q*sqrt(d))/D and
    rho = P0/D are integers, the anchor given over ``scale``, so H(n) costs
    integer ops and one isqrt; an irrational line leaves the origin.
    """

    __slots__ = ("_p", "_q", "_p0", "_d", "_den")

    def __init__(self, dx: int, dy: int, anchor=(0, 0), scale: int = 1):
        x0, y0 = anchor
        # ux = dx/(dx+dy), rho = ((x0 mod s)*dy - (y0 mod s)*dx)/(s*(dx+dy))
        self._p, self._p0 = dx * scale, x0 % scale * dy - y0 % scale * dx
        self._q = self._d = 0
        self._den = (dx + dy) * scale

    @classmethod
    def from_origin(cls, P: int, Q: int, d: int, D: int) -> "Staircase":
        """The staircase of ux = (P + Q*sqrt(d))/D from the origin."""
        out = object.__new__(cls)
        out._p, out._q, out._p0, out._d, out._den = P, Q, 0, d, D
        return out

    def horizontal(self, n: int) -> int:
        """H(n), the number of horizontal steps among the first n."""
        k = n + 1
        h = floor_sqrt(k * self._p + self._p0, k * self._q, self._d, self._den)
        return 0 if h < 0 else n if h > n else h

    def speed(self) -> tuple[int, int, int, int]:
        """ux as integers (P, Q, d, D), ux = (P + Q*sqrt(d))/D."""
        return self._p, self._q, self._d, self._den

    def digits(self, n: int, hdig: int, vdig: int) -> list[int]:
        """The first n steps of a rational line, written hdig (horizontal)
        or vdig (vertical).

        With ux = P/D and rho = P0/D, h(m) = floor(((m+1)*P + P0)/D) has
        increments 0 or 1, and step i is horizontal iff h(i+1) > h(i): the
        j-th horizontal crossing, j = h(i+1), sits at
        i = ceil((j*D - P0)/P) - 2. The clamp of :meth:`horizontal` never
        changes an increment: h(0) >= 0, and h(m) > m only on the line
        uy = rho = 0, where h(m) = m + 1 steps by 1 like the clamped m.
        """
        if self._q:
            raise ValueError("closed-form digits need a rational line")
        P, P0, D = self._p, self._p0, self._den
        out = [vdig] * n
        first, last = (P + P0) // D + 1, ((n + 1) * P + P0) // D + 1
        start = first * D - P0 - 1 - P  # floor((j*D - P0 - 1)/P) - 1
        for i in map(floordiv, range(start, start + (last - first) * D, D),
                     repeat(P)):
            out[i] = hdig
        return out


# ---------------------------------------------------------------------------
# tails


class PeriodicTail(Value):
    __slots__ = ("period", "_sums")

    def __init__(self, period: tuple[int, ...]):
        if not period:
            raise ValueError("empty period")
        self.period, self._sums = period, None

    @property
    def _table(self) -> tuple[list[int], list[int]]:
        """Running x and y sums after 0..len(period) steps, on first use."""
        if self._sums is None:
            self._sums = tuple(
                list(accumulate(map(step.__getitem__, self.period), initial=0))
                for step in (_DX, _DY))
        return self._sums

    def displacement(self, k: int) -> LatticePoint:
        """Sum of the first k tail steps: whole laps plus a table lookup."""
        xs, ys = self._table
        laps, r = divmod(k, len(self.period))
        return laps * xs[-1] + xs[r], laps * ys[-1] + ys[r]


class SturmianTail(Value):
    """Digit stream of the staircase tracking a straight line.

    The line leaves the origin with (reflected, nonnegative) speeds
    ``ax`` horizontally and ``ay`` vertically, with ``ay/ax`` irrational.
    Digits are the steps of its :class:`Staircase`; ``offset`` digits of
    the stream have already been consumed (splices advance it). ``window``
    fixes the quadrant and hence the concrete digit pair.
    """

    __slots__ = ("ux", "uy", "window", "offset", "_line", "_h0")

    def __init__(self, ax: Exact, ay: Exact, window: int, offset: int = 0):
        if window not in WINDOW_DIGITS:
            raise ValueError("window must be in 0..3")
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        if exact_sign(ax) <= 0 or exact_sign(ay) <= 0:
            raise ValueError("Sturmian directions must have positive components")
        P, Q, d, D = _speed(ax, ay)
        if not Q:
            raise ValueError("rational direction; use a periodic tail")
        self.ux = _make(Fraction(P, D), Fraction(Q, D), d)
        self.uy = _make(Fraction(D - P, D), Fraction(-Q, D), d)
        self.window, self.offset = window, offset
        self._line = Staircase.from_origin(P, Q, d, D)
        self._h0 = self._line.horizontal(offset)

    def horizontal(self, k: int) -> int:
        """Horizontal steps among the first k digits of this tail."""
        return self._line.horizontal(self.offset + k) - self._h0

    def speed(self) -> tuple[int, int, int, int]:
        """ux as integers (P, Q, d, D), ux = (P + Q*sqrt(d))/D."""
        return self._line.speed()

    def displacement(self, k: int) -> LatticePoint:
        """Sum of the first k tail steps."""
        sx, sy = WINDOW_SIGNS[self.window]
        n = self.horizontal(k)
        return sx * n, sy * (k - n)

    def advanced(self, steps: int) -> "SturmianTail":
        """The same line with ``steps`` more digits consumed."""
        offset = self.offset + steps
        if offset < 0:
            raise ValueError("offset must be nonnegative")
        out = object.__new__(SturmianTail)
        out.ux, out.uy, out.window, out._line = (self.ux, self.uy,
                                                 self.window, self._line)
        out.offset, out._h0 = offset, self._line.horizontal(offset)
        return out


Tail = Union[PeriodicTail, SturmianTail]


# ---------------------------------------------------------------------------
# ray codes


class RayCode(Value):
    """A finite preamble plus an infinite tail of geodesic digits.

    Stores exactly what it is given; use :func:`validate` to check the
    canonical-form rules and :meth:`canonical` to normalize. Operations in
    this module always emit canonical codes.
    """

    __slots__ = ("preamble", "tail", "_digits", "_points", "_valid")

    def __init__(self, preamble, tail: Tail):
        self.preamble = tuple(map(int, preamble))
        if isinstance(tail, PeriodicTail):
            body = self.preamble + tuple(tail.period)
        elif isinstance(tail, SturmianTail):
            body = self.preamble + WINDOW_DIGITS[tail.window]
        else:
            raise TypeError("tail must be PeriodicTail or SturmianTail")
        self._digits = _check_digits(body)
        self.tail = tail
        self._points = _walk(self.preamble)  # prefix cache of points()
        self._valid: Optional[bool] = None  # validate's verdict, once known

    # -- digits ----------------------------------------------------------

    def digits(self, n: int) -> tuple[int, ...]:
        """Digits 1..n (none for n <= 0)."""
        return self._steps(0, max(n, 0))

    def _steps(self, t0: int, t1: int) -> tuple[int, ...]:
        """Digits t0+1..t1, the steps from time t0 to t1: a preamble slice,
        then a slice of repeated periods or the steps of one list of the
        line's horizontal counts."""
        pre, tail = self.preamble, self.tail
        if t1 <= len(pre):
            return pre[t0:t1]
        k, n = max(t0 - len(pre), 0), t1 - max(t0, len(pre))  # tail steps k+1..k+n
        if isinstance(tail, PeriodicTail):
            per = tail.period
            r = k % len(per)
            return pre[t0:] + (per * ((r + n) // len(per) + 1))[r:r + n]
        hs = list(map(tail.horizontal, range(k, k + n + 1)))
        h, v = WINDOW_DIGITS[tail.window]
        return pre[t0:] + tuple(map((v, h).__getitem__, map(sub, hs[1:], hs)))

    def realized_digits(self) -> frozenset[int]:
        return self._digits

    def m(self) -> int:
        """The minimum digit occurring in the stream."""
        return min(self._digits)

    # -- geometry --------------------------------------------------------

    def point_at(self, t: int) -> LatticePoint:
        """Position after t unit-speed steps (t=0 is the origin), in O(1)."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        pts, p = self._points, len(self.preamble)
        if t <= p:
            return pts[t]
        x, y = pts[p]
        dx, dy = self.tail.displacement(t - p)
        return x + dx, y + dy

    def points(self, t: int) -> list[LatticePoint]:
        """Positions at times 0..t, kept as a cached prefix for rescans."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        pts = self._points
        if len(pts) <= t:  # the tail's digits step to times len(pts)..t
            pts[-1:] = _walk(self._steps(len(pts) - 1, t), pts[-1])
        return pts[: t + 1]

    def direction(self) -> tuple[Exact, Exact]:
        """Limiting l1-normalized direction vector, exact."""
        if isinstance(self.tail, PeriodicTail):
            (xs, ys), n = self.tail._table, len(self.tail.period)
            return Fraction(xs[-1], n), Fraction(ys[-1], n)
        t = self.tail
        sx, sy = WINDOW_SIGNS[t.window]
        return sx * t.ux, sy * t.uy

    # -- canonical form --------------------------------------------------

    def canonical(self) -> "RayCode":
        if isinstance(self.tail, SturmianTail):
            pre = _realize(self.preamble, self.tail.window)
            if pre == self.preamble:
                return self
            return RayCode(pre, self.tail)
        pre, per = _canonical_periodic(self.preamble, self.tail.period,
                                       self._digits)
        out = (self if pre == self.preamble and per == self.tail.period
               else RayCode(pre, PeriodicTail(per)))
        out._valid = _digit_rules(out._digits)  # canonical: the digits decide
        return out

    def literal(self) -> str:
        pre = _text(self.preamble)
        if isinstance(self.tail, PeriodicTail):
            return f"{pre}({_text(self.tail.period)})"
        t = self.tail
        head = f"{pre}+" if pre else ""
        off = f"+{t.offset}" if t.offset else ""
        return f"{head}slope[{t.ux}:{t.uy}]@{t.window + 1}{off}"

    def __repr__(self):
        return f"RayCode({self.literal()!r})"


def _text(digits) -> str:
    """The digits 0..4 written as one string."""
    return bytes(digits).translate(_TO_ASCII).decode()


def _check_digits(digits: tuple[int, ...]) -> frozenset[int]:
    """The set of the digits; "invalid digit d" names the first bad one."""
    out = frozenset(digits)
    if out - DISPLACEMENTS.keys():
        raise ValueError(f"invalid digit "
                         f"{next(d for d in digits if d not in DISPLACEMENTS)}")
    return out


def _primitive(per: tuple[int, ...]) -> tuple[int, ...]:
    """The shortest word whose repetition is per: its first return in per+per."""
    b = bytes(per)
    return per[:(b + b).find(b, 1)]


def _canonical_periodic(pre, per, realized):
    """The canonical (pre, per) of two digit tuples; ``realized`` is the set
    of their digits."""
    if realized <= {0, 4}:
        return (), (0,)  # the east ray
    if 4 in realized and 3 not in realized:
        pre, per = _realize(pre, 0), _realize(per, 0)
    per = _primitive(per)
    # pop preamble digits that repeat the period's end, rotating it once
    n, k = len(per), 0
    while k < len(pre) and pre[-1 - k] == per[-1 - k % n]:
        k += 1
    r = k % n
    return pre[:len(pre) - k], per[n - r:] + per[:n - r]


# -- constructors -----------------------------------------------------------


def periodic_ray(preamble, period) -> RayCode:
    """Canonical eventually periodic ray from digit sequences (callers
    holding int tuples build ``RayCode(...).canonical()`` themselves)."""
    return RayCode(preamble, PeriodicTail(tuple(map(int, period)))).canonical()


def east_ray() -> RayCode:
    return axis_ray(0)


def axis_ray(digit: int) -> RayCode:
    """The axis ray repeating one digit, in canonical form."""
    return RayCode((), PeriodicTail((0 if digit == 4 else int(digit),)))


_LITERAL = re.compile(r"^([0-4]*)\(([0-4]+)\)$")
_SLOPE = re.compile(r"^slope:(\d+)/(\d+)@([1-4])$")


def parse_ray(text: str) -> RayCode:
    """Parse a ray literal, keeping exactly the digits given (not canonicalized)."""
    text = text.strip()
    m = _LITERAL.match(text)
    if m:
        pre, per = (tuple(m.group(i).encode().translate(_FROM_ASCII))
                    for i in (1, 2))
        return RayCode(pre, PeriodicTail(per))
    m = _SLOPE.match(text)
    if m:
        p, q, quad = int(m.group(1)), int(m.group(2)), int(m.group(3))
        sx, sy = WINDOW_SIGNS[quad - 1]
        return digitize(sx * p, sy * q)
    raise ValueError(f"cannot parse ray literal {text!r}")


# ---------------------------------------------------------------------------
# validation


def _digit_rules(realized) -> bool:
    """The quadrant digit constraint and the written form of east digits."""
    return (bool(digit_windows(realized))
            # east digits are written 0 outside quadrant IV, 4 inside it
            and not (4 in realized and 3 not in realized)
            and not (0 in realized and 3 in realized))


def validate(ray: RayCode) -> bool:
    """Check the quadrant digit constraint and the canonical-form rules,
    once per ray code (a Sturmian code passing the first is canonical)."""
    if ray._valid is None:
        ray._valid = _digit_rules(ray._digits) and ray.canonical() is ray
    return ray._valid


def _require_valid(ray: RayCode) -> None:
    if not validate(ray):
        raise InvalidRay(f"invalid ray code {ray.literal()!r}")


# ---------------------------------------------------------------------------
# the B and N maps


def _bits(digits, m: int) -> int:
    """The digits d - m, each 0 or 1, read as one binary numeral (0 if none)."""
    table = bytearray(b"x" * 256)  # any other digit fails int()
    table[m:m + 2] = b"01"
    try:
        return int(bytes(digits).translate(table) or b"0", 2)
    except ValueError:
        raise ValueError("binary digits required") from None


def b_map(preamble, period) -> Fraction:
    """Value of an eventually periodic binary expansion 0.d1 d2 d3 ...

    Computed exactly via the geometric series over the period.
    """
    pre, per = tuple(map(int, preamble)), tuple(map(int, period))
    if not per:
        raise ValueError("empty period")
    return _b_value(pre, per, 0)


def _b_value(pre, per, m: int) -> Fraction:
    p, q = len(pre), len(per)
    pval, qval = _bits(pre, m), _bits(per, m)
    return Fraction(pval, 1 << p) + Fraction(qval, ((1 << q) - 1) << p)


class Enclosure(Value):
    """A certified rational interval [lo, hi] containing a real value."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction):
        if lo > hi:
            raise ValueError("empty enclosure")
        self.lo, self.hi = lo, hi

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def n_map(ray: RayCode, width: Fraction = Fraction(1, 1 << 64)
          ) -> Union[Fraction, Enclosure]:
    """The boundary-point value m + B(digits - m) in [0, 4).

    Exact for periodic tails; a certified enclosure of at most the given
    width for Sturmian tails.
    """
    if width <= 0:
        raise ValueError("enclosure width must be positive")
    _require_valid(ray)
    m = ray.m()
    if isinstance(ray.tail, PeriodicTail):
        return m + _b_value(ray.preamble, ray.tail.period, m)
    # the least k >= len(preamble) with 2^-k <= width, i.e. 2^k >= ceil(1/width)
    k = max(len(ray.preamble), (ceil(1 / Fraction(width)) - 1).bit_length())
    lo = Fraction(_bits(ray.digits(k), m), 1 << k)
    return Enclosure(m + lo, m + lo + Fraction(1, 1 << k))


# ---------------------------------------------------------------------------
# digitization


def digitize(dx: Exact, dy: Exact) -> RayCode:
    """The staircase ray tracking the straight line of direction (dx, dy).

    Grid-line crossings are emitted in order along the line, horizontal
    step before vertical step on exact lattice hits. Rational directions
    yield a periodic code with |p|+|q| digits per period (before
    canonicalization); irrational quadratic directions yield a Sturmian
    tail.
    """
    sgx, sgy = exact_sign(dx), exact_sign(dy)
    if sgx == 0 and sgy == 0:
        raise ValueError("zero direction")
    w = min(quadrant_windows([(sgx, sgy)]))
    h, v = WINDOW_DIGITS[w]
    ax, ay = abs(dx), abs(dy)
    if sgy == 0:
        return axis_ray(h)
    if sgx == 0:
        return axis_ray(v)
    # uy = P/D when rational, so ay/ax = P/(D - P) in lowest terms; uy
    # first, so a mixed-radicand error names dy's radicand first
    P, Q, d, D = _speed(ay, ax)
    if not Q:
        return RayCode((), staircase_tail(D - P, P, h, v)).canonical()
    return RayCode((), SturmianTail(ax, ay, w))


def _speed(ax: Exact, ay: Exact) -> tuple[int, int, int, int]:
    """ax/(ax + ay) as Staircase.speed() gives it, over gcd(P, Q, D) with
    D > 0; Q = 0 iff ay/ax is rational. Over one lcm, ax = a1 + b1*sqrt(d),
    ay = a2 + b2*sqrt(d), and the conjugate of their sum s + t*sqrt(d) gives
    ((a1*s - b1*t*d) + (b1*a2 - a1*b2)*sqrt(d))/(s*s - t*t*d). A
    component that is not int, Fraction or Surd (a float) is refused."""
    if not (isinstance(ax, (int, Fraction, Surd))
            and isinstance(ay, (int, Fraction, Surd))):
        raise ValueError("rational direction; use a periodic tail")
    (a1, b1, d1), (a2, b2, d2) = ((x.a, x.b, x.d) if isinstance(x, Surd)
                                  else (x, 0, 0) for x in (ax, ay))
    if d1 and d2 and d1 != d2:
        raise ValueError(f"cannot mix sqrt({d1}) and sqrt({d2}) exactly")
    ratios = [v.as_integer_ratio() for v in (a1, b1, a2, b2)]
    L = lcm(*(den for _, den in ratios))
    a1, b1, a2, b2 = (num * (L // den) for num, den in ratios)
    d, s, t = d1 or d2, a1 + a2, b1 + b2
    P, Q, D = a1 * s - b1 * t * d, b1 * a2 - a1 * b2, s * s - t * t * d
    g = gcd(P, Q, D) if D > 0 else -gcd(P, Q, D)
    return P // g, Q // g, d, D // g


def staircase_tail(p: int, q: int, hdig: int, vdig: int, anchor=(0, 0),
                   scale: int = 1) -> PeriodicTail:
    """One period of the staircase of the integer direction (p, q) >= 0
    from ``anchor`` (over ``scale``): (p + q)/gcd(p, q) digits, refused
    past MAX_PERIOD before any digit is built."""
    g = gcd(p, q)
    n = (p + q) // g
    if n > MAX_PERIOD:
        raise ValueError(
            f"rational direction {q // g}/{p // g} has period {n}; "
            "reduce the fraction or pass an exact irrational")
    return PeriodicTail(tuple(Staircase(p, q, anchor, scale).digits(n, hdig,
                                                                    vdig)))


def direction_of(ray: RayCode) -> tuple[Exact, Exact]:
    """l1-normalized limiting direction of a valid ray."""
    _require_valid(ray)
    return ray.direction()


# ---------------------------------------------------------------------------
# asymptotic classification


class Asymptotic(Value):
    """Certified verdict: d(f(t), g(t)) <= bound for all t."""

    __slots__ = ("bound", "attained")

    def __init__(self, bound: int, attained: bool = False):
        self.bound, self.attained = bound, attained


class Divergent(Value):
    """Witness that distances exceed DIVERGENCE_PROBE (they grow linearly)."""

    __slots__ = ("witness_t", "distance")


Verdict = Union[Asymptotic, Divergent]


def _mechanical(ray: RayCode):
    """The ray's tail as a line, or None when the tail is no balanced period.

    The line is (sx, sy, a, e, P): among the first n tail steps,
    h(n) = floor((a*n + e) / P) move sx horizontally and the rest move sy
    vertically. A periodic tail with a horizontal steps per period P is
    mechanical iff such an integer e exists, i.e. iff it is balanced
    (Lothaire, Algebraic Combinatorics on Words, ch. 2): step n < P
    confines e to [e_n, e_n + P - 1], e_n = h(n)*P - a*n, and these
    intervals meet iff the e_n span at most P - 1. The ray must be valid:
    its horizontal steps then share one sign, so h(n) = |x(n)| on the lap
    table, a = |x(P)|, and the lap vector's signs are sx and sy (1 on an
    empty axis).
    """
    if not isinstance(ray.tail, PeriodicTail):
        return None
    (xs, ys), period = ray.tail._table, len(ray.tail.period)
    a = abs(xs[-1])
    es = list(map(sub, map(mul, map(abs, xs[:-1]), repeat(period)), count(0, a)))
    lo = max(es)
    if lo > min(es) + period - 1:
        return None
    return -1 if xs[-1] < 0 else 1, -1 if ys[-1] < 0 else 1, a, lo, period


def _direction_key(ray: RayCode) -> tuple:
    """Integers equal for two rays iff their directions are: a periodic
    tail's (lap x, lap y, period) over their gcd, or a Sturmian tail's
    (window, speed)."""
    t = ray.tail
    if isinstance(t, SturmianTail):
        return t.window, t.speed()
    (xs, ys), n = t._table, len(t.period)
    g = gcd(xs[-1], ys[-1], n)
    return xs[-1] // g, ys[-1] // g, n // g


def _first_passage(f: RayCode, g: RayCode, M: int, lo: int = 0,
                   hi: Optional[int] = None) -> Optional[int]:
    """Least t in [lo, hi] (no upper end when hi is None) with
    d(f(t), g(t)) > M, or None.

    Equal directions: periodic tails of one direction have, past T0 (the
    longer preamble), a distance of period lcm(P_f, P_g). Once the window
    is longer than T0 + P_f + P_g, the cost of :func:`_periodic_supremum`,
    a supremum <= M answers None, and else one period past max(lo, T0)
    holds the first passage.

    Lap residues: if f has a periodic tail (period P, lap vector L) and g a
    balanced periodic one, write t = s0 + r + k*P with s0 = max(lo, T0)
    and 0 <= r < P. Then f(t) = f(s0 + r) + k*L, and g(t) moves by the
    floor of a line in k. d > M iff one of the four forms s1*dx + s2*dy
    exceeds M, and each form reads lin(k) + c*floor(y(k)) with c in
    {-2, 0, 2} and lin integer-linear in k. Both points lie at word length
    t, so every form is even: halved, it exceeds M // 2, and
    floor(y) >= m iff y >= m, floor(y) < m iff y < m make it one integer
    linear inequality in k, solved by a ceiling. Times in [lo, s0 + P)
    (the preambles and k = 0) are read off :func:`_distances`; a form whose
    slope in k is not positive then never holds. The answer is the least
    over residues and forms, in O(T0 + P) integer operations and O(1)
    memory. Other pairs read :func:`_distances` from lo.
    """
    t0 = max(len(f.preamble), len(g.preamble))
    if hi is not None and all(isinstance(r.tail, PeriodicTail) for r in (f, g)):
        pf, pg = len(f.tail.period), len(g.tail.period)
        if hi - lo > t0 + pf + pg and _direction_key(f) == _direction_key(g):
            if _periodic_supremum(f, g) <= M:
                return None  # the supremum is attained, so no time passes M
            hi = min(hi, max(lo, t0) + lcm(pf, pg))
    line = None
    for a, b in ((f, g), (g, f)):
        if isinstance(a.tail, PeriodicTail) and (line := _mechanical(b)):
            f, g = a, b
            break
    s0, end = max(lo, t0), None
    if line is not None:
        period = len(f.tail.period)
        end = s0 + period
    if hi is not None:
        end = hi + 1 if end is None else min(end, hi + 1)
    t = next(compress(count(lo), map(M.__lt__, _distances(f, g, lo, end))),
             None)
    if t is not None:
        return t
    if line is None or end < s0 + period:
        return None
    sx, sy, A, B, den = line
    lx, ly = f.tail.displacement(period)
    pg, m = len(g.preamble), M // 2
    forms = []
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        c = (s2 * sy - s1 * sx) // 2
        e1 = (s1 * lx + s2 * ly - s2 * sy * period) // 2
        a1 = den * e1 + c * A * period
        if a1 > 0:
            forms.append((s1, s2, c, a1))
    # f(t) - g(pg) for t in [s0, s0 + P): lap start plus the lap table's sums
    r0 = (s0 - len(f.preamble)) % period
    ox, oy = map(sub, f.point_at(s0 - r0), g.point_at(pg))
    sums = (chain(v[r0:-1], map(v[-1].__add__, v[:r0])) for v in f.tail._table)
    best = None
    for t, x, y in zip(range(s0, s0 + period), *sums):
        if best is not None and t + period >= best:
            break
        n = t - pg
        for s1, s2, c, a1 in forms:
            # the form holds iff a1*k + a0 >= 0, a strict inequality
            # (c <= 0) taking a0 one lower; -(a0 // a1) is the ceiling
            e0 = (s1 * (x + ox) + s2 * (y + oy - sy * n)) // 2
            a0 = den * (e0 - m) + c * (A * n + B) - (den if c > 0 else 1)
            k = max(-(a0 // a1), 0)
            if best is None or t + k * period < best:
                best = t + k * period
    if hi is not None and best is not None and best > hi:
        return None
    return best


def _distances(f: RayCode, g: RayCode, lo: int, end: Optional[int]):
    """d(f(t), g(t)) for t = lo, lo + 1, ... below end (no end when None):
    running sums of the two rays' step differences, in chunks of 64 steps
    doubling to 4,096 and cut at end, so memory stays O(1)."""
    def chunks():
        (fx, fy), (gx, gy) = f.point_at(lo), g.point_at(lo)
        x, y, t, n = fx - gx, fy - gy, lo, 64
        while end is None or t < end:
            n = n if end is None else min(n, end - t)
            df, dg = bytes(f._steps(t, t + n)), bytes(g._steps(t, t + n))
            xs = list(accumulate(map(sub, df.translate(_DX1), dg.translate(_DX1)),
                                 initial=x))
            ys = list(accumulate(map(sub, df.translate(_DY1), dg.translate(_DY1)),
                                 initial=y))
            x, y = xs.pop(), ys.pop()  # the difference at t + n
            yield map(add, map(abs, xs), map(abs, ys))
            t, n = t + n, min(2 * n, 4096)
    return chain.from_iterable(chunks())


def divergence_time(f: RayCode, g: RayCode, M: int,
                    horizon: int) -> Optional[int]:
    """Smallest t <= horizon with d(f(t), g(t)) > M, or None."""
    _require_valid(f)
    _require_valid(g)
    if horizon < 0:
        raise ValueError("time must be nonnegative")
    return _first_passage(f, g, M, 0, horizon)


def _sturmian_line_bound(ray: RayCode) -> tuple[int, int]:
    """Integers (a, b) with |ray(t) - t*u|_1 <= (a + b*sqrt(d))/D for all t,
    u the direction and (P, Q, d, D) the tail's speed."""
    t = ray.tail
    P, Q, d, D = t.speed()
    (sx, sy), p, o = WINDOW_SIGNS[t.window], len(ray.preamble), t.offset
    # anchor error: ray(t) = A + S(o+t-p) - S(o) with S(n) within 2 of n*u,
    # S(n) the pure stream's point after n steps; -S(o) = displacement(-o).
    # D*u = (sx*(P + Q*sqrt(d)), sy*(D - P - Q*sqrt(d))): D*cx, D*cy integral
    (ax_, ay_), (bx, by), k = ray.point_at(p), t.displacement(-o), o - p
    bound_a, bound_b = 2 * D, 0
    for a, b in ((D * (ax_ + bx) + k * sx * P, k * sx * Q),
                 (D * (ay_ + by) + k * sy * (D - P), -k * sy * Q)):
        s = sign_sqrt(a, b, d)
        bound_a, bound_b = bound_a + s * a, bound_b + s * b
    # a valid preamble stays in the tail's quadrant, so its deviation at
    # step s is 2*|v_s|/D, v_s = D*|x| - s*(P + Q*sqrt(d)). The key
    # |D*|x|*2^64 - s*W|, W = P*2^64 + sign(Q)*floor(|Q|*sqrt(d)*2^64), is
    # within s of 2^64*|v_s|: only keys within 2n + 2 of the largest can
    # hold the largest |v_s|, compared exactly as 2*(top_a + top_b*sqrt(d))/D
    R = isqrt(Q * Q * d << 128)
    W = (P << 64) + (R if Q > 0 else -R)
    xs = list(map(abs, map(itemgetter(0), ray._points[:p + 1])))
    keys = list(map(abs, map(sub, map(mul, xs, repeat(D << 64)), count(0, W))))
    cut = max(keys) - 2 * len(keys) - 2
    top_a = top_b = 0
    for s in compress(count(), map(cut.__le__, keys)):
        a, b = D * xs[s] - s * P, -s * Q
        if sign_sqrt(a, b, d) < 0:
            a, b = -a, -b
        if sign_sqrt(a - top_a, b - top_b, d) > 0:
            top_a, top_b = a, b
    if sign_sqrt(2 * top_a - bound_a, 2 * top_b - bound_b, d) > 0:
        return 2 * top_a, 2 * top_b
    return bound_a, bound_b


def _deviation_classes(ray: RayCode, n: int, g: int, s: int):
    """(max, min) of E(t) = n*(x + s*y)(t) - t*n*(ux + s*uy) over the tail's
    times t, for each class t = c (mod g), c = 0..g-1.

    n is a multiple of the period P, so n*u is an integer vector and E has
    period P past the preamble; its values are read off the lap table. The
    table's last entry, one lap on, repeats its first value and class.
    """
    per, p = len(ray.tail.period), len(ray.preamble)
    (xs, ys), (x0, y0) = ray.tail._table, ray._points[p]
    slope = n // per * (xs[-1] + s * ys[-1])
    vals = list(map(add, map(mul, map(add if s > 0 else sub, xs, ys), repeat(n)),
                    count(n * (x0 + s * y0) - p * slope, -slope)))
    # the value at index j belongs to time p + j, of class (p + j) mod g
    return [(max(v), min(v)) for v in
            (vals[(c - p) % g::g] for c in range(g))]


def _periodic_supremum(f: RayCode, g: RayCode) -> int:
    """max over t of d(f(t), g(t)) for periodic tails of equal direction u.

    Past T0, the longer preamble, N*f(t) - N*g(t) = E_f(t) - E_g(t) with
    E(t) = N*ray(t) - t*N*u, N = lcm(P_f, P_g). E_f has period P_f and E_g
    period P_g, and residues r_f, r_g of one time t >= T0 meet iff
    r_f = r_g (mod G), G = gcd(P_f, P_g) (Chinese remainders). The l1
    distance is the largest of +-(x + y) and +-(x - y), so per class mod G
    and form its supremum is max(max E_f - min E_g, max E_g - min E_f) / N,
    attained. Times below T0 are scanned: O(T0 + P_f + P_g) in all.
    """
    t0 = max(len(f.preamble), len(g.preamble))
    top = max(_distances(f, g, 0, t0), default=0)
    pf, pg = len(f.tail.period), len(g.tail.period)
    n, k = lcm(pf, pg), gcd(pf, pg)
    # a ray of window w has sx*x + sy*y = t, (sx, sy) = WINDOW_SIGNS[w], so
    # the form s = sx*sy vanishes on both rays in each window they share
    shared = {mul(*WINDOW_SIGNS[w]) for w in digit_windows(f._digits | g._digits)}
    for s in {1, -1} - shared:
        for (fmax, fmin), (gmax, gmin) in zip(_deviation_classes(f, n, k, s),
                                              _deviation_classes(g, n, k, s)):
            top = max(top, (fmax - gmin) // n, (gmax - fmin) // n)
    return top


def are_asymptotic(f: RayCode, g: RayCode) -> Verdict:
    """Classify a pair of valid rays as asymptotic or divergent.

    Equal-direction periodic pairs get the exact supremum of the
    (eventually periodic) distance sequence. Equal-direction Sturmian
    pairs get the certified bound from each staircase's bounded deviation
    from the common line. Distinct directions diverge linearly; a witness
    time for distance > DIVERGENCE_PROBE is reported.
    """
    _require_valid(f)
    _require_valid(g)
    if _direction_key(f) != _direction_key(g):
        t = _first_passage(f, g, DIVERGENCE_PROBE)
        return Divergent(t, word_metric(f.point_at(t), g.point_at(t)))
    if isinstance(f.tail, PeriodicTail) and isinstance(g.tail, PeriodicTail):
        return Asymptotic(_periodic_supremum(f, g), attained=True)
    if isinstance(f.tail, SturmianTail) and isinstance(g.tail, SturmianTail):
        # equal keys are equal speeds, so both bounds are over one d and D
        _, _, d, D = f.tail.speed()
        (a, b), (a2, b2) = _sturmian_line_bound(f), _sturmian_line_bound(g)
        return Asymptotic(-floor_sqrt(-a - a2, -b - b2, d, D), attained=False)
    # mixed periodic/Sturmian with equal direction cannot occur: equal
    # directions force equal rationality, and rational Sturmian input is
    # rejected at construction
    raise AssertionError("unreachable: mixed tails with equal direction")


# ---------------------------------------------------------------------------
# splice and the basis balls


def splice(f: RayCode, g: RayCode, s: int) -> RayCode:
    """The ray following f for s steps and g's displacements afterwards.

    Digits 1..s come from f, digits s+1.. from g; both rays must share a
    quadrant window. The result is canonical, agrees with f up to time s,
    and is asymptotic to g.
    """
    if s < 0:
        raise ValueError("splice time must be nonnegative")
    _require_valid(f)
    _require_valid(g)
    prefix = f.digits(s)
    common = digit_windows(prefix) & digit_windows(g.realized_digits())
    if not common:
        raise QuadrantMismatch(
            f"{f.literal()!r} and {g.literal()!r} do not share a quadrant window"
        )
    # a Sturmian g fits only its own window, so min(common) is that window
    w = min(common)
    pre = _realize(prefix + g.preamble[s:], w)
    k = max(s - len(g.preamble), 0)  # tail steps g has taken by time s
    if isinstance(g.tail, SturmianTail):
        out = RayCode(pre, g.tail.advanced(k))
        out._valid = _digit_rules(out._digits)  # realized in w: canonical
        return out
    per = _realize(g.tail.period, w)
    k %= len(per)
    return RayCode(pre, PeriodicTail(per[k:] + per[:k])).canonical()


class BallQuery(Value):
    """A basis neighborhood: compact window [a, b] and radius epsilon."""

    __slots__ = ("a", "b", "epsilon")

    def __init__(self, a: Fraction, b: Fraction, epsilon: Fraction):
        a, b, epsilon = Fraction(a), Fraction(b), Fraction(epsilon)
        if a < 0 or b < a or epsilon <= 0:
            raise ValueError("need 0 <= a <= b and epsilon > 0")
        self.a, self.b, self.epsilon = a, b, epsilon


def ball_contains(center: RayCode, candidate: RayCode, q: BallQuery) -> bool:
    """Whether the candidate ray lies in the basis ball around the center.

    Distances are evaluated at the integer times inside [a, b]; between
    integers the graph distance is piecewise linear with breakpoints at
    integers, so this generates the same topology.
    """
    _require_valid(center)
    _require_valid(candidate)
    # an integer distance d has d >= epsilon iff d > ceil(epsilon) - 1
    return _first_passage(center, candidate, ceil(q.epsilon) - 1,
                          ceil(q.a), floor(q.b)) is None


# ---------------------------------------------------------------------------
# the trivial-topology construction


class ChainLink(Value):
    __slots__ = ("center", "axis", "spliced", "contained", "verdict")


class TopologyDemo(Value):
    __slots__ = ("f", "g", "query", "s", "g_s", "contained", "verdict",
                 "chain")

    @property
    def ok(self) -> bool:
        return (self.contained
                and isinstance(self.verdict, Asymptotic)
                and all(link.contained
                        and isinstance(link.verdict, Asymptotic)
                        for link in self.chain))


def trivial_topology_demo(f: RayCode, g: RayCode, q: BallQuery) -> TopologyDemo:
    """Run the splice construction showing every ray meets every basis ball.

    Splices g into the ball around f at s = ceil(b), then hops across all
    four quadrant axis rays, splicing each into the previous neighborhood.
    """
    s = ceil(q.b)
    g_s = splice(f, g, s)
    contained = ball_contains(f, g_s, q)
    verdict = are_asymptotic(g_s, g)
    chain = []
    current = f
    m = f.m()
    for k in range(1, 5):
        axis = axis_ray((m + k) % 4)
        spliced = splice(current, axis, s)
        chain.append(ChainLink(
            center=current,
            axis=axis,
            spliced=spliced,
            contained=ball_contains(current, spliced, q),
            verdict=are_asymptotic(spliced, axis),
        ))
        current = axis
    return TopologyDemo(f=f, g=g, query=q, s=s, g_s=g_s,
                        contained=contained, verdict=verdict,
                        chain=tuple(chain))
