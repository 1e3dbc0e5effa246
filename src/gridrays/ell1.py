"""Geodesics of the taxicab plane: polylines, monotonicity, plane splice.

A path is a polyline with exact rational vertices starting at the origin,
parameterized at unit speed in l1 arc length; a ray carries an additional
infinite final direction. Polyline literal grammar: semicolon-separated
rational pairs with an optional ``>dx/dy`` direction suffix, e.g.
``"0,0;1,1;2,1 >1/0"``.

A polyline keeps its vertices as integers over their least common
denominator D, so its arc-length parameters are integers over D too. All
work is integer arithmetic; a ``Fraction`` is built only for a value
handed out (``vertices``, ``params``, ``direction``, ``at``, bounds).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, lcm
from typing import Optional, Sequence

from .lattice import WINDOW_SIGNS, Value, quadrant_windows
from .rays import RayCode, Staircase, WINDOW_DIGITS, staircase_tail

Vec = tuple[Fraction, Fraction]

_RATIO = re.compile(r"-?[0-9]+(?:/0*[1-9][0-9]*)?")


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of a rational or of an "n" or "n/d" literal."""
    if isinstance(x, str) and _RATIO.fullmatch(x):
        n, _, d = x.partition("/")
        return int(n), int(d or 1)
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return x.numerator, x.denominator


def ell1_distance(p: Vec, q: Vec) -> Fraction:
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def _straight(a, b, c) -> bool:
    """Whether c lies beyond b on the ray from a through b."""
    u, v = (b[0] - a[0], b[1] - a[1]), (c[0] - b[0], c[1] - b[1])
    return u[0] * v[1] == u[1] * v[0] and u[0] * v[0] + u[1] * v[1] > 0


class Polyline:
    """Unit-speed (in l1 arc length) polyline, optionally an infinite ray."""

    def __init__(self, vertices: Sequence[Vec],
                 direction: Optional[Vec] = None):
        self._setup([(_ratio(x), _ratio(y)) for x, y in vertices],
                    direction and tuple(map(_ratio, direction)))

    def _setup(self, verts, direction) -> None:
        """Set up from coordinates given as (numerator, denominator)."""
        if not verts:
            raise ValueError("a polyline needs at least one vertex")
        den = lcm(*(d for v in verts for _, d in v))
        pts = [tuple(n * (den // d) for n, d in v) for v in verts]
        for a, b in zip(pts, pts[1:]):
            if a == b:
                raise ValueError("consecutive vertices must be distinct")
        if direction is not None:
            k = lcm(*(d for _, d in direction))
            direction = tuple(n * (k // d) for n, d in direction) + (k,)
            if direction[:2] == (0, 0):
                raise ValueError("ray direction must be nonzero")
            direction = tuple(c // gcd(*direction) for c in direction)
        # normalize: drop interior vertices on straight runs, and absorb a
        # trailing segment that continues straight into the ray direction
        out = pts[:1]
        for c in pts[1:]:
            if len(out) >= 2 and _straight(out[-2], out[-1], c):
                out.pop()
            out.append(c)
        while direction and len(out) >= 2 and _straight(
                out[-2], out[-1], (out[-1][0] + direction[0],
                                   out[-1][1] + direction[1])):
            out.pop()
        # vertices and params over D, the direction as (x, y, k) meaning
        # (x/k, y/k), and the moves, the direction's last at its own scale
        g = gcd(den, *chain.from_iterable(out))
        self._den, self._dir = den // g, direction
        self._xy = [(x // g, y // g) for x, y in out]
        self._mv = [(bx - ax, by - ay)
                    for (ax, ay), (bx, by) in zip(self._xy, self._xy[1:])]
        self._s = list(accumulate((abs(x) + abs(y) for x, y in self._mv),
                                  initial=0))
        self._mv += [direction[:2]] if direction else []

    @cached_property
    def vertices(self) -> tuple[Vec, ...]:
        return tuple((Fraction(x, self._den), Fraction(y, self._den))
                     for x, y in self._xy)

    @cached_property
    def params(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(s, self._den) for s in self._s)

    @cached_property
    def direction(self) -> Optional[Vec]:
        if self._dir is None:
            return None
        x, y, k = self._dir
        return Fraction(x, k), Fraction(y, k)

    @property
    def is_ray(self) -> bool:
        return self._dir is not None

    @property
    def length(self) -> Fraction:
        return Fraction(self._s[-1], self._den)

    def at(self, t: Fraction) -> Vec:
        """Point at l1 arc-length parameter t."""
        n, d = _ratio(t)
        if n < 0:
            raise ValueError("parameter must be nonnegative")
        if self._dir is None and n * self._den > self._s[-1] * d:
            raise ValueError(f"parameter {Fraction(n, d)} beyond the path end")
        x, y, q = next(_sweep(self, d, [n * self._den]))
        return Fraction(x, q * d * self._den), Fraction(y, q * d * self._den)

    def moves(self) -> list[Vec]:
        out = [(b[0] - a[0], b[1] - a[1])
               for a, b in zip(self.vertices, self.vertices[1:])]
        if self.direction is not None:
            out.append(self.direction)
        return out

    def __eq__(self, other):
        return (isinstance(other, Polyline)
                and (self._den, self._xy, self._dir)
                == (other._den, other._xy, other._dir))

    def __hash__(self):
        return hash((self._den, tuple(self._xy), self._dir))

    def __repr__(self):
        tail = f", direction={self.direction}" if self.direction else ""
        return f"Polyline({list(self.vertices)}{tail})"

    def literal(self) -> str:
        body = ";".join(f"{x},{y}" for x, y in self.vertices)
        if self._dir is None:
            return body
        # the direction scaled to integers, which the parser reads back
        return f"{body} >{self._dir[0]}/{self._dir[1]}"


def _sweep(path: Polyline, k: int, ts):
    """The points of path at the ascending parameters ts, given as integers
    over k*D: (x, y, q) for the point (x, y)/(q*k*D), q being the l1 length
    of the move that reaches it (a segment, or the direction past the end)."""
    xy, s, mv = path._xy, path._s, path._mv or [(1, 0)]  # a lone point: t = 0
    i = 0
    for t in ts:
        while i + 1 < len(s) and t > s[i + 1] * k:
            i += 1
        (x, y), (dx, dy), u = xy[i], mv[i], t - s[i] * k
        q = abs(dx) + abs(dy)
        yield q * k * x + dx * u, q * k * y + dy * u, q


def parse_polyline(text: str) -> Polyline:
    text = text.strip()
    try:
        body, *tail = text.split(">")
        verts = [(_ratio(x), _ratio(y))
                 for x, y in (part.split(",") for part in body.strip().split(";"))]
        if len(tail) > 1:
            raise ValueError("more than one direction")
        direction = None
        if tail:
            dx, dy = tail[0].strip().split("/")
            direction = _ratio(dx), _ratio(dy)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse polyline literal {text!r}") from exc
    path = Polyline.__new__(Polyline)
    path._setup(verts, direction)
    return path


def is_geodesic_polyline(path: Polyline) -> bool:
    """True iff the l1 length equals the endpoint distance, equivalently
    all moves share a closed quadrant."""
    return bool(quadrant_windows(path._mv))


def check_monotone_commitment(path: Polyline) -> Optional[Fraction]:
    """Verify that after entering an open quadrant the path never retreats.

    Once the path passes through a point with, say, x, y > 0, both
    coordinates must be nondecreasing from then on (symmetrically in the
    other open quadrants). Returns None when the property holds, else the
    earliest parameter at which a forbidden move begins.
    """
    if path._xy[0] != (0, 0):
        raise ValueError("the path must start at the origin")
    for t, (x, y), (dx, dy) in zip(path._s, path._xy, path._mv):
        # the open quadrant just past (x, y): on an axis the move supplies
        # the missing sign; a path that has not retreated never leaves it
        qx = (x > 0) - (x < 0) or (dx > 0) - (dx < 0)
        qy = (y > 0) - (y < 0) or (dy > 0) - (dy < 0)
        if qx and qy and (qx * dx < 0 or qy * dy < 0):
            return Fraction(t, path._den)
    return None


class PlaneSplice(Value):
    # bound: certified l1 distance bound to the spliced-in ray g;
    # handoff_gap: |f(b) - g(b)|_1, the constant distance beyond b
    __slots__ = ("path", "bound", "handoff_gap")


def splice_plane(f: Polyline, g: Polyline, b: Fraction) -> PlaneSplice:
    """Follow f up to parameter b, then g's displacements translated.

    Both operands must be geodesic rays whose closures lie in a common
    quadrant; the result is geodesic, equals f on [0, b], and stays within
    the certified bound of g for all time.
    """
    bn, bd = _ratio(b)
    if bn < 0:
        raise ValueError("splice parameter must be nonnegative")
    for name, path in (("f", f), ("g", g)):
        if not path.is_ray:
            raise ValueError(f"{name} must be a ray")
        if not is_geodesic_polyline(path):
            raise ValueError(f"{name} is not geodesic")
    if not quadrant_windows([*f._xy, f._mv[-1], *g._xy, g._mv[-1]]):
        raise ValueError("rays do not share a quadrant closure")
    # everything over E, the common denominator of f, g and b; beyond b the
    # distance to g is the constant |f(b) - g(b)|_1; on [0, b] it is
    # piecewise linear and convex between breakpoints, the last being b
    e = lcm(f._den, g._den, bd)
    kf, kg, b = e // f._den, e // g._den, bn * (e // bd)  # b over E
    ts = sorted({0, b, *(s * kf for s in f._s if s * kf <= b),
                 *(s * kg for s in g._s if s * kg <= b)})
    top, top_q = 0, 1
    for (fx, fy, qf), (gx, gy, qg) in zip(_sweep(f, kf, ts), _sweep(g, kg, ts)):
        d = abs(fx * qg - gx * qf) + abs(fy * qg - gy * qf)  # over qf*qg*E
        if d * top_q > top * qf * qg:
            top, top_q = d, qf * qg
    # the new path, over E*qf*qg with f(b) and g(b) as the loop left them
    m = qf * qg
    sx, sy = fx * qg - gx * qf, fy * qg - gy * qf
    pts = [(x * kf * m, y * kf * m) for (x, y), s in zip(f._xy, f._s)
           if s * kf < b]
    pts.append((fx * qg, fy * qg))
    pts += [(x * kg * m + sx, y * kg * m + sy) for (x, y), s in zip(g._xy, g._s)
            if s * kg > b]
    out, (dx, dy, k) = Polyline.__new__(Polyline), g._dir
    out._setup([((x, e * m), (y, e * m)) for x, y in pts], ((dx, k), (dy, k)))
    return PlaneSplice(out, Fraction(top, top_q * e),
                       Fraction(abs(sx) + abs(sy), m * e))


def project_to_lattice(ray: Polyline) -> RayCode:
    """The grid ray shadowing a plane geodesic ray: a staircase preamble
    following the floor of the finite part, then the digitization of the
    final direction anchored at the last vertex."""
    if not ray.is_ray:
        raise ValueError("a final direction is required")
    if not is_geodesic_polyline(ray):
        raise ValueError("only geodesic rays project to geodesic staircases")
    if ray._xy[0] != (0, 0):
        raise ValueError("the ray must start at the origin")
    w = min(quadrant_windows(ray._mv))
    (sx, sy), (hdig, vdig) = WINDOW_SIGNS[w], WINDOW_DIGITS[w]
    # reflected frame, over D: both coordinates nondecreasing
    den = ray._den
    rverts = [(sx * x, sy * y) for x, y in ray._xy]
    # the tail, checked against the period cap first; a segment a -> c is
    # its line's staircase from a, cut after the n grid lines crossed in (a, c]
    tail = staircase_tail(sx * ray._mv[-1][0], sy * ray._mv[-1][1], hdig,
                          vdig, rverts[-1], den)
    digits: list[int] = []
    for (ax, ay), (cx, cy) in zip(rverts, rverts[1:]):
        n = cx // den - ax // den + cy // den - ay // den
        digits += Staircase(cx - ax, cy - ay, (ax, ay), den).digits(n, hdig, vdig)
    return RayCode(digits, tail).canonical()
