"""Geodesics of the taxicab plane: polylines, monotonicity, plane splice.

A path is a polyline with exact rational vertices starting at the origin,
parameterized at unit speed in l1 arc length; a ray carries an additional
infinite final direction. Polyline literal grammar: semicolon-separated
rational pairs with an optional ``>dx/dy`` direction suffix, e.g.
``"0,0;1,1;2,1 >1/0"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Optional, Sequence

from .lattice import WINDOW_SIGNS, quadrant_windows
from .rays import RayCode, Staircase, periodic_ray, WINDOW_DIGITS

Vec = tuple[Fraction, Fraction]


def ell1_distance(p: Vec, q: Vec) -> Fraction:
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def _norm1(v: Vec) -> Fraction:
    return abs(v[0]) + abs(v[1])


class Polyline:
    """Unit-speed (in l1 arc length) polyline, optionally an infinite ray."""

    def __init__(self, vertices: Sequence[Vec],
                 direction: Optional[Vec] = None):
        verts = [(Fraction(x), Fraction(y)) for x, y in vertices]
        if not verts:
            raise ValueError("a polyline needs at least one vertex")
        for a, b in zip(verts, verts[1:]):
            if a == b:
                raise ValueError("consecutive vertices must be distinct")
        if direction is not None:
            direction = (Fraction(direction[0]), Fraction(direction[1]))
            if direction == (0, 0):
                raise ValueError("ray direction must be nonzero")
        # normalize: drop interior vertices on straight runs, and absorb a
        # trailing segment that continues straight into the ray direction
        simplified = [verts[0]]
        for nxt in verts[1:]:
            if len(simplified) >= 2:
                ax, ay = simplified[-2]
                bx, by = simplified[-1]
                u = (bx - ax, by - ay)
                v = (nxt[0] - bx, nxt[1] - by)
                if u[0] * v[1] == u[1] * v[0] and u[0] * v[0] + u[1] * v[1] > 0:
                    simplified.pop()
            simplified.append(nxt)
        if direction is not None:
            while len(simplified) >= 2:
                ax, ay = simplified[-2]
                bx, by = simplified[-1]
                u = (bx - ax, by - ay)
                if (u[0] * direction[1] == u[1] * direction[0]
                        and u[0] * direction[0] + u[1] * direction[1] > 0):
                    simplified.pop()
                else:
                    break
        self.vertices: tuple[Vec, ...] = tuple(simplified)
        self.direction = direction
        verts = simplified
        params = [Fraction(0)]
        for a, b in zip(verts, verts[1:]):
            params.append(params[-1] + ell1_distance(a, b))
        self.params: tuple[Fraction, ...] = tuple(params)

    @property
    def is_ray(self) -> bool:
        return self.direction is not None

    @property
    def length(self) -> Fraction:
        return self.params[-1]

    def at(self, t: Fraction) -> Vec:
        """Point at l1 arc-length parameter t."""
        t = Fraction(t)
        if t < 0:
            raise ValueError("parameter must be nonnegative")
        if t > self.length:
            if self.direction is None:
                raise ValueError(f"parameter {t} beyond the path end")
            u = self.unit_direction()
            x, y = self.vertices[-1]
            extra = t - self.length
            return (x + u[0] * extra, y + u[1] * extra)
        for i in range(len(self.vertices) - 1):
            if t <= self.params[i + 1]:
                a, b = self.vertices[i], self.vertices[i + 1]
                seg = self.params[i + 1] - self.params[i]
                lam = (t - self.params[i]) / seg
                return (a[0] + (b[0] - a[0]) * lam, a[1] + (b[1] - a[1]) * lam)
        return self.vertices[-1]

    def unit_direction(self) -> Vec:
        if self.direction is None:
            raise ValueError("not a ray")
        n = _norm1(self.direction)
        return (self.direction[0] / n, self.direction[1] / n)

    def moves(self) -> list[Vec]:
        out = [(b[0] - a[0], b[1] - a[1])
               for a, b in zip(self.vertices, self.vertices[1:])]
        if self.direction is not None:
            out.append(self.direction)
        return out

    def __eq__(self, other):
        return (isinstance(other, Polyline)
                and self.vertices == other.vertices
                and self.direction == other.direction)

    def __repr__(self):
        tail = f", direction={self.direction}" if self.direction else ""
        return f"Polyline({list(self.vertices)}{tail})"

    def literal(self) -> str:
        body = ";".join(f"{x},{y}" for x, y in self.vertices)
        if self.direction is None:
            return body
        return f"{body} >{self.direction[0]}/{self.direction[1]}"


def parse_polyline(text: str) -> Polyline:
    text = text.strip()
    direction = None
    if ">" in text:
        body, d = text.split(">")
        dx, dy = d.strip().split("/")
        direction = (Fraction(dx), Fraction(dy))
    else:
        body = text
    verts = []
    for part in body.strip().split(";"):
        x, y = part.split(",")
        verts.append((Fraction(x), Fraction(y)))
    return Polyline(verts, direction)


def is_geodesic_polyline(path: Polyline) -> bool:
    """True iff the l1 length equals the endpoint distance, equivalently
    all moves share a closed quadrant."""
    return bool(quadrant_windows(path.moves()))


def check_monotone_commitment(path: Polyline) -> Optional[Fraction]:
    """Verify that after entering an open quadrant the path never retreats.

    Once the path passes through a point with, say, x, y > 0, both
    coordinates must be nondecreasing from then on (symmetrically in the
    other open quadrants). Returns None when the property holds, else the
    earliest parameter at which a forbidden move begins.
    """
    if path.vertices[0] != (Fraction(0), Fraction(0)):
        raise ValueError("the path must start at the origin")
    for t, (x, y), (dx, dy) in zip(path.params, path.vertices, path.moves()):
        # the open quadrant just past (x, y): on an axis the move supplies
        # the missing sign; a path that has not retreated never leaves it
        qx = (x > 0) - (x < 0) or (dx > 0) - (dx < 0)
        qy = (y > 0) - (y < 0) or (dy > 0) - (dy < 0)
        if qx and qy and (qx * dx < 0 or qy * dy < 0):
            return t
    return None


@dataclass(frozen=True)
class PlaneSplice:
    path: Polyline
    bound: Fraction  # certified l1 distance bound to the spliced-in ray
    handoff_gap: Fraction  # |f(b) - g(b)|_1, the constant distance beyond b


def splice_plane(f: Polyline, g: Polyline, b: Fraction) -> PlaneSplice:
    """Follow f up to parameter b, then g's displacements translated.

    Both operands must be geodesic rays whose closures lie in a common
    quadrant; the result is geodesic, equals f on [0, b], and stays within
    the certified bound of g for all time.
    """
    b = Fraction(b)
    if b < 0:
        raise ValueError("splice parameter must be nonnegative")
    for name, path in (("f", f), ("g", g)):
        if not path.is_ray:
            raise ValueError(f"{name} must be a ray")
        if not is_geodesic_polyline(path):
            raise ValueError(f"{name} is not geodesic")
    if not quadrant_windows([*f.vertices, f.direction,
                             *g.vertices, g.direction]):
        raise ValueError("rays do not share a quadrant closure")
    fb = f.at(b)
    gb = g.at(b)
    shift = (fb[0] - gb[0], fb[1] - gb[1])
    verts = [v for v, t in zip(f.vertices, f.params) if t < b]
    verts.append(fb)
    for v, t in zip(g.vertices, g.params):
        if t > b:
            verts.append((v[0] + shift[0], v[1] + shift[1]))
    dedup = [verts[0]]
    for v in verts[1:]:
        if v != dedup[-1]:
            dedup.append(v)
    out = Polyline(dedup, g.direction)
    # beyond b the distance to g is the constant |f(b) - g(b)|_1; on [0, b]
    # it is piecewise linear and convex between breakpoints
    gap = _norm1(shift)
    breaks = sorted({t for t in f.params if t <= b}
                    | {t for t in g.params if t <= b} | {Fraction(0), b})
    bound = gap
    for t in breaks:
        d = ell1_distance(f.at(t), g.at(t))
        bound = max(bound, d)
    return PlaneSplice(out, bound, gap)


def project_to_lattice(ray: Polyline) -> RayCode:
    """The grid ray shadowing a plane geodesic ray: a staircase preamble
    following the floor of the finite part, then the digitization of the
    final direction anchored at the last vertex."""
    if not ray.is_ray:
        raise ValueError("a final direction is required")
    if not is_geodesic_polyline(ray):
        raise ValueError("only geodesic rays project to geodesic staircases")
    if ray.vertices[0] != (Fraction(0), Fraction(0)):
        raise ValueError("the ray must start at the origin")
    w = min(quadrant_windows(ray.moves()))
    (sx, sy), (hdig, vdig) = WINDOW_SIGNS[w], WINDOW_DIGITS[w]
    # reflected frame: both coordinates nondecreasing
    rverts = [(sx * x, sy * y) for x, y in ray.vertices]
    rdir = (sx * ray.direction[0], sy * ray.direction[1])
    # a segment a -> c is its line's staircase from a, cut after the n grid
    # lines crossed in (a, c]; the tail repeats every p+q steps, p/q reduced
    digits: list[int] = []
    for a, c in zip(rverts, rverts[1:]):
        n = floor(c[0]) - floor(a[0]) + floor(c[1]) - floor(a[1])
        digits += Staircase(c[0] - a[0], c[1] - a[1], a).digits(n, hdig, vdig)
    p, q = rdir
    per = Staircase(p, q, rverts[-1]).digits((p / (p + q)).denominator,
                                             hdig, vdig)
    return periodic_ray(digits, per)
