"""Shared seeded generators for rays and polylines, and the quadrant-rule
oracles.

The generators build inputs only through public constructors, so the tests
can use them as an independent exercise of the validation layer. The
oracles are the separate closed-quadrant tests the library used before
``lattice.quadrant_windows`` took their place, and the scans that the
window tables replaced: ``quadrant_windows_oracle`` tests every window's
signs against the sign pairs present, as ``quadrant_windows`` did before
it read one mask per sign pair, and ``digit_windows_oracle`` narrows the
windows digit by digit, where ``rays.digit_windows`` reads one table entry
per digit set.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import floor, lcm

from hypothesis import strategies as st

from gridrays import rays
from gridrays.ell1 import Polyline
from gridrays.exactnum import Surd, _make
from gridrays.lattice import WINDOW_SIGNS
from gridrays.rays import WINDOW_DIGITS, RayCode, Staircase, periodic_ray


# -- oracles: the closed-quadrant tests as they were -------------------------


def quadrant_windows_oracle(vectors):
    signs = {((x > 0) - (x < 0), (y > 0) - (y < 0)) for x, y in vectors}
    return {w for w, (sx, sy) in WINDOW_SIGNS.items()
            if all(sx * a >= 0 and sy * b >= 0 for a, b in signs)}


def digit_matches_window(digit, w):
    if digit in (0, 4):
        return w in (0, 3)  # east digits fit the {0,1} and {3,4} windows
    return digit in (w, w + 1)


def digit_windows_oracle(digits):
    ws = {0, 1, 2, 3}
    for d in digits:
        ws = {w for w in ws if digit_matches_window(d, w)}
        if not ws:
            break
    return ws


def window_of_signs(sx, sy):
    if sx >= 0 and sy >= 0:
        return 0
    if sx < 0 <= sy:
        return 1
    if sx < 0 and sy < 0:
        return 2
    return 3


def signs_monotone(moves):
    for idx in (0, 1):
        pos = any(m[idx] > 0 for m in moves)
        neg = any(m[idx] < 0 for m in moves)
        if pos and neg:
            return False
    return True


def shared_quadrant(f, g):
    for sx in (1, -1):
        for sy in (1, -1):
            def fits(path):
                return (all(sx * x >= 0 and sy * y >= 0
                            for x, y in path.vertices)
                        and sx * path.direction[0] >= 0
                        and sy * path.direction[1] >= 0)
            if fits(f) and fits(g):
                return True
    return False


def is_geodesic_word_oracle(word):
    digits = set(word.replace("4", "0"))
    return not ({"0", "2"} <= digits or {"1", "3"} <= digits)


def divide(x, y):
    """x / y for int, Fraction and Surd values over one radicand, as
    ``Surd.__truediv__`` found it: times the conjugate of y, which clears the
    root from the denominator. A rational quotient comes back a Fraction."""
    (a, b, d), (c, e, d2) = ((v.a, v.b, v.d) if isinstance(v, Surd)
                             else (Fraction(v), 0, 0) for v in (x, y))
    d = d or d2
    den = c * c - e * e * d
    return _make((a * c - b * e * d) / den, (b * c - a * e) / den, d)


def exact_staircase(dx, dy, anchor=(0, 0), scale=1):
    """``Staircase(dx, dy, anchor, scale)`` for Fraction and Surd speeds and
    anchors, as its constructor used to build it: ux and rho divided out as
    exact values, then written over one common denominator. The library
    keeps only the integer constructor and ``Staircase.from_origin``."""
    x0, y0 = anchor
    if scale != 1:
        x0, y0 = Fraction(x0, scale), Fraction(y0, scale)
    ux = divide(dx, dx + dy)
    uy = 1 - ux
    rho = (x0 - floor(x0)) * uy - (y0 - floor(y0)) * ux
    (a, b, d), (a0, b0, d0) = ((x.a, x.b, x.d) if isinstance(x, Surd)
                               else (Fraction(x), Fraction(0), 0)
                               for x in (ux, rho))
    assert b0 == 0, "an irrational rho has no integer form"
    den = lcm(a.denominator, b.denominator, a0.denominator)
    out = Staircase.from_origin(int(a * den), int(b * den), d or d0, den)
    out._p0 = int(a0 * den)
    return out


# -- generators ----------------------------------------------------------------


def make_periodic_ray(rng: random.Random) -> RayCode:
    """A random valid eventually periodic ray."""
    w = rng.randrange(4)
    alphabet = list(set(WINDOW_DIGITS[w]))
    while True:
        pre = [rng.choice(alphabet) for _ in range(rng.randrange(0, 5))]
        per = [rng.choice(alphabet) for _ in range(rng.randrange(1, 5))]
        ray = periodic_ray(pre, per)
        if rays.validate(ray):
            return ray


def make_same_window_pair(rng: random.Random) -> tuple[RayCode, RayCode]:
    """Two valid rays sharing a quadrant window (splice-compatible)."""
    while True:
        f = make_periodic_ray(rng)
        g = make_periodic_ray(rng)
        if rays.digit_windows(f.realized_digits()) & \
                rays.digit_windows(g.realized_digits()):
            return f, g


def _rand_frac(rng: random.Random, lo: int, hi: int) -> Fraction:
    den = rng.choice((1, 2, 3, 4, 8))
    return Fraction(rng.randint(lo * den, hi * den), den)


def make_monotone_polyline(rng: random.Random, with_direction: bool = False
                           ) -> Polyline:
    """A geodesic polyline from the origin into a random closed quadrant."""
    sx = rng.choice((1, -1))
    sy = rng.choice((1, -1))
    x = y = Fraction(0)
    verts = [(x, y)]
    for _ in range(rng.randrange(1, 6)):
        dx = _rand_frac(rng, 0, 3)
        dy = _rand_frac(rng, 0, 3)
        if dx == 0 and dy == 0:
            dx = Fraction(1)
        x += sx * dx
        y += sy * dy
        verts.append((x, y))
    direction = None
    if with_direction:
        direction = (sx * rng.randint(0, 3), sy * rng.randint(0, 3))
        if direction == (0, 0):
            direction = (sx, 0)
    return Polyline(verts, direction)


def make_backtracking_polyline(rng: random.Random
                               ) -> tuple[Polyline, Fraction]:
    """A path that enters an open quadrant and then retreats.

    Returns the path and the parameter at which the forbidden move begins.
    """
    sx = rng.choice((1, -1))
    sy = rng.choice((1, -1))
    x = y = Fraction(0)
    verts = [(x, y)]
    # move strictly inside the quadrant so commitment is unambiguous
    x += sx * _rand_frac(rng, 1, 3)
    y += sy * _rand_frac(rng, 1, 3)
    verts.append((x, y))
    for _ in range(rng.randrange(0, 3)):
        x += sx * _rand_frac(rng, 0, 2)
        y += sy * _rand_frac(rng, 0, 2)
        if (x, y) != verts[-1]:
            verts.append((x, y))
    t_violation = sum(abs(b[0] - a[0]) + abs(b[1] - a[1])
                      for a, b in zip(verts, verts[1:]))
    # the retreat: move against the committed quadrant
    if rng.random() < 0.5:
        bad = (x - sx * _rand_frac(rng, 1, 2), y)
    else:
        bad = (x, y - sy * _rand_frac(rng, 1, 2))
    verts.append(bad)
    return Polyline(verts), Fraction(t_violation)


_FRACS = st.one_of(st.just(Fraction(0)),
                   st.fractions(-3, 3, max_denominator=4))
_AXES = ((1, 0), (-1, 0), (0, 1), (0, -1))


@st.composite
def polyline_args(draw, axis: bool = False, monotone: bool = False,
                  ray: bool = True) -> tuple[list, tuple]:
    """Vertices and direction of a polyline from the origin: rational moves
    with zero components, or axis-parallel moves (all four directions);
    ``monotone`` keeps every move in one drawn closed quadrant."""
    sx, sy = draw(st.sampled_from(((1, 1), (-1, 1), (-1, -1), (1, -1))))

    def move():
        if axis:
            (ax, ay), k = draw(st.sampled_from(_AXES)), draw(st.integers(1, 3))
            dx, dy = ax * k, ay * k
        else:
            dx, dy = draw(_FRACS), draw(_FRACS)
        return (sx * abs(dx), sy * abs(dy)) if monotone else (dx, dy)

    verts = [(Fraction(0), Fraction(0))]
    for _ in range(draw(st.integers(0, 5))):
        dx, dy = move()
        if (dx, dy) != (0, 0):
            verts.append((verts[-1][0] + dx, verts[-1][1] + dy))
    direction = move() if ray else None
    if direction == (0, 0):
        direction = (sx, 0)
    return verts, direction


def polylines(axis: bool = False, monotone: bool = False, ray: bool = True):
    """``polyline_args`` built into a Polyline."""
    return polyline_args(axis, monotone, ray).map(lambda a: Polyline(*a))
