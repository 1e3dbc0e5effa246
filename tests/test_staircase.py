"""The staircase kernel against the crossing loops it replaced.

The oracles below are the merge loops that used to live in ``rays`` and
``ell1``: they walk grid-line crossings one at a time, horizontal first on
ties. The kernel computes the same digits in closed form, so digits,
positions, ``n_map`` enclosures and Sturmian line bounds must agree exactly.
So must the Sturmian tail built from its one division, the integer
direction keys and the halving loop of ``n_map``'s enclosure width.
"""

import random
import tracemalloc
from fractions import Fraction
from math import ceil, floor, gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from gridrays import exactnum, rays
from gridrays.ell1 import Polyline, project_to_lattice
from gridrays.exactnum import Surd, exact_sign, sqrt_exact
from gridrays.lattice import DISPLACEMENTS, WINDOW_SIGNS, word_metric
from gridrays.rays import (Asymptotic, Enclosure, RayCode, Staircase,
                           SturmianTail, WINDOW_DIGITS, are_asymptotic,
                           digitize, n_map, periodic_ray)

from conftest import (divide, exact_staircase, make_monotone_polyline,
                      polylines, window_of_signs)
from test_periodic_kernels import (digit_oracle, equal_direction_pairs,
                                  periodic_rays)

F = Fraction


# -- oracles: the crossing loops, as they were ---------------------------------


def rational_period_oracle(p, q):
    out = []
    i = j = 1
    while len(out) < p + q:
        if i * q <= j * p:  # i/p <= j/q: horizontal crossing first (ties horizontal)
            out.append(0)
            i += 1
        else:
            out.append(1)
            j += 1
    return tuple(out)


class StreamOracle:
    """The growing stream that ``SturmianTail`` used to keep."""

    def __init__(self, ux, uy):
        self.ux, self.uy = ux, uy
        self._stream = []

    def _stream_step(self, n):
        stream = self._stream
        if n > len(stream):
            i = 1 + sum(stream)
            j = 1 + len(stream) - (i - 1)
            while len(stream) < n:
                # next horizontal event at i/ux vs vertical at j/uy
                if exact_sign(i * self.uy - j * self.ux) <= 0:
                    stream.append(True)
                    i += 1
                else:
                    stream.append(False)
                    j += 1
        return stream[n - 1]


def integer_crossings_oracle(lo, hi):
    return list(range(floor(lo) + 1, floor(hi) + 1))


def segment_crossings_oracle(a, c, hdig, vdig):
    dx, dy = c[0] - a[0], c[1] - a[1]
    xs = integer_crossings_oracle(a[0], c[0]) if dx > 0 else []
    ys = integer_crossings_oracle(a[1], c[1]) if dy > 0 else []
    out = []
    ix = iy = 0
    while ix < len(xs) or iy < len(ys):
        if iy >= len(ys):
            out.append(hdig)
            ix += 1
        elif ix >= len(xs):
            out.append(vdig)
            iy += 1
        else:
            lhs = (xs[ix] - a[0]) * dy
            rhs = (ys[iy] - a[1]) * dx
            if lhs <= rhs:
                out.append(hdig)
                ix += 1
            else:
                out.append(vdig)
                iy += 1
    return out


def tail_period_oracle(anchor, direction, hdig, vdig):
    p = Fraction(direction[0])
    q = Fraction(direction[1])
    if q == 0:
        return [hdig]
    if p == 0:
        return [vdig]
    scale = Fraction(p.denominator * q.denominator // gcd(p.denominator, q.denominator))
    pi, qi = int(p * scale), int(q * scale)
    g = gcd(pi, qi)
    pi, qi = pi // g, qi // g
    x0, y0 = anchor
    out = []
    i = floor(x0) + 1
    j = floor(y0) + 1
    while len(out) < pi + qi:
        lhs = (i - x0) * qi
        rhs = (j - y0) * pi
        if lhs <= rhs:
            out.append(hdig)
            i += 1
        else:
            out.append(vdig)
            j += 1
    return out


def project_oracle(ray):
    """``project_to_lattice`` built from the two ell1 loops."""
    moves = ray.moves()
    sx = 1 if all(m[0] >= 0 for m in moves) else -1
    sy = 1 if all(m[1] >= 0 for m in moves) else -1
    w = window_of_signs(sx if any(m[0] != 0 for m in moves) else 0,
                        sy if any(m[1] != 0 for m in moves) else 0)
    hdig, vdig = WINDOW_DIGITS[w]
    rverts = [(sx * x, sy * y) for x, y in ray.vertices]
    rdir = (sx * ray.direction[0], sy * ray.direction[1])
    digits = []
    for a, c in zip(rverts, rverts[1:]):
        digits.extend(segment_crossings_oracle(a, c, hdig, vdig))
    return periodic_ray(digits, tail_period_oracle(rverts[-1], rdir, hdig, vdig))


class SturmianRayOracle:
    """A preamble plus the offset stream, walked one digit at a time."""

    def __init__(self, preamble, tail):
        self.preamble, self.tail = tuple(preamble), tail
        self.stream = StreamOracle(tail.ux, tail.uy)

    def digit_at(self, n):
        pre = self.preamble
        if n <= len(pre):
            return pre[n - 1]
        h, v = WINDOW_DIGITS[self.tail.window]
        return h if self.stream._stream_step(self.tail.offset + n - len(pre)) else v

    def points(self, t):
        pts = [(0, 0)]
        for n in range(1, t + 1):
            dx, dy = DISPLACEMENTS[self.digit_at(n)]
            pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
        return pts

    def n_map(self):
        m = min(set(self.preamble) | set(WINDOW_DIGITS[self.tail.window]))
        k = max(len(self.preamble), 64)
        bits = [self.digit_at(n) - m for n in range(1, k + 1)]
        lo = Fraction(sum(b << (k - 1 - i) for i, b in enumerate(bits)), 1 << k)
        return Enclosure(m + lo, m + lo + Fraction(1, 1 << k))

    def line_bound(self, ux, uy):
        t, p, o = self.tail, len(self.preamble), self.tail.offset
        h, v = WINDOW_DIGITS[t.window]
        sx, sy = DISPLACEMENTS[h][0], DISPLACEMENTS[v][1]
        pts = self.points(p)
        hsteps = sum(1 for n in range(1, o + 1) if self.stream._stream_step(n))
        cx = pts[p][0] - sx * hsteps + (o - p) * ux
        cy = pts[p][1] - sy * (o - hsteps) + (o - p) * uy
        bound = abs(cx) + abs(cy) + 2
        for tt, (x, y) in enumerate(pts):
            dev = abs(x - tt * ux) + abs(y - tt * uy)
            if exact_sign(dev - bound) > 0:
                bound = dev
        return bound


def sturmian_tail_oracle(ax, ay):
    """``SturmianTail.__init__`` as it was: ay/ax tested, ux and uy each
    divided out, the staircase built through the Surd path of Staircase,
    now ``exact_staircase``."""
    assert isinstance(divide(ay, ax), Surd)
    total = ax + ay
    ux, uy = divide(ax, total), divide(ay, total)
    return ux, uy, exact_staircase(ux, uy)


def n_map_loop_oracle(ray, width):
    """``n_map`` of a Sturmian ray as it was: k found by halving."""
    m, k = ray.m(), len(ray.preamble)
    while Fraction(1, 1 << k) > width:
        k += 1
    bits = [d - m for d in ray.digits(k)]
    lo = Fraction(sum(b << (k - 1 - i) for i, b in enumerate(bits)), 1 << k)
    return Enclosure(m + lo, m + lo + Fraction(1, 1 << k))


def line_bound(ray):
    """``rays._sturmian_line_bound``'s integers (a, b) as the exact number
    (a + b*sqrt(d))/D, (P, Q, d, D) the tail's speed."""
    a, b = rays._sturmian_line_bound(ray)
    _, _, d, D = ray.tail.speed()
    return exactnum._make(F(a, D), F(b, D), d)


def line_bound_oracle(ray):
    """``rays._sturmian_line_bound`` as it was: Surd deviations per preamble
    step."""
    t = ray.tail
    ux, uy = ray.direction()
    p = len(ray.preamble)
    o = t.offset
    # anchor error: ray(t) = A + S(o+t-p) - S(o) with S(n) within 2 of n*u,
    # S(n) the pure stream's point after n steps; -S(o) = displacement(-o)
    (ax_, ay_), (bx, by) = ray.point_at(p), t.displacement(-o)
    cx = ax_ + bx + (o - p) * ux
    cy = ay_ + by + (o - p) * uy
    bound = abs(cx) + abs(cy) + 2
    for tt in range(p + 1):
        x, y = ray.point_at(tt)
        dev = abs(x - tt * ux) + abs(y - tt * uy)
        if exact_sign(dev - bound) > 0:
            bound = dev
    return bound


# -- strategies -----------------------------------------------------------------

NON_SQUARES = [d for d in range(2, 200) if int(d ** 0.5) ** 2 != d]
positive = st.fractions(min_value=F(1, 16), max_value=40, max_denominator=16)
anchors = st.fractions(min_value=-20, max_value=20, max_denominator=12)
lengths = st.fractions(min_value=0, max_value=12, max_denominator=12)


@st.composite
def irrational_directions(draw):
    """(ax, ay) with one rational speed and one q*sqrt(d), d non-square."""
    root = draw(positive) * sqrt_exact(draw(st.sampled_from(NON_SQUARES)))
    a = draw(positive)
    return (a, root) if draw(st.booleans()) else (root, a)


# -- rational periods -------------------------------------------------------------


def test_rational_period_matches_oracle_below_40():
    for p in range(1, 40):
        for q in range(1, 40):
            if gcd(p, q) == 1:
                assert tuple(Staircase(p, q).digits(p + q, 0, 1)) == \
                    rational_period_oracle(p, q)


@given(st.integers(1, 3000), st.integers(1, 3000), st.sampled_from(range(4)))
def test_digitize_rational_matches_oracle(p, q, w):
    g = gcd(p, q)
    p, q = p // g, q // g
    h, v = WINDOW_DIGITS[w]
    sx, sy = DISPLACEMENTS[h][0], DISPLACEMENTS[v][1]
    want = periodic_ray((), [h if s == 0 else v
                             for s in rational_period_oracle(p, q)])
    assert digitize(sx * p, sy * q) == want


# -- Sturmian tails ----------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(irrational_directions(), st.sampled_from(range(4)),
       st.integers(0, 300), st.data())
def test_sturmian_ray_matches_stream_oracle(direction, w, offset, data):
    tail = SturmianTail(*direction, w, offset)
    pre = data.draw(st.lists(st.sampled_from(WINDOW_DIGITS[w]), max_size=6))
    ray = RayCode(pre, tail).canonical()
    oracle = SturmianRayOracle(ray.preamble, tail)
    n = 80
    assert ray.digits(n) == tuple(oracle.digit_at(k) for k in range(1, n + 1))
    assert ray.points(n) == oracle.points(n)
    assert [ray.point_at(t) for t in range(n, -1, -1)] == oracle.points(n)[::-1]
    assert n_map(ray) == oracle.n_map()
    assert line_bound(ray) == oracle.line_bound(*ray.direction())


@settings(deadline=None, max_examples=60)
@given(irrational_directions(), st.sampled_from(range(4)), st.integers(0, 300))
def test_sturmian_tail_matches_the_divided_construction(direction, w, offset):
    tail = SturmianTail(*direction, w, offset)
    ux, uy, line = sturmian_tail_oracle(*direction)
    assert (tail.ux, tail.uy) == (ux, uy)
    assert (type(tail.ux), type(tail.uy)) == (type(ux), type(uy))
    assert tail.speed() == line.speed()
    h0 = line.horizontal(offset)
    assert [tail.horizontal(k) for k in range(201)] == \
        [line.horizontal(offset + k) - h0 for k in range(201)]


def test_rational_sturmian_directions_are_refused():
    root = sqrt_exact(2)
    for ax, ay in [(1, 2), (F(1, 2), F(3, 4)), (2, F(5, 3)),
                   (root, 3 * root), (1 + root, 2 + 2 * root)]:
        with pytest.raises(ValueError, match="^rational direction"):
            SturmianTail(ax, ay, 0)


windows = st.sampled_from(range(4))


def test_sturmian_errors_keep_their_messages():
    r2, r3 = sqrt_exact(2), sqrt_exact(3)
    with pytest.raises(ValueError, match=r"^cannot mix sqrt\(2\) and sqrt\(3\) "):
        SturmianTail(r2, r3, 0)
    # digitize names dy's radicand first
    with pytest.raises(ValueError, match=r"^cannot mix sqrt\(3\) and sqrt\(2\) "):
        digitize(r2, r3)
    for ax, ay in [(0, r2), (r2, -1), (1 - r2, 1)]:
        with pytest.raises(ValueError, match="^Sturmian directions must have "
                                             "positive components$"):
            SturmianTail(ax, ay, 0)


@pytest.mark.parametrize("ax, ay", [(0.5, 0.25), (1, 0.25), (0.5, 1),
                                    (2 ** 0.5, 1.0), (sqrt_exact(2), 0.5),
                                    (0.5, sqrt_exact(2))])
def test_float_components_are_refused(ax, ay):
    # a float is no exact number: neither digitize nor SturmianTail reads
    # one, whatever its value
    for build in (digitize, lambda x, y: SturmianTail(x, y, 0)):
        with pytest.raises(ValueError, match="^rational direction; use a "
                                             "periodic tail$"):
            build(ax, ay)


@st.composite
def quadratic_directions(draw):
    """(ax, ay) > 0, each a + b*sqrt(d) over one radicand, rational ratios
    and rational components among them."""
    d = draw(st.sampled_from(NON_SQUARES))
    parts = st.fractions(min_value=-30, max_value=30, max_denominator=12)
    a1, b1, a2, b2 = (draw(parts) for _ in range(4))
    if draw(st.booleans()):  # ay a rational multiple of ax
        a2, b2 = a1 * draw(positive), b1 * draw(positive)
    root = sqrt_exact(d)
    ax, ay = a1 + b1 * root, a2 + b2 * root
    assume(exactnum.exact_sign(ax) > 0 and exactnum.exact_sign(ay) > 0)
    return ax, ay


@settings(deadline=None, max_examples=150)
@given(st.one_of(quadratic_directions(), irrational_directions()), windows)
def test_digitize_matches_the_divided_construction(direction, w):
    ax, ay = direction
    (sx, sy), (h, v) = WINDOW_SIGNS[w], WINDOW_DIGITS[w]
    got = digitize(sx * ax, sy * ay)
    ratio = divide(ay, ax)
    if not isinstance(ratio, Surd):
        want = RayCode((), rays.staircase_tail(ratio.denominator,
                                               ratio.numerator, h, v))
        assert got == want.canonical()
        return
    ux, uy, line = sturmian_tail_oracle(ax, ay)
    assert got.preamble == () and (got.tail.ux, got.tail.uy) == (ux, uy)
    assert (type(got.tail.ux), type(got.tail.uy)) == (type(ux), type(uy))
    assert (got.tail.window, got.tail.offset) == (w, 0)
    assert got.tail.speed() == line.speed()
    assert got == RayCode((), SturmianTail(ax, ay, w))


def surd_sum_verdict(f, g):
    """``are_asymptotic`` on an equal-direction Sturmian pair as it was: the
    two line bounds added as Surds, then one exact ceiling."""
    return Asymptotic(ceil(line_bound_oracle(f) + line_bound_oracle(g)),
                      attained=False)


def test_sturmian_paths_do_no_surd_arithmetic(monkeypatch):
    roots = {d: sqrt_exact(d) for d in (2, 3, 5, 7, 2003)}
    # built before arithmetic is switched off: a + b*sqrt(d) operands
    operands = [(F(2, 3), F(1, 2) * roots[7]), (roots[3], 1 + roots[3]),
                (3 - roots[2], F(5, 4))]
    head = periodic_ray("", "001")

    def boom(*args):
        raise AssertionError("Surd arithmetic on a Sturmian path")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__"):
        monkeypatch.setattr(exactnum.Surd, name, boom)
    rays_built = []
    for ax, ay in operands:
        for w in range(4):
            rays_built.append(RayCode((), SturmianTail(ax, ay, w, 17)))
    for root in roots.values():
        ray = digitize(1, root)
        assert len(ray.digits(300)) == len(ray.points(300)) - 1 == 300
        assert isinstance(n_map(ray), Enclosure)
        rays_built += [ray] + [rays.splice(head, ray, s) for s in (40, 700)]
    bounds = list(map(line_bound, rays_built))
    # equal-direction pairs: offsets 17 and 5 of one tail, and each line
    # against its two splices
    pairs = [(RayCode((), SturmianTail(1, roots[3], w, 17)),
              RayCode((), SturmianTail(1, roots[3], w, 5))) for w in range(4)]
    pairs += [(rays_built[i], rays_built[i + j])
              for i in range(12, len(rays_built), 3) for j in (1, 2)]
    verdicts = [are_asymptotic(f, g) for f, g in pairs]
    monkeypatch.undo()
    assert any(isinstance(b, exactnum.Surd) for b in bounds)
    assert bounds == list(map(line_bound_oracle, rays_built))
    assert verdicts == [surd_sum_verdict(f, g) for f, g in pairs]


@st.composite
def equal_direction_sturmian_pairs(draw):
    """Two Sturmian rays of one direction: the same line, scaled or not, in
    one window, with their own offsets and preambles."""
    ax, ay = draw(irrational_directions())
    w, c = draw(windows), draw(positive)
    return tuple(
        RayCode(draw(st.lists(st.sampled_from(WINDOW_DIGITS[w]), max_size=8)),
                SturmianTail(x, y, w, draw(st.integers(0, 200)))).canonical()
        for x, y in ((ax, ay), (c * ax, c * ay)))


@settings(deadline=None, max_examples=60)
@given(equal_direction_sturmian_pairs())
def test_equal_direction_sturmian_verdict_matches_the_surd_sum(pair):
    f, g = pair
    want = surd_sum_verdict(f, g)
    assert are_asymptotic(f, g) == want == are_asymptotic(g, f)
    assert type(want.bound) is int


@st.composite
def sturmian_pairs(draw):
    """Two Sturmian rays: one line in two windows, the line scaled, the
    line with its speeds swapped, or two lines; any offsets."""
    ax, ay = draw(irrational_directions())
    kind, c = draw(st.integers(0, 2)), draw(positive)
    bx, by = ((c * ax, c * ay) if kind == 0 else (ay, ax) if kind == 1
              else draw(irrational_directions()))
    return tuple(RayCode((), SturmianTail(x, y, draw(windows),
                                          draw(st.integers(0, 50))))
                 for x, y in ((ax, ay), (bx, by)))


@st.composite
def mixed_pairs(draw):
    ax, ay = draw(irrational_directions())
    line = RayCode((), SturmianTail(ax, ay, draw(windows)))
    return draw(periodic_rays()), line


@settings(deadline=None, max_examples=200)
@given(st.one_of(equal_direction_pairs(), equal_direction_pairs(axis=True),
                 st.tuples(periodic_rays(), periodic_rays()),
                 sturmian_pairs(), mixed_pairs()))
def test_direction_keys_match_direction_equality(pair):
    f, g = pair
    same = f.direction() == g.direction()
    assert (rays._direction_key(f) == rays._direction_key(g)) == same
    assert (rays._direction_key(g) == rays._direction_key(f)) == same


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 39), st.integers(1, 299), st.integers(0, 100),
       windows, st.sampled_from([2, 3, 5, 1009]), st.integers(0, 70))
def test_n_map_width_matches_the_halving_loop(num, den, bits, w, d, s):
    (sx, sy), (h, v) = WINDOW_SIGNS[w], WINDOW_DIGITS[w]
    line = digitize(sx, sy * sqrt_exact(d))
    width = F(num, den << bits)
    for ray in (line, rays.splice(periodic_ray([h, v, v], [v, h]), line, s)):
        assert n_map(ray, width) == n_map_loop_oracle(ray, width)


def test_n_map_refuses_a_width_that_is_not_positive():
    # the halving loop never ended on a Sturmian ray at width 0
    for ray in (digitize(1, sqrt_exact(2)), periodic_ray("0", "01")):
        for width in (0, F(0), F(-1, 3), -2):
            with pytest.raises(ValueError, match="width must be positive"):
                n_map(ray, width)


@st.composite
def spliced_sturmian_rays(draw):
    """A Sturmian line in any window, spliced after a periodic ray at s."""
    w = draw(st.sampled_from(range(4)))
    h, v = WINDOW_DIGITS[w]
    sx, sy = DISPLACEMENTS[h][0], DISPLACEMENTS[v][1]
    ax, ay = draw(irrational_directions())
    digits = st.sampled_from((h, v))
    # runs of one digit take the preamble far from the line and back, so
    # its largest deviation can beat the anchor term, on either side
    runs = st.lists(st.tuples(digits, st.integers(1, 30)), max_size=4)
    pre = [d for d, n in draw(runs) for _ in range(n)]
    head = periodic_ray(pre, draw(st.lists(digits, min_size=1, max_size=7)))
    assume(rays.validate(head))
    return rays.splice(head, digitize(sx * ax, sy * ay),
                       draw(st.integers(0, 700)))


@st.composite
def detour_rays(draw):
    """A Sturmian line spliced after a detour of n steps one way and then as
    many steps the other way as bring it back to the line, so the largest
    deviation sits inside the preamble, above or below the line."""
    w = draw(st.sampled_from(range(4)))
    h, v = WINDOW_DIGITS[w]
    sx, sy = DISPLACEMENTS[h][0], DISPLACEMENTS[v][1]
    ax, ay = draw(irrational_directions())
    line = digitize(sx * ax, sy * ay)
    a, n = line.tail.ux, draw(st.integers(1, 350))
    out, back = (v, h) if draw(st.booleans()) else (h, v)
    ratio = divide(a, 1 - a) if out == v else divide(1 - a, a)
    pre = [out] * n + [back] * floor(n * ratio)
    assume(len(pre) <= 700)
    return rays.splice(periodic_ray(pre, [back]), line, len(pre))


@settings(deadline=None, max_examples=40)
@given(st.one_of(spliced_sturmian_rays(), detour_rays()))
def test_line_bound_matches_oracle_at_long_preambles(ray):
    got, want = line_bound(ray), line_bound_oracle(ray)
    assert got == want and type(got) is type(want)


@settings(deadline=None, max_examples=60)
@given(spliced_sturmian_rays())
def test_sturmian_splice_is_valid_from_the_start(ray):
    fresh = RayCode(ray.preamble, ray.tail)
    assert ray._valid is not None and fresh._valid is None
    assert ray._valid == rays.validate(fresh)


def test_line_bound_builds_constant_many_surds(monkeypatch):
    made = []

    def counting_make(a, b, d):
        made.append(d)
        return make(a, b, d)

    make = exactnum._make
    monkeypatch.setattr(exactnum, "_make", counting_make)
    monkeypatch.setattr(rays, "_make", counting_make)
    head, line = periodic_ray("", "001"), digitize(1, sqrt_exact(3))
    counts = []
    for s in (20, 200, 700):
        ray = rays.splice(head, line, s)
        made.clear()
        rays._sturmian_line_bound(ray)
        counts.append(len(made))
    assert counts[0] == counts[1] == counts[2] < 40


@settings(deadline=None, max_examples=30)
@given(irrational_directions(), st.integers(0, 200), st.integers(0, 200))
def test_advanced_tail_is_the_offset_tail(direction, offset, steps):
    tail = SturmianTail(*direction, 0, offset)
    moved = tail.advanced(steps)
    assert moved == SturmianTail(*direction, 0, offset + steps)
    stream = StreamOracle(tail.ux, tail.uy)
    for k in range(1, 40):
        want = 0 if stream._stream_step(offset + steps + k) else 1
        assert digit_oracle(RayCode((), moved), k) == want


def test_forty_irrational_slopes_match_stream():
    rng = random.Random(7)
    for _ in range(40):
        d = rng.choice(NON_SQUARES)
        ax = F(rng.randrange(1, 30), rng.randrange(1, 9))
        ay = F(rng.randrange(1, 30), rng.randrange(1, 9)) * sqrt_exact(d)
        tail = SturmianTail(ax, ay, 0)
        stream = StreamOracle(tail.ux, tail.uy)
        got = RayCode((), tail).digits(600)
        assert got == tuple(0 if stream._stream_step(n) else 1
                            for n in range(1, 601))


@given(st.sampled_from(range(4)), st.data(),
       st.lists(st.integers(0, 120), min_size=1, max_size=4))
def test_periodic_points_match_digit_walk(w, data, horizons):
    digits = st.sampled_from(WINDOW_DIGITS[w])
    pre = data.draw(st.lists(digits, max_size=8))
    per = data.draw(st.lists(digits, min_size=1, max_size=9))
    ray = RayCode(pre, rays.PeriodicTail(tuple(per)))
    walk = [(0, 0)]
    for n in range(1, max(horizons) + 1):
        dx, dy = DISPLACEMENTS[digit_oracle(ray, n)]
        walk.append((walk[-1][0] + dx, walk[-1][1] + dy))
    for t in horizons:  # the prefix cache grows in uneven steps
        assert ray.points(t) == walk[:t + 1]
        assert [ray.point_at(u) for u in range(t + 1)] == walk[:t + 1]


# -- anchored segments and tails (ell1) ---------------------------------------------


@given(anchors, anchors, lengths, lengths, st.sampled_from(range(4)))
def test_segment_staircase_matches_crossing_merge(x0, y0, dx, dy, w):
    if dx == dy == 0:
        dx = F(1)
    a, c = (x0, y0), (x0 + dx, y0 + dy)
    h, v = WINDOW_DIGITS[w]
    n = floor(c[0]) - floor(a[0]) + floor(c[1]) - floor(a[1])
    assert exact_staircase(dx, dy, a).digits(n, h, v) == \
        segment_crossings_oracle(a, c, h, v)


@given(anchors, anchors, lengths, lengths, st.integers(0, 60))
def test_horizontal_counts_the_horizontal_digits(x0, y0, dx, dy, n):
    if dx == dy == 0:
        dx = F(1)
    line = exact_staircase(dx, dy, (x0, y0))  # axis-parallel lines included
    assert 0 <= line.horizontal(n) <= n
    assert line.horizontal(n) == line.digits(n, 0, 1).count(0)


@given(anchors, anchors, st.integers(0, 30), st.integers(0, 30),
       st.sampled_from(range(4)))
def test_tail_staircase_matches_period_loop(x0, y0, p, q, w):
    if p == q == 0:
        p = 1
    p, q = F(p, 3), F(q, 2)
    h, v = WINDOW_DIGITS[w]
    period = (p / (p + q)).denominator
    assert exact_staircase(p, q, (x0, y0)).digits(period, h, v) == \
        tail_period_oracle((x0, y0), (p, q), h, v)


def test_project_to_lattice_matches_crossing_loops():
    rng = random.Random(43)
    for _ in range(200):
        path = make_monotone_polyline(rng, with_direction=True)
        assert project_to_lattice(path) == project_oracle(path)
    axis = Polyline([(F(0), F(0)), (F(5, 2), F(0)), (F(5, 2), F(7, 3))], (0, 1))
    assert project_to_lattice(axis) == project_oracle(axis)


@settings(deadline=None, max_examples=200)
@given(st.one_of(polylines(axis=True, monotone=True), polylines(monotone=True)))
def test_project_axis_rays_in_every_direction(ray):
    # axis-only rays, due south among them, pick their window by the least
    # fitting one; the digits written must not change
    assert project_to_lattice(ray) == project_oracle(ray)


# -- edges ---------------------------------------------------------------------------


def test_points_rejects_negative_time():
    for ray in (periodic_ray("0", "01"), digitize(1, sqrt_exact(2))):
        for bad in (-1, -5):
            with pytest.raises(ValueError):
                ray.points(bad)


def test_far_sturmian_read_is_constant_memory():
    ray = rays.splice(periodic_ray("", "01"), digitize(1, sqrt_exact(2)), 7)
    t = 10 ** 12
    tracemalloc.start()
    try:
        x, y = ray.point_at(t)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert word_metric((0, 0), (x, y)) == t
