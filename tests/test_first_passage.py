"""Lap-residue first passage against the scans it replaced.

The oracles below are ``divergence_time`` and ``_divergence_witness`` as
they were before the lap-residue kernel: build both rays' point lists to
the horizon and scan them, doubling the horizon (by 4) from 64 until a
witness shows. ``rays._first_passage`` must give the same first time, the
same ``None`` and the same witness distance, in every quadrant window.
``ball_contains`` asks the same kernel on a window [a, b] and must agree
with ``ball_scan_oracle``, which scans every integer time of the window.
``first_passage_oracle`` is the kernel with its lap-residue loop as it
was, one ``point_at`` per residue, where the kernel reads the lap table.
"""

import tracemalloc
from fractions import Fraction as F
from math import lcm

from hypothesis import assume, given, settings, strategies as st

from gridrays import rays
from gridrays.exactnum import sqrt_exact
from gridrays.lattice import word_metric
from gridrays.rays import (DIVERGENCE_PROBE, WINDOW_DIGITS, BallQuery,
                           Divergent, PeriodicTail, are_asymptotic,
                           ball_contains, digitize, divergence_time, parse_ray,
                           periodic_ray, splice, validate)
from test_periodic_kernels import ball_scan_oracle

SIGNS = ((1, 1), (-1, 1), (-1, -1), (1, -1))  # by quadrant window


# -- oracles: the list-building scan and the doubling witness, as they were --


def divergence_time_oracle(f, g, M, horizon):
    """Smallest t <= horizon with d(f(t), g(t)) > M, or None."""
    rays._require_valid(f)
    rays._require_valid(g)
    pf = f.points(horizon)
    pg = g.points(horizon)
    for t in range(horizon + 1):
        if word_metric(pf[t], pg[t]) > M:
            return t
    return None


def divergence_witness_oracle(f, g):
    horizon = 64
    while True:
        t = divergence_time_oracle(f, g, DIVERGENCE_PROBE, horizon)
        if t is not None:
            return t, word_metric(f.point_at(t), g.point_at(t))
        horizon *= 4


def first_passage_oracle(f, g, M, lo=0, hi=None):
    """``rays._first_passage`` with its lap-residue loop as it was: one
    ``f.point_at(t)`` per residue t in [s0, s0 + P)."""
    t0 = max(len(f.preamble), len(g.preamble))
    if hi is not None and all(isinstance(r.tail, PeriodicTail) for r in (f, g)):
        pf, pg = len(f.tail.period), len(g.tail.period)
        if hi - lo > t0 + pf + pg and \
                rays._direction_key(f) == rays._direction_key(g):
            if rays._periodic_supremum(f, g) <= M:
                return None
            hi = min(hi, max(lo, t0) + lcm(pf, pg))
    line = None
    for a, b in ((f, g), (g, f)):
        if isinstance(a.tail, PeriodicTail) and (line := rays._mechanical(b)):
            f, g = a, b
            break
    s0, end = max(lo, t0), None
    if line is not None:
        period = len(f.tail.period)
        end = s0 + period
    if hi is not None:
        end = hi + 1 if end is None else min(end, hi + 1)
    for t, d in enumerate(rays._distances(f, g, lo, end), lo):
        if d > M:
            return t
    if line is None or end < s0 + period:
        return None
    sx, sy, A, B, den = line
    lx, ly = f.tail.displacement(period)
    pg, m = len(g.preamble), M // 2
    gx, gy = g.point_at(pg)
    forms = []
    for s1, s2 in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        c = (s2 * sy - s1 * sx) // 2
        e1 = (s1 * lx + s2 * ly - s2 * sy * period) // 2
        a1 = den * e1 + c * A * period
        if a1 > 0:
            forms.append((s1, s2, c, a1))
    best = None
    for t in range(s0, s0 + period):
        if best is not None and t + period >= best:
            break
        (x, y), n = f.point_at(t), t - pg
        for s1, s2, c, a1 in forms:
            e0 = (s1 * (x - gx) + s2 * (y - gy - sy * n)) // 2
            a0 = den * (e0 - m) + c * (A * n + B) - (den if c > 0 else 1)
            k = max(-(a0 // a1), 0)
            if best is None or t + k * period < best:
                best = t + k * period
    if hi is not None and best is not None and best > hi:
        return None
    return best


# -- strategies --------------------------------------------------------------

windows = st.sampled_from(range(4))
small_m = st.integers(-2, 30)
horizons = st.sampled_from([0, 1, 2, 7, 40, 150, 600])
# a window [a, a + length], a > 0 possible, and a radius
balls = st.builds(lambda a, length, eps: BallQuery(a, a + length, eps),
                  st.fractions(0, 60, max_denominator=3),
                  st.fractions(0, 300, max_denominator=3),
                  st.fractions(F(1, 3), 40, max_denominator=3))


@st.composite
def slope_rays(draw, w, top=60):
    """A digitized rational slope (axis rays included) in window w."""
    p, q = draw(st.integers(0, top)), draw(st.integers(0, top))
    assume(p or q)
    sx, sy = SIGNS[w]
    return digitize(sx * p, sy * q)


@st.composite
def periodic_rays(draw, w):
    """An arbitrary periodic literal in window w, with or without preamble."""
    digits = st.sampled_from(WINDOW_DIGITS[w])
    ray = periodic_ray(draw(st.lists(digits, max_size=6)),
                       draw(st.lists(digits, min_size=1, max_size=8)))
    assume(validate(ray))
    return ray


@st.composite
def sturmian_rays(draw, w):
    """A Sturmian line in window w, alone or spliced after another ray."""
    sx, sy = SIGNS[w]
    a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    root = sqrt_exact(draw(st.sampled_from([2, 3, 5, 7])))
    line = (digitize(sx * a, sy * b * root) if draw(st.booleans())
            else digitize(sx * b * root, sy * a))
    head = draw(st.one_of(st.none(), slope_rays(w, 6), periodic_rays(w),
                          st.just(line)))
    if head is None:
        return line
    return splice(head, line, draw(st.integers(0, 60)))


def rays_in(w):
    return st.one_of(slope_rays(w), periodic_rays(w), sturmian_rays(w))


def _far_apart(f, g):
    """Directions differ by enough that the oracle's scan stays short."""
    (fx, fy), (gx, gy) = f.direction(), g.direction()
    return abs(float(fx) - float(gx)) + abs(float(fy) - float(gy)) > 1e-3


# -- divergence_time ---------------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(windows, windows, st.data(), small_m, horizons, balls)
def test_slope_pairs_match_list_scan(wf, wg, data, M, horizon, q):
    f, g = data.draw(slope_rays(wf)), data.draw(slope_rays(wg))
    assert divergence_time(f, g, M, horizon) == \
        divergence_time_oracle(f, g, M, horizon)
    assert ball_contains(f, g, q) == ball_scan_oracle(f, g, q)


@settings(deadline=None, max_examples=150)
@given(windows, st.data(), small_m, horizons, balls)
def test_periodic_literals_match_list_scan(w, data, M, horizon, q):
    f = data.draw(periodic_rays(w))
    g = data.draw(st.one_of(periodic_rays(w), slope_rays(w, 12),
                            periodic_rays(data.draw(windows))))
    assert divergence_time(f, g, M, horizon) == \
        divergence_time_oracle(f, g, M, horizon)
    assert ball_contains(f, g, q) == ball_scan_oracle(f, g, q)


@settings(deadline=None, max_examples=100)
@given(windows, st.data(), small_m, horizons, balls)
def test_sturmian_pairs_match_list_scan(w, data, M, horizon, q):
    f = data.draw(sturmian_rays(w))
    wg = w if data.draw(st.booleans()) else data.draw(windows)
    g = data.draw(rays_in(wg))
    if data.draw(st.booleans()):
        f, g = g, f
    assert divergence_time(f, g, M, horizon) == \
        divergence_time_oracle(f, g, M, horizon)
    assert ball_contains(f, g, q) == ball_scan_oracle(f, g, q)


@settings(deadline=None, max_examples=300)
@given(windows, st.data(), st.integers(-2, 80), st.integers(0, 40),
       st.one_of(st.none(), st.integers(0, 400)))
def test_lap_residues_match_the_point_at_loop(w, data, M, lo, length):
    """The residue loop reads f off its lap table, balanced or not, in
    every window, with g balanced (a slope) or any periodic ray; some
    pairs reach the loop (line found, no early passage) with r0 > 0."""
    f = data.draw(st.one_of(periodic_rays(w), slope_rays(w, 12)))
    wg = w if data.draw(st.booleans()) else data.draw(windows)
    g = data.draw(st.one_of(slope_rays(wg, 12), periodic_rays(wg)))
    hi = None if length is None else lo + length
    # with no end and no balanced ray, an asymptotic pair is scanned forever
    assume(hi is not None or f.direction() != g.direction()
           or rays._mechanical(f) or rays._mechanical(g))
    for a, b in ((f, g), (g, f)):
        assert rays._first_passage(a, b, M, lo, hi) == \
            first_passage_oracle(a, b, M, lo, hi)


# -- divergence witnesses ----------------------------------------------------


@settings(deadline=None, max_examples=120)
@given(windows, windows, st.data())
def test_witnesses_match_doubling_scan(wf, wg, data):
    f, g = data.draw(rays_in(wf)), data.draw(rays_in(wg))
    assume(f.direction() != g.direction() and _far_apart(f, g))
    assert are_asymptotic(f, g) == Divergent(*divergence_witness_oracle(f, g))


@settings(deadline=None, max_examples=40)
@given(windows, st.integers(2, 60), st.integers(1, 4))
def test_near_parallel_witnesses_match_doubling_scan(w, p, q):
    sx, sy = SIGNS[w]
    f, g = digitize(sx * p, sy * q), digitize(sx * (p - 1), sy * q)
    assume(f.direction() != g.direction())
    assert are_asymptotic(f, g) == Divergent(*divergence_witness_oracle(f, g))


def test_first_passage_at_the_end_of_a_lap():
    # f = (34) has period 2: residue 1 at k = 1 (t = 3) beats residue 0 at
    # k = 2 (t = 4) by one step, so the residue scan must not stop early
    f, g = parse_ray("(34)"), parse_ray("(0)")
    assert divergence_time(f, g, 2, 100) == \
        divergence_time_oracle(f, g, 2, 100) == 3


def test_near_parallel_slope_60_in_every_window():
    for w in range(4):
        f = parse_ray(f"slope:60/1@{w + 1}")
        g = parse_ray(f"slope:59/1@{w + 1}")
        assert are_asymptotic(f, g) == Divergent(18360, 12)
        assert divergence_time(f, g, 10, 18359) is None
        assert divergence_time(f, g, 10, 18360) == 18360


# -- bounds ------------------------------------------------------------------


def test_early_witness_at_a_huge_horizon_is_constant_memory():
    f, g = parse_ray("(0)"), parse_ray("(1)")
    tracemalloc.start()
    try:
        t = divergence_time(f, g, 10, 10 ** 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t == 6
    assert peak < 64 * 1024


def test_equal_directions_decide_none_at_a_huge_horizon():
    f = parse_ray("slope:7/3@2")
    g = splice(parse_ray("(1)"), f, 5)
    assert f.direction() == g.direction()
    assert divergence_time(f, g, 10, 10 ** 12) is None


def test_near_parallel_slope_10000_ball_is_fast(monkeypatch):
    # the distance first passes 10 at t = 500060000, so the ball of radius
    # 11 holds g up to that window's end; the lap residues decide each
    # window in O(T0 + P) point lookups (P = 10001 here), not one per step
    f, g = parse_ray("slope:10000/1@1"), parse_ray("slope:9999/1@1")
    calls = []
    point_at = rays.RayCode.point_at
    monkeypatch.setattr(rays.RayCode, "point_at",
                        lambda ray, t: calls.append(t) or point_at(ray, t))
    for b, inside in ((10 ** 9, False), (500060000, False),
                      (500059999, True)):
        calls.clear()
        assert ball_contains(f, g, BallQuery(0, b, 11)) is inside
        assert len(calls) < 4 * 10001


def _classify(f_text, g_text):
    f, g = parse_ray(f_text), parse_ray(g_text)
    return f, g, are_asymptotic(f, g)


def test_near_parallel_slope_10000_is_fast_and_small(monkeypatch):
    # the witness lies near t = 5e8; the lap residues reach it in
    # O(T0 + P) point lookups (P = 10001 here), not one per step
    calls = []
    point_at = rays.RayCode.point_at
    monkeypatch.setattr(rays.RayCode, "point_at",
                        lambda ray, t: calls.append(t) or point_at(ray, t))
    f, g, verdict = _classify("slope:10000/1@1", "slope:9999/1@1")
    assert len(calls) < 4 * 10001
    monkeypatch.undo()
    assert isinstance(verdict, Divergent) and verdict.distance > 10
    t = verdict.witness_t
    assert word_metric(f.point_at(t), g.point_at(t)) == verdict.distance
    assert word_metric(f.point_at(t - 1), g.point_at(t - 1)) <= 10
    tracemalloc.start()
    try:
        _classify("slope:10000/1@1", "slope:9999/1@1")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20
