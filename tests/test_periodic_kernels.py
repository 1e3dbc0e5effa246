"""Bulk period kernels against the per-step loops they replaced.

The oracles below are the bodies that used to live in ``rays``: the
point-list supremum of ``are_asymptotic`` over transient + lcm, the
per-digit ``Staircase.digits``, the shift-sum ``b_map``, the loop
``_primitive`` and ``_canonical_periodic``, ``RayCode.digits`` by
``digit_at``, ``digit_windows`` once per digit, the pairwise walk and
per-digit realize, the tails' displacement lists behind
``RayCode.points``, and the step-by-step balance test of ``_mechanical``.
The kernels must give the same verdicts, digits, points, lines and values.
"""

import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate, product
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from gridrays import rays
from gridrays.exactnum import sqrt_exact
from gridrays.lattice import DISPLACEMENTS, word_metric
from gridrays.rays import (Asymptotic, BallQuery, PeriodicTail, RayCode,
                           Staircase, SturmianTail, WINDOW_DIGITS,
                           are_asymptotic, b_map, ball_contains, digitize,
                           divergence_time, n_map, parse_ray, periodic_ray,
                           splice, validate)

from conftest import digit_windows_oracle, exact_staircase
from test_quadrant_windows import _realize as realize_oracle

F = Fraction
SIGNS = ((1, 1), (-1, 1), (-1, -1), (1, -1))  # by quadrant window


# -- oracles: the per-step loops, as they were -----------------------------------


def periodic_supremum_oracle(f, g):
    transient = max(len(f.preamble), len(g.preamble))
    L = lcm(len(f.tail.period), len(g.tail.period))
    horizon = transient + L
    pf = f.points(horizon)
    pg = g.points(horizon)
    return max(word_metric(pf[t], pg[t]) for t in range(horizon + 1))


def staircase_digits_oracle(line, n, hdig, vdig):
    hs = list(map(line.horizontal, range(n + 1)))
    return [hdig if b > a else vdig for a, b in zip(hs, hs[1:])]


def b_map_oracle(preamble, period):
    pre = tuple(int(d) for d in preamble)
    per = tuple(int(d) for d in period)
    if not per:
        raise ValueError("empty period")
    if any(d not in (0, 1) for d in pre + per):
        raise ValueError("binary digits required")
    p, q = len(pre), len(per)
    pval = sum(d << (p - 1 - i) for i, d in enumerate(pre))
    qval = sum(d << (q - 1 - i) for i, d in enumerate(per))
    return Fraction(pval, 1 << p) + Fraction(qval, ((1 << q) - 1) << p)


def n_map_periodic_oracle(ray):
    m = ray.m()
    pre = tuple(d - m for d in ray.preamble)
    per = tuple(d - m for d in ray.tail.period)
    return m + b_map_oracle(pre, per)


def primitive_oracle(per):
    n = len(per)
    for k in range(1, n):
        if n % k == 0 and per == per[:k] * (n // k):
            return per[:k]
    return per


def canonical_periodic_oracle(pre, per):
    pre, per = tuple(pre), tuple(per)
    realized = set(pre) | set(per)
    if 3 not in realized:
        pre = tuple(0 if d == 4 else d for d in pre)
        per = tuple(0 if d == 4 else d for d in per)
    if set(pre) | set(per) <= {0, 4}:
        return (), (0,)  # the east ray
    per = primitive_oracle(per)
    pre = list(pre)
    per = list(per)
    while pre and pre[-1] == per[-1]:
        pre.pop()
        per = [per[-1]] + per[:-1]
    return tuple(pre), tuple(per)


def validate_oracle(ray):
    """validate as it was, recomputed from the code on every call."""
    realized = set(ray.preamble) | set(
        ray.tail.period if isinstance(ray.tail, PeriodicTail)
        else WINDOW_DIGITS[ray.tail.window])
    if not digit_windows_oracle(realized):
        return False
    if 4 in realized and 3 not in realized:
        return False
    if 0 in realized and 3 in realized:
        return False
    if isinstance(ray.tail, PeriodicTail):
        code = (ray.preamble, ray.tail.period)
        return canonical_periodic_oracle(*code) == code
    return True


def ball_scan_oracle(center, candidate, q):
    """ball_contains as it was: every integer time of [a, b] scanned."""
    eps = math.ceil(q.epsilon)
    return all(word_metric(center.point_at(t), candidate.point_at(t)) < eps
               for t in range(math.ceil(q.a), math.floor(q.b) + 1))


def divergence_scan_oracle(f, g, M, horizon):
    return next((t for t in range(horizon + 1)
                 if word_metric(f.point_at(t), g.point_at(t)) > M), None)


def digit_oracle(ray, n):
    """``RayCode.digit_at`` as it was: the nth digit, 1-indexed, read off
    the preamble, the period, or two of the line's horizontal counts."""
    if n < 1:
        raise ValueError("digit positions start at 1")
    pre, tail = ray.preamble, ray.tail
    if n <= len(pre):
        return pre[n - 1]
    k = n - len(pre)
    if isinstance(tail, PeriodicTail):
        return tail.period[(k - 1) % len(tail.period)]
    h, v = WINDOW_DIGITS[tail.window]
    return h if tail.horizontal(k) > tail.horizontal(k - 1) else v


def digits_oracle(ray, n):
    return tuple(digit_oracle(ray, i) for i in range(1, n + 1))


def mechanical_oracle(ray):
    """``rays._mechanical`` as it was: the offset interval narrowed one
    step of the period at a time."""
    if not isinstance(ray.tail, PeriodicTail):
        return None
    steps = [DISPLACEMENTS[d] for d in ray.tail.period]
    period = len(steps)
    a = sum(1 for dx, _ in steps if dx)
    lo, hi, h = 0, period - 1, 0
    for n, (dx, _) in enumerate(steps):
        lo = max(lo, h * period - a * n)
        hi = min(hi, (h + 1) * period - a * n - 1)
        h += dx != 0
    if lo > hi:
        return None
    sx = next((dx for dx, _ in steps if dx), 1)
    sy = next((dy for _, dy in steps if dy), 1)
    return sx, sy, a, lo, period


def points_oracle(ray, t):
    """``RayCode.points`` as it was: the preamble's walk, then the tail's
    displacement list (one slice of the lap table a lap, or one
    ``displacement`` a step) shifted to the preamble's end."""
    pre = walk_oracle(ray.preamble)
    if t < len(pre):
        return pre[:t + 1]
    (x, y), p, tail = pre[-1], len(pre) - 1, ray.tail
    k0, k1 = 1, t - p + 1
    if isinstance(tail, PeriodicTail):
        walk, n = walk_oracle(tail.period), len(tail.period)
        (lx, ly), out = walk[-1], []
        for lap in range(k0 // n, (k1 - 1) // n + 1):
            bx, by = lap * lx, lap * ly
            out += [(bx + x, by + y)
                    for x, y in walk[max(k0 - lap * n, 0):min(k1 - lap * n, n)]]
    else:
        out = list(map(tail.displacement, range(k0, k1)))
    return pre + [(x + dx, y + dy) for dx, dy in out]


def walk_oracle(digits):
    """``rays._walk`` as it was: one lambda call per step."""
    return list(accumulate((DISPLACEMENTS[d] for d in digits),
                           lambda p, s: (p[0] + s[0], p[1] + s[1]),
                           initial=(0, 0)))


# -- strategies --------------------------------------------------------------------

windows = st.sampled_from(range(4))


def _axis_windows(w, horizontal):
    """Windows whose rays may run along window w's horizontal (or vertical)
    axis, e.g. windows 0 and 3 for the east ray."""
    k, axis = (0, 0) if horizontal else (1, 1)
    step = DISPLACEMENTS[WINDOW_DIGITS[w][k]][axis]
    return [x for x in range(4)
            if DISPLACEMENTS[WINDOW_DIGITS[x][k]][axis] == step]


@st.composite
def equal_direction_pairs(draw, coprime=False, axis=False):
    """Two periodic rays of one direction in window w, periods 1..60 and
    preambles up to 20; axis rays (every pair when ``axis``) take each
    preamble from either window along their axis, writing the period's
    digit in that window."""
    w = draw(windows)
    p1 = draw(st.integers(1, 30 if coprime else 60))
    a1 = draw(st.sampled_from((0, p1)) if axis else st.integers(0, p1))
    g1 = gcd(a1, p1)
    a, p = a1 // g1, p1 // g1  # horizontal steps a per p steps, reduced
    top = 60 // p
    if coprime:  # periods m1*p and m2*p with m1, m2 coprime and distinct
        m1 = draw(st.integers(2, top))
        m2 = draw(st.sampled_from([m for m in range(1, top + 1)
                                   if m != m1 and gcd(m, m1) == 1]))
    else:
        m1, m2 = p1 // p, draw(st.integers(1, top))
    axis = a in (0, p)
    rays_ = []
    for m in (m1, m2):
        wp = draw(st.sampled_from(_axis_windows(w, a == p))) if axis else w
        h, v = WINDOW_DIGITS[wp]
        period = draw(st.permutations([h] * (a * m) + [v] * ((p - a) * m)))
        pre = draw(st.lists(st.sampled_from((h, v)), max_size=20))
        rays_.append(periodic_ray(pre, period))
    f, g = rays_
    assume(validate(f) and validate(g))
    return f, g


@st.composite
def periodic_rays(draw, max_period=60):
    w = draw(windows)
    digits = st.sampled_from(WINDOW_DIGITS[w])
    ray = periodic_ray(draw(st.lists(digits, max_size=20)),
                       draw(st.lists(digits, min_size=1, max_size=max_period)))
    assume(validate(ray))
    return ray


# -- the equal-direction supremum ----------------------------------------------------


@settings(deadline=None, max_examples=300)
@given(st.one_of(equal_direction_pairs(), equal_direction_pairs(axis=True)))
def test_periodic_supremum_matches_point_lists(pair):
    # the form x + sx*sy*y is t on every ray of window (sx, sy), so it is
    # skipped only for windows both rays fit; axis pairs may share none
    f, g = pair
    assert f.direction() == g.direction()
    want = Asymptotic(periodic_supremum_oracle(f, g), attained=True)
    assert are_asymptotic(f, g) == want
    assert are_asymptotic(g, f) == want


@settings(deadline=None, max_examples=150)
@given(equal_direction_pairs(coprime=True))
def test_periodic_supremum_matches_at_coprime_period_multiples(pair):
    f, g = pair
    assert are_asymptotic(f, g) == \
        Asymptotic(periodic_supremum_oracle(f, g), attained=True)


def _split(literal):
    pre, per = literal.rstrip(")").split("(")
    return pre, per


def test_axis_rays_with_preambles_in_other_windows():
    # "1110(1)" against "000(1)" peaks only at T0 - 1 = 3, the last time
    # before both tails run
    cases = [("1(0)", "343(4)"), ("(1)", "2212(1)"), ("0101(1)", "21(1)"),
             ("2(3)", "434(3)"), ("11(2)", "3(2)"), ("(4)", "0001(0)"),
             ("1110(1)", "000(1)"), ("3332(3)", "222(3)")]
    for fs, gs in cases:
        f, g = periodic_ray(*_split(fs)), periodic_ray(*_split(gs))
        assert validate(f) and validate(g) and f.direction() == g.direction()
        assert are_asymptotic(f, g) == \
            Asymptotic(periodic_supremum_oracle(f, g), attained=True)


def test_block_periods_give_twice_half_k():
    # (0^k 1^k) against (0^(k-1) 1^(k-1)): the small-case oracle's values
    for k in range(2, 41):
        f = parse_ray(f"({'0' * k}{'1' * k})")
        g = parse_ray(f"({'0' * (k - 1)}{'1' * (k - 1)})")
        want = periodic_supremum_oracle(f, g)
        assert want == 2 * (k // 2)
        assert are_asymptotic(f, g) == Asymptotic(want, attained=True)


def test_long_block_periods_in_bounded_memory(monkeypatch):
    # lcm(10000, 9998) is about 5e7: the point lists would not fit; the
    # residue classes need O(T0 + P_f + P_g) and no points() at all
    f = parse_ray(f"({'0' * 5000}{'1' * 5000})")
    g = parse_ray(f"({'0' * 4999}{'1' * 4999})")

    def no_points(ray, t):
        raise AssertionError("points() called")

    monkeypatch.setattr(RayCode, "points", no_points)
    tracemalloc.start()
    try:
        verdict = are_asymptotic(f, g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict == Asymptotic(5000, attained=True)
    assert peak < 16 * 2 ** 20


# -- digit strings at C speed ----------------------------------------------------------


def test_walk_and_realize_match_the_per_digit_oracles_on_every_digit():
    for word in product(range(5), repeat=3):
        assert rays._walk(word) == walk_oracle(word)
        for w in range(4):
            assert rays._realize(word, w) == \
                tuple(realize_oracle(d, w) for d in word)


@settings(deadline=None)
@given(windows, st.lists(st.integers(0, 4), max_size=2000))
def test_walk_and_realize_match_the_per_digit_oracles(w, digits):
    assert rays._walk(digits) == walk_oracle(digits)
    assert rays._realize(digits, w) == \
        tuple(realize_oracle(d, w) for d in digits)


# -- closed-form staircase digits ------------------------------------------------------


def test_rational_digits_match_per_digit_walk_to_80():
    for p in range(81):
        for q in range(81):
            if p == q == 0:
                continue
            line = Staircase(p, q)
            n = 2 * (p + q) + 3
            want = staircase_digits_oracle(line, n, 0, 1)
            assert line.digits(n, 0, 1) == want
            for w, (sx, sy) in enumerate(SIGNS):
                h, v = WINDOW_DIGITS[w]
                assert digitize(sx * p, sy * q) == periodic_ray(
                    (), [h if d == 0 else v for d in want[:p + q]])


def test_anchored_digits_match_per_digit_walk():
    speeds = [F(0), F(1, 3), F(1), F(5, 2), F(7), F(11, 4)]
    anchors = [F(-7, 6), F(-1, 2), F(0), F(1, 3), F(5, 4), F(3)]
    for dx in speeds:
        for dy in speeds:
            if dx == dy == 0:
                continue
            for x0 in anchors:
                for y0 in anchors:
                    line = exact_staircase(dx, dy, (x0, y0))
                    for n in (0, 1, 17, 40):
                        assert line.digits(n, 2, 3) == \
                            staircase_digits_oracle(line, n, 2, 3)


def test_closed_form_digits_reject_an_irrational_line():
    with pytest.raises(ValueError):
        exact_staircase(1, sqrt_exact(2)).digits(5, 0, 1)


# -- b_map, n_map, _primitive and canonical forms ----------------------------------------


bits = st.lists(st.sampled_from((0, 1)), max_size=80)


@given(bits, bits.filter(bool))
def test_b_map_matches_shift_sum(pre, per):
    assert b_map(pre, per) == b_map_oracle(pre, per)
    text = ("".join(map(str, pre)), "".join(map(str, per)))
    assert b_map(*text) == b_map_oracle(*text)


@pytest.mark.parametrize("pre, per", [((), ()), ((2,), (1,)), ((0,), (3,)),
                                      ((0,), ()), ((-1,), (0,)),
                                      ((0,), (300,)), ("1", "2")])
def test_b_map_rejects_like_the_shift_sum(pre, per):
    with pytest.raises(ValueError) as want:
        b_map_oracle(pre, per)
    with pytest.raises(ValueError) as got:
        b_map(pre, per)
    assert str(got.value) == str(want.value)


@settings(deadline=None)
@given(periodic_rays())
def test_periodic_n_map_matches_shift_sum(ray):
    assert n_map(ray) == n_map_periodic_oracle(ray)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=12),
       st.integers(1, 6))
def test_primitive_matches_divisor_loop(word, k):
    for per in (tuple(word), tuple(word) * k):
        assert rays._primitive(per) == primitive_oracle(per)


digits_0_4 = st.lists(st.integers(0, 4), max_size=20)


@given(digits_0_4, digits_0_4.filter(bool), st.integers(1, 4))
def test_canonical_form_matches_pop_loop(pre, per, k):
    per = per * k
    assert rays._canonical_periodic(tuple(pre), tuple(per),
                                    frozenset(pre + per)) == \
        canonical_periodic_oracle(pre, per)


def test_canonical_code_comes_back_uncopied():
    # nothing to rewrite (no 4, or a 4 beside a 3), pop or reduce: the
    # very same tuples come back
    for pre, per in [((1, 1, 0), (0, 0, 1)), ((2,), (1, 2, 1)),
                     ((3, 4, 4), (4, 3)), ((), (3,))]:
        got = rays._canonical_periodic(pre, per, frozenset(pre + per))
        assert got == (pre, per)
        assert got[0] is pre and got[1] is per


def test_invalid_digits_name_the_first_one():
    for pre, per, bad in [((9,), (1,), 9), ((1, 6), (7, 6), 6),
                          ((0,), (-1,), -1), ((), (5, 300), 5),
                          ((1, 2), (0, 8, 0), 8)]:
        with pytest.raises(ValueError, match=f"invalid digit {bad}$"):
            periodic_ray(pre, per)
    # a ray code checks its preamble and tail digits once, preamble first
    for pre, tail, bad in [((1, 9), PeriodicTail((7,)), 9),
                           ((1,), PeriodicTail((2, 7, 8)), 7),
                           ((6,), SturmianTail(1, sqrt_exact(2), 0), 6)]:
        with pytest.raises(ValueError, match=f"^invalid digit {bad}$"):
            RayCode(pre, tail)


def test_empty_period_is_refused():
    for pre in [(), (1,), (0, 3)]:
        with pytest.raises(ValueError, match="^empty period$"):
            periodic_ray(pre, ())


@given(st.lists(st.integers(-2, 6), max_size=40))
def test_digit_windows_over_distinct_digits(digits):
    assert rays.digit_windows(digits) == digit_windows_oracle(digits)
    assert rays.digit_windows(iter(digits)) == digit_windows_oracle(digits)


# -- RayCode.digits in bulk ---------------------------------------------------------------


@settings(deadline=None)
@given(periodic_rays(max_period=12), st.integers(-3, 90))
def test_periodic_digits_match_digit_at(ray, n):
    assert ray.digits(n) == digits_oracle(ray, n)


@settings(deadline=None, max_examples=40)
@given(windows, st.sampled_from([2, 3, 5, 7, 1009]), st.integers(0, 120),
       st.integers(-2, 90))
def test_sturmian_digits_match_digit_at(w, d, s, n):
    sx, sy = SIGNS[w]
    h, v = WINDOW_DIGITS[w]
    line = digitize(sx, sy * sqrt_exact(d))
    spliced = splice(periodic_ray([h, v, v], [v, h]), line, s)
    for ray in (line, spliced):
        assert ray.digits(n) == digits_oracle(ray, n)


@st.composite
def balance_cases(draw):
    """A valid periodic ray in any window whose period has P <= 60 steps,
    a of them horizontal, behind a preamble of the window's digits. The
    period is an axis one (a = 0 or a = P), a staircase from a drawn anchor
    (balanced), that staircase with one adjacent pair swapped (often just
    out of balance) or a shuffle (mostly unbalanced). The offsets e_n span
    exactly P, the edge of balance, only when gcd(a, P) > 1, so swaps act
    on all gcd(a, P) laps of the staircase."""
    w = draw(windows)
    h, v = WINDOW_DIGITS[w]
    kind = draw(st.sampled_from(("axis", "staircase", "swap", "shuffle")))
    P = draw(st.integers(1 if kind == "axis" else 2, 60))
    a = draw(st.sampled_from((0, P)) if kind == "axis" else st.integers(1, P - 1))
    if kind == "shuffle":
        period = draw(st.permutations([h] * a + [v] * (P - a)))
    else:
        scale = draw(st.integers(1, 7))
        anchor = draw(st.tuples(st.integers(0, scale), st.integers(0, scale)))
        lap = rays.staircase_tail(a, P - a, h, v, anchor, scale).period
        period = list(lap) * (P // len(lap))  # gcd(a, P) laps
    if kind == "swap":
        i = draw(st.sampled_from([i for i in range(len(period))
                                  if period[i] != period[i - 1]]))
        period[i - 1], period[i] = period[i], period[i - 1]
    ray = periodic_ray(draw(st.lists(st.sampled_from((h, v)), max_size=8)),
                       period)
    assume(validate(ray))
    return ray


@settings(deadline=None, max_examples=400)
@given(balance_cases())
@example(parse_ray("slope:1499/1498@1"))
def test_balance_read_off_the_lap_table_matches_the_step_walk(ray):
    assert rays._mechanical(ray) == mechanical_oracle(ray)


@st.composite
def raw_rays(draw):
    """Ray codes as given, not canonicalized: a preamble of 0-30 digits and
    a period of 1-40, or a Sturmian tail, in any window."""
    w = draw(windows)
    digits = st.sampled_from(WINDOW_DIGITS[w])
    pre = draw(st.lists(digits, max_size=30))
    if draw(st.booleans()):
        return RayCode(pre, PeriodicTail(tuple(draw(
            st.lists(digits, min_size=1, max_size=40)))))
    d = draw(st.sampled_from([2, 3, 5]))
    return RayCode(pre, SturmianTail(1, sqrt_exact(d), w, draw(st.integers(0, 9))))


@settings(deadline=None, max_examples=300)
@given(raw_rays(), st.lists(st.integers(0, 200), min_size=1, max_size=4))
def test_points_match_the_displacement_lists(ray, times):
    # each call after the first may grow the cached prefix or read inside it
    for t in times:
        assert ray.points(t) == points_oracle(ray, t)


def test_advanced_tail_shares_the_line():
    tail = SturmianTail(1, sqrt_exact(3), 2, 7)
    moved = tail.advanced(600)
    assert moved._line is tail._line
    assert moved == SturmianTail(1, sqrt_exact(3), 2, 607)
    assert [moved.horizontal(k) for k in range(50)] == \
        [SturmianTail(1, sqrt_exact(3), 2, 607).horizontal(k) for k in range(50)]
    with pytest.raises(ValueError):
        tail.advanced(-8)


# -- one canonical pass and one verdict per ray code ---------------------------------


digits_with_bad = st.lists(st.integers(0, 4), max_size=8)


@settings(deadline=None, max_examples=300)
@given(digits_with_bad, digits_with_bad.filter(bool), windows, st.integers(0, 9))
def test_kept_verdict_is_the_recomputed_one(pre, per, w, offset):
    raw = RayCode(pre, PeriodicTail(tuple(per)))
    built = periodic_ray(pre, per)  # canonical(): the verdict set on the way
    sturmian = RayCode(pre, SturmianTail(1, sqrt_exact(2), w, offset))
    for ray in (raw, raw.canonical(), built, sturmian):
        want = validate_oracle(ray)
        assert validate(ray) is want and validate(ray) is want


def test_a_rational_literal_is_canonicalized_once(monkeypatch):
    calls = []
    canonical = rays._canonical_periodic
    monkeypatch.setattr(rays, "_canonical_periodic",
                        lambda *args: calls.append(args) or canonical(*args))
    ray = parse_ray("slope:1499/1498@3")
    assert validate(ray) and n_map(ray) == n_map_periodic_oracle(ray)
    assert len(calls) <= 1


# -- equal-direction ball and divergence queries, against the scans ---------------------


@st.composite
def short_equal_direction_pairs(draw):
    """Equal-direction periodic rays with periods of at most 12 steps, so
    that a window holds many periods of their distance."""
    w = draw(windows)
    h, v = WINDOW_DIGITS[w]
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pair = [periodic_ray(draw(st.lists(st.sampled_from((h, v)), max_size=6)),
                         draw(st.permutations([h] * (a * m) + [v] * (b * m))))
            for m in (draw(st.integers(1, 2)), draw(st.integers(1, 2)))]
    assume(all(map(validate, pair)))
    return pair


equal_direction = st.one_of(equal_direction_pairs(), short_equal_direction_pairs())


@settings(deadline=None, max_examples=300)
@given(equal_direction, st.integers(0, 30), st.integers(0, 250),
       st.fractions(F(1, 3), 40, max_denominator=3))
def test_equal_direction_ball_matches_the_scan(pair, a, length, eps):
    f, g = pair
    q = BallQuery(a, a + length, eps)
    for center, candidate in ((f, g), (g, f)):
        assert ball_contains(center, candidate, q) == \
            ball_scan_oracle(center, candidate, q)


@settings(deadline=None, max_examples=300)
@given(equal_direction, st.integers(-2, 60), st.integers(0, 300))
def test_equal_direction_divergence_matches_the_scan(pair, M, horizon):
    f, g = pair
    assert divergence_time(f, g, M, horizon) == \
        divergence_scan_oracle(f, g, M, horizon)
