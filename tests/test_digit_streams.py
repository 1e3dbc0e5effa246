"""Ray queries on digit bytes and running sums, against the per-digit and
per-point code they replaced.

The oracles below are that code as it was: ``parse_ray``'s and
``literal()``'s one ``int``/``str`` call per digit, the lap table as a
list of position tuples, the periodic supremum with its preamble scanned
point by point, and the first-passage scans (``divergence_scan_oracle``,
``ball_scan_oracle``). ``rays._distances`` streams d(f(t), g(t)) from
running sums in chunks of 64 steps doubling to 4,096, so the windows
below sit on and beside those chunk ends.
"""

import tracemalloc
from fractions import Fraction as F
from itertools import islice
from math import gcd, lcm
from operator import add, mul

from hypothesis import assume, example, given, settings, strategies as st

from gridrays import rays
from gridrays.exactnum import sqrt_exact
from gridrays.lattice import word_metric
from gridrays.rays import (WINDOW_DIGITS, WINDOW_SIGNS, Asymptotic, BallQuery,
                           PeriodicTail, RayCode, are_asymptotic,
                           ball_contains, digitize, divergence_time,
                           parse_ray, periodic_ray, splice, validate)

from test_periodic_kernels import (ball_scan_oracle, divergence_scan_oracle,
                                   walk_oracle)

# -- oracles: the per-digit and per-point code, as it was --------------------


def parse_oracle(text):
    """``parse_ray``'s periodic branch as it was: one int() per digit."""
    pre, per = text.rstrip(")").split("(")
    return RayCode(pre, PeriodicTail(tuple(map(int, per))))


def literal_oracle(ray):
    pre = "".join(map(str, ray.preamble))
    return f"{pre}({''.join(map(str, ray.tail.period))})"


def lap_table_oracle(period):
    """The lap table as it was: positions after 0..len(period) steps."""
    return walk_oracle(period)


def distances_oracle(f, g, lo, end):
    return [word_metric(f.point_at(t), g.point_at(t)) for t in range(lo, end)]


def deviation_classes_oracle(ray, n, g, s):
    """``_deviation_classes`` as it was, on the tuple lap table."""
    per, p = len(ray.tail.period), len(ray.preamble)
    walk = lap_table_oracle(ray.tail.period)
    (lx, ly), (x0, y0) = walk[-1], ray.point_at(p)
    slope = n // per * (lx + s * ly)
    vals = [n * (x + s * y) + n * (x0 + s * y0) - (p + j) * slope
            for j, (x, y) in enumerate(walk[:-1])]
    return [(max(v), min(v)) for v in
            (vals[(c - p) % g::g] for c in range(g))]


def periodic_supremum_oracle(f, g):
    """``_periodic_supremum`` as it was: the preamble scanned point by
    point, then the residue classes of the tuple lap tables."""
    t0 = max(len(f.preamble), len(g.preamble))
    top = max((word_metric(f.point_at(t), g.point_at(t)) for t in range(t0)),
              default=0)
    pf, pg = len(f.tail.period), len(g.tail.period)
    n, k = lcm(pf, pg), gcd(pf, pg)
    shared = {mul(*WINDOW_SIGNS[w])
              for w in rays.digit_windows(f._digits | g._digits)}
    for s in {1, -1} - shared:
        for (fmax, fmin), (gmax, gmin) in zip(
                deviation_classes_oracle(f, n, k, s),
                deviation_classes_oracle(g, n, k, s)):
            top = max(top, (fmax - gmin) // n, (gmax - fmin) // n)
    return top


# -- strategies --------------------------------------------------------------

windows = st.sampled_from(range(4))
#: window lengths on and beside the stream's chunk ends (0 is empty)
LENGTHS = [0, 1, 63, 64, 65, 4096, 4097]


@st.composite
def window_rays(draw, w, max_pre=80):
    """A ray of window w: a periodic code of any balance (preamble up to
    max_pre, period up to 12), or a Sturmian line spliced after one."""
    h, v = WINDOW_DIGITS[w]
    digits = st.sampled_from((h, v))
    ray = periodic_ray(draw(st.lists(digits, max_size=max_pre)),
                       draw(st.lists(digits, min_size=1, max_size=12)))
    assume(validate(ray))
    if draw(st.booleans()):
        return ray
    sx, sy = WINDOW_SIGNS[w]
    root = sqrt_exact(draw(st.sampled_from([2, 3, 5])))
    line = digitize(sx * draw(st.integers(1, 4)), sy * root)
    return splice(ray, line, draw(st.integers(0, max_pre)))


@st.composite
def unbalanced_pairs(draw):
    """Two periodic rays of window w, neither period balanced, with
    preambles up to 80."""
    w = draw(windows)
    h, v = WINDOW_DIGITS[w]
    pair = []
    for _ in range(2):
        a, b = draw(st.integers(2, 4)), draw(st.integers(2, 4))
        period = [h] * a + [v] * b + draw(st.lists(st.sampled_from((h, v)),
                                                   max_size=4))
        ray = periodic_ray(draw(st.lists(st.sampled_from((h, v)), max_size=80)),
                           period)
        assume(validate(ray) and rays._mechanical(ray) is None)
        pair.append(ray)
    return pair


@st.composite
def pairs(draw):
    """Unbalanced periodic pairs, or any two rays of drawn windows:
    balanced and unbalanced periods and Sturmian lines."""
    if draw(st.booleans()):
        return draw(unbalanced_pairs())
    wf = draw(windows)
    wg = wf if draw(st.booleans()) else draw(windows)
    return draw(window_rays(wf)), draw(window_rays(wg))


#: offsets on and beside the stream's chunk ends: 64, 64 + 128 and 4,096
OFFSETS = [0, 1, 63, 64, 65, 191, 192, 193, 4095, 4096, 4097]


# -- the distance stream -------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(pairs(), st.integers(0, 90), st.sampled_from(LENGTHS))
def test_distances_match_the_point_scan(pair, lo, length):
    f, g = pair
    assert list(rays._distances(f, g, lo, lo + length)) == \
        distances_oracle(f, g, lo, lo + length)


@settings(deadline=None, max_examples=15)
@given(pairs(), st.integers(0, 90))
def test_an_unbounded_stream_matches_the_point_scan(pair, lo):
    # chunks of 64, 128, ..., 4096 and then 4096 again end at lo + 8128
    f, g = pair
    n = 64 + 128 + 256 + 512 + 1024 + 2048 + 4096 + 100
    assert list(islice(rays._distances(f, g, lo, None), n)) == \
        distances_oracle(f, g, lo, lo + n)


def canon(text):
    return parse_ray(text).canonical()


# -- first passages through divergence_time and ball_contains -----------------


def threshold(f, g, lo, tau):
    """The largest distance at times lo..lo + tau - 1 (-1 if none): the
    first passage past it comes at lo + tau or later."""
    return max(distances_oracle(f, g, lo, lo + tau), default=-1)


@settings(deadline=None, max_examples=80)
@example(pair=(canon("(0011)"), canon("1(00111)")), length=4097, tau=65)
@given(pairs(), st.sampled_from(LENGTHS[1:]),
       st.one_of(st.sampled_from(OFFSETS), st.integers(0, 5000)))
def test_divergence_time_matches_the_scan_on_chunk_windows(pair, length, tau):
    f, g = pair
    M = threshold(f, g, 0, min(tau, length))
    assert divergence_time(f, g, M, length - 1) == \
        divergence_scan_oracle(f, g, M, length - 1)


@settings(deadline=None, max_examples=80)
@given(pairs(), st.integers(0, 90), st.sampled_from(LENGTHS),
       st.one_of(st.sampled_from(OFFSETS), st.integers(0, 5000)))
def test_ball_contains_matches_the_scan_on_chunk_windows(pair, lo, length, tau):
    # windows from 0, from inside a preamble or past it; a length of 0 is
    # the empty window [lo + 1/3, lo + 2/3]. The radius M + 2/3 is passed
    # (the distance reaches it) first at lo + tau or later
    f, g = pair
    M = threshold(f, g, lo, min(tau, length))
    eps = F(3 * M + 2, 3) if M >= 0 else F(1, 3)
    q = (BallQuery(F(3 * lo + 1, 3), F(3 * lo + 2, 3), eps) if length == 0
         else BallQuery(lo, lo + length - 1, eps))
    for center, candidate in ((f, g), (g, f)):
        assert ball_contains(center, candidate, q) == \
            ball_scan_oracle(center, candidate, q)


def test_a_passage_at_lo_is_found():
    # M one below the distance at lo: the window's first time passes it
    f, g = canon("(0011)"), canon("1(00111)")
    for lo in range(40, 400, 7):
        M = word_metric(f.point_at(lo), g.point_at(lo)) - 1
        assert M >= 0 and rays._first_passage(f, g, M, lo, lo + 64) == lo
        assert ball_contains(f, g, BallQuery(lo, lo + 64, M + 1)) is False


# -- the periodic supremum and the lap table -------------------------------------


@st.composite
def equal_direction_pairs(draw):
    """Periodic rays of one direction in window w with preambles up to 300,
    so that the preamble scan crosses chunk ends."""
    w = draw(windows)
    h, v = WINDOW_DIGITS[w]
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pair = [periodic_ray(draw(st.lists(st.sampled_from((h, v)), max_size=300)),
                         draw(st.permutations([h] * (a * m) + [v] * (b * m))))
            for m in (draw(st.integers(1, 4)), draw(st.integers(1, 4)))]
    assume(all(map(validate, pair)))
    return pair


@settings(deadline=None, max_examples=150)
@given(equal_direction_pairs())
def test_periodic_supremum_matches_the_preamble_scan(pair):
    f, g = pair
    want = periodic_supremum_oracle(f, g)
    assert rays._periodic_supremum(f, g) == want
    assert are_asymptotic(g, f) == Asymptotic(want, attained=True)


@settings(deadline=None)
@given(windows, st.lists(st.booleans(), min_size=1, max_size=300))
def test_lap_table_is_the_tuple_walk(w, bits):
    period = tuple(WINDOW_DIGITS[w][b] for b in bits)
    tail = PeriodicTail(period)
    assert list(zip(*tail._table)) == lap_table_oracle(period)
    walk = lap_table_oracle(period)
    for k in (0, 1, len(period) - 1, len(period), 3 * len(period) + 1):
        laps, r = divmod(k, len(period))
        assert tail.displacement(k) == tuple(map(
            add, map(mul, walk[-1], (laps, laps)), walk[r]))


# -- digit text --------------------------------------------------------------------


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 40), st.integers(1, 4000), st.sampled_from(["0123", "01",
                                                                  "34", "2"]),
       st.randoms(use_true_random=False))
def test_parse_and_literal_match_the_per_digit_paths(p, n, alphabet, rng):
    # any digits 0-4, or those of one window: parse_ray keeps what it reads
    text = "".join(rng.choice(alphabet + "4") for _ in range(p + n))
    text = f"{text[:p]}({text[p:]})"
    ray, want = parse_ray(text), parse_oracle(text)
    assert ray == want
    assert type(ray.preamble) is type(ray.tail.period) is tuple
    assert all(type(d) is int for d in ray.preamble + ray.tail.period)
    assert ray.literal() == literal_oracle(want) == text


# -- memory ------------------------------------------------------------------------


def test_a_long_scan_stays_in_a_small_fixed_memory():
    # two unbalanced periods of different directions: no lap residues, so
    # the stream reads all 10^6 + 1 times, 4,096 at a time at most
    f, g = canon("(0011)"), canon("1(00111)")
    assert rays._mechanical(f) is rays._mechanical(g) is None
    tracemalloc.start()
    try:
        t = divergence_time(f, g, 10 ** 9, 10 ** 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t is None
    assert peak < 2 * 2 ** 20
