"""Digit codes of geodesic rays, the boundary-value map, splices, balls."""

import math
import random
from fractions import Fraction

import pytest

from gridrays import rays
from gridrays.exactnum import sqrt_exact
from gridrays.lattice import word_metric
from gridrays.rays import (Asymptotic, BallQuery, Divergent, Enclosure,
                           InvalidRay, QuadrantMismatch, are_asymptotic,
                           axis_ray, b_map, ball_contains, digitize,
                           direction_of, divergence_time, east_ray, n_map,
                           parse_ray, periodic_ray, splice,
                           trivial_topology_demo, validate)

from conftest import make_periodic_ray, make_same_window_pair

ORIGIN = (0, 0)


def canon(text):
    return parse_ray(text).canonical()


# -- canonical form ---------------------------------------------------------


def test_canonicalization_rules():
    assert canon("(2323)").literal() == "(23)"  # primitive period
    assert canon("1(01)").literal() == "(10)"  # preamble absorbed
    assert canon("0(01)").literal() == "0(01)"  # already minimal
    assert canon("(4)").literal() == "(0)"  # east normalizes to 0
    assert canon("4(0)").literal() == "(0)"
    assert canon("(34)").literal() == "(34)"  # 4 legitimate next to 3
    assert east_ray().literal() == "(0)"


def test_parse_round_trip():
    rng = random.Random(3)
    for _ in range(50):
        ray = make_periodic_ray(rng)
        assert parse_ray(ray.literal()) == ray


def test_validate_rejects_bad_codes():
    assert not validate(parse_ray("(02)"))  # east and west mixed
    assert not validate(parse_ray("(13)"))  # north and south mixed
    assert not validate(parse_ray("(4)"))  # east must be written 0 here
    assert not validate(parse_ray("0(3)"))  # 0 next to 3 must be 4
    assert not validate(parse_ray("(0101)"))  # non-primitive period
    assert not validate(parse_ray("0(10)"))  # absorbable preamble
    assert validate(parse_ray("(01)"))
    assert validate(parse_ray("(34)"))
    # digits {0,1,2} span two windows
    assert not validate(parse_ray("102(2)"))


def test_unit_speed_property():
    rng = random.Random(5)
    for _ in range(60):
        ray = make_periodic_ray(rng)
        for t in (0, 1, 2, 17, 64):
            assert word_metric(ORIGIN, ray.point_at(t)) == t
    # Sturmian rays in every quadrant, with preambles and spliced offsets
    for _ in range(20):
        sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
        line = digitize(sx * rng.randint(1, 9),
                        sy * rng.randint(1, 9) * sqrt_exact(rng.choice((2, 3, 5, 7))))
        head = digitize(sx * rng.randint(1, 4), sy * rng.randint(1, 4))
        s = rng.randrange(0, 200)
        for ray in (line, splice(head, line, s), splice(line, line, s)):
            assert validate(ray)
            pts = ray.points(70)
            assert all(word_metric(ORIGIN, p) == t for t, p in enumerate(pts))
            for t in (s, s + 1, 10 ** 6):
                assert word_metric(ORIGIN, ray.point_at(t)) == t


def test_point_at_east():
    assert east_ray().point_at(5) == (5, 0)
    assert axis_ray(3).point_at(4) == (0, -4)
    assert canon("(01)").point_at(4) == (2, 2)
    assert canon("(23)").point_at(3) == (-2, -1)


def test_axis_rays_match_their_old_constructions():
    def old_axis_ray(digit):
        if digit in (0, 4):
            return rays.RayCode((), rays.PeriodicTail((0,)))
        return rays.RayCode((), rays.PeriodicTail((int(digit),)))

    for digit in range(5):
        got, want = axis_ray(digit), old_axis_ray(digit)
        assert got == want and got.literal() == want.literal()
        assert got.point_at(7) == want.point_at(7)
    assert east_ray() == old_axis_ray(0) and east_ray().literal() == "(0)"


# -- B and N maps -----------------------------------------------------------


def _b_oracle(pre, per, terms=80):
    digits = list(pre) + list(per) * (terms // max(1, len(per)) + 1)
    return sum(d / 2 ** (i + 1) for i, d in enumerate(digits[:terms]))


def test_b_map_values():
    assert b_map((), (0, 1)) == Fraction(1, 3)  # [PAPER]
    assert b_map((), (1,)) == 1
    assert b_map((1,), (0,)) == Fraction(1, 2)
    assert b_map((0,), (1,)) == Fraction(1, 2)  # the dyadic twin
    assert b_map((), (0,)) == 0


def test_b_map_against_series_oracle():
    rng = random.Random(9)
    for _ in range(40):
        pre = tuple(rng.randrange(2) for _ in range(rng.randrange(0, 5)))
        per = tuple(rng.randrange(2) for _ in range(rng.randrange(1, 5)))
        exact = b_map(pre, per)
        assert math.isclose(float(exact), _b_oracle(pre, per), abs_tol=1e-9)


def test_n_map_values():
    assert n_map(east_ray()) == 0  # [PAPER]
    assert n_map(canon("(23)")) == Fraction(7, 3)  # [PAPER]
    assert n_map(canon("(01)")) == Fraction(1, 3)  # [DERIVED] 0 + B(0101...)
    assert n_map(axis_ray(1)) == 1
    assert n_map(axis_ray(2)) == 2
    assert n_map(axis_ray(3)) == 3


def test_n_map_dyadic_twins_collide():
    assert n_map(canon("1(0)")) == n_map(canon("0(1)")) == Fraction(1, 2)
    assert n_map(canon("3(2)")) == n_map(canon("2(3)")) == Fraction(5, 2)


def test_n_map_sturmian_enclosure():
    ray = digitize(1, sqrt_exact(2))
    val = n_map(ray)
    assert isinstance(val, Enclosure)
    assert val.width <= Fraction(1, 1 << 64)
    # [DERIVED] the value is 0.B(digits) with digit frequency sqrt2/(1+sqrt2)
    assert 0 < val.lo < val.hi < 1


def test_n_map_rejects_invalid():
    with pytest.raises(InvalidRay):
        n_map(parse_ray("(0101)"))


# -- digitization -----------------------------------------------------------


def _digitize_oracle(dx, dy, n):
    """Follow the line with float crossings; valid away from exact ties."""
    out = []
    x = y = 0
    for _ in range(n):
        # next crossing times along the line for x+1 and y+1 boundaries
        tx = (x + 1) / dx if dx else math.inf
        ty = (y + 1) / dy if dy else math.inf
        if tx <= ty:
            out.append(0)
            x += 1
        else:
            out.append(1)
            y += 1
    return tuple(out)


def test_digitize_rational_directions():
    assert digitize(1, 1).literal() == "(01)"
    assert digitize(2, 1).literal() == "(001)"
    assert digitize(1, 0).literal() == "(0)"
    assert digitize(0, 1).literal() == "(1)"
    assert digitize(-2, 0).literal() == "(2)"
    assert digitize(0, -5).literal() == "(3)"  # window 2 now, digits unchanged
    assert digitize(-3, -1).literal() == "(2223)"
    assert digitize(1, -2).literal() == "(343)"


def test_digitize_matches_float_oracle():
    rng = random.Random(13)
    for _ in range(30):
        p = rng.randint(1, 12)
        q = rng.randint(1, 12)
        if math.gcd(p, q) != 1:
            continue
        ray = digitize(p, q)
        # oracle floats are exact for small integer crossings except ties;
        # perturb to dodge ties, keeping the same crossing order
        oracle = _digitize_oracle(p + 1e-9, q, 2 * (p + q))
        assert ray.digits(2 * (p + q)) == oracle


def test_digitize_direction_round_trip():
    for p, q in ((1, 1), (2, 1), (5, 3), (1, 4)):
        ray = digitize(p, q)
        ux, uy = direction_of(ray)
        assert ux * q == uy * p  # same slope, l1-normalized
        assert ux + uy == 1


def test_digitize_irrational_is_sturmian():
    ray = digitize(1, sqrt_exact(2))
    assert validate(ray)
    n = 500
    digits = ray.digits(n)
    ones = sum(1 for d in digits if d == 1)
    # frequency of vertical steps tracks sqrt2/(1+sqrt2) = 2 - sqrt2
    assert abs(ones / n - (2 - math.sqrt(2))) < 0.01
    for t in (0, 10, 100, 300):
        assert word_metric(ORIGIN, ray.point_at(t)) == t


def test_digitize_rejects_huge_rational_period():
    with pytest.raises(ValueError):
        digitize(1, Fraction(14142135623, 10 ** 10))


# -- asymptotic classification ---------------------------------------------


def _max_distance(f, g, horizon):
    return max(word_metric(f.point_at(t), g.point_at(t))
               for t in range(horizon + 1))


def test_asymptotic_periodic_exact_bound():
    f = canon("(01)")
    g = canon("1(01)")
    v = are_asymptotic(f, g)
    assert isinstance(v, Asymptotic)
    assert v.attained
    assert v.bound == _max_distance(f, g, 100)  # [DERIVED] simulation


def test_asymptotic_self_is_zero():
    ray = canon("(0011)")
    v = are_asymptotic(ray, ray)
    assert isinstance(v, Asymptotic) and v.bound == 0


def test_asymptotic_seeded_pairs_bound_is_sharp():
    rng = random.Random(21)
    tested = 0
    while tested < 30:
        f, g = make_same_window_pair(rng)
        v = are_asymptotic(f, g)
        if not isinstance(v, Asymptotic):
            continue
        tested += 1
        horizon = 10 * (len(f.tail.period) * len(g.tail.period)
                        + len(f.preamble) + len(g.preamble) + 1)
        sim = _max_distance(f, g, horizon)
        assert sim <= v.bound
        if v.attained:
            assert sim == v.bound


def test_divergent_distinct_directions():
    v = are_asymptotic(canon("(0)"), canon("(1)"))
    assert isinstance(v, Divergent)
    assert v.distance > rays.DIVERGENCE_PROBE
    assert word_metric(canon("(0)").point_at(v.witness_t),
                       canon("(1)").point_at(v.witness_t)) == v.distance


def test_divergent_same_quadrant_different_slopes():
    f, g = digitize(1, 1), digitize(2, 1)
    v = are_asymptotic(f, g)
    assert isinstance(v, Divergent)
    assert word_metric(f.point_at(v.witness_t),
                       g.point_at(v.witness_t)) == v.distance > 10


def test_divergence_time_east_north():
    # d(t) = 2t, first value exceeding 10 occurs at t = 6 [DERIVED]
    assert divergence_time(canon("(0)"), canon("(1)"), 10, 100) == 6
    assert divergence_time(canon("(0)"), canon("(0)"), 10, 100) is None


def test_sturmian_pair_certified():
    f = digitize(1, sqrt_exact(2))
    v = are_asymptotic(f, f)
    assert isinstance(v, Asymptotic)
    assert _max_distance(f, f, 200) <= v.bound


def test_sturmian_vs_own_offset():
    f = digitize(2, sqrt_exact(3))
    g = digitize(sqrt_exact(3), 2)
    v = are_asymptotic(f, g)
    assert isinstance(v, Divergent)


# -- splice -----------------------------------------------------------------


def test_splice_prefix_and_tail():
    f, g = canon("(01)"), canon("(001)")
    h = splice(f, g, 5)
    for t in range(6):
        assert h.point_at(t) == f.point_at(t)
    base_h, base_g = h.point_at(5), g.point_at(5)
    for t in range(5, 40):
        dh = h.point_at(t)
        dg = g.point_at(t)
        assert (dh[0] - base_h[0], dh[1] - base_h[1]) == \
            (dg[0] - base_g[0], dg[1] - base_g[1])


def test_splice_zero_gives_g():
    f, g = canon("(01)"), canon("(001)")
    assert splice(f, g, 0) == g


def test_splice_rejects_window_mismatch():
    with pytest.raises(QuadrantMismatch):
        splice(canon("(01)"), canon("(23)"), 3)


def test_splice_result_valid_and_asymptotic_to_g():
    rng = random.Random(31)
    for _ in range(40):
        f, g = make_same_window_pair(rng)
        s = rng.randrange(0, 12)
        h = splice(f, g, s)
        assert validate(h)
        v = are_asymptotic(h, g)
        assert isinstance(v, Asymptotic)


def test_splice_across_axis():
    # east ray spliced into the north axis: the quadrant-I boundary case
    h = splice(canon("(0)"), canon("(1)"), 3)
    assert h.point_at(3) == (3, 0)
    assert h.point_at(6) == (3, 3)


# -- balls and the trivial-topology construction ---------------------------


def _ball_oracle(center, candidate, a, b, eps):
    t = math.ceil(a)
    while t <= b:
        if word_metric(center.point_at(t), candidate.point_at(t)) >= eps:
            return False
        t += 1
    return True


def test_ball_contains_basic():
    f, g = canon("(01)"), canon("(001)")
    q = BallQuery(0, 3, 2)
    assert ball_contains(f, g, q) == _ball_oracle(f, g, 0, 3, 2)
    assert ball_contains(f, f, BallQuery(0, 100, Fraction(1, 2)))


def test_ball_strictness():
    f, g = canon("(0)"), canon("(1)")
    # d at t=1 is 2: inside for eps > 2 only (strict inequality)
    assert not ball_contains(f, g, BallQuery(0, 1, 2))
    assert ball_contains(f, g, BallQuery(0, 1, Fraction(5, 2)))
    # d(3) = 6: equal to an integer eps is outside; ceil(eps) - 1 is inside
    assert not ball_contains(f, g, BallQuery(0, 3, 6))
    assert ball_contains(f, g, BallQuery(0, 3, Fraction(13, 2)))
    assert not ball_contains(f, g, BallQuery(0, 3, Fraction(11, 2)))


def test_ball_random_agreement():
    rng = random.Random(41)
    for _ in range(40):
        f, g = make_same_window_pair(rng)
        a = Fraction(rng.randrange(0, 6), rng.choice((1, 2)))
        b = a + Fraction(rng.randrange(0, 10), rng.choice((1, 2)))
        eps = Fraction(rng.randrange(1, 8), rng.choice((1, 2)))
        q = BallQuery(a, b, eps)
        assert ball_contains(f, g, q) == _ball_oracle(f, g, a, b, eps)


def test_trivial_topology_demo_defaults():
    demo = trivial_topology_demo(canon("(01)"), canon("(001)"),
                                 BallQuery(0, 5, 1))
    assert demo.ok
    assert demo.s == 5
    assert {link.axis.literal() for link in demo.chain} == \
        {"(0)", "(1)", "(2)", "(3)"}


def test_trivial_topology_demo_seeded():
    rng = random.Random(55)
    for _ in range(20):
        f, g = make_same_window_pair(rng)
        b = rng.randrange(1, 8)
        eps = Fraction(rng.randrange(1, 5), rng.choice((1, 2)))
        demo = trivial_topology_demo(f, g, BallQuery(0, b, eps))
        assert demo.ok
