"""Quasi-isometry certificates: floor map, inclusion, generating sets."""

import math
import random
import tracemalloc
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from gridrays import exactnum, quasi
from gridrays.exactnum import Surd, exact_sign, sqrt_exact
from gridrays.lattice import (GeneratingSet, generating_set_lipschitz,
                              standard_generators, word_metric)
from gridrays.quasi import (FloorMap, GensetMap, InclusionMap, LatticeBall,
                            QIParams, Violation, check_embedding, find_violation,
                            floor_chain_holds, floor_map, iter_pairs, proven,
                            quasi_surjectivity_bound, roundtrip_displacement,
                            sample_plane_pairs, sample_plane_points)
from test_ell1 import _fractions_built
from test_lattice import _oracle_bfs_distances

fracs = st.fractions(min_value=-50, max_value=50, max_denominator=64)


@pytest.mark.parametrize("radius", range(31))
def test_lattice_ball_sequence_is_the_list(radius):
    # every index, negative ones too, against the x-major nested loop
    ball, seq = list(LatticeBall(radius)), LatticeBall(radius)
    assert len(seq) == len(ball)
    assert [seq[i] for i in range(-len(ball), len(ball))] == ball + ball
    for i in (len(ball), len(ball) + 7, -len(ball) - 1, -len(ball) - 9):
        with pytest.raises(IndexError):
            ball[i]
        with pytest.raises(IndexError):
            seq[i]


def test_lattice_ball_draws_like_the_list():
    # rng.choice reads only len and one index, so the draws are the same
    for seed in range(5):
        draws = []
        for ball in (list(LatticeBall(12)), LatticeBall(12)):
            rng = random.Random(seed)
            draws.append([rng.choice(ball) for _ in range(200)])
        assert draws[0] == draws[1]


def test_floor_map_basic():
    assert floor_map((Fraction(3, 2), Fraction(-1, 2))) == (1, -1)
    assert floor_map((Fraction(2), Fraction(2))) == (2, 2)
    assert floor_map((Fraction(-1, 4), Fraction(0))) == (-1, 0)


@given(fracs, fracs)
def test_one_dimensional_floor_bound(x, y):
    # |floor x - floor y| <= |x - y| + 1, the engine of the (2,2) certificate
    assert abs(math.floor(x) - math.floor(y)) <= abs(x - y) + 1


@given(fracs, fracs, fracs, fracs)
def test_floor_chain_holds_everywhere(a, b, c, d):
    assert floor_chain_holds((a, b), (c, d))


def test_floor_map_2_2_certificate():
    pairs = sample_plane_pairs((Fraction(-100), Fraction(100)), 2000, seed=5)
    report = check_embedding(FloorMap(), QIParams.from_k(2, 2), pairs)
    assert report.ok and report.pairs_checked == 2000


def test_floor_map_k1_c0_fails():
    # the identity constants are impossible: (0,0) vs (1/2, 1/2)
    v = FloorMap().check_pair((Fraction(0), Fraction(0)),
                              (Fraction(1, 2), Fraction(3, 2)),
                              QIParams.from_k(1, 0))
    assert v and v[0].side == "lower"


# k * k >= 1 for the negative ones, so only a check on k itself refuses them
@pytest.mark.parametrize("k", [-1, Fraction(-3, 2), -2, Fraction(1, 2)])
def test_from_k_refuses_k_below_one(k):
    with pytest.raises(ValueError, match="need k >= 1 and c >= 0"):
        QIParams.from_k(k, 0)


def test_best_constant_violation_at_100():
    # [DERIVED] 2n > (7/5) n sqrt(2) + 2 first holds at n = 100
    v = find_violation(FloorMap(), QIParams.from_k(Fraction(7, 5), 2),
                       "diagonal-ray", 1000)
    assert v is not None
    assert v.pair[1] == (100, 100)
    assert v.side == "upper"
    assert find_violation(FloorMap(), QIParams.from_k(2, 2),
                          "diagonal-ray", 1000) is None


def test_sqrt2_constants_hold_on_diagonal():
    params = QIParams.from_k_squared(2, 2)  # k = sqrt(2) exactly
    assert find_violation(FloorMap(), params, "diagonal-ray", 500) is None
    assert find_violation(InclusionMap(), params, "diagonal-ray", 500) is None


def test_inclusion_exact_boundary():
    # on the diagonal the inclusion meets k = sqrt(2) with c = 0 exactly
    params = QIParams.from_k_squared(2, 0)
    ball = list(LatticeBall(6))
    report = check_embedding(InclusionMap(), params,
                             [(a, b) for a in ball[:40] for b in ball[:40]])
    assert report.ok
    # anything smaller than sqrt(2) fails on the diagonal
    v = InclusionMap().check_pair((0, 0), (5, 5), QIParams.from_k(Fraction(7, 5), 0))
    assert v


def test_grid_and_random_strategies():
    bad = QIParams.from_k(1, 0)
    assert find_violation(FloorMap(), bad, "grid", 2000) is not None
    assert find_violation(FloorMap(), bad, "random", 200, seed=3) is not None
    with pytest.raises(ValueError):
        find_violation(FloorMap(), bad, "sideways", 10)


def test_roundtrip_displacement():
    samples = sample_plane_points((Fraction(-50), Fraction(50)), 3000, seed=9)
    report = roundtrip_displacement(samples)
    assert report.max_sq_displacement < 2
    # crafted point close to the open corner: displacement^2 = 2*(19/20)^2
    crafted = roundtrip_displacement([(Fraction(19, 20), Fraction(19, 20))])
    assert crafted.max_sq_displacement == Fraction(361, 200)
    assert crafted.max_sq_displacement > Fraction(9, 5)


def test_surjectivity_bounds():
    targets = sample_plane_points((Fraction(-20), Fraction(20)), 200, seed=2)
    rep = quasi_surjectivity_bound(InclusionMap(), targets)
    assert rep.bound == 1
    assert rep.max_sq_distance <= Fraction(1, 2)
    rep2 = quasi_surjectivity_bound(FloorMap(), [(3, -2), (0, 0)])
    assert rep2.bound == 1


def test_genset_map_certificate():
    S = standard_generators()
    S2 = GeneratingSet([(1, 0), (1, 1)])
    gm = GensetMap(S, S2, radius_cap=40)
    pts = list(LatticeBall(5))
    pairs = [(a, b) for a in pts for b in pts]
    report = check_embedding(gm, QIParams.from_k(2, 0), pairs)
    assert report.ok


def test_sampling_is_deterministic():
    a = sample_plane_points((Fraction(-10), Fraction(10)), 50, seed=4)
    b = sample_plane_points((Fraction(-10), Fraction(10)), 50, seed=4)
    assert a == b
    assert a != sample_plane_points((Fraction(-10), Fraction(10)), 50, seed=5)


def sq_euclidean(p, q):
    """The squared Euclidean distance (once in ``quasi``)."""
    dx = p[0] - q[0]
    dy = p[1] - q[1]
    return dx * dx + dy * dy


def test_sq_euclidean():
    assert sq_euclidean((Fraction(0), Fraction(0)),
                        (Fraction(3), Fraction(4))) == 25


# ---------------------------------------------------------------------------
# the one exact-inequality kernel, against the three per-map comparisons it
# replaced (kept here verbatim as the oracle)


def _oracle_graph_target(pair, d_graph, sq_plane, params):
    k_sq, c = params.k_sq, params.c
    out = []
    upper_lhs = d_graph - c
    if upper_lhs > 0 and upper_lhs * upper_lhs > k_sq * sq_plane:
        out.append(Violation(pair, "upper",
                             upper_lhs * upper_lhs - k_sq * sq_plane))
    lower_rhs = d_graph + c
    if sq_plane > k_sq * lower_rhs * lower_rhs:
        out.append(Violation(pair, "lower",
                             sq_plane - k_sq * lower_rhs * lower_rhs))
    return out


def oracle_floor(p, q, params):
    d_graph = Fraction(word_metric(floor_map(p), floor_map(q)))
    return _oracle_graph_target((p, q), d_graph, sq_euclidean(p, q), params)


def oracle_inclusion(p, q, params):
    d_graph = Fraction(word_metric(p, q))
    sq = sq_euclidean(p, q)
    out = []
    k_sq, c = params.k_sq, params.c
    k = sqrt_exact(k_sq)
    bound = k * d_graph + c
    if exact_sign(sq - bound * bound) > 0:
        out.append(Violation((p, q), "upper", sq - bound * bound))
    lhs = d_graph - c * k
    if exact_sign(lhs) > 0 and exact_sign(lhs * lhs - k_sq * sq) > 0:
        out.append(Violation((p, q), "lower", lhs * lhs - k_sq * sq))
    return out


def _oracle_dist(gm, S, p, q):
    """``GensetMap._dist`` as it was: one radius-capped distance."""
    d = S.distance((q[0] - p[0], q[1] - p[1]), gm.radius_cap)
    if d is None:
        raise ValueError(f"pair {p}, {q} outside radius cap {gm.radius_cap}")
    return d


def oracle_genset(gm, p, q, params):
    dx = Fraction(_oracle_dist(gm, gm.S, p, q))
    dy = Fraction(_oracle_dist(gm, gm.S2, p, q))
    k_sq, c = params.k_sq, params.c
    out = []
    upper_lhs = dy - c
    if upper_lhs > 0 and upper_lhs * upper_lhs > k_sq * dx * dx:
        out.append(Violation((p, q), "upper",
                             upper_lhs * upper_lhs - k_sq * dx * dx))
    lower_rhs = dy + c
    if dx * dx > k_sq * lower_rhs * lower_rhs:
        out.append(Violation((p, q), "lower",
                             dx * dx - k_sq * lower_rhs * lower_rhs))
    return out


GENSET = GensetMap(standard_generators(), GeneratingSet([(1, 0), (1, 1)]),
                   radius_cap=40)


def assert_same(got, want):
    assert got == want
    assert [str(v.margin) for v in got] == [str(v.margin) for v in want]


k_squares = st.one_of(
    st.sampled_from([Fraction(1), Fraction(2), Fraction(3, 2), Fraction(4),
                     Fraction(49, 25), Fraction(9, 4), Fraction(7),
                     Fraction(10000000019)]),
    st.fractions(min_value=1, max_value=12, max_denominator=16))
constants = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=0, max_value=4, max_denominator=6))
lattice_pts = st.tuples(st.integers(-8, 8), st.integers(-8, 8))


@given(fracs, fracs, fracs, fracs, k_squares, constants)
def test_floor_kernel_matches_oracle(a, b, c, d, k_sq, const):
    params = QIParams.from_k_squared(k_sq, const)
    assert_same(FloorMap().check_pair((a, b), (c, d), params),
                oracle_floor((a, b), (c, d), params))


@given(st.one_of(lattice_pts, st.tuples(fracs, fracs)),
       st.one_of(lattice_pts, st.tuples(fracs, fracs)), k_squares, constants)
def test_inclusion_kernel_matches_oracle(p, q, k_sq, const):
    params = QIParams.from_k_squared(k_sq, const)
    assert_same(InclusionMap().check_pair(p, q, params),
                oracle_inclusion(p, q, params))


@given(lattice_pts, lattice_pts, k_squares, constants)
def test_genset_kernel_matches_oracle(p, q, k_sq, const):
    params = QIParams.from_k_squared(k_sq, const)
    try:
        want = oracle_genset(GENSET, p, q, params)
    except ValueError:  # beyond the BFS radius cap: the map refuses it too
        with pytest.raises(ValueError, match="outside radius cap"):
            GENSET.check_pair(p, q, params)
        return
    assert_same(GENSET.check_pair(p, q, params), want)


def test_kernel_matches_oracle_on_surd_margins():
    pts = list(LatticeBall(3))
    pairs = [(a, b) for a in pts for b in pts]
    surds = 0
    for k_sq, const in [(Fraction(3, 2), Fraction(1, 3)), (2, Fraction(1, 2)),
                        (Fraction(5, 4), Fraction(1, 7)), (7, 1)]:
        params = QIParams.from_k_squared(k_sq, const)
        for p, q in pairs:
            got = InclusionMap().check_pair(p, q, params)
            assert_same(got, oracle_inclusion(p, q, params))
            surds += sum(isinstance(v.margin, Surd) for v in got)
    assert surds > 100


def test_inclusion_never_factors_k_sq(monkeypatch):
    def boom(n):
        raise AssertionError(f"factored {n}")

    monkeypatch.setattr(exactnum, "_split_square", boom)
    pts = list(LatticeBall(4))
    pairs = [(a, b) for a in pts for b in pts]
    for const in (Fraction(0), Fraction(1, 3)):
        report = check_embedding(InclusionMap(),
                                 QIParams.from_k_squared(10000000019, const),
                                 pairs)
        assert report.ok and report.pairs_checked == len(pairs)


def test_sqrt_of_k_sq_taken_once_and_only_for_surd_margins(monkeypatch):
    calls = []
    monkeypatch.setattr(quasi, "sqrt_exact",
                        lambda x: calls.append(x) or sqrt_exact(x))
    pts = list(LatticeBall(4))
    pairs = [(a, b) for a in pts for b in pts]
    rational = check_embedding(InclusionMap(),
                               QIParams.from_k_squared(Fraction(3, 2), 0), pairs)
    assert rational.violations and calls == []
    params = QIParams.from_k_squared(Fraction(3, 2), Fraction(1, 3))
    report = check_embedding(InclusionMap(), params, pairs)
    assert any(isinstance(v.margin, Surd) for v in report.violations)
    assert calls == [Fraction(3, 2)]


@given(st.one_of(st.fractions(1, Fraction(3, 2), max_denominator=12),
                 st.fractions(1, Fraction(6, 5), max_denominator=12)
                 .map(lambda k: k * k)),
       st.fractions(0, Fraction(1, 2), max_denominator=6))
@example(Fraction(3, 2), Fraction(1, 3))
@example(Fraction(36, 25), Fraction(1, 3))
def test_qi_margins_do_no_surd_arithmetic(k_sq, c):
    # k <= sqrt(3/2) and c <= 1/2: the pair (-1, -2), (2, 1) fails the lower
    # side, so every draw is a failing certificate
    params = QIParams.from_k_squared(k_sq, c)
    pts = list(LatticeBall(3))
    pairs = [(a, b) for a in pts for b in pts]
    want, real = [], quasi._margin

    def old_margin(params, m0, m1, t):
        # the margin as it was built, Fraction * Surd + Fraction
        D = params._ints[5] * t * t
        want.append(Fraction(m0, D) + Fraction(m1, D) * params.k)
        return real(params, m0, m1, t)

    def boom(*args):
        raise AssertionError("Surd arithmetic on a QI margin")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quasi, "_margin", old_margin)
        check_embedding(InclusionMap(), params, pairs)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                     "__rmul__"):
            mp.setattr(Surd, name, boom)
        got = [v.margin for v in
               check_embedding(InclusionMap(), params, pairs).violations]
    assert got and got == want
    irrational = c != 0 and isinstance(params.k, Surd)
    assert all(isinstance(m, Surd) == irrational for m in got)


def test_genset_builds_each_distance_table_once(monkeypatch):
    # a set whose hull is not unimodular grows its own table, one BFS layer
    # at a time and only as far as a pair needs: repeated out-of-cap pairs
    # grow no layer twice, and S2's table stays untouched until a pair
    # reaches it; a unimodular hull reads its gauge and grows none
    grown = []
    real = GeneratingSet._grow_layer
    monkeypatch.setattr(GeneratingSet, "_grow_layer",
                        lambda S: grown.append((S, S.radius + 1)) or real(S))
    params = QIParams.from_k(2, 0)
    for S, S2, layers in (
            (standard_generators(), GeneratingSet([(1, 0), (1, 1)]), ()),
            (GeneratingSet([(1, 0), (0, 1), (1, -1)]),
             GeneratingSet([(1, 0), (1, 1), (0, 1)]), ()),
            (GeneratingSet([(1, 0), (0, 1), (2, 1)]),
             GeneratingSet([(1, 0), (1, 1), (1, 2)]), (1, 2, 3))):
        grown.clear()
        gm = GensetMap(S, S2, radius_cap=3)
        for n in range(10, 15):
            with pytest.raises(ValueError):
                gm.check_pair((0, 0), (n, 0), params)
        assert grown == [(S, d) for d in layers]
        gm.check_pair((0, 0), (1, 1), params)
        assert grown == [(S, d) for d in layers] + [(S2, 1)] * bool(layers)
        for T in (S, S2):
            want = _oracle_bfs_distances(T.vectors, 3)
            assert all(T.distance(q, 3) == want.get(q) for q in LatticeBall(5))


# ---------------------------------------------------------------------------
# the integer forms of the plane-side layer, against the Fraction bodies
# they replaced (kept here verbatim as the oracle)


def oracle_sample_plane_points(box, count, seed):
    lo, hi = Fraction(box[0]), Fraction(box[1])
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        den = rng.choice(quasi._DENOMINATORS)
        nlo, nhi = math.ceil(lo * den), math.floor(hi * den)
        pts.append((Fraction(rng.randint(nlo, nhi), den),
                    Fraction(rng.randint(nlo, nhi), den)))
    return pts


def oracle_pair_terms(p, q):
    a, b, e, f = p[0].numerator, p[0].denominator, p[1].numerator, p[1].denominator
    h, i, m, n = q[0].numerator, q[0].denominator, q[1].numerator, q[1].denominator
    g = abs(a // b - h // i) + abs(e // f - m // n)
    X, tx = a * i - h * b, b * i
    Y, ty = e * n - m * f, f * n
    if tx == ty:
        return X, Y, tx, g
    return X * ty, Y * tx, tx * ty, g


def oracle_floor_chain_holds(p, q):
    d_grid = word_metric(floor_map(p), floor_map(q))
    adx, ady = abs(p[0] - q[0]), abs(p[1] - q[1])
    mx = max(adx, ady)
    sq = adx * adx + ady * ady
    if d_grid > 2 * mx + 2:
        return False
    if mx * mx > sq:  # 2 max + 2 <= 2 sqrt(sq) + 2
        return False
    # lower: d_grid >= sqrt(sq) - 2, i.e. sqrt(sq) <= d_grid + 2
    lhs = d_grid + 2
    return sq <= lhs * lhs


def oracle_roundtrip_displacement(samples):
    best = Fraction(0)
    arg = samples[0] if samples else (Fraction(0), Fraction(0))
    for p in samples:
        fp = floor_map(p)
        sq = sq_euclidean(p, (Fraction(fp[0]), Fraction(fp[1])))
        if sq > best:
            best, arg = sq, p
    return quasi.RoundtripReport(best, arg, len(samples))


def oracle_quasi_surjectivity_bound(qmap, targets):
    max_sq = Fraction(0)
    if isinstance(qmap, FloorMap):
        for t in targets:
            # lattice targets are hit exactly: floor of the point itself
            if floor_map((Fraction(t[0]), Fraction(t[1]))) != (t[0], t[1]):
                raise ValueError(f"target {t} is not a lattice point")
    elif isinstance(qmap, InclusionMap):
        for t in targets:
            x, y = Fraction(t[0]), Fraction(t[1])
            cands = [(math.floor(x) + i, math.floor(y) + j)
                     for i in (0, 1) for j in (0, 1)]
            sq = min(sq_euclidean((x, y), (Fraction(a), Fraction(b)))
                     for a, b in cands)
            max_sq = max(max_sq, sq)
        if max_sq >= 1:
            raise AssertionError("cell geometry bound exceeded")
    else:
        raise ValueError("surjectivity probing supports floor and inclusion")
    return quasi.SurjectivityReport(qmap.name, Fraction(1), max_sq, len(targets))


def oracle_diagonal(check, params, budget):
    for n in range(1, budget + 1):
        pair = ((Fraction(0), Fraction(0)), (Fraction(n), Fraction(n)))
        found = check(*pair, params)
        if found:
            return found[0]
    return None


# denominators up to 10^6 and negative coordinates, where // and truncation
# disagree
wide_fracs = st.tuples(st.integers(-10**9, 10**9),
                      st.integers(1, 10**6)).map(lambda nd: Fraction(*nd))
# boxes about 0, and boxes on one side of it, where ceil(lo*den) and
# floor(hi*den) differ from truncation
BOXES = [(Fraction(-7, 3), Fraction(5, 2)), (Fraction(-1000), Fraction(1000)),
         (Fraction(0), Fraction(1)), (Fraction(-9, 2), Fraction(-1, 7)),
         (Fraction(1, 3), Fraction(7, 4)), (Fraction(-5), Fraction(-5))]


@given(wide_fracs, wide_fracs, wide_fracs, wide_fracs, k_squares, constants)
def test_floor_kernel_matches_oracle_on_wide_denominators(a, b, c, d, k_sq, const):
    params = QIParams.from_k_squared(k_sq, const)
    assert_same(FloorMap().check_pair((a, b), (c, d), params),
                oracle_floor((a, b), (c, d), params))


def test_floor_kernel_floors_negative_coordinates():
    # floor(-1/3) = -1 but int(-1/3) = 0: the pair is 2 grid steps apart
    p, q = (Fraction(-1, 3), Fraction(0)), (Fraction(1), Fraction(0))
    params = QIParams.from_k(1, 0)
    got = FloorMap().check_pair(p, q, params)
    assert got == oracle_floor(p, q, params)
    assert [(v.side, v.margin) for v in got] == [("upper", Fraction(20, 9))]


@given(st.one_of(fracs, wide_fracs), st.one_of(fracs, wide_fracs),
       st.one_of(fracs, wide_fracs), st.one_of(fracs, wide_fracs))
def test_floor_chain_matches_oracle(a, b, c, d):
    assert floor_chain_holds((a, b), (c, d)) == oracle_floor_chain_holds((a, b), (c, d))


def test_floor_chain_matches_oracle_near_cell_corners():
    # pairs inside one cell or its neighbours, where the chains are tightest
    # (sqrt(2) * 63/64 > 0 + 1 inside a single cell)
    coords = [Fraction(v, 64) for v in (-65, -64, -1, 0, 1, 32, 63, 64, 129)]
    pts = [(x, y) for x in coords for y in coords]
    for p in pts:
        for q in pts:
            assert floor_chain_holds(p, q) == oracle_floor_chain_holds(p, q)


@pytest.mark.parametrize("box", BOXES)
def test_sampler_matches_oracle_point_for_point(box):
    for seed in (0, 5, 11):
        got = sample_plane_points(box, 300, seed)
        assert got == oracle_sample_plane_points(box, 300, seed)
        assert all(type(c) is Fraction for p in got for c in p)
    assert sample_plane_pairs(box, 7, 3) == list(zip(*[iter(
        oracle_sample_plane_points(box, 14, 3))] * 2))


def test_sampler_rejects_an_empty_box_like_the_oracle():
    box = (Fraction(5, 2), Fraction(-7, 3))
    with pytest.raises(ValueError):
        oracle_sample_plane_points(box, 3, 0)
    with pytest.raises(ValueError):
        sample_plane_points(box, 3, 0)


# box ends: ints and Fractions, equal and inverted ends, and boxes whose
# integer width is a power of two, where k = w.bit_length() rejects half the
# draws and (w - 1).bit_length() would reject none
box_ends = st.one_of(st.integers(-10**4, 10**4),
                     st.fractions(min_value=-10**4, max_value=10**4,
                                  max_denominator=100))
sampler_boxes = st.one_of(
    st.tuples(box_ends, box_ends),
    box_ends.map(lambda x: (x, x)),
    st.tuples(st.integers(-10**4, 10**4 - 2**13), st.integers(0, 13)).map(
        lambda lw: (lw[0], lw[0] + 2**lw[1] - 1)))


def _draws_until_error(points, count):
    """The first ``count`` points of a stream, or those before its
    ValueError, and whether it raised."""
    got = []
    try:
        for pt in islice(points, count):
            got.append(pt)
    except ValueError:
        return got, True
    return got, False


@example(box=(0, 3), seed=0)
@example(box=(Fraction(1, 3), Fraction(1, 4)), seed=0)
@example(box=(Fraction(1, 3), Fraction(1, 2)), seed=0)
@example(box=(Fraction(-9, 2), Fraction(-1, 7)), seed=0)
@given(box=sampler_boxes, seed=st.integers(0, 2**32))
def test_sampler_matches_oracle_on_drawn_seeds_and_boxes(box, seed):
    got, raised = _draws_until_error(quasi._plane_points(box, seed), 64)
    assert got == oracle_sample_plane_points(box, len(got), seed)
    assert all(type(c) is Fraction for p in got for c in p)
    # every point lies in its box (an inverted box yields none)
    lo, hi = map(Fraction, box)
    assert all(lo <= c <= hi for p in got for c in p)
    if raised:
        # the oracle raises at the same draw
        with pytest.raises(ValueError):
            oracle_sample_plane_points(box, len(got) + 1, seed)
    else:
        assert len(got) == 64


def test_sampler_raises_at_the_draw_of_an_empty_denominator():
    # the inverted box [1/3, 1/4] has no numerator for any denominator, the
    # point box [1/3, 1/3] one for 3 alone, and in [1/3, 1/2] only the
    # denominator 1 has none: each seed yields points until it draws one
    # without
    third = Fraction(1, 3)
    for box, want in (((third, Fraction(1, 4)), [0, 0, 0, 0]),
                      ((third, third), [0, 1, 0, 0]),
                      ((third, Fraction(1, 2)), [25, 4, 0, 3])):
        runs = [_draws_until_error(quasi._plane_points(box, seed), 64)
                for seed in range(4)]
        assert [len(got) for got, _ in runs] == want
        assert all(raised for _, raised in runs)
    assert _draws_until_error(quasi._plane_points((third, third), 1), 9) == (
        [(third, third)], True)


@given(st.integers(-10**12, 10**12), st.integers(1, 10**6))
def test_fraction_helper_matches_the_constructor(n, d):
    got, want = quasi._fraction(n, d), Fraction(n, d)
    assert type(got) is Fraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert (got + 1, got * 3, -got) == (want + 1, want * 3, -want)


def test_sampler_builds_fractions_only_for_the_box_ends():
    for box in BOXES:
        assert _fractions_built(lambda: sample_plane_points(box, 1000, 7)) <= 2


# int, Fraction and mixed coordinates, negative numerators included
pair_coords = st.one_of(st.integers(-10**6, 10**6), fracs, wide_fracs)


@given(st.tuples(pair_coords, pair_coords), st.tuples(pair_coords, pair_coords))
def test_pair_terms_match_the_property_reading_oracle(p, q):
    got = quasi._pair_terms(p, q)
    assert got == oracle_pair_terms(p, q)
    assert all(type(v) is int for v in got)


@given(st.lists(st.tuples(st.one_of(fracs, wide_fracs),
                          st.one_of(fracs, wide_fracs)), max_size=8))
def test_roundtrip_matches_oracle(samples):
    got = roundtrip_displacement(samples)
    want = oracle_roundtrip_displacement(samples)
    assert got == want and type(got.max_sq_displacement) is Fraction
    if samples:
        assert got.argmax is want.argmax


@pytest.mark.parametrize("box", BOXES)
def test_roundtrip_matches_oracle_on_sampled_boxes(box):
    samples = sample_plane_points(box, 500, 9)
    want = oracle_roundtrip_displacement(samples)
    for given_as in (samples, iter(samples)):
        got = roundtrip_displacement(given_as)
        assert got == want and got.argmax is want.argmax


def test_roundtrip_reads_empty_and_lattice_inputs():
    empty = quasi.RoundtripReport(Fraction(0), (Fraction(0), Fraction(0)), 0)
    assert roundtrip_displacement([]) == empty
    assert roundtrip_displacement(iter([])) == empty
    # no point leaves its cell: the first point is the argmax
    lattice = [(Fraction(x), Fraction(-x)) for x in range(5)]
    got = roundtrip_displacement(p for p in lattice)
    assert got == oracle_roundtrip_displacement(lattice)
    assert got.argmax is lattice[0]


def test_roundtrip_streams_its_points():
    # fresh points, so a listing of the 200,000 would hold each of them
    def points(n):
        return ((Fraction(i), Fraction(-i)) for i in range(n))

    tracemalloc.start()
    try:
        listed = list(points(20_000))
        _, listed_peak = tracemalloc.get_traced_memory()
        del listed
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        report = roundtrip_displacement(points(200_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.samples == 200_000 and report.max_sq_displacement == 0
    assert peak - base < listed_peak


@given(st.lists(st.tuples(st.one_of(fracs, wide_fracs, st.integers(-9, 9)),
                          st.one_of(fracs, wide_fracs, st.integers(-9, 9))),
                max_size=8))
def test_inclusion_surjectivity_matches_oracle(targets):
    got = quasi_surjectivity_bound(InclusionMap(), targets)
    assert got == oracle_quasi_surjectivity_bound(InclusionMap(), targets)
    assert type(got.max_sq_distance) is Fraction


@given(st.lists(st.tuples(st.one_of(fracs, st.integers(-9, 9)),
                          st.one_of(fracs, st.integers(-9, 9))), max_size=8))
def test_floor_surjectivity_matches_oracle(targets):
    try:
        want = oracle_quasi_surjectivity_bound(FloorMap(), targets)
    except ValueError as exc:
        with pytest.raises(ValueError, match="not a lattice point") as got:
            quasi_surjectivity_bound(FloorMap(), targets)
        assert str(got.value) == str(exc)
        return
    assert quasi_surjectivity_bound(FloorMap(), targets) == want


def test_surjectivity_rejects_other_maps():
    with pytest.raises(ValueError, match="supports floor and inclusion"):
        quasi_surjectivity_bound(GENSET, [(0, 0)])


@pytest.mark.parametrize("k", [Fraction(7, 5), Fraction(3, 2), Fraction(141, 100),
                               Fraction(1), Fraction(2)])
@pytest.mark.parametrize("c", [Fraction(0), Fraction(1, 3), Fraction(2)])
def test_diagonal_scan_matches_oracle(k, c):
    params = QIParams.from_k(k, c)
    for qmap, check in ((FloorMap(), oracle_floor),
                        (InclusionMap(), oracle_inclusion)):
        got = find_violation(qmap, params, "diagonal-ray", 400)
        want = oracle_diagonal(check, params, 400)
        if want is None:
            assert got is None
        else:
            assert_same([got], [want])
            # the witness is a pair of the map's own domain
            num = Fraction if qmap.domain == "plane" else int
            assert all(type(x) is num for pt in got.pair for x in pt)
    gm = GensetMap(standard_generators(), GeneratingSet([(1, 0), (1, 1)]),
                   radius_cap=40)
    got = find_violation(gm, params, "diagonal-ray", 20)
    want = oracle_diagonal(lambda p, q, prm: oracle_genset(gm, p, q, prm),
                           params, 20)
    assert (got is None) == (want is None)
    if want is not None:
        assert_same([got], [want])
        assert all(type(x) is int for pt in got.pair for x in pt)


def test_diagonal_scan_matches_oracle_at_irrational_k():
    for k_sq, c in [(2, 0), (2, Fraction(1, 2)), (Fraction(3, 2), 1),
                    (Fraction(19, 10), 2)]:
        params = QIParams.from_k_squared(k_sq, c)
        for qmap, check in ((FloorMap(), oracle_floor),
                            (InclusionMap(), oracle_inclusion)):
            got = find_violation(qmap, params, "diagonal-ray", 300)
            want = oracle_diagonal(check, params, 300)
            assert (got is None) == (want is None)
            if want is not None:
                assert_same([got], [want])


def oracle_random_pairs(domain, count, seed, box, radius=10):
    # the eager draws: consecutive sampler points, or rng.choice over the
    # listed ball twice per pair
    if domain == "plane":
        pts = oracle_sample_plane_points(box, 2 * count, seed)
        return list(zip(pts[::2], pts[1::2]))
    ball, rng = list(LatticeBall(radius)), random.Random(seed)
    return [(rng.choice(ball), rng.choice(ball)) for _ in range(count)]


def oracle_random_search(qmap, params, budget, seed, box):
    # the eager search: draw all pairs, then check them in order
    for pair in oracle_random_pairs(qmap.domain, budget, seed, box):
        found = qmap.check_pair(*pair, params)
        if found:
            return found[0]
    return None


DEFAULT_SEARCH_BOX = (Fraction(-100), Fraction(100))


# plane witnesses at pairs 0 and 40, a certificate that holds on the plane
# and one that holds on the radius-10 ball, and a lattice witness at pair
# 141 with a budget that stops one pair short of it
@pytest.mark.parametrize("qmap, k, c, budget, box", [
    (FloorMap(), 1, 0, 500, DEFAULT_SEARCH_BOX),
    (FloorMap(), Fraction(3, 2), 1, 500, (Fraction(-5), Fraction(5))),
    (InclusionMap(), Fraction(7, 5), 2, 500, DEFAULT_SEARCH_BOX),
    (InclusionMap(), Fraction(4, 3), Fraction(3, 4), 141, DEFAULT_SEARCH_BOX),
    (FloorMap(), 2, 2, 300, DEFAULT_SEARCH_BOX),
    (InclusionMap(), Fraction(4, 3), Fraction(3, 4), 500, DEFAULT_SEARCH_BOX),
])
def test_random_search_matches_eager_oracle(qmap, k, c, budget, box):
    params = QIParams.from_k(k, c)
    got = find_violation(qmap, params, "random", budget, seed=3, box=box)
    want = oracle_random_search(qmap, params, budget, 3, box)
    assert (got is None) == (want is None)
    if want is not None:
        assert_same([got], [want])


def test_random_search_checks_pairs_as_drawn():
    params = QIParams.from_k(1, 0)
    want = oracle_random_search(FloorMap(), params, 10, 3, DEFAULT_SEARCH_BOX)
    tracemalloc.start()
    try:
        got = find_violation(FloorMap(), params, "random", 10**5, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert_same([got], [want])
    assert peak < 1 << 20


# ---------------------------------------------------------------------------
# the grid and random strategies read one pair stream


GRID_POINTS = [(Fraction(i, 2), Fraction(j, 2))
               for i in range(-8, 9) for j in range(-8, 9)]


def oracle_grid_search(qmap, params, budget):
    # brute force: the first budget pairs of the grid's product, in order
    checked = 0
    for a in GRID_POINTS:
        for b in GRID_POINTS:
            if checked == budget:
                return None, checked
            checked += 1
            found = qmap.check_pair(a, b, params)
            if found:
                return found[0], checked
    return None, checked


class CountingMap:
    """A map that counts the pairs it is asked to check."""

    def __init__(self, qmap):
        self.qmap, self.name, self.pairs = qmap, qmap.name, 0
        self.domain = qmap.domain

    def check_pair(self, p, q, params):
        self.pairs += 1
        return self.qmap.check_pair(p, q, params)


# the floor map at c = 1 first fails at pair 5238 of the 83,521 for k = 7/5
# and never for k = 3/2; the budgets stop short of that pair, at it, inside
# the grid and past its end
@pytest.mark.parametrize("k", [Fraction(7, 5), Fraction(3, 2)])
@pytest.mark.parametrize("budget", [1, 5238, 5239, 40_000, 83_521, 100_000])
def test_grid_search_matches_brute_force(k, budget):
    params = QIParams.from_k(k, 1)
    want, checked = oracle_grid_search(FloorMap(), params, budget)
    qmap = CountingMap(FloorMap())
    got = find_violation(qmap, params, "grid", budget)
    assert qmap.pairs == checked
    assert (got is None) == (want is None)
    if want is not None:
        assert_same([got], [want])
    assert (want is None) == (k == Fraction(3, 2) or budget < 5239)


@pytest.mark.parametrize("strategy", ["diagonal-ray", "grid", "random"])
@pytest.mark.parametrize("budget", [0, -1])
def test_a_budget_below_one_checks_nothing(strategy, budget):
    qmap = CountingMap(FloorMap())
    assert find_violation(qmap, QIParams.from_k(1, 0), strategy, budget) is None
    assert qmap.pairs == 0


# ---------------------------------------------------------------------------
# each map draws its pairs from its own domain


MAPS = [FloorMap(), InclusionMap(), GENSET]


def oracle_pairs(domain, strategy, count, seed, box, radius):
    if strategy == "random":
        return oracle_random_pairs(domain, count, seed, box, radius)
    pts = GRID_POINTS if domain == "plane" else list(LatticeBall(radius))
    return list(islice(product(pts, repeat=2), count))


@pytest.mark.parametrize("qmap", MAPS, ids=lambda m: m.name)
@pytest.mark.parametrize("strategy", ["grid", "random"])
@pytest.mark.parametrize("seed, radius, box", [
    (0, 1, DEFAULT_SEARCH_BOX), (3, 4, (Fraction(-7), Fraction(5))),
    (11, 10, (Fraction(0), Fraction(1, 2))), (29, 25, DEFAULT_SEARCH_BOX)])
def test_pair_source_matches_eager_oracle(qmap, strategy, seed, radius, box):
    got = list(islice(iter_pairs(qmap, strategy, seed, box, radius), 3000))
    assert got == oracle_pairs(qmap.domain, strategy, 3000, seed, box, radius)
    if qmap.domain == "lattice":
        assert all(type(x) is int for pair in got for pt in pair for x in pt)


# k = 1, c = 0 first fails at pair 1 of the grid and 0 of the draws,
# k = 3/2, c = 1 at pairs 24 and 6, and k = 2, c = 0 holds on both streams
@pytest.mark.parametrize("strategy", ["grid", "random"])
@pytest.mark.parametrize("k, c", [(1, 0), (Fraction(3, 2), 1), (2, 0)])
def test_genset_search_finds_the_first_violation_of_its_stream(strategy, k, c):
    params = QIParams.from_k(k, c)
    gm = GensetMap(standard_generators(), GeneratingSet([(1, 0), (1, 1)]),
                   radius_cap=40)
    want = None
    for pair in oracle_pairs("lattice", strategy, 3000, 5, None, 10):
        found = gm.check_pair(*pair, params)
        if found:
            want = found[0]
            break
    got = find_violation(GENSET, params, strategy, 3000, seed=5)
    assert (got is None) == (want is None) == (k == 2)
    if want is not None:
        assert_same([got], [want])
        assert all(type(x) is int for pt in got.pair for x in pt)


def test_genset_refuses_a_plane_pair():
    # the pair sources never draw one; the guard checks library input
    with pytest.raises(ValueError, match=r"^pair \(94, 61/8\), \(-34, 30\) is "
                                         r"not a pair of lattice points$"):
        GENSET.check_pair((Fraction(94), Fraction(61, 8)),
                          (Fraction(-34), Fraction(30)), QIParams.from_k(1, 0))


# ---------------------------------------------------------------------------
# the frontier: floor and inclusion claims proven for every pair, against
# the per-pair loop that check_embedding ran on every claim (kept here as
# the oracle)


def oracle_check_embedding(qmap, params, pairs):
    checked, violations = 0, []
    for p, q in pairs:
        checked += 1
        violations.extend(qmap.check_pair(p, q, params))
    return checked, violations


DELTAS = [Fraction(1, 10**e) for e in (1, 3, 6, 9)]

# points just inside the four cells at each corner (n, m) of [0, 1]^2,
# against every lattice point of [-1, 2]^2, both ways round: a pair with
# floor differences A = B = 1 only delta * sqrt(2) apart is among them
CORNER_PAIRS = [
    pair
    for n, m in product(range(2), repeat=2)
    for sx, sy in product((-1, 1), repeat=2)
    for d in DELTAS
    for lp in product(map(Fraction, range(-1, 3)), repeat=2)
    for pair in (((n + sx * d, m + sy * d), lp), (lp, (n + sx * d, m + sy * d)))]

# far diagonals and their neighbours, from the origin and from just below it
FAR_DIAGONALS = [
    (p, (Fraction(n), Fraction(n + e)))
    for n in (10, 10**3, 10**6, 10**9)
    for e in (0, 1, -2 * n)
    for p in [(Fraction(0), Fraction(0)), *((-d, -d) for d in DELTAS)]]


def frontier_witnesses(qmap, params):
    """Pairs that violate a claim outside the frontier, one per failed
    condition: the corner pair for a floor claim with c < 2, the diagonal
    scan's witness for one with k^2 < 2, and ((0, 0), (n, n)) for an
    inclusion claim with k^2 < 2."""
    k_sq, c = params.k_sq, params.c
    out = []
    if qmap.name == "floor" and c < 2:
        # 2 > k d sqrt(2) + c once 2 k^2 d^2 < (2 - c)^2
        d = Fraction(1)
        while 2 * k_sq * d * d >= (2 - c) ** 2:
            d /= 2
        out.append(((1 - d, 1 - d), (Fraction(1), Fraction(1))))
    if qmap.name == "floor" and k_sq < 2:
        found = find_violation(qmap, params, "diagonal-ray", 10**5)
        out.append(found.pair)
    if qmap.name == "inclusion":
        # 2n > k (n sqrt(2) + c) iff n (4 - 2 k^2) > k c (2 + k sqrt(2)),
        # and k c (2 + k sqrt(2)) <= 4 sqrt(2) c < 6c for k^2 < 2
        n = math.floor(6 * c / (4 - 2 * k_sq)) + 1
        out.append(((0, 0), (n, n)))
    return out


# both sides of each rule, with its exact edges k^2 = 2 and c = 2; k^2
# below 2 has a denominator of at most 1000, so a diagonal witness lies
# within about 2000 c
frontier_k_squares = st.one_of(
    st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(1999, 1000),
                     Fraction(2), Fraction(2001, 1000), Fraction(9, 4),
                     Fraction(4), Fraction(10000000019)]),
    st.fractions(1, 6, max_denominator=1000))
frontier_constants = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(199, 100), Fraction(2),
                     Fraction(2001, 1000), Fraction(5, 2)]),
    st.fractions(0, 4, max_denominator=1000))


@settings(deadline=None, max_examples=60)
@given(k_sq=frontier_k_squares, c=frontier_constants,
       seed=st.integers(0, 2**32))
@example(k_sq=Fraction(2), c=Fraction(2), seed=0)
@example(k_sq=Fraction(2), c=Fraction(199, 100), seed=0)
@example(k_sq=Fraction(1999, 1000), c=Fraction(2), seed=0)
@example(k_sq=Fraction(1999, 1000), c=Fraction(0), seed=0)
@example(k_sq=Fraction(2), c=Fraction(0), seed=0)
def test_frontier_claims_hold_and_the_others_have_witnesses(k_sq, c, seed):
    params = QIParams.from_k_squared(k_sq, c)
    for qmap in (FloorMap(), InclusionMap()):
        if not proven(qmap, params):
            witnesses = frontier_witnesses(qmap, params)
            assert witnesses
            assert all(qmap.check_pair(p, q, params) for p, q in witnesses)
            continue
        pairs = [*islice(iter_pairs(qmap, "random", seed), 300),
                 *islice(iter_pairs(qmap, "grid"), 0, None, 97),
                 *CORNER_PAIRS, *FAR_DIAGONALS]
        assert oracle_check_embedding(qmap, params, pairs) == (len(pairs), [])
        report = check_embedding(qmap, params, pairs)
        assert report.ok and report.pairs_checked == len(pairs)


@pytest.mark.parametrize("qmap, k_sq, c", [
    (FloorMap(), 2, 2), (FloorMap(), 4, 2), (InclusionMap(), 2, 0)])
def test_whole_grids_hold_on_the_frontier(qmap, k_sq, c):
    params = QIParams.from_k_squared(k_sq, c)
    assert proven(qmap, params) is True
    pairs = list(iter_pairs(qmap, "grid"))
    assert oracle_check_embedding(qmap, params, pairs) == (len(pairs), [])
    assert check_embedding(qmap, params, pairs) == quasi.QIReport(
        qmap.name, params, len(pairs), [])


@pytest.mark.parametrize("qmap, k_sq, c, holds", [
    (FloorMap(), 2, 2, True),
    (FloorMap(), 4, 2, True),
    (FloorMap(), Fraction(9, 4), 5, True),
    (FloorMap(), 2, Fraction(199, 100), False),
    (FloorMap(), Fraction(1999, 1000), 2, False),
    (FloorMap(), 1, 100, False),
    (InclusionMap(), 2, 0, True),
    (InclusionMap(), 10000000019, Fraction(1, 3), True),
    (InclusionMap(), Fraction(1999, 1000), 100, False),
    (GENSET, 100, 100, False),
    (CountingMap(FloorMap()), 4, 2, False),
    (CountingMap(InclusionMap()), 4, 2, False),
])
def test_frontier_rules_at_their_edges(qmap, k_sq, c, holds):
    assert proven(qmap, QIParams.from_k_squared(k_sq, c)) is holds


def test_the_false_floor_claim_is_outside_the_frontier():
    # sampling passes (sqrt(2), 199/100); a pair just inside a corner fails
    params = QIParams.from_k_squared(2, Fraction(199, 100))
    assert proven(FloorMap(), params) is False
    pair = ((Fraction(999, 1000), Fraction(999, 1000)), (Fraction(1), Fraction(1)))
    assert FloorMap().check_pair(*pair, params) == [
        Violation(pair, "upper", Fraction(3, 31250))]
    assert check_embedding(FloorMap(), params, [pair]).violations == [
        Violation(pair, "upper", Fraction(3, 31250))]


class Sentinel:
    """A point that raises on any attribute or item read."""

    def __getattribute__(self, name):
        raise AssertionError(f"read .{name}")

    def __getitem__(self, i):
        raise AssertionError(f"read [{i}]")


def test_a_proven_claim_reads_no_coordinate():
    params = QIParams.from_k(2, 2)
    for qmap in (FloorMap(), InclusionMap()):
        assert check_embedding(qmap, params, [(Sentinel(), Sentinel())] * 7) \
            == quasi.QIReport(qmap.name, params, 7, [])
        drawn = []

        def pairs():
            for i in range(1000):
                drawn.append(i)
                yield Sentinel(), Sentinel()

        stream = pairs()
        report = check_embedding(qmap, params, stream)
        assert report.pairs_checked == 1000 and report.violations == []
        assert drawn == list(range(1000)) and next(stream, None) is None
        # a pair that is not a pair still fails to unpack
        with pytest.raises(ValueError):
            check_embedding(qmap, params, [(Sentinel(),) * 3])


def test_genset_refuses_plane_and_far_pairs_at_its_lipschitz_constant():
    params = QIParams.from_k(max(generating_set_lipschitz(GENSET.S, GENSET.S2,
                                                          40)), 0)
    with pytest.raises(ValueError, match="not a pair of lattice points"):
        check_embedding(GENSET, params,
                        [((0, 0), (1, 1)), ((Fraction(1, 2), 0), (0, 0))])
    with pytest.raises(ValueError, match="outside radius cap"):
        check_embedding(GENSET, params, [((0, 0), (100, 0))])


@pytest.mark.parametrize("base", [FloorMap, InclusionMap])
def test_a_subclass_keeps_the_per_pair_path(base):
    class Strict(base):
        def check_pair(self, p, q, params):
            return [Violation((p, q), "upper", Fraction(1))]

    params = QIParams.from_k(2, 2)
    assert proven(base(), params) is True
    assert proven(Strict(), params) is False
    num = int if base is InclusionMap else Fraction
    pair = ((num(0), num(0)), (num(1), num(1)))
    assert check_embedding(Strict(), params, [pair]).violations == [
        Violation(pair, "upper", Fraction(1))]
    for strategy in ("diagonal-ray", "grid"):
        assert find_violation(Strict(), params, strategy, 5) is not None


def test_frontier_decides_on_integers_alone(monkeypatch):
    def boom(*args):
        raise AssertionError("irrational arithmetic in proven")

    claims = [QIParams.from_k_squared(k_sq, c)
              for k_sq in (1, Fraction(1999, 1000), 2, 10000000019,
                           Fraction(10**31 + 33, 10**30))
              for c in (0, Fraction(199, 100), 2, 7)]
    for name in ("sqrt_exact", "_make"):
        monkeypatch.setattr(quasi, name, boom)
    monkeypatch.setattr(exactnum, "_split_square", boom)

    def decide():
        return [(qmap.name, proven(qmap, params)) for params in claims
                for qmap in (FloorMap(), InclusionMap(), GENSET)]

    assert _fractions_built(decide) == 0
    # k^2 >= 2 for three of the five, c >= 2 for two of the four
    assert decide().count(("floor", True)) == 6
    assert decide().count(("inclusion", True)) == 12
    assert decide().count(("genset", False)) == 20


def test_find_violation_answers_a_proven_claim_without_a_pair(monkeypatch):
    def boom(*args):
        raise AssertionError("checked a pair")

    for name in ("_violations", "_pair_terms"):
        monkeypatch.setattr(quasi, name, boom)
    params = QIParams.from_k(Fraction(3, 2), 2)
    for qmap in (FloorMap(), InclusionMap()):
        assert find_violation(qmap, params, "diagonal-ray", 10**9) is None
        # an unknown strategy is refused first, whatever the budget
        for budget in (0, 10):
            with pytest.raises(ValueError, match="unknown strategy"):
                find_violation(qmap, params, "sideways", budget)

