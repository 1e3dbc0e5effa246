"""Word metrics, geodesic counting/enumeration, generating sets."""

import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from gridrays import lattice
from gridrays.lattice import (DISPLACEMENTS, ORIGIN, BallExceeded,
                              GeneratingSet, GenerationError, bfs_distances,
                              bfs_metric, enumerate_geodesics,
                              generating_set_lipschitz, geodesic_count,
                              is_geodesic_word, iter_geodesics,
                              normalize_word, standard_generators, word_metric)
from gridrays.quasi import GensetMap, QIParams

coords = st.integers(min_value=-200, max_value=200)
points = st.tuples(coords, coords)


def word_endpoint(word, start=ORIGIN):
    """The point a word reaches, one step at a time (once in ``lattice``)."""
    x, y = start
    for c in normalize_word(word):
        dx, dy = DISPLACEMENTS[int(c)]
        x += dx
        y += dy
    return (x, y)


def _map_distance(gm, p, q):
    """d(p, q) as ``gm = GensetMap(S, S, cap)`` reads it: its pair check
    refuses a pair past the radius cap, and finds no violation at k = 1,
    c = 0 otherwise."""
    assert gm.check_pair(p, q, QIParams.from_k(1, 0)) == []
    return gm.S.distance((q[0] - p[0], q[1] - p[1]), gm.radius_cap)


def _oracle_bfs(vectors, start, goal, cap):
    """Plain dict/deque BFS written independently of the library's."""
    seen = {start: 0}
    dq = deque([start])
    while dq:
        p = dq.popleft()
        if p == goal:
            return seen[p]
        if seen[p] >= cap:
            continue
        for vx, vy in vectors:
            for sx, sy in ((1, 1), (-1, -1)):
                q = (p[0] + sx * vx, p[1] + sy * vy)
                if q not in seen:
                    seen[q] = seen[p] + 1
                    dq.append(q)
    return None


@given(points, points, points)
def test_word_metric_axioms(p, q, r):
    assert word_metric(p, q) == word_metric(q, p) >= 0
    assert (word_metric(p, q) == 0) == (p == q)
    assert word_metric(p, r) <= word_metric(p, q) + word_metric(q, r)


@given(points, points, points)
def test_word_metric_translation_invariant(p, q, t):
    p2 = (p[0] + t[0], p[1] + t[1])
    q2 = (q[0] + t[0], q[1] + t[1])
    assert word_metric(p, q) == word_metric(p2, q2)


def test_bfs_metric_standard_matches_l1():
    rng = random.Random(7)
    S = standard_generators()
    for _ in range(50):
        p = (rng.randint(-10, 10), rng.randint(-10, 10))
        q = (rng.randint(-10, 10), rng.randint(-10, 10))
        assert bfs_metric(S, p, q, 64) == word_metric(p, q)


def test_bfs_metric_against_independent_oracle():
    rng = random.Random(11)
    gens = [(1, 0), (1, 1)]
    S = GeneratingSet(gens)
    for _ in range(40):
        q = (rng.randint(-8, 8), rng.randint(-8, 8))
        assert bfs_metric(S, (0, 0), q, 32) == \
            _oracle_bfs(gens, (0, 0), q, 32)


def test_bfs_metric_exceeded_is_none():
    S = standard_generators()
    assert bfs_metric(S, (0, 0), (10, 10), 5) is None


def test_generating_set_rejects_non_generating():
    for gens in ([(2, 0), (0, 2)], [(1, 0)], [(1, 1), (2, 2)]):
        with pytest.raises(GenerationError, match="does not generate the grid$"):
            GeneratingSet(gens)


# -- one lazily grown table per set, against the deque BFS it replaced --------


def _oracle_bfs_distances(vectors, radius_cap, targets=None):
    """The library's deque BFS with its early exit, as it was."""
    dist = {(0, 0): 0}
    queue = deque([(0, 0)])
    remaining = set(targets) - {(0, 0)} if targets is not None else None
    while queue:
        p = queue.popleft()
        d = dist[p]
        if d == radius_cap:
            continue
        for (gx, gy) in vectors:
            q = (p[0] + gx, p[1] + gy)
            if q not in dist:
                dist[q] = d + 1
                queue.append(q)
                if remaining is not None:
                    remaining.discard(q)
                    if not remaining:
                        return dist
    return dist


def _oracle_generates(generators, radius_cap=64):
    """The constructor's check as it was: BFS reaches both unit vectors."""
    vecs = {v for x, y in generators for v in ((x, y), (-x, -y))}
    dists = _oracle_bfs_distances(sorted(vecs), radius_cap,
                                  targets={(1, 0), (0, 1)})
    return (1, 0) in dists and (0, 1) in dists


def _accepts(generators) -> bool:
    try:
        GeneratingSet(generators)
    except GenerationError:
        return False
    return True


def _small_vectors(bound):
    return st.tuples(st.integers(-bound, bound),
                     st.integers(-bound, bound)).filter(lambda v: v != (0, 0))


@settings(deadline=None)
@given(st.lists(_small_vectors(4), min_size=1, max_size=4))
def test_gcd_of_minors_matches_bfs_generation(gens):
    assert _accepts(gens) == _oracle_generates(gens)


def test_generation_beyond_the_old_search_radius():
    # (0, 1) = (100, 1) - 100 (1, 0) is 101 steps out, past the radius-64
    # search the constructor used to run
    assert not _oracle_generates([(1, 0), (100, 1)])
    S = GeneratingSet([(1, 0), (100, 1)])
    assert bfs_metric(S, (0, 0), (0, 1), 100) is None
    assert bfs_metric(S, (0, 0), (0, 1), 101) == 101
    assert bfs_metric(S, (0, 0), (0, 1), 100) is None
    assert S.radius == 0  # a basis reads its gauge and grows no table
    # a third vector on a unimodular hull reads the gauge as well
    S3 = GeneratingSet([(1, 0), (100, 1), (101, 1)])
    assert bfs_metric(S3, (0, 0), (0, 1), 100) is None
    assert bfs_metric(S3, (0, 0), (0, 1), 101) == 101 == \
        _oracle_bfs_distances(S3.vectors, 101)[(0, 1)]
    assert bfs_metric(S3, (0, 0), (0, 1), 100) is None
    assert S3.radius == 0
    # the edge (102, 1) -> (100, 1) has det 2: the lazy BFS, grown only as
    # far as the cap
    T3 = GeneratingSet([(1, 0), (100, 1), (102, 1)])
    assert bfs_metric(T3, (0, 0), (0, 1), 100) is None
    assert T3.radius == 100
    assert bfs_metric(T3, (0, 0), (0, 1), 101) == 101 == \
        _oracle_bfs_distances(T3.vectors, 101)[(0, 1)]
    assert bfs_metric(T3, (0, 0), (0, 1), 100) is None
    assert T3.radius == 101


query = st.one_of(
    st.tuples(st.just("metric"), st.tuples(st.integers(-9, 9),
                                           st.integers(-9, 9)),
              st.integers(1, 6)),
    st.tuples(st.just("distances"), st.none(), st.integers(0, 10)),
    st.tuples(st.just("genset"), st.tuples(st.integers(-9, 9),
                                           st.integers(-9, 9)),
              st.integers(0, 5)))


def _completed(generators):
    """The vectors as drawn if they generate the grid, else with the
    standard generators appended, so that no draw is rejected."""
    return generators if _accepts(generators) else generators + [(1, 0), (0, 1)]


@settings(deadline=None)
@given(st.lists(_small_vectors(3), min_size=2, max_size=3).map(_completed),
       st.lists(query, min_size=1, max_size=8))
def test_queries_in_any_order_match_a_fresh_bfs(gens, queries):
    S = GeneratingSet(gens)
    for kind, q, cap in queries:
        want = _oracle_bfs_distances(S.vectors, cap)
        if kind == "metric":
            assert bfs_metric(S, (1, -2), (q[0] + 1, q[1] - 2), cap) == \
                want.get(q)
        elif kind == "distances":
            assert bfs_distances(S, cap) == want
        else:
            gm = GensetMap(S, S, radius_cap=cap)
            if q in want:
                assert _map_distance(gm, (0, 0), q) == want[q]
            else:
                with pytest.raises(ValueError, match="outside radius cap"):
                    _map_distance(gm, (0, 0), q)


def test_bfs_distances_hands_out_a_fresh_dict():
    # a unimodular hull writes its ball cone by cone; (1, 2) -> (-1, 0) has
    # det 2, so that set reads the BFS table, grown only as far as asked
    for gens, radius in (([(1, 0), (1, 1)], 0), ([(1, 0), (1, 1), (0, 1)], 0),
                         ([(1, 0), (1, 1), (1, 2)], 6)):
        S = GeneratingSet(gens)
        got = bfs_distances(S, 6)
        assert S.radius == radius
        got[(1, 0)] = 99
        got[(40, 40)] = 1
        del got[(1, 1)]
        assert bfs_distances(S, 2) == _oracle_bfs_distances(S.vectors, 2)
        assert bfs_distances(S, 6) == _oracle_bfs_distances(S.vectors, 6)
        assert bfs_metric(S, (0, 0), (1, 0), 6) == 1
        assert bfs_metric(S, (0, 0), (1, 1), 6) == 1
        assert bfs_metric(S, (0, 0), (40, 40), 6) is None


# -- two-vector sets in closed form, against the BFS oracle -------------------


#: every basis (a, b) of Z^2 with entries in [-6, 6]
BASES = [((ax, ay), (bx, by))
         for ax, ay, bx, by in itertools.product(range(-6, 7), repeat=4)
         if abs(ax * by - ay * bx) == 1]
POINTS_30 = st.tuples(st.integers(-30, 30), st.integers(-30, 30))


def _oracle_lipschitz(S, S2, cap):
    """(m, n) from the oracle tables, or None where a generator is past cap."""
    d1 = _oracle_bfs_distances(S.vectors, cap)
    d2 = _oracle_bfs_distances(S2.vectors, cap)
    if not all(s in d2 for s in S.vectors) or not all(s in d1 for s in S2.vectors):
        return None
    return max(d2[s] for s in S.vectors), max(d1[s] for s in S2.vectors)


@settings(deadline=None)
@given(st.sampled_from(BASES),
       st.lists(st.sampled_from([0, 1, 2, 3]), max_size=2),
       st.integers(0, 12), POINTS_30, POINTS_30,
       st.tuples(st.integers(-13, 13), st.integers(-13, 13)))
def test_basis_distances_match_the_bfs_oracle(basis, extra, cap, p, q, ij):
    a, b = basis
    # a repeated or negated generator still closes to the four vectors +-a, +-b
    more = [(a, b, (-a[0], -a[1]), (-b[0], -b[1]))[k] for k in extra]
    S = GeneratingSet([a, b, *more])
    assert len(S.vectors) == 4
    want = _oracle_bfs_distances(S.vectors, cap)
    assert bfs_distances(S, cap) == want
    v = (ij[0] * a[0] + ij[1] * b[0], ij[0] * a[1] + ij[1] * b[1])
    gm = GensetMap(S, S, radius_cap=cap)
    for p, q in ((p, q), (p, (p[0] + v[0], p[1] + v[1]))):
        d = want.get((q[0] - p[0], q[1] - p[1]))
        if cap >= 1:
            assert bfs_metric(S, p, q, cap) == d
        if d is None:
            with pytest.raises(ValueError, match="outside radius cap"):
                _map_distance(gm, p, q)
        else:
            assert _map_distance(gm, p, q) == d
    assert bfs_metric(S, (0, 0), v, 26) == abs(ij[0]) + abs(ij[1])
    std = standard_generators()
    for pair in ((S, std), (std, S)):
        if cap < 1:
            with pytest.raises(ValueError):
                generating_set_lipschitz(*pair, radius_cap=cap)
        elif (mn := _oracle_lipschitz(*pair, cap)) is None:
            with pytest.raises(BallExceeded):
                generating_set_lipschitz(*pair, radius_cap=cap)
        else:
            assert generating_set_lipschitz(*pair, radius_cap=cap) == mn
    assert S.radius == 0  # no table was grown


def test_three_vectors_keep_the_lazy_bfs():
    # the hexagonal set's hull is unimodular: it reads the gauge
    S = GeneratingSet([(1, 0), (0, 1), (1, -1)])
    assert bfs_metric(S, (0, 0), (3, -3), 10) == 3
    assert bfs_distances(S, 7) == _oracle_bfs_distances(S.vectors, 7)
    assert bfs_metric(S, (0, 0), (3, 3), 10) == 6
    assert S.radius == 0
    # the edge (2, 1) -> (0, 1) has det 2: the lazy BFS
    T = GeneratingSet([(1, 0), (0, 1), (2, 1)])
    assert T.radius == 0
    assert bfs_metric(T, (0, 0), (3, -3), 10) == 6
    assert T.radius == 6  # grown only as far as the query needed
    assert bfs_distances(T, 7) == _oracle_bfs_distances(T.vectors, 7)
    assert T.radius == 7
    assert bfs_metric(T, (0, 0), (3, 3), 10) == 4
    assert T.radius == 7


# -- unimodular hulls read their gauge, against the BFS oracle ---------------


#: GL2(Z) matrices with entries in [-3, 3]; each carries a set with a
#: unimodular hull onto another
UNIMODULAR = [m for m in itertools.product(range(-3, 4), repeat=4)
              if abs(m[0] * m[3] - m[1] * m[2]) == 1]
#: sets whose hull is unimodular: a basis, the hexagonal set, the square
#: [-1, 1]^2 and a parallelogram with a generator inside each edge, and
#: {(1, 0), (N, 1), (N + 1, 1)}. Such a hull holds no lattice point but 0
#: and its boundary generators, so a vector added inside it is a repeat.
GAUGE_SETS = [[(1, 0), (0, 1)], [(1, 0), (0, 1), (1, -1)],
              [(1, 0), (0, 1), (1, 1), (1, -1)],
              [(1, 0), (1, 1), (1, 2), (0, 1)],
              *([(1, 0), (n, 1), (n + 1, 1)] for n in range(7))]
#: sets that keep the BFS: an edge of det 2, or dets all 1 in angular order
#: with (1, 1) and (1, 2) inside the hull, which only the supporting lines see
BFS_SETS = [[(1, 0), (0, 1), (2, 1)], [(1, 0), (1, 1), (1, 2)],
            [(1, 0), (1, 1), (2, 3), (1, 2), (0, 1)],
            *([(1, 0), (n, 1), (n + 2, 1)] for n in range(5))]


@st.composite
def mapped_sets(draw):
    """(vectors, gauge): a set from either list under a GL2(Z) map, with
    repeated or negated generators added."""
    gauge = draw(st.booleans())
    a, b, c, d = draw(st.sampled_from(UNIMODULAR))
    gens = [(a * x + b * y, c * x + d * y)
            for x, y in draw(st.sampled_from(GAUGE_SETS if gauge else BFS_SETS))]
    for i, sign in draw(st.lists(st.tuples(st.integers(0, 4),
                                           st.sampled_from([1, -1])),
                                 max_size=3)):
        x, y = gens[i % len(gens)]
        gens.append((sign * x, sign * y))
    return draw(st.permutations(gens)), gauge


@settings(deadline=None)
@given(mapped_sets(), st.integers(0, 10), POINTS_30, POINTS_30,
       st.tuples(st.integers(0, 13), st.integers(0, 13)), st.data())
def test_gauge_distances_match_the_bfs_oracle(drawn, cap, p, q, ij, data):
    gens, gauge = drawn
    S = GeneratingSet(gens)
    want = _oracle_bfs_distances(S.vectors, cap)
    assert bfs_distances(S, cap) == want
    gm = GensetMap(S, S, radius_cap=cap)
    for p, q in ((p, q), (p, (p[0] + 1, p[1])), (p, p)):
        d = want.get((q[0] - p[0], q[1] - p[1]))
        if cap >= 1:
            assert bfs_metric(S, p, q, cap) == d
        if d is None:
            with pytest.raises(ValueError, match="outside radius cap"):
                _map_distance(gm, p, q)
        else:
            assert _map_distance(gm, p, q) == d
    std = standard_generators()
    for pair in ((S, std), (std, S)):
        if cap >= 1:
            mn = _oracle_lipschitz(*pair, cap)
            if mn is None:
                with pytest.raises(BallExceeded):
                    generating_set_lipschitz(*pair, radius_cap=cap)
            else:
                assert generating_set_lipschitz(*pair, radius_cap=cap) == mn
    # a far point: i s + j t lies within i + j of the origin
    s = data.draw(st.sampled_from(S.vectors))
    t = data.draw(st.sampled_from(S.vectors))
    v = (ij[0] * s[0] + ij[1] * t[0], ij[0] * s[1] + ij[1] * t[1])
    far = sum(ij)
    assert bfs_metric(S, (0, 0), v, max(far, 1)) == \
        _oracle_bfs_distances(S.vectors, far, targets={v})[v]
    # the gauge grows no table; any other set grows its own as far as asked
    if gauge:
        assert S.radius == 0
    else:
        assert S.radius >= cap


def test_caps_below_the_range_raise():
    S = standard_generators()
    with pytest.raises(ValueError):
        bfs_metric(S, (0, 0), (0, 0), 0)
    with pytest.raises(ValueError):
        bfs_distances(S, -1)
    gm = GensetMap(S, S, radius_cap=-1)
    with pytest.raises(ValueError):
        _map_distance(gm, (0, 0), (0, 0))


def test_geodesic_count_values():
    assert geodesic_count((0, 0), (3, 3)) == 20  # [PAPER]
    assert geodesic_count((0, 0), (0, 0)) == 1
    assert geodesic_count((0, 0), (5, 0)) == 1
    assert geodesic_count((1, 1), (3, 2)) == 3  # [DERIVED] C(3,2)


def _oracle_geodesics(dx, dy):
    """Brute force: all words over the step alphabet reaching (dx, dy)
    with length |dx|+|dy|."""
    hd = "0" if dx >= 0 else "2"
    vd = "1" if dy >= 0 else "3"
    n = abs(dx) + abs(dy)
    out = set()
    for w in itertools.product(hd + vd, repeat=n):
        word = "".join(w)
        if word_endpoint(word) == (dx, dy):
            out.add(word)
    return sorted(out)


def test_enumeration_matches_brute_force():
    for dx, dy in [(2, 1), (-2, 1), (3, -2), (-1, -3), (0, 2), (2, 0), (0, 0)]:
        got = enumerate_geodesics((0, 0), (dx, dy))
        assert got == _oracle_geodesics(dx, dy)


def test_enumeration_lex_order_and_endpoints():
    words = enumerate_geodesics((1, -1), (4, 2))
    assert words == sorted(words)
    assert len(words) == len(set(words)) == geodesic_count((1, -1), (4, 2))
    for w in words:
        assert is_geodesic_word(w)
        assert word_endpoint(w, (1, -1)) == (4, 2)
        assert len(w) == word_metric((1, -1), (4, 2))


def test_enumeration_limit():
    assert len(enumerate_geodesics((0, 0), (5, 5), limit=7)) == 7


def test_is_geodesic_word():
    assert is_geodesic_word("0011")
    assert is_geodesic_word("")
    assert not is_geodesic_word("02")  # east then west
    assert not is_geodesic_word("13")
    assert is_geodesic_word("04")  # 4 is east again
    assert not is_geodesic_word("42")


def test_generating_set_lipschitz_values():
    S = standard_generators()
    S2 = GeneratingSet([(1, 0), (1, 1)])
    m, n = generating_set_lipschitz(S, S2)
    # both standard generators are one S2-step away... (0,1) = (1,1)-(1,0)
    # needs two; each S2 generator is at most two S-steps from the origin
    assert (m, n) == (2, 2)  # [DERIVED] BFS oracle below confirms
    for s in S.vectors:
        assert _oracle_bfs([(1, 0), (1, 1)], (0, 0), s, 8) <= m
    for s2 in S2.vectors:
        assert word_metric((0, 0), s2) <= n


def test_generating_set_lipschitz_cap():
    S = standard_generators()
    S2 = GeneratingSet([(1, 0), (0, 1), (40, 0)])
    with pytest.raises(BallExceeded):
        generating_set_lipschitz(S2, S, radius_cap=5)


# -- one loop over both sides, against the two copies it replaced -------------


def _two_loop_lipschitz(S, S2, radius_cap=64):
    """generating_set_lipschitz as it was: one loop per side."""
    m = 0
    for s in S.vectors:
        d = bfs_metric(S2, ORIGIN, s, radius_cap)
        if d is None:
            raise BallExceeded(f"generator {s} outside radius {radius_cap} in S2")
        m = max(m, d)
    n = 0
    for s2 in S2.vectors:
        d = bfs_metric(S, ORIGIN, s2, radius_cap)
        if d is None:
            raise BallExceeded(f"generator {s2} outside radius {radius_cap} in S")
        n = max(n, d)
    return m, n


def _outcome(f, *args):
    """The value f returns, or the type and message of what it raises."""
    try:
        return f(*args)
    except Exception as exc:
        return type(exc), str(exc)


@settings(deadline=None)
@given(st.lists(_small_vectors(4), min_size=1, max_size=4).map(_completed),
       st.lists(_small_vectors(4), min_size=1, max_size=4).map(_completed),
       st.integers(0, 8))
def test_lipschitz_matches_the_two_loop_version(gens, gens2, cap):
    # entries up to 4 give hulls that are not unimodular as well as gauges
    got = _outcome(generating_set_lipschitz, GeneratingSet(gens),
                   GeneratingSet(gens2), cap)
    assert got == _outcome(_two_loop_lipschitz, GeneratingSet(gens),
                           GeneratingSet(gens2), cap)


def test_lipschitz_measures_s_in_s2_first():
    # (0, 1) = (4, 1) - 4 (1, 0) is 5 steps in S2, and (4, 1) is 5 in S:
    # both sides are past a cap of 4, and the S generators are read first
    S, S2 = standard_generators(), GeneratingSet([(1, 0), (4, 1)])
    with pytest.raises(BallExceeded,
                       match=r"^generator \(0, -1\) outside radius 4 in S2$"):
        generating_set_lipschitz(S, S2, radius_cap=4)
    with pytest.raises(BallExceeded,
                       match=r"^generator \(-4, -1\) outside radius 4 in S2$"):
        generating_set_lipschitz(S2, S, radius_cap=4)
    assert generating_set_lipschitz(S, S2, radius_cap=5) == (5, 5)
    with pytest.raises(ValueError, match="radius_cap must be >= 1"):
        generating_set_lipschitz(S, S2, radius_cap=0)


def _break_loop_geodesics(p, q, limit=None):
    """enumerate_geodesics as it was: append until the limit, then break."""
    out = []
    for w in iter_geodesics(p, q):
        if limit is not None and len(out) >= limit:
            break
        out.append(w)
    return out


@pytest.mark.parametrize("q", [(0, 0), (3, 0), (0, -2), (2, 3), (-3, 2),
                               (-2, -2), (4, -1)])
def test_enumeration_limit_matches_the_break_loop(q):
    p = (1, -1)
    q = (p[0] + q[0], p[1] + q[1])
    k, total = abs(q[0] - p[0]), geodesic_count(p, q)
    for limit in (None, -5, -1, 0, 1, k, total - 1, total, total + 1,
                  total + 10):
        got = enumerate_geodesics(p, q, limit)
        assert got == _break_loop_geodesics(p, q, limit), limit
        assert len(got) == (total if limit is None else
                            min(max(limit, 0), total))


def test_iter_geodesics_lazy():
    it = iter_geodesics((0, 0), (10, 10))
    assert next(it) == "0" * 10 + "1" * 10
