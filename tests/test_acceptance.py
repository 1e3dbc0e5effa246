"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every expected value is either trivially forced, frozen from an
independent oracle computed here, or an exact constant of the underlying
mathematics.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from gridrays import demos, rays
from gridrays.ell1 import check_monotone_commitment, ell1_distance, \
    is_geodesic_polyline
from gridrays.lattice import (GeneratingSet, bfs_distances,
                              enumerate_geodesics, generating_set_lipschitz,
                              geodesic_count, standard_generators,
                              word_metric)
from gridrays.quasi import (FloorMap, QIParams, check_embedding,
                            find_violation, floor_chain_holds,
                            roundtrip_displacement, sample_plane_pairs,
                            sample_plane_points)
from gridrays.rays import (WINDOW_DIGITS, Asymptotic, BallQuery, Divergent,
                           are_asymptotic, b_map, digitize, divergence_time,
                           east_ray, n_map, parse_ray, periodic_ray, splice,
                           trivial_topology_demo, validate)

from conftest import (make_backtracking_polyline, make_monotone_polyline,
                      make_periodic_ray, make_same_window_pair, signs_monotone)


def _report(n, name, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {n}: {name}")
    assert ok, f"criterion {n} ({name}) failed"


def test_criterion_01_geodesic_counting():
    t0 = time.monotonic()
    ok = geodesic_count((0, 0), (3, 3)) == 20
    ok = ok and word_metric((0, 0), (3, 3)) == 6
    for dx in range(-12, 13):
        for dy in range(-12 + abs(dx), 13 - abs(dx)):
            words = enumerate_geodesics((0, 0), (dx, dy))
            ok = ok and len(words) == geodesic_count((0, 0), (dx, dy))
            ok = ok and len(set(words)) == len(words)
    ok = ok and (time.monotonic() - t0) < 1.0
    _report(1, "count 20 / metric 6 / enumeration agreement <= 12", ok)


def test_criterion_02_n_map_exact_values():
    ok = n_map(east_ray()) == 0
    ok = ok and n_map(parse_ray("(23)")) == Fraction(7, 3)
    ok = ok and b_map((), (0, 1)) == Fraction(1, 3)
    _report(2, "N(east)=0, N((23))=7/3, B((01))=1/3 exactly", ok)


def _canonical_codes(pre_max, per_max):
    seen = {}
    for w in range(4):
        alphabet = sorted(set(WINDOW_DIGITS[w]))
        for lp in range(pre_max + 1):
            for pre in itertools.product(alphabet, repeat=lp):
                for lq in range(1, per_max + 1):
                    for per in itertools.product(alphabet, repeat=lq):
                        ray = periodic_ray(pre, per)
                        seen.setdefault(ray.literal(), ray)
    return [r for r in seen.values() if validate(r)]


def _is_dyadic_twin(r1, r2):
    for a, b in ((r1, r2), (r2, r1)):
        pa, qa = a.preamble, a.tail.period
        pb, qb = b.preamble, b.tail.period
        if len(qa) != 1 or len(qb) != 1 or not pa or not pb:
            continue
        if pa[:-1] == pb[:-1] and {pa[-1], qa[0]} == {pb[-1], qb[0]} \
                and pa[-1] == qb[0] and abs(pa[-1] - pb[-1]) == 1:
            return True
    return False


def test_criterion_03_collision_law():
    t0 = time.monotonic()
    by_value = {}
    for ray in _canonical_codes(4, 4):
        by_value.setdefault(n_map(ray), []).append(ray)
    ok = True
    for value, group in by_value.items():
        if len(group) == 1:
            continue
        ok = ok and len(group) == 2 and _is_dyadic_twin(*group)
    # sanity: the scan does contain collisions to classify
    ok = ok and any(len(g) == 2 for g in by_value.values())
    ok = ok and (time.monotonic() - t0) < 10.0
    _report(3, "N collisions are exactly the dyadic twin pairs", ok)


def test_criterion_04_floor_map_certificate():
    t0 = time.monotonic()
    pairs = sample_plane_pairs((Fraction(-1000), Fraction(1000)),
                               100_000, seed=2026)
    report = check_embedding(FloorMap(), QIParams.from_k(2, 2), pairs)
    ok = report.ok and report.pairs_checked == 100_000
    ok = ok and all(floor_chain_holds(p, q) for p, q in pairs)
    ok = ok and (time.monotonic() - t0) < 30.0
    _report(4, "floor map is (2,2); chains hold on 1e5 seeded pairs", ok)


def test_criterion_05_best_constant_evidence():
    v = find_violation(FloorMap(), QIParams.from_k(Fraction(7, 5), 2),
                       "diagonal-ray", 1000)
    ok = v is not None and abs(v.pair[1][0] - 101) <= 2
    none = find_violation(FloorMap(), QIParams.from_k(2, 2),
                          "diagonal-ray", 1000)
    ok = ok and none is None
    _report(5, "k=7/5 violated near n=101 on the diagonal; (2,2) clean", ok)


def test_criterion_06_roundtrip_bound():
    samples = sample_plane_points((Fraction(-1000), Fraction(1000)),
                                  100_000, seed=99)
    report = roundtrip_displacement(samples)
    ok = report.max_sq_displacement < 2
    crafted = roundtrip_displacement([(Fraction(99, 100), Fraction(99, 100))])
    ok = ok and crafted.max_sq_displacement > Fraction(9, 5)
    _report(6, "roundtrip displacement^2 < 2 always, > 9/5 attained", ok)


def test_criterion_07_unit_speed_and_splice():
    rng = random.Random(777)
    ok = True
    for _ in range(100):
        ray = make_periodic_ray(rng)
        ok = ok and all(word_metric((0, 0), ray.point_at(t)) == t
                        for t in range(201))
    for _ in range(100):
        f, g = make_same_window_pair(rng)
        s = rng.randrange(0, 10)
        h = splice(f, g, s)
        ok = ok and all(h.point_at(t) == f.point_at(t) for t in range(s + 1))
        v = are_asymptotic(h, g)
        ok = ok and isinstance(v, Asymptotic)
        horizon = 10 * (len(h.tail.period) * len(g.tail.period)
                        + len(h.preamble) + len(g.preamble) + 1)
        ok = ok and all(word_metric(h.point_at(t), g.point_at(t)) <= v.bound
                        for t in range(horizon + 1))
    _report(7, "unit speed to t=200; splice prefix + certified bound", ok)


def test_criterion_08_trivial_topology():
    t0 = time.monotonic()
    demo = trivial_topology_demo(parse_ray("(01)"), parse_ray("(001)"),
                                 BallQuery(0, 5, 1))
    ok = demo.ok
    ok = ok and {l.axis.literal() for l in demo.chain} == \
        {"(0)", "(1)", "(2)", "(3)"}
    rng = random.Random(808)
    for _ in range(20):
        f, g = make_same_window_pair(rng)
        q = BallQuery(0, rng.randrange(1, 8),
                      Fraction(rng.randrange(1, 5), rng.choice((1, 2))))
        d = trivial_topology_demo(f, g, q)
        ok = ok and d.ok and len({l.axis.literal() for l in d.chain}) == 4
    ok = ok and (time.monotonic() - t0) < 5.0
    _report(8, "ball-splice demo passes on defaults and 20 seeded cases", ok)


def test_criterion_09_divergence():
    ok = divergence_time(parse_ray("(0)"), parse_ray("(1)"), 10, 100) == 6
    rng = random.Random(909)
    for _ in range(25):
        a = (rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(0, 9))
        b = (rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(0, 9))
        if a[1] * b[0] == b[1] * a[0] and (a[0] > 0) == (b[0] > 0):
            continue  # same direction
        f, g = digitize(*a), digitize(*b)
        v = are_asymptotic(f, g)
        ok = ok and isinstance(v, Divergent)
        if isinstance(v, Divergent):
            d = word_metric(f.point_at(v.witness_t), g.point_at(v.witness_t))
            ok = ok and d == v.distance and d > 10
    _report(9, "east/north diverge at t=6; distinct directions Divergent", ok)


def test_criterion_10_ell1_plane():
    rng = random.Random(1010)
    ok = True
    for i in range(200):
        if i % 2 == 0:
            path = make_monotone_polyline(rng)
        else:
            path, _ = make_backtracking_polyline(rng)
        geo = is_geodesic_polyline(path)
        ok = ok and geo == signs_monotone(path.moves())
        ok = ok and geo == (path.length ==
                            ell1_distance(path.vertices[0], path.vertices[-1]))
        if geo:
            ok = ok and check_monotone_commitment(path) is None
    for _ in range(50):
        path, t_bad = make_backtracking_polyline(rng)
        ok = ok and check_monotone_commitment(path) == t_bad
    _report(10, "three-way geodesic equivalence; violation times pinpointed",
            ok)


def test_criterion_11_cone_demo():
    ok = True
    for eps in (Fraction(1), Fraction(1, 10)):
        result = demos.cone_lengths(eps)
        ok = ok and not result.extendable
        ok = ok and result.through_cone.lo > result.around_cone.hi
        # certified enclosures of 2 sqrt(26) eps and pi eps: tighter than
        # float precision, and centered on the float approximations
        ok = ok and result.through_cone.width < Fraction(1, 1 << 50)
        ok = ok and result.around_cone.width < Fraction(1, 1 << 50)
        ok = ok and abs(float(result.through_cone.lo)
                        - 2 * math.sqrt(26) * eps) < 1e-12
        ok = ok and abs(float(result.around_cone.lo) - math.pi * eps) < 1e-12
    _report(11, "cone: 2*sqrt(26)*eps vs pi*eps, not extendable", ok)


def test_criterion_12_generating_set_invariance():
    S = standard_generators()
    S2 = GeneratingSet([(1, 0), (1, 1)])
    m, n = generating_set_lipschitz(S, S2)
    table2 = bfs_distances(S2, 60)
    ok = True
    for dx in range(-20, 21):
        for dy in range(-20 + abs(dx), 21 - abs(dx)):
            d1 = word_metric((0, 0), (dx, dy))
            d2 = table2[(dx, dy)]
            ok = ok and d2 <= m * d1 and d1 <= n * d2
    _report(12, "both Lipschitz inequalities hold on the radius-10 ball", ok)
