"""Taxicab-plane geodesics: polylines, commitment, plane splice, projection."""

import random
from fractions import Fraction

import pytest

from gridrays.ell1 import (Polyline, check_monotone_commitment, ell1_distance,
                           is_geodesic_polyline, parse_polyline,
                           project_to_lattice, splice_plane)
from gridrays.lattice import word_metric
from gridrays.rays import Asymptotic, are_asymptotic, digitize

from conftest import (make_backtracking_polyline, make_monotone_polyline,
                      signs_monotone)

F = Fraction


def P(text):
    return parse_polyline(text)


def test_ell1_distance_values():
    assert ell1_distance((F(0), F(0)), (F(3), F(3))) == 6
    assert ell1_distance((F(1, 2), F(0)), (F(0), F(1, 2))) == 1
    assert ell1_distance((F(-1), F(2)), (F(2), F(-2))) == 7


def test_polyline_parse_and_literal():
    path = P("0,0;1,1;2,1 >1/0")
    # the trailing east segment is absorbed into the east direction
    assert list(path.vertices) == [(0, 0), (1, 1)]
    assert path.direction == (1, 0)
    assert path.at(F(3)) == (2, 1)
    assert P(path.literal()).vertices == path.vertices


def test_polyline_unit_speed_params():
    path = P("0,0;1,1;2,1")
    assert list(path.params) == [0, 2, 3]
    assert path.at(F(1)) == (F(1, 2), F(1, 2))
    assert path.at(F(5, 2)) == (F(3, 2), 1)


def test_ray_extends_beyond_vertices():
    ray = P("0,0;1,1 >2/1")
    # direction (2,1) normalized to l1 speed: 3 parameter units per (2,1)
    assert ray.at(F(5)) == (F(3), F(2))


def test_geodesic_examples():
    assert is_geodesic_polyline(P("0,0;1,0;1,1"))
    assert not is_geodesic_polyline(P("0,0;1,0;0,0"))
    assert is_geodesic_polyline(P("0,0;1/2,1/2;2,1"))


def test_three_way_equivalence_seeded():
    rng = random.Random(17)
    for i in range(100):
        if i % 2 == 0:
            path = make_monotone_polyline(rng)
        else:
            path, _ = make_backtracking_polyline(rng)
        length_is_distance = (
            path.length == ell1_distance(path.vertices[0], path.vertices[-1]))
        monotone = signs_monotone(path.moves())
        assert is_geodesic_polyline(path) == monotone == length_is_distance


def test_commitment_accepts_geodesics():
    rng = random.Random(19)
    for _ in range(50):
        path = make_monotone_polyline(rng)
        assert check_monotone_commitment(path) is None


def test_commitment_southward_turn():
    # enter quadrant I, then move south
    path = Polyline([(F(0), F(0)), (F(1), F(1)), (F(2), F(1, 2))])
    assert check_monotone_commitment(path) == 2


def test_commitment_pinpoints_violation_time():
    rng = random.Random(23)
    for _ in range(50):
        path, t_bad = make_backtracking_polyline(rng)
        assert check_monotone_commitment(path) == t_bad


def test_commitment_requires_origin():
    with pytest.raises(ValueError):
        check_monotone_commitment(Polyline([(F(1), F(1)), (F(2), F(2))]))


def test_commitment_axis_backtrack_is_not_a_violation():
    # never enters an open quadrant, so the commitment law is vacuous
    path = Polyline([(F(0), F(0)), (F(2), F(0)), (F(1), F(0))])
    assert check_monotone_commitment(path) is None
    assert not is_geodesic_polyline(path)


# -- plane splice -----------------------------------------------------------


def test_splice_plane_diagonal_into_east():
    f = P("0,0 >1/1")
    g = P("0,0 >1/0")
    out = splice_plane(f, g, F(4))
    assert out.path.at(F(4)) == (2, 2)
    assert out.handoff_gap == 4
    assert out.bound == 4
    assert is_geodesic_polyline(out.path)


def test_splice_plane_identities():
    f = P("0,0;1,1 >2/1")
    g = P("0,0 >1/1")
    assert splice_plane(f, f, F(3)).path.literal() == f.literal()
    assert splice_plane(f, g, F(0)).path.literal() == g.literal()


def test_splice_plane_prefix_agreement_and_bound():
    rng = random.Random(29)
    spliced = 0
    while spliced < 40:
        f = make_monotone_polyline(rng, with_direction=True)
        g = make_monotone_polyline(rng, with_direction=True)
        cut = F(rng.randrange(0, 16), 2)
        try:
            out = splice_plane(f, g, cut)
        except ValueError:  # quadrant mismatch
            continue
        spliced += 1
        for k in range(2 * int(cut) + 1):
            t = F(k, 2)
            assert out.path.at(t) == f.at(t)
        for k in range(60):
            t = F(k, 2)
            assert ell1_distance(out.path.at(t), g.at(t)) <= out.bound


def test_splice_plane_quadrant_mismatch():
    with pytest.raises(ValueError):
        splice_plane(P("0,0 >1/1"), P("0,0 >-1/0"), F(1))


def test_splice_plane_gap_constant_beyond_b():
    f = P("0,0 >1/1")
    g = P("0,0 >1/0")
    out = splice_plane(f, g, F(4))
    for k in range(8, 30):
        t = F(k, 2)
        assert ell1_distance(out.path.at(t), g.at(t)) == out.handoff_gap


# -- projection to the lattice ---------------------------------------------


def test_project_pure_directions():
    assert project_to_lattice(P("0,0 >1/1")).literal() == "(01)"
    assert project_to_lattice(P("0,0 >1/0")).literal() == "(0)"
    assert project_to_lattice(P("0,0 >0/1")).literal() == "(1)"
    assert project_to_lattice(P("0,0 >2/1")) == digitize(2, 1)


def test_project_staircase_is_identity():
    # a lattice staircase polyline projects to exactly its digit code
    path = P("0,0;1,0;1,1;2,1 >1/1")
    code = project_to_lattice(path)
    assert code.literal() == "010(01)"
    for t in range(4):  # the finite staircase is reproduced exactly
        x, y = path.at(F(t))
        assert code.point_at(t) == (int(x), int(y))
    for t in range(4, 20):  # the tail staircase stays beside the diagonal
        import math
        x, y = path.at(F(t))
        assert word_metric(code.point_at(t),
                           (math.floor(x), math.floor(y))) <= 1


def test_project_with_preamble():
    path = P("0,0;1,2 >1/0")
    code = project_to_lattice(path)
    assert code.point_at(3) in [(1, 2)]
    v = are_asymptotic(code, digitize(1, 0))
    assert isinstance(v, Asymptotic)


def test_project_asymptotic_to_digitized_direction():
    rng = random.Random(37)
    checked = 0
    while checked < 25:
        path = make_monotone_polyline(rng, with_direction=True)
        if not is_geodesic_polyline(path) or path.direction is None:
            continue
        if path.direction == (0, 0):
            continue
        code = project_to_lattice(path)
        target = digitize(*path.direction)
        v = are_asymptotic(code, target)
        assert isinstance(v, Asymptotic)
        checked += 1


def test_project_rejects_non_geodesic():
    with pytest.raises(ValueError):
        project_to_lattice(P("0,0;1,0;0,0 >1/0"))
