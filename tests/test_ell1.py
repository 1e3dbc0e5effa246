"""Taxicab-plane geodesics: polylines, commitment, plane splice, projection.

The Fraction implementation that the integer one replaced lives on below as
the oracle: ``FracPolyline`` and the functions named ``frac_*`` are the
module as it was, and Hypothesis compares the two on ``polyline_args``.
"""

import cProfile
import pstats
import random
from dataclasses import dataclass
from fractions import Fraction
from math import floor
from typing import Optional

import pytest
from hypothesis import given, settings, strategies as st

from gridrays.ell1 import (Polyline, check_monotone_commitment, ell1_distance,
                           is_geodesic_polyline, parse_polyline,
                           project_to_lattice, splice_plane)
from gridrays.lattice import WINDOW_SIGNS, quadrant_windows, word_metric
from gridrays.rays import (WINDOW_DIGITS, Asymptotic, are_asymptotic,
                           digitize, periodic_ray)

from conftest import (exact_staircase, make_backtracking_polyline,
                      make_monotone_polyline, polyline_args, signs_monotone)

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


def test_project_shares_the_period_cap_of_digitize():
    # (1 + 99999)/gcd(1, 99999) = 100,000 digits, the longest period allowed
    code = project_to_lattice(P("0,0 >1/99999"))
    assert code == digitize(1, 99999)
    assert len(code.tail.period) == 100_000
    assert code.tail.period.count(0) == 1
    with pytest.raises(ValueError, match="has period 100001"):
        project_to_lattice(P("0,0;1,2 >1/100000"))
    with pytest.raises(ValueError, match="has period 100001"):
        project_to_lattice(P("0,0 >2/200000"))


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


# -- the Fraction implementation, kept as the oracle -------------------------


class FracPolyline:
    """Polyline as it was: Fraction vertices, params and direction."""

    def __init__(self, vertices, direction=None):
        verts = [(Fraction(x), Fraction(y)) for x, y in vertices]
        if not verts:
            raise ValueError("a polyline needs at least one vertex")
        for a, b in zip(verts, verts[1:]):
            if a == b:
                raise ValueError("consecutive vertices must be distinct")
        if direction is not None:
            direction = (Fraction(direction[0]), Fraction(direction[1]))
            if direction == (0, 0):
                raise ValueError("ray direction must be nonzero")
        simplified = [verts[0]]
        for nxt in verts[1:]:
            if len(simplified) >= 2:
                ax, ay = simplified[-2]
                bx, by = simplified[-1]
                u = (bx - ax, by - ay)
                v = (nxt[0] - bx, nxt[1] - by)
                if u[0] * v[1] == u[1] * v[0] and u[0] * v[0] + u[1] * v[1] > 0:
                    simplified.pop()
            simplified.append(nxt)
        if direction is not None:
            while len(simplified) >= 2:
                ax, ay = simplified[-2]
                bx, by = simplified[-1]
                u = (bx - ax, by - ay)
                if (u[0] * direction[1] == u[1] * direction[0]
                        and u[0] * direction[0] + u[1] * direction[1] > 0):
                    simplified.pop()
                else:
                    break
        self.vertices = tuple(simplified)
        self.direction = direction
        params = [Fraction(0)]
        for a, b in zip(simplified, simplified[1:]):
            params.append(params[-1] + ell1_distance(a, b))
        self.params = tuple(params)

    @property
    def is_ray(self):
        return self.direction is not None

    @property
    def length(self):
        return self.params[-1]

    def at(self, t):
        t = Fraction(t)
        if t < 0:
            raise ValueError("parameter must be nonnegative")
        if t > self.length:
            if self.direction is None:
                raise ValueError(f"parameter {t} beyond the path end")
            n = abs(self.direction[0]) + abs(self.direction[1])
            u = (self.direction[0] / n, self.direction[1] / n)
            x, y = self.vertices[-1]
            extra = t - self.length
            return (x + u[0] * extra, y + u[1] * extra)
        for i in range(len(self.vertices) - 1):
            if t <= self.params[i + 1]:
                a, b = self.vertices[i], self.vertices[i + 1]
                lam = (t - self.params[i]) / (self.params[i + 1] - self.params[i])
                return (a[0] + (b[0] - a[0]) * lam, a[1] + (b[1] - a[1]) * lam)
        return self.vertices[-1]

    def moves(self):
        out = [(b[0] - a[0], b[1] - a[1])
               for a, b in zip(self.vertices, self.vertices[1:])]
        if self.direction is not None:
            out.append(self.direction)
        return out

    def literal(self):
        body = ";".join(f"{x},{y}" for x, y in self.vertices)
        if self.direction is None:
            return body
        return f"{body} >{self.direction[0]}/{self.direction[1]}"


def frac_parse_polyline(text):
    text = text.strip()
    direction = None
    if ">" in text:
        body, d = text.split(">")
        dx, dy = d.strip().split("/")
        direction = (Fraction(dx), Fraction(dy))
    else:
        body = text
    verts = []
    for part in body.strip().split(";"):
        x, y = part.split(",")
        verts.append((Fraction(x), Fraction(y)))
    return FracPolyline(verts, direction)


def frac_is_geodesic(path):
    return bool(quadrant_windows(path.moves()))


def frac_commitment(path) -> Optional[Fraction]:
    if path.vertices[0] != (Fraction(0), Fraction(0)):
        raise ValueError("the path must start at the origin")
    for t, (x, y), (dx, dy) in zip(path.params, path.vertices, path.moves()):
        qx = (x > 0) - (x < 0) or (dx > 0) - (dx < 0)
        qy = (y > 0) - (y < 0) or (dy > 0) - (dy < 0)
        if qx and qy and (qx * dx < 0 or qy * dy < 0):
            return t
    return None


@dataclass(frozen=True)
class FracSplice:
    path: FracPolyline
    bound: Fraction
    handoff_gap: Fraction


def frac_splice_plane(f, g, b):
    b = Fraction(b)
    if b < 0:
        raise ValueError("splice parameter must be nonnegative")
    for name, path in (("f", f), ("g", g)):
        if not path.is_ray:
            raise ValueError(f"{name} must be a ray")
        if not frac_is_geodesic(path):
            raise ValueError(f"{name} is not geodesic")
    if not quadrant_windows([*f.vertices, f.direction,
                             *g.vertices, g.direction]):
        raise ValueError("rays do not share a quadrant closure")
    fb, gb = f.at(b), g.at(b)
    shift = (fb[0] - gb[0], fb[1] - gb[1])
    verts = [v for v, t in zip(f.vertices, f.params) if t < b]
    verts.append(fb)
    for v, t in zip(g.vertices, g.params):
        if t > b:
            verts.append((v[0] + shift[0], v[1] + shift[1]))
    dedup = [verts[0]]
    for v in verts[1:]:
        if v != dedup[-1]:
            dedup.append(v)
    gap = abs(shift[0]) + abs(shift[1])
    breaks = sorted({t for t in f.params if t <= b}
                    | {t for t in g.params if t <= b} | {Fraction(0), b})
    bound = gap
    for t in breaks:
        bound = max(bound, ell1_distance(f.at(t), g.at(t)))
    return FracSplice(FracPolyline(dedup, g.direction), bound, gap)


def frac_project_to_lattice(ray):
    if not ray.is_ray:
        raise ValueError("a final direction is required")
    if not frac_is_geodesic(ray):
        raise ValueError("only geodesic rays project to geodesic staircases")
    if ray.vertices[0] != (Fraction(0), Fraction(0)):
        raise ValueError("the ray must start at the origin")
    w = min(quadrant_windows(ray.moves()))
    (sx, sy), (hdig, vdig) = WINDOW_SIGNS[w], WINDOW_DIGITS[w]
    rverts = [(sx * x, sy * y) for x, y in ray.vertices]
    rdir = (sx * ray.direction[0], sy * ray.direction[1])
    digits = []
    for a, c in zip(rverts, rverts[1:]):
        n = floor(c[0]) - floor(a[0]) + floor(c[1]) - floor(a[1])
        digits += exact_staircase(c[0] - a[0], c[1] - a[1], a).digits(n, hdig,
                                                                     vdig)
    p, q = rdir
    per = exact_staircase(p, q, rverts[-1]).digits((p / (p + q)).denominator,
                                                   hdig, vdig)
    return periodic_ray(digits, per)


def outcome(fn, *args):
    """fn's value, or the message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _literal(verts, direction) -> str:
    body = ";".join(f"{x},{y}" for x, y in verts)
    return body if direction is None else f"{body} >{direction[0]}/{direction[1]}"


any_args = st.one_of(polyline_args(), polyline_args(monotone=True),
                     polyline_args(axis=True), polyline_args(ray=False),
                     polyline_args(axis=True, monotone=True))
params = st.fractions(0, 12, max_denominator=12)


# -- the integer polyline against the oracle ---------------------------------


@settings(deadline=None, max_examples=300)
@given(any_args, st.lists(params, max_size=6))
def test_polyline_matches_the_fraction_oracle(args, ts):
    new, old = Polyline(*args), FracPolyline(*args)
    assert (new.vertices, new.params, new.direction, new.length) == \
        (old.vertices, old.params, old.direction, old.length)
    assert (new.moves(), new.is_ray) == (old.moves(), old.is_ray)
    fractional = old.direction and any(c.denominator > 1 for c in old.direction)
    if fractional:
        # the oracle writes a component as ">1/2/1", which no parser reads;
        # the literal scales the direction to integers and reads back
        back = parse_polyline(new.literal())
        assert (back.vertices, back.params, back.is_ray, back.literal()) == \
            (new.vertices, new.params, new.is_ray, new.literal())
        for t in [*new.params, *ts, new.length + Fraction(7, 3)]:
            assert back.at(t) == new.at(t)
    else:
        assert new.literal() == old.literal()
    text = _literal(*args)  # the unsimplified vertices, through the parser
    if fractional:
        # ">dx/dy" cannot write a fractional component: both parsers refuse
        with pytest.raises(ValueError, match="^cannot parse polyline literal"):
            parse_polyline(text)
        with pytest.raises(ValueError):
            frac_parse_polyline(text)
    else:
        assert parse_polyline(text) == new
        assert parse_polyline(text).vertices == frac_parse_polyline(text).vertices
    assert is_geodesic_polyline(new) == frac_is_geodesic(old)
    assert check_monotone_commitment(new) == frac_commitment(old)


@settings(deadline=None, max_examples=300)
@given(any_args, st.lists(params, max_size=6))
def test_at_matches_the_fraction_oracle(args, ts):
    new, old = Polyline(*args), FracPolyline(*args)
    for t in [*old.params, *ts, old.length + Fraction(7, 3), Fraction(-1, 2)]:
        assert outcome(new.at, t) == outcome(old.at, t)


@settings(deadline=None, max_examples=400)
@given(st.one_of(polyline_args(monotone=True), polyline_args(axis=True)),
       st.one_of(polyline_args(monotone=True), polyline_args()),
       st.data())
def test_splice_matches_the_fraction_oracle(fa, ga, data):
    f, g = Polyline(*fa), Polyline(*ga)
    b = data.draw(st.one_of(params, st.sampled_from([*f.params, *g.params])))

    def view(splice):
        return (splice.path.vertices, splice.path.params, splice.path.direction,
                splice.bound, splice.handoff_gap)
    assert outcome(lambda: view(splice_plane(f, g, b))) == \
        outcome(lambda: view(frac_splice_plane(FracPolyline(*fa),
                                               FracPolyline(*ga), b)))


@settings(deadline=None, max_examples=300)
@given(any_args)
def test_project_matches_the_fraction_oracle(args):
    assert outcome(lambda: project_to_lattice(Polyline(*args)).literal()) == \
        outcome(lambda: frac_project_to_lattice(FracPolyline(*args)).literal())


def test_parse_reads_every_rational_literal_as_fraction_does():
    # unreduced, decimal, signed and spaced coordinates take the Fraction
    # parser's value
    for text in ("0,0;2/4,0.25;1, 1/2 >2/4", "0,0;+1,-0/3 > 6/-2.5e1"):
        assert parse_polyline(text).vertices == frac_parse_polyline(text).vertices
        assert parse_polyline(text).direction == frac_parse_polyline(text).direction


@pytest.mark.parametrize("text", ["0,0;1/0,1", "0,0;1", "0,0;1,1 >1",
                                  "0,0 >1/0 >1/1", "0,0;x,1", "0,0 >1/2/3"])
def test_malformed_literal_is_one_typed_error(text):
    with pytest.raises(ValueError) as exc:
        parse_polyline(text)
    assert str(exc.value) == f"cannot parse polyline literal {text!r}"


def test_semantic_errors_keep_their_messages():
    for text, message in [("0,0;0,0", "consecutive vertices must be distinct"),
                          ("0,0 >0/0", "ray direction must be nonzero")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            parse_polyline(text)


# -- work counts --------------------------------------------------------------


def _fractions_built(fn) -> int:
    prof = cProfile.Profile()
    prof.runcall(fn)
    return sum(stat[1] for (file, _, name), stat in pstats.Stats(prof).stats.items()
               if file.endswith("fractions.py") and name == "__new__")


def test_plane_ops_build_only_the_fractions_they_hand_out():
    b = Fraction(29, 2)

    def ops():
        f = parse_polyline("0,0;1/3,1/4;5/6,3/2 >2/1")
        g = parse_polyline("0,0;3/4,0;3/4,5/12 >1/3")
        assert check_monotone_commitment(f) is None
        assert project_to_lattice(f).literal() == "1(010)"
        return splice_plane(f, g, b)
    assert _fractions_built(ops) == 2  # the splice's bound and gap
    assert _fractions_built(lambda: check_monotone_commitment(
        parse_polyline("0,0;1/2,2/3;3/4,1/3"))) == 1  # the retreat time
