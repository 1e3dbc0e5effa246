"""One closed-quadrant rule against the separate tests it replaced.

``lattice.quadrant_windows`` decides, for grid words, ray digits and plane
paths alike, which closed quadrants hold a set of steps. The oracles are
the code it replaced: the per-module sign tests (in ``conftest``), the
``splice`` with one branch per tail type and the commitment check with a
committed and an uncommitted branch (here). Verdicts, digits, rays and
errors must be the same.
"""

from fractions import Fraction
from itertools import product

from hypothesis import given, settings, strategies as st

from gridrays.ell1 import (check_monotone_commitment, is_geodesic_polyline,
                           splice_plane)
from gridrays.exactnum import sqrt_exact
from gridrays.lattice import (DISPLACEMENTS, WINDOW_SIGNS, is_geodesic_word,
                              quadrant_windows)
from gridrays.rays import (WINDOW_DIGITS, InvalidRay, PeriodicTail,
                           QuadrantMismatch, RayCode, SturmianTail,
                           periodic_ray, splice, validate)

from conftest import (digit_windows_oracle, is_geodesic_word_oracle,
                      polylines, shared_quadrant, signs_monotone,
                      window_of_signs)

F = Fraction
QUADRANTS = {0: (1, 1), 1: (-1, 1), 2: (-1, -1), 3: (1, -1)}  # by window

vectors = st.lists(st.tuples(*[st.one_of(st.just(F(0)),
                                         st.fractions(-5, 5, max_denominator=6))
                               for _ in range(2)]), max_size=6)


# -- oracles: the branches as they were --------------------------------------


def _realize(digit, w):
    if digit in (0, 4):
        return 4 if w == 3 else 0
    return digit


def splice_oracle(f, g, s):
    if s < 0:
        raise ValueError("splice time must be nonnegative")
    for ray in (f, g):
        if not validate(ray):
            raise InvalidRay(f"invalid ray code {ray.literal()!r}")
    prefix = f.digits(s)
    common = (digit_windows_oracle(prefix)
              & digit_windows_oracle(g.realized_digits()))
    if not common:
        raise QuadrantMismatch(
            f"{f.literal()!r} and {g.literal()!r} do not share a quadrant window")
    if isinstance(g.tail, PeriodicTail):
        w = min(common)
        pre = [_realize(d, w) for d in prefix]
        gp = len(g.preamble)
        per = [_realize(d, w) for d in g.tail.period]
        if s < gp:
            pre += [_realize(d, w) for d in g.preamble[s:]]
        else:
            shift = (s - gp) % len(per)
            per = per[shift:] + per[:shift]
        return periodic_ray(pre, per)
    w = g.tail.window
    pre = [_realize(d, w) for d in prefix]
    gp = len(g.preamble)
    if s < gp:
        pre += [_realize(d, w) for d in g.preamble[s:]]
        tail = g.tail
    else:
        tail = g.tail.advanced(s - gp)
    return RayCode(tuple(pre), tail).canonical()


def commitment_oracle(path):
    if path.vertices[0] != (F(0), F(0)):
        raise ValueError("the path must start at the origin")
    committed = None
    verts = path.vertices
    moves = path.moves()
    for i, (dx, dy) in enumerate(moves):
        t = path.params[i] if i < len(path.params) else path.params[-1]
        x, y = verts[i] if i < len(verts) else verts[-1]
        if committed is None and x != 0 and y != 0:
            committed = (1 if x > 0 else -1, 1 if y > 0 else -1)
        if committed is not None:
            sx, sy = committed
            if sx * dx < 0 or sy * dy < 0:
                return t
            continue
        qx = (1 if x > 0 else -1 if x < 0 else
              (1 if dx > 0 else -1 if dx < 0 else 0))
        qy = (1 if y > 0 else -1 if y < 0 else
              (1 if dy > 0 else -1 if dy < 0 else 0))
        if qx != 0 and qy != 0:
            if qx * dx < 0 or qy * dy < 0:
                return t
            committed = (qx, qy)
    return None


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return type(e), str(e)


# -- the rule itself ----------------------------------------------------------


def test_window_signs_are_the_window_digits():
    for w, (h, v) in WINDOW_DIGITS.items():
        assert WINDOW_SIGNS[w] == (DISPLACEMENTS[h][0], DISPLACEMENTS[v][1])
        assert WINDOW_SIGNS[w] == QUADRANTS[w]


@given(vectors)
def test_quadrant_windows_is_the_sign_test(vs):
    ws = quadrant_windows(vs)
    assert ws == {w for w, (sx, sy) in QUADRANTS.items()
                  if all(sx * x >= 0 and sy * y >= 0 for x, y in vs)}
    assert bool(ws) == signs_monotone(vs)
    assert quadrant_windows(iter(vs)) == ws


def test_empty_step_set_fits_every_window():
    assert quadrant_windows([]) == {0, 1, 2, 3}
    assert quadrant_windows([(0, 0)]) == {0, 1, 2, 3}


def test_least_window_writes_the_digits_of_the_sign_window():
    # only a due-south step set changes window (3 -> 2); both windows
    # write south as 3, and its horizontal digit never occurs
    for sx, sy in product((-1, 0, 1), repeat=2):
        if (sx, sy) == (0, 0):
            continue
        old, new = window_of_signs(sx, sy), min(quadrant_windows([(sx, sy)]))
        assert old == new or (sx, sy) == (0, -1) and (old, new) == (3, 2)
        for k, s in enumerate((sx, sy)):
            if s:
                assert (DISPLACEMENTS[WINDOW_DIGITS[old][k]]
                        == DISPLACEMENTS[WINDOW_DIGITS[new][k]])


@given(st.text("01234", max_size=12))
def test_geodesic_words_match_the_pair_test(word):
    assert is_geodesic_word(word) == is_geodesic_word_oracle(word)


# -- rays -------------------------------------------------------------------


@st.composite
def rays_in(draw, w):
    """A valid ray of window w: periodic, Sturmian, or a spliced Sturmian."""
    alphabet = st.sampled_from(WINDOW_DIGITS[w])
    pre = draw(st.lists(alphabet, max_size=6))
    kind = draw(st.sampled_from(("periodic", "sturmian", "spliced")))
    if kind == "periodic":
        return periodic_ray(pre, draw(st.lists(alphabet, min_size=1, max_size=5)))
    tail = SturmianTail(1, sqrt_exact(draw(st.sampled_from((2, 3, 5)))), w)
    return RayCode(pre, tail.advanced(draw(st.integers(0, 9)))
                   if kind == "spliced" else tail)


@settings(deadline=None, max_examples=300)
@given(st.data(), st.sampled_from(range(4)), st.sampled_from(range(4)),
       st.integers(0, 12))
def test_splice_matches_the_two_branch_splice(data, wf, wg, s):
    f, g = data.draw(rays_in(wf)), data.draw(rays_in(wg))
    assert outcome(splice, f, g, s) == outcome(splice_oracle, f, g, s)


def test_sturmian_splice_below_and_past_the_preamble():
    g = RayCode((1, 1, 0), SturmianTail(1, sqrt_exact(2), 0))
    f = periodic_ray((), (0, 1))
    for s in range(7):
        assert splice(f, g, s) == splice_oracle(f, g, s)
    assert splice(f, g, 1).tail == g.tail
    assert splice(f, g, 5).tail == g.tail.advanced(2)


@given(st.sampled_from(range(4)), st.data())
def test_ray_digit_set_is_built_once(w, data):
    ray = data.draw(rays_in(w))
    extra = (ray.tail.period if isinstance(ray.tail, PeriodicTail)
             else WINDOW_DIGITS[ray.tail.window])
    assert ray.realized_digits() == set(ray.preamble) | set(extra)
    assert ray.realized_digits() is ray.realized_digits()
    assert ray.m() == min(set(ray.preamble) | set(extra))


# -- plane paths --------------------------------------------------------------


any_path = st.one_of(polylines(), polylines(axis=True), polylines(ray=False),
                     polylines(monotone=True), polylines(axis=True, monotone=True))


@given(any_path)
def test_geodesic_polylines_match_the_sign_test(path):
    assert is_geodesic_polyline(path) == signs_monotone(path.moves())


@settings(deadline=None, max_examples=300)
@given(any_path)
def test_commitment_matches_the_two_branch_loop(path):
    assert check_monotone_commitment(path) == commitment_oracle(path)


@settings(deadline=None, max_examples=200)
@given(st.one_of(polylines(monotone=True), polylines(axis=True, monotone=True)),
       st.one_of(polylines(monotone=True), polylines(axis=True, monotone=True)),
       st.fractions(0, 6, max_denominator=3))
def test_plane_splice_needs_the_four_sign_quadrant(f, g, b):
    got = outcome(splice_plane, f, g, b)
    refused = got == (ValueError, "rays do not share a quadrant closure")
    assert refused == (not shared_quadrant(f, g))
