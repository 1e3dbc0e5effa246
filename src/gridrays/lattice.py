"""The integer grid as a Cayley graph: metrics, geodesic words, counting.

Vertices are plain ``(x, y)`` integer tuples. Geodesic words are ASCII
digit strings over {0,1,2,3} (east, north, west, south); digit 4 is an
accepted alias for east on input and is normalized to 0 inside words.
Python integers are unbounded, so all arithmetic here is exact.
"""

from __future__ import annotations

from functools import cmp_to_key
from itertools import combinations, count, islice, repeat
from math import comb, gcd
from typing import Iterable, Iterator, Optional

LatticePoint = tuple[int, int]

ORIGIN: LatticePoint = (0, 0)

#: displacement of each digit; 0 and 4 both point east
DISPLACEMENTS: dict[int, LatticePoint] = {
    0: (1, 0),
    1: (0, 1),
    2: (-1, 0),
    3: (0, -1),
    4: (1, 0),
}

#: signs (sx, sy) of the closed quadrant of each window w, whose rays use
#: the digits {w, w+1} (4 being east)
WINDOW_SIGNS: dict[int, tuple[int, int]] = {
    0: (1, 1), 1: (-1, 1), 2: (-1, -1), 3: (1, -1)}


class Value:
    """Base of the value types: construction, equality (within one type),
    hashing and a dataclass-style repr by the fields, the ``__slots__`` not
    led by ``_``, each given once to ``__init__`` by position or by name.
    Types that validate, derive or default a field write their own
    ``__init__``, as does ``quasi.Violation``, one per failing pair, which a
    generic build would make several times as dear."""

    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = [n for n in self.__slots__ if n[0] != "_"]
        given = dict(zip(names, args), **kwargs)
        # as many arguments as fields, naming every field: none given twice
        if len(args) + len(kwargs) != len(names) or given.keys() != set(names):
            raise TypeError(f"{type(self).__name__}() takes each of {names} once"
                            f", got {len(args)} positional and {sorted(kwargs)}")
        for n in names:
            setattr(self, n, given[n])

    def _fields(self) -> dict:
        return {n: getattr(self, n) for n in self.__slots__ if n[0] != "_"}

    def __eq__(self, other):
        return (self._fields() == other._fields() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(tuple(self._fields().values()))

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in self._fields().items())
        return f"{type(self).__name__}({fields})"


class GenerationError(ValueError):
    """The given vectors do not generate the whole grid."""


class BallExceeded(Exception):
    """A BFS search ran past its radius cap before finding its target."""


def parse_point(text: str) -> LatticePoint:
    """The point of an "x,y" literal; anything else is one ValueError."""
    try:
        x, y = text.split(",")
        return int(x), int(y)
    except ValueError:
        raise ValueError(f"expected a point x,y of two integers, got {text!r}"
                         ) from None


def format_point(p: LatticePoint) -> str:
    return f"{p[0]},{p[1]}"


def quadrant_windows(vectors) -> set[int]:
    """The windows whose closed quadrant holds every vector (all four for
    none). A path in the grid or the l1 plane is geodesic iff its steps
    share a closed quadrant, so this is the one geodesic test; where
    several windows fit, callers take the least."""
    signs = {((x > 0) - (x < 0), (y > 0) - (y < 0)) for x, y in vectors}
    return {w for w, (sx, sy) in WINDOW_SIGNS.items()
            if all(sx * a >= 0 and sy * b >= 0 for a, b in signs)}


def word_metric(p: LatticePoint, q: LatticePoint) -> int:
    """Graph distance under the standard generators: the l1 distance."""
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


#: counter-clockwise order on the half-turn [0, pi)
_ANGLE = cmp_to_key(lambda a, b: a[1] * b[0] - a[0] * b[1])


class GeneratingSet:
    """A finite symmetric generating set of the grid, owner of its word metric.

    The symmetric closure is applied on construction. List it
    counter-clockwise as s_0 ... s_{m-1} and give the edge s_i -> s_{i+1}
    the normal n_i, so n_i . s_i = n_i . s_{i+1} = det(s_i, s_{i+1}). If
    every such det is 1 and no |n_i . s| exceeds 1, the hull is unimodular:
    v in cone(s_i, s_{i+1}) is a s_i + b s_{i+1} with integers a, b >= 0, so
    n_i . v = a + b is reached, and no generator raises any n_i . v by more
    than 1. The word length is then max_i n_i . v (the gauge of conv(S)),
    with no search; a basis +-a, +-b is the four-edge case. Any other set is
    accepted iff the gcd of its 2x2 minors is 1, which by the Smith normal
    form is exactly when it generates the grid (rank 1 gives gcd 0), and
    keeps its distances from the origin in one BFS table, grown a layer at
    a time and only as far as a query needs.
    """

    def __init__(self, generators: Iterable[LatticePoint]):
        vecs = set()
        for g in generators:
            v = (int(g[0]), int(g[1]))
            if v == (0, 0):
                raise GenerationError("the zero vector is not a generator")
            vecs.add(v)
            vecs.add((-v[0], -v[1]))
        if not vecs:
            raise GenerationError("empty generating set")
        self.vectors: tuple[LatticePoint, ...] = tuple(sorted(vecs))
        # the half-turn [0, pi) counter-clockwise; the other half is its
        # negation, with the same dets and negated normals
        half = [v for v in vecs if v[1] > 0 or v[1] == 0 < v[0]]
        half.sort(key=_ANGLE)
        ring = half + [(-x, -y) for x, y in half]
        # n_i of each edge s_i -> s_{i+1} of the half-turn with det 1
        normals = [(by - ay, ax - bx) for (ax, ay), (bx, by)
                   in zip(ring, ring[1:len(half) + 1]) if ax * by - ay * bx == 1]
        # distance reads |n . v|, so one normal per edge direction; a
        # unimodular hull has 0 as its only interior lattice point, so it is
        # a reflexive polygon, with two or three edge directions
        axes = list(dict.fromkeys(n if n > (0, 0) else (-n[0], -n[1])
                                  for n in normals))
        if len(normals) == len(half) and len(axes) <= 3 and all(
                -1 <= nx * x + ny * y <= 1 for nx, ny in normals for x, y in half):
            self._ring = ring  # the boundary of conv(S), counter-clockwise
            self._normals = axes[0] + axes[1]
            self._third = axes[2] if len(axes) == 3 else None
        else:
            self._ring = self._normals = self._third = None
            if gcd(*(ax * by - ay * bx for (ax, ay), (bx, by)
                     in combinations(self.vectors, 2))) != 1:
                raise GenerationError(f"{self.vectors} does not generate the grid")
        self.radius = 0
        self._table: dict[LatticePoint, int] = {ORIGIN: 0}
        self._frontier: list[LatticePoint] = [ORIGIN]  # the last layer

    def _grow_layer(self) -> None:
        table, d = self._table, self.radius + 1
        frontier = []
        for (px, py) in self._frontier:
            for (gx, gy) in self.vectors:
                q = (px + gx, py + gy)
                if q not in table:
                    table[q] = d
                    frontier.append(q)
        self._frontier = frontier
        self.radius = d

    def distance(self, v: LatticePoint, cap: int) -> Optional[int]:
        """Word length of v, or None if it exceeds ``cap``."""
        if self._normals:
            x, y = v
            a, b, c, e = self._normals
            d = abs(a * x + b * y)
            m = abs(c * x + e * y)
            if m > d:
                d = m
            if self._third:
                a, b = self._third
                m = abs(a * x + b * y)
                if m > d:
                    d = m
            return d if d <= cap else None
        while v not in self._table and self.radius < cap:
            self._grow_layer()
        d = self._table.get(v)
        return d if d is not None and d <= cap else None

    def __eq__(self, other):
        return isinstance(other, GeneratingSet) and self.vectors == other.vectors

    def __hash__(self):
        return hash(self.vectors)

    def __repr__(self):
        return f"GeneratingSet({list(self.vectors)})"


def standard_generators() -> GeneratingSet:
    return GeneratingSet([(1, 0), (0, 1)])


def bfs_distances(S: GeneratingSet, radius_cap: int) -> dict[LatticePoint, int]:
    """Distances from the origin out to ``radius_cap`` in Cay(Z^2, S), as a
    fresh dict the caller may keep or change. A set with a unimodular hull
    writes its ball cone by cone, with no search: in cone(s_i, s_{i+1}) the
    k + 1 points k*s_{i+1} + j*(s_i - s_{i+1}), j = 0 .. k, are the points
    at distance k. Any other set reads its BFS table."""
    if radius_cap < 0:
        raise ValueError("radius_cap must be nonnegative")
    if S._ring:
        ring, ball = S._ring, {}
        for (ax, ay), (bx, by) in zip(ring, ring[1:] + ring[:1]):
            dx, dy = ax - bx, ay - by
            for k in range(radius_cap + 1):
                ball.update(zip(zip(islice(count(k * bx, dx), k + 1),
                                    count(k * by, dy)), repeat(k)))
        return ball
    while S.radius < radius_cap:
        S._grow_layer()
    if S.radius == radius_cap:
        return dict(S._table)
    # an earlier query grew the shared table past the cap
    return {p: d for p, d in S._table.items() if d <= radius_cap}


def bfs_metric(S: GeneratingSet, p: LatticePoint, q: LatticePoint,
               radius_cap: int) -> Optional[int]:
    """Graph distance from p to q in Cay(Z^2, S), or None if > radius_cap.

    Uses translation invariance and reads S's table from the origin.
    """
    if radius_cap < 1:
        raise ValueError("radius_cap must be >= 1")
    return S.distance((q[0] - p[0], q[1] - p[1]), radius_cap)


def geodesic_count(p: LatticePoint, q: LatticePoint) -> int:
    """Number of monotone staircase words from p to q."""
    dx, dy = abs(p[0] - q[0]), abs(p[1] - q[1])
    return comb(dx + dy, dx)


def normalize_word(word: str) -> str:
    """Canonical word form: digit 4 becomes 0."""
    if not all(c in "01234" for c in word):
        raise ValueError(f"invalid word {word!r}")
    return word.replace("4", "0")


def is_geodesic_word(word: str) -> bool:
    """True iff the word never backtracks: its steps share a closed
    quadrant, i.e. its length equals the metric it spans."""
    return bool(quadrant_windows(DISPLACEMENTS[int(c)]
                                 for c in set(normalize_word(word))))


def enumerate_geodesics(p: LatticePoint, q: LatticePoint,
                        limit: Optional[int] = None) -> list[str]:
    """Distinct geodesic words from p to q in lexicographic digit order."""
    return list(islice(iter_geodesics(p, q),
                       None if limit is None else max(limit, 0)))


def iter_geodesics(p: LatticePoint, q: LatticePoint) -> Iterator[str]:
    dx, dy = q[0] - p[0], q[1] - p[1]
    hdig, vdig = "0" if dx >= 0 else "2", "1" if dy >= 0 else "3"
    nh, nv = abs(dx), abs(dy)
    n = nh + nv
    small, nsmall = (hdig, nh) if hdig < vdig else (vdig, nv)
    big = vdig if small == hdig else hdig
    # placing the smaller digit at lexicographically increasing position
    # tuples enumerates the words themselves in lexicographic order
    for positions in combinations(range(n), nsmall):
        chars = [big] * n
        for i in positions:
            chars[i] = small
        yield "".join(chars)


def generating_set_lipschitz(S: GeneratingSet, S2: GeneratingSet,
                             radius_cap: int = 64) -> tuple[int, int]:
    """Bi-Lipschitz constants between two word metrics.

    Returns (m, n): m bounds d_{S2} by m*d_S, and n bounds d_S by n*d_{S2},
    where m is the farthest any S-generator sits from the identity in the
    S2-metric and vice versa.
    """
    out = []
    for gens, metric, name in ((S, S2, "S2"), (S2, S, "S")):
        m = 0
        for s in gens.vectors:
            d = bfs_metric(metric, ORIGIN, s, radius_cap)
            if d is None:
                raise BallExceeded(
                    f"generator {s} outside radius {radius_cap} in {name}")
            m = max(m, d)
        out.append(m)
    return out[0], out[1]
