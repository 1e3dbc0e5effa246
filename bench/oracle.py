"""Independent exact oracles that the benchmark checks outputs against.

Nothing here imports gridrays: a check must not trust the code under
test. Everything is integer or Fraction arithmetic; no float decides.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import isqrt, lcm

#: quadrant window -> (horizontal digit, vertical digit), per the ray grammar
WINDOWS = {0: (0, 1), 1: (2, 1), 2: (2, 3), 3: (4, 3)}
STEPS = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1), 4: (1, 0)}


def ffloor(x: Fraction) -> int:
    return x.numerator // x.denominator


def l1(p, q) -> int:
    return abs(p[0] - q[0]) + abs(p[1] - q[1])


def window_of(sx: int, sy: int) -> int:
    return {(1, 1): 0, (-1, 1): 1, (-1, -1): 2, (1, -1): 3}[(sx, sy)]


def floor_quadratic(a: Fraction, b: Fraction, d: int) -> int:
    """floor(a + b*sqrt(d)) for rational a, b != 0 and non-square d > 1."""
    if b < 0:
        # the value is irrational, so floor(-v) = -floor(v) - 1
        return -floor_quadratic(-a, -b, d) - 1
    r = b * b * d  # b*sqrt(d) = sqrt(r) = sqrt(n*m)/m, irrational
    n, m = r.numerator, r.denominator
    s = isqrt(n * m)  # s/m < sqrt(r) < (s+1)/m
    k = ffloor(a + Fraction(s + 1, m))
    gap = k - a
    return k if gap <= 0 or gap * gap < r else k - 1


class Line:
    """The staircase digitizing a straight line from the origin.

    With l1-normalized horizontal speed ux, the first t steps hold
    floor((t+1)*ux) horizontal ones (the lower mechanical word; the tie
    on rational slopes goes to the horizontal step). ux = a + b*sqrt(d).
    """

    def __init__(self, a: Fraction, b: Fraction, d: int, sx: int = 1, sy: int = 1):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d
        self.sx, self.sy = sx, sy
        self.hdig, self.vdig = WINDOWS[window_of(sx, sy)]

    @classmethod
    def rational(cls, p: int, q: int, sx: int = 1, sy: int = 1) -> "Line":
        """Direction (sx*p, sy*q) with p, q > 0."""
        return cls(Fraction(p, p + q), Fraction(0), 0, sx, sy)

    @classmethod
    def sqrt(cls, d: int) -> "Line":
        """Direction (1, sqrt(d)): ux = 1/(1+sqrt d) = (sqrt d - 1)/(d - 1)."""
        return cls(Fraction(-1, d - 1), Fraction(1, d - 1), d)

    def horizontal(self, t: int) -> int:
        if self.b == 0:
            return ffloor((t + 1) * self.a)
        return floor_quadratic((t + 1) * self.a, (t + 1) * self.b, self.d)

    def point(self, t: int) -> tuple[int, int]:
        h = self.horizontal(t)
        return (self.sx * h, self.sy * (t - h))

    def digits(self, n: int) -> list[int]:
        out, prev = [], self.horizontal(0)
        for t in range(1, n + 1):
            h = self.horizontal(t)
            out.append(self.hdig if h > prev else self.vdig)
            prev = h
        return out


class Walk:
    """Closed-form positions of the eventually periodic digit string
    ``pre`` followed by ``per`` repeated."""

    def __init__(self, pre: str, per: str):
        self.pre_pts = self._cumulative(pre)
        self.per_pts = self._cumulative(per)
        self.n_pre, self.n_per = len(pre), len(per)

    @staticmethod
    def _cumulative(digits: str) -> list[tuple[int, int]]:
        pts = [(0, 0)]
        for c in digits:
            dx, dy = STEPS[int(c)]
            pts.append((pts[-1][0] + dx, pts[-1][1] + dy))
        return pts

    def point(self, t: int) -> tuple[int, int]:
        if t <= self.n_pre:
            return self.pre_pts[t]
        laps, r = divmod(t - self.n_pre, self.n_per)
        (ax, ay), (lx, ly), (rx, ry) = (self.pre_pts[-1], self.per_pts[-1],
                                        self.per_pts[r])
        return (ax + laps * lx + rx, ay + laps * ly + ry)


def periodic_value(bits: list[int]) -> Fraction:
    """Value of the purely periodic binary expansion 0.(bits)."""
    return Fraction(int("".join(map(str, bits)), 2), (1 << len(bits)) - 1)


def floor_violations(pairs, k_sq: Fraction, c: Fraction) -> list[tuple]:
    """(pair, side, margin) for each failed side of the floor-map
    inequalities, upper before lower, decided by integer
    cross-multiplication of the word metric against squared distances."""
    kn, kd = k_sq.numerator, k_sq.denominator
    cn, cd = c.numerator, c.denominator
    out = []
    for p, q in pairs:
        d = (abs(ffloor(p[0]) - ffloor(q[0]))
             + abs(ffloor(p[1]) - ffloor(q[1])))
        dx, dy = p[0] - q[0], p[1] - q[1]
        den = lcm(dx.denominator, dy.denominator)
        x = dx.numerator * (den // dx.denominator)
        y = dy.numerator * (den // dy.denominator)
        s = x * x + y * y  # squared distance is s / den^2
        dd = den * den
        u = d * cd - cn  # d - c = u / cd
        if u > 0 and u * u * kd * dd > kn * s * cd * cd:
            out.append(((p, q), "upper",
                        Fraction(u * u * kd * dd - kn * s * cd * cd, kd * dd * cd * cd)))
        w = d * cd + cn  # d + c = w / cd
        if s * kd * cd * cd > kn * w * w * dd:
            out.append(((p, q), "lower",
                        Fraction(s * kd * cd * cd - kn * w * w * dd, dd * kd * cd * cd)))
    return out


def first_diagonal_violation(k_sq: Fraction, c: Fraction, budget: int):
    """First n <= budget whose pair ((0,0),(n,n)) fails, with its
    (pair, side, margin), or None."""
    zero = Fraction(0)
    for n in range(1, budget + 1):
        pair = ((zero, zero), (Fraction(n), Fraction(n)))
        found = floor_violations([pair], k_sq, c)
        if found:
            return n, found[0]
    return None


def cell_sq(p) -> Fraction:
    """Squared distance from a plane point to its floor lattice point."""
    fx, fy = p[0] - ffloor(p[0]), p[1] - ffloor(p[1])
    return fx * fx + fy * fy


def nearest_lattice_sq(p) -> Fraction:
    """Squared distance from a plane point to the nearest lattice point."""
    fx, fy = p[0] - ffloor(p[0]), p[1] - ffloor(p[1])
    mx, my = min(fx, 1 - fx), min(fy, 1 - fy)
    return mx * mx + my * my


def symmetric(gens) -> tuple[tuple[int, int], ...]:
    vecs = set()
    for x, y in gens:
        vecs.update({(x, y), (-x, -y)})
    return tuple(sorted(vecs))


def bfs_table(gens, cap: int) -> dict[tuple[int, int], int]:
    """Word-metric distances from the origin out to ``cap`` steps."""
    vecs = symmetric(gens)
    dist = {(0, 0): 0}
    queue = deque([(0, 0)])
    while queue:
        x, y = queue.popleft()
        d = dist[(x, y)]
        if d < cap:
            for gx, gy in vecs:
                nxt = (x + gx, y + gy)
                if nxt not in dist:
                    dist[nxt] = d + 1
                    queue.append(nxt)
    return dist


def polyline_at(verts, direction, t: Fraction):
    """Point at l1 arc length t on a polyline ray (exact)."""
    for a, b in zip(verts, verts[1:]):
        seg = l1(a, b)
        if t <= seg:
            lam = t / seg
            return (a[0] + (b[0] - a[0]) * lam, a[1] + (b[1] - a[1]) * lam)
        t -= seg
    n = abs(direction[0]) + abs(direction[1])
    x, y = verts[-1]
    return (x + direction[0] / n * t, y + direction[1] / n * t)


def is_probable_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n
