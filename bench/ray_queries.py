"""ray-queries: in-process queries over seeded ray literals and exact slopes.

``rays``, ``exactnum`` (Surd) and ``ell1`` do the work here and ``quasi``
none. One op is one query: a literal parsed and valued, a far read, a
prefix scan, a classification, a splice, a ball test, a demo or a set of
taxicab-plane calls on one pair of polylines.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from gridrays import ell1, exactnum, rays

import oracle
from common import istrata, mix, require, rng_for

NAME = "ray-queries"

# Sizes of one pass (about 1.4 s on a 2-core 2.x GHz machine), chosen so
# that each family is a visible share and no op runs past ~0.25 s:
#  - rational slope literals with p+q a prime in [200, 3000]: the period
#    has p+q digits, so parsing and n_map cost ~0.5-4 ms.
#  - Sturmian far reads: point_at(T) on a fresh sqrt(d) ray costs ~65 us
#    per step (Surd comparisons); T in [1000, 1600] is 65-105 ms (the
#    known-slow case), with d in [2, 5000].
#  - periodic far reads: ~1 us per step, so T in [20k, 60k] is 20-60 ms.
#  - prefix scans reuse rays warmed during set-up (Sturmian to 1000,
#    periodic to 20000 points), so they cost a list copy.
#  - periodic pairs with lcm of periods in [2000, 10000]: 5-25 ms.
#  - Sturmian splices at offsets in [400, 700]: the line bound walks the
#    offset, 80-140 ms (known-slow).
#  Sturmian reads and splices are ~18% of the ops, so op_p90_ms falls
#  inside that band rather than on its edge.
#  - near-parallel slopes p/1 and (p-1)/1, p in [20, 60]: the witness is
#    near t = 5p^2 (up to ~18000 steps), 10-100 ms (known-slow).
#    Peak memory jumps by ~3 MB once the witness passes t = 4096 (p >= 29)
#    and by ~14 MB past t = 16384 (p >= 57). The three strata give p in
#    25-27, 38-41 and 52-54 for every seed, clear of both edges; a
#    stratum across an edge would make peak_rss_mb flip with the seed.
RATIONAL_PERIOD = (200, 3000)
STURMIAN_D = (2, 5000)
STURMIAN_FAR_T = (1000, 1600)
PERIODIC_FAR_T = (20_000, 60_000)
PERIODIC_LCM = (2000, 10_000)
SPLICE_OFFSET = (400, 700)
NEAR_PARALLEL_P = (20, 60)
POOL = [("sqrt", 1000), ("sqrt", 1000), ("walk", 20_000), ("walk", 20_000),
        ("walk", 20_000), ("walk", 20_000)]
MIX = {"literal_rational": 8, "digitize_rational": 4, "sturmian_far": 6,
       "periodic_far": 3, "prefix_reuse": 8, "asym_periodic": 3,
       "asym_sturmian": 4, "asym_divergent": 3, "divergence": 4,
       "splice_ball": 4, "trivial_topology": 2, "ell1": 6}
SIGNS = ((1, 1), (-1, 1), (-1, -1), (1, -1))


def _digits(rng, n: int, window: int = 0) -> str:
    h, v = oracle.WINDOWS[window]
    return "".join(str(rng.choice((h, v))) for _ in range(n))


def _mixed_digits(rng, n: int) -> str:
    """n window-0 digits holding both 0 and 1 (n >= 2)."""
    while True:
        s = _digits(rng, n)
        if "0" in s and "1" in s:
            return s


def _prime_split(rng, near: int) -> tuple[int, int]:
    """p, q > 0 with p + q the first prime >= near, so the period has no
    proper divisor and its cost depends on its length alone."""
    n = oracle.next_prime(near)
    p = rng.randrange(1, n)
    return p, n - p


def _coprime_split(rng, total: int) -> tuple[int, int]:
    while True:
        p = rng.randrange(1, total)
        if gcd(p, total - p) == 1:
            return p, total - p


def _radicand(d: int) -> int:
    """The first prime >= d: Surd construction trial-divides its radicand
    up to its square root, so a prime costs the same for every seed."""
    return oracle.next_prime(d)


def _shuffled_period(rng, a: int, b: int, m: int) -> str:
    digits = ["0"] * (a * m) + ["1"] * (b * m)
    rng.shuffle(digits)
    return "".join(digits)


def _polyline(rng) -> tuple[list, tuple[int, int]]:
    """A geodesic ray from the origin into the closed first quadrant."""
    verts = [(Fraction(0), Fraction(0))]
    for _ in range(rng.randrange(2, 7)):
        den = rng.choice((1, 2, 3, 4))
        dx = Fraction(rng.randrange(0, 4 * den), den)
        dy = Fraction(rng.randrange(0, 4 * den), den)
        if dx == dy == 0:
            dx = Fraction(1)
        verts.append((verts[-1][0] + dx, verts[-1][1] + dy))
    return verts, (rng.randrange(0, 5), rng.randrange(1, 5))


def _poly_literal(verts, direction) -> str:
    body = ";".join(f"{x},{y}" for x, y in verts)
    return f"{body} >{direction[0]}/{direction[1]}"


def build(seed: int, scale: float = 1.0) -> list[tuple]:
    """The seeded specs of one pass; ``scale`` < 1 shrinks every size."""
    rng = rng_for(NAME, seed)

    def span(bounds) -> tuple[int, int]:
        lo, hi = bounds
        return max(2, int(lo * scale)), max(3, int(hi * scale))

    g: dict[str, list[dict]] = {}
    g["literal_rational"] = [dict(zip("pq", _prime_split(rng, n)), quad=rng.randrange(1, 5))
                             for n in istrata(rng, MIX["literal_rational"], *span(RATIONAL_PERIOD))]
    g["digitize_rational"] = []
    for n in istrata(rng, MIX["digitize_rational"], *span(RATIONAL_PERIOD)):
        p, q = _prime_split(rng, n)
        sx, sy = rng.choice(SIGNS)
        g["digitize_rational"].append({"p": p, "q": q, "sx": sx, "sy": sy})
    g["sturmian_far"] = [{"d": _radicand(d), "T": t} for d, t in zip(
        istrata(rng, MIX["sturmian_far"], *STURMIAN_D),
        istrata(rng, MIX["sturmian_far"], *span(STURMIAN_FAR_T)))]
    g["periodic_far"] = []
    for t in istrata(rng, MIX["periodic_far"], *span(PERIODIC_FAR_T)):
        w = rng.randrange(4)
        g["periodic_far"].append({"pre": _digits(rng, rng.randrange(0, 30), w),
                                  "per": _digits(rng, rng.randrange(20, 400), w), "T": t})
    pool = []
    for i, (kind, t) in enumerate(POOL):
        t = max(8, int(t * scale))
        if kind == "sqrt":
            pool.append({"pool": i, "ray": ("sqrt", _radicand(rng.randrange(*STURMIAN_D))), "T": t})
        else:
            pool.append({"pool": i, "ray": ("walk", _digits(rng, rng.randrange(0, 30)),
                                            _mixed_digits(rng, rng.randrange(20, 400))), "T": t})
    g["prefix_reuse"] = [pool[i % len(pool)] for i in range(MIX["prefix_reuse"])]
    g["asym_periodic"] = []
    for target in istrata(rng, MIX["asym_periodic"], *span(PERIODIC_LCM)):
        a, b = _coprime_split(rng, rng.randrange(3, 10))
        m1 = rng.randrange(3, 12)
        m2 = max(2, target // ((a + b) * m1))
        while gcd(m1, m2) != 1:
            m2 += 1
        g["asym_periodic"].append({
            "f": (_digits(rng, rng.randrange(0, 20)), _shuffled_period(rng, a, b, m1)),
            "g": (_digits(rng, rng.randrange(0, 20)), _shuffled_period(rng, a, b, m2))})
    g["asym_sturmian"] = [{"d": _radicand(d), "h": _mixed_digits(rng, rng.randrange(2, 8)), "s": s}
                          for d, s in zip(istrata(rng, MIX["asym_sturmian"], *STURMIAN_D),
                                          istrata(rng, MIX["asym_sturmian"], *span(SPLICE_OFFSET)))]
    g["asym_divergent"] = [{"p": p} for p in
                           istrata(rng, MIX["asym_divergent"], *span(NEAR_PARALLEL_P))]
    g["divergence"] = []
    for h in istrata(rng, MIX["divergence"], 2000, 8000):
        f = (rng.randrange(1, 13), rng.randrange(1, 13))
        while True:
            q = (rng.randrange(1, 13), rng.randrange(1, 13))
            if f[0] * q[1] != f[1] * q[0]:
                break
        g["divergence"].append({"f": f, "g": q, "M": rng.randrange(5, 60),
                                "H": max(8, int(h * scale))})
    g["splice_ball"] = [{"f": (_digits(rng, rng.randrange(0, 10)), _mixed_digits(rng, rng.randrange(2, 12))),
                         "g": (_digits(rng, rng.randrange(0, 10)), _mixed_digits(rng, rng.randrange(2, 12))),
                         "s": s, "K": rng.randrange(20, 200), "eps": rng.randrange(1, 10)}
                        for s in istrata(rng, MIX["splice_ball"], *span((50, 400)))]
    g["trivial_topology"] = [{"f": _mixed_digits(rng, rng.randrange(2, 7)),
                              "g": _mixed_digits(rng, rng.randrange(2, 7)), "b": b}
                             for b in istrata(rng, MIX["trivial_topology"], 5, 40)]
    g["ell1"] = []
    for _ in range(MIX["ell1"]):
        (fv, fd), (gv, gd) = _polyline(rng), _polyline(rng)
        g["ell1"].append({"f": _poly_literal(fv, fd), "g": _poly_literal(gv, gd),
                          "b": str(Fraction(rng.randrange(0, 60), 2))})
    return mix(rng, g)


def _pool_oracle(ray_def):
    if ray_def[0] == "sqrt":
        return oracle.Line.sqrt(ray_def[1])
    return oracle.Walk(ray_def[1], ray_def[2])


def prepare(specs: list[tuple]) -> dict:
    """Build the pooled rays that prefix scans reuse, with their points
    computed once up front (part of set-up)."""
    pool = {}
    for kind, p in specs:
        if kind == "prefix_reuse" and p["pool"] not in pool:
            rd = p["ray"]
            if rd[0] == "sqrt":
                ray = rays.digitize(1, exactnum.sqrt_exact(rd[1]))
            else:
                ray = rays.parse_ray(f"{rd[1]}({rd[2]})")
            ray.points(p["T"])
            pool[p["pool"]] = ray
    return {"pool": pool}


def _check_points(ray_points, own, ts) -> None:
    for t in ts:
        pt = ray_points[t]
        require(abs(pt[0]) + abs(pt[1]) == t, f"point_at({t}) is not at word distance {t}")
        require(tuple(pt) == own.point(t), f"point_at({t}) != staircase oracle")


def _samples(n: int) -> list[int]:
    """Up to 17 evenly spread indices in [0, n]."""
    return sorted({n * i // 16 for i in range(17)})


# -- literals, digitization, boundary values ----------------------------------


def run_literal_rational(ctx, p, tr):
    lit = f"slope:{p['p']}/{p['q']}@{p['quad']}"
    with tr.span("rays.parse_ray"):
        ray = rays.parse_ray(lit)
    with tr.span("rays.validate"):
        ok = rays.validate(ray)
    with tr.span("rays.n_map"):
        value = rays.n_map(ray)
    return ray, ok, value


def check_literal_rational(ctx, p, out):
    ray, ok, value = out
    sx, sy = SIGNS[p["quad"] - 1]
    own = oracle.Line.rational(p["p"], p["q"], sx, sy)
    n = p["p"] + p["q"]
    require(ok, "validate rejected a digitized slope")
    _check_points(ray.points(n), own, _samples(n))
    m = min(own.hdig, own.vdig)
    bits = [d - m for d in own.digits(n)]
    require(value == m + oracle.periodic_value(bits), "n_map != oracle value")


def run_digitize_rational(ctx, p, tr):
    with tr.span("rays.digitize.rational"):
        return rays.digitize(Fraction(p["sx"] * p["p"]), Fraction(p["sy"] * p["q"]))


def check_digitize_rational(ctx, p, ray):
    own = oracle.Line.rational(p["p"], p["q"], p["sx"], p["sy"])
    n = min(256, p["p"] + p["q"])
    require(list(ray.digits(n)) == own.digits(n), "digitize digits != staircase oracle")


# -- point reads --------------------------------------------------------------


def run_sturmian_far(ctx, p, tr):
    with tr.span("exactnum.sqrt_exact"):
        root = exactnum.sqrt_exact(p["d"])
    with tr.span("rays.digitize.sturmian"):
        ray = rays.digitize(1, root)
    with tr.span("rays.point_at.sturmian_far", n=p["T"]):
        pt = ray.point_at(p["T"])
    with tr.span("rays.n_map"):
        enc = rays.n_map(ray)
    return pt, enc


def check_sturmian_far(ctx, p, out):
    pt, enc = out
    own = oracle.Line.sqrt(p["d"])
    t = p["T"]
    require(abs(pt[0]) + abs(pt[1]) == t, f"point_at({t}) is not at word distance {t}")
    # horizontal steps among the first t: floor((t+1) ux), by isqrt
    require(pt[0] == own.horizontal(t), "Sturmian step count != floor((n+1) ux)")
    lo = Fraction(int("".join(map(str, own.digits(64))), 2), 1 << 64)
    require(isinstance(enc, rays.Enclosure) and enc.lo == lo
            and enc.hi == lo + Fraction(1, 1 << 64), "Sturmian n_map enclosure != oracle")


def run_periodic_far(ctx, p, tr):
    with tr.span("rays.parse_ray"):
        ray = rays.parse_ray(f"{p['pre']}({p['per']})")
    with tr.span("rays.point_at.periodic_far", n=p["T"]):
        return ray.point_at(p["T"])


def check_periodic_far(ctx, p, pt):
    t = p["T"]
    require(abs(pt[0]) + abs(pt[1]) == t, f"point_at({t}) is not at word distance {t}")
    require(pt == oracle.Walk(p["pre"], p["per"]).point(t), "periodic far read != oracle")


def run_prefix_reuse(ctx, p, tr):
    ray = ctx["pool"][p["pool"]]
    with tr.span("rays.points.prefix_reuse", n=p["T"]):
        return ray.points(p["T"])


def check_prefix_reuse(ctx, p, pts):
    require(len(pts) == p["T"] + 1, "points() length")
    _check_points(pts, _pool_oracle(p["ray"]), _samples(p["T"]))


# -- classification -----------------------------------------------------------


def _periodic(pre: str, per: str) -> rays.RayCode:
    return rays.parse_ray(f"{pre}({per})").canonical()


def run_asym_periodic(ctx, p, tr):
    with tr.span("rays.parse_ray"):
        f = _periodic(*p["f"])
    with tr.span("rays.parse_ray"):
        g = _periodic(*p["g"])
    with tr.span("rays.are_asymptotic.periodic"):
        return rays.are_asymptotic(f, g)


def check_asym_periodic(ctx, p, verdict):
    wf, wg = oracle.Walk(*p["f"]), oracle.Walk(*p["g"])
    horizon = max(len(p["f"][0]), len(p["g"][0])) + lcm(len(p["f"][1]), len(p["g"][1]))
    sup = max(oracle.l1(wf.point(t), wg.point(t)) for t in range(horizon + 1))
    require(verdict == rays.Asymptotic(sup, attained=True),
            f"periodic verdict {verdict} != Asymptotic({sup}, attained)")


def run_asym_sturmian(ctx, p, tr):
    with tr.span("exactnum.sqrt_exact"):
        root = exactnum.sqrt_exact(p["d"])
    with tr.span("rays.digitize.sturmian"):
        f = rays.digitize(1, root)
    with tr.span("rays.parse_ray"):
        h = _periodic("", p["h"])
    with tr.span("rays.splice"):
        g = rays.splice(h, f, p["s"])
    with tr.span("rays.are_asymptotic.sturmian"):
        verdict = rays.are_asymptotic(g, f)
    return g, verdict


def check_asym_sturmian(ctx, p, out):
    g, verdict = out
    line, walk, s = oracle.Line.sqrt(p["d"]), oracle.Walk("", p["h"]), p["s"]
    # g follows h up to s, then f's steps: beyond s the distance is constant
    sup = max(oracle.l1(walk.point(t), line.point(t)) for t in range(s + 1))
    require(isinstance(verdict, rays.Asymptotic) and not verdict.attained
            and verdict.bound >= sup, f"Sturmian splice verdict {verdict} below sup {sup}")
    hs, fs = walk.point(s), line.point(s)
    for t in (s, s + 1, s + 37):
        ft = line.point(t)
        require(g.point_at(t) == (hs[0] + ft[0] - fs[0], hs[1] + ft[1] - fs[1]),
                "spliced ray off its oracle after the splice time")


def run_asym_divergent(ctx, p, tr):
    with tr.span("rays.parse_ray"):
        f = rays.parse_ray(f"slope:{p['p']}/1@1")
    with tr.span("rays.parse_ray"):
        g = rays.parse_ray(f"slope:{p['p'] - 1}/1@1")
    with tr.span("rays.are_asymptotic.divergent") as sp:
        verdict = rays.are_asymptotic(f, g)
    sp.k = getattr(verdict, "witness_t", 0)
    return verdict


def check_asym_divergent(ctx, p, verdict):
    require(isinstance(verdict, rays.Divergent), f"near-parallel pair gave {verdict}")
    t = verdict.witness_t
    d = oracle.l1(oracle.Line.rational(p["p"], 1).point(t),
                  oracle.Line.rational(p["p"] - 1, 1).point(t))
    require(d == verdict.distance and d > rays.DIVERGENCE_PROBE,
            f"divergent witness re-measures {d}, reported {verdict.distance}")


def run_divergence(ctx, p, tr):
    with tr.span("rays.parse_ray"):
        f = rays.parse_ray("slope:{}/{}@1".format(*p["f"]))
    with tr.span("rays.parse_ray"):
        g = rays.parse_ray("slope:{}/{}@1".format(*p["g"]))
    with tr.span("rays.divergence_time", n=p["H"]):
        return rays.divergence_time(f, g, p["M"], p["H"])


def check_divergence(ctx, p, t):
    lf, lg = oracle.Line.rational(*p["f"]), oracle.Line.rational(*p["g"])
    want = next((u for u in range(p["H"] + 1)
                 if oracle.l1(lf.point(u), lg.point(u)) > p["M"]), None)
    require(t == want, f"divergence_time {t} != oracle {want}")


# -- splice, balls, the demo --------------------------------------------------


def run_splice_ball(ctx, p, tr):
    with tr.span("rays.parse_ray"):
        f = _periodic(*p["f"])
    with tr.span("rays.parse_ray"):
        g = _periodic(*p["g"])
    with tr.span("rays.splice"):
        g_s = rays.splice(f, g, p["s"])
    with tr.span("rays.ball_contains"):
        spliced_in = rays.ball_contains(f, g_s, rays.BallQuery(0, p["s"], 1))
    with tr.span("rays.ball_contains"):
        g_in = rays.ball_contains(f, g, rays.BallQuery(0, p["K"], p["eps"]))
    return g_s, spliced_in, g_in


def check_splice_ball(ctx, p, out):
    g_s, spliced_in, g_in = out
    wf, wg, s = oracle.Walk(*p["f"]), oracle.Walk(*p["g"]), p["s"]
    for t in (0, s // 2, s):
        require(g_s.point_at(t) == wf.point(t), "splice left f before time s")
    fs, gs = wf.point(s), wg.point(s)
    for t in (s + 1, s + 23):
        gt = wg.point(t)
        require(g_s.point_at(t) == (fs[0] + gt[0] - gs[0], fs[1] + gt[1] - gs[1]),
                "splice does not follow g's steps after time s")
    require(spliced_in, "spliced ray outside the ball it was built for")
    want = all(oracle.l1(wf.point(t), wg.point(t)) < p["eps"] for t in range(p["K"] + 1))
    require(g_in == want, "ball_contains != oracle")


def run_trivial_topology(ctx, p, tr):
    f, g = _periodic("", p["f"]), _periodic("", p["g"])
    with tr.span("rays.trivial_topology_demo"):
        return rays.trivial_topology_demo(f, g, rays.BallQuery(0, p["b"], 1))


def check_trivial_topology(ctx, p, demo):
    require(demo.ok and len(demo.chain) == 4, "trivial-topology construction failed")


# -- the taxicab plane ---------------------------------------------------------


def run_ell1(ctx, p, tr):
    with tr.span("ell1.parse_polyline"):
        f = ell1.parse_polyline(p["f"])
    with tr.span("ell1.parse_polyline"):
        g = ell1.parse_polyline(p["g"])
    with tr.span("ell1.check_monotone_commitment"):
        commit = ell1.check_monotone_commitment(f)
    with tr.span("ell1.project_to_lattice"):
        code = ell1.project_to_lattice(f)
    with tr.span("ell1.splice_plane"):
        sp = ell1.splice_plane(f, g, Fraction(p["b"]))
    return commit, code, sp


def _own_polyline(text: str):
    body, d = text.split(">")
    verts = [tuple(Fraction(c) for c in v.split(",")) for v in body.strip().split(";")]
    return verts, tuple(Fraction(c) for c in d.split("/"))


def check_ell1(ctx, p, out):
    commit, code, sp = out
    require(commit is None, "monotone ray reported as retreating")
    for t in range(65):
        x, y = code.point_at(t)
        require(x >= 0 and y >= 0 and x + y == t, "projected staircase is not geodesic")
    b = Fraction(p["b"])
    fb = oracle.polyline_at(*_own_polyline(p["f"]), b)
    gb = oracle.polyline_at(*_own_polyline(p["g"]), b)
    require(sp.handoff_gap == oracle.l1(fb, gb) <= sp.bound, "plane splice gap != oracle")
    verts = sp.path.vertices
    require(verts[0] == (0, 0) and all(a[0] <= c[0] and a[1] <= c[1]
                                       for a, c in zip(verts, verts[1:])),
            "plane splice is not monotone")


KINDS = {
    "literal_rational": (run_literal_rational, check_literal_rational),
    "digitize_rational": (run_digitize_rational, check_digitize_rational),
    "sturmian_far": (run_sturmian_far, check_sturmian_far),
    "periodic_far": (run_periodic_far, check_periodic_far),
    "prefix_reuse": (run_prefix_reuse, check_prefix_reuse),
    "asym_periodic": (run_asym_periodic, check_asym_periodic),
    "asym_sturmian": (run_asym_sturmian, check_asym_sturmian),
    "asym_divergent": (run_asym_divergent, check_asym_divergent),
    "divergence": (run_divergence, check_divergence),
    "splice_ball": (run_splice_ball, check_splice_ball),
    "trivial_topology": (run_trivial_topology, check_trivial_topology),
    "ell1": (run_ell1, check_ell1),
}
