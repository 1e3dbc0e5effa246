"""qi-certify: the certificate jobs behind ``qi-check``, ``qi-violate`` and
``roundtrip``, run in process.

``quasi`` and ``lattice`` do nearly all of the work here and ``rays``
none. One op is one certificate job with one verdict: a checked batch of
pairs, a roundtrip/surjectivity probe, a generating-set comparison or a
violation search.
"""

from __future__ import annotations

from fractions import Fraction

from gridrays import lattice, quasi

import oracle
from common import istrata, mix, require, rng_for, strata

NAME = "qi-certify"
BOX = (Fraction(-1000), Fraction(1000))

# Sizes of one pass (about 0.8 s on a 2-core 2.x GHz machine), chosen so
# that each family is a visible share of the pass and no op runs past
# about 0.1 s:
#  - floor batches of 200 pairs (~35 us/pair) take 12-18 ms; they are
#    the common case, and the 12 passing batches (with the chain check)
#    span the middle of the latency ranks, so the median falls inside
#    them. At k = 7/5 about 16% of pairs violate, so the checker also
#    builds Violation records.
#  - inclusion at k^2 = 2 costs ~0.1 ms/pair; 100 pairs ~10 ms.
#  - inclusion at a 7-8 digit prime k^2 re-factors k^2 on every Surd op,
#    ~1-6 ms/pair growing with sqrt(k^2); 8 pairs keep an op under
#    ~50 ms while the family is ~25% of the pass (the known-slow case).
#  - genset jobs build a generating set, run BFS to radius 48 (5-7k
#    nodes) and check 100 pairs, 20-40 ms.
#  - diagonal violation scans need n* in [100, 1200] pairs (~35 us each);
#    the k = 3/2 scan finds nothing and runs its whole budget.
FLOOR_PAIRS = 200
INCLUSION_SMALL_PAIRS = 100
INCLUSION_LARGE_PAIRS = 8
LARGE_K2_LOG10 = (6.3, 7.7)  # 7- and 8-digit primes, 2e6 to 5e7
GENSET_PAIRS = 100
GENSET_CAP = 48
ROUNDTRIP_POINTS = 400
SURJ_TARGETS = 128
#: non-standard generating sets; a pass uses each once
GENSETS = (
    ((1, 0), (1, 1)),
    ((1, 0), (0, 1), (1, -1)),
    ((3, 1), (2, 1)),
    ((1, 1), (1, 2)),
)
MIX = {"floor_pass": 12, "floor_violate": 6, "roundtrip": 4,
       "inclusion_small": 4, "inclusion_large": 6, "genset": len(GENSETS),
       "find_violation": 4}


def _ball(radius: int) -> list[tuple[int, int]]:
    return [(x, y) for x in range(-radius, radius + 1)
            for y in range(-radius + abs(x), radius - abs(x) + 1)]


def _lattice_pairs(rng, radius: int, count: int) -> list:
    ball = _ball(radius)
    return [(rng.choice(ball), rng.choice(ball)) for _ in range(count)]


def build(seed: int, scale: float = 1.0) -> list[tuple]:
    """The seeded specs of one pass; ``scale`` < 1 shrinks every size."""
    rng = rng_for(NAME, seed)

    def sz(n: int) -> int:
        return max(1, int(n * scale))

    g: dict[str, list[dict]] = {}
    g["floor_pass"] = [{"seed": rng.randrange(1 << 30), "pairs": sz(FLOOR_PAIRS)}
                       for _ in range(MIX["floor_pass"])]
    g["floor_violate"] = [{"seed": rng.randrange(1 << 30), "pairs": sz(FLOOR_PAIRS)}
                          for _ in range(MIX["floor_violate"])]
    g["roundtrip"] = [{"seed": rng.randrange(1 << 30), "points": sz(ROUNDTRIP_POINTS),
                       "targets": sz(SURJ_TARGETS)} for _ in range(MIX["roundtrip"])]
    g["inclusion_small"] = [{"k2": 2, "pairs": _lattice_pairs(rng, 10, sz(INCLUSION_SMALL_PAIRS))}
                            for _ in range(MIX["inclusion_small"])]
    lo, hi = LARGE_K2_LOG10
    g["inclusion_large"] = [{"k2": oracle.next_prime(int(10 ** e * scale) + 2),
                             "pairs": _lattice_pairs(rng, 10, sz(INCLUSION_LARGE_PAIRS))}
                            for e in strata(rng, MIX["inclusion_large"], lo, hi)]
    g["genset"] = [{"gens": gens,
                    "pairs": _lattice_pairs(rng, 4, sz(GENSET_PAIRS)),
                    "targets": [p for p, _ in _lattice_pairs(rng, 8, 3)]}
                   for gens in GENSETS]
    # k just above sqrt(2)(1 - 1/m) first fails on the diagonal near n = m
    scans = [{"k": (int(2 ** 0.5 * (1 - 1 / m) * 10 ** 4) + 1, 10 ** 4),
              "budget": sz(1500)}
             for m in istrata(rng, MIX["find_violation"] - 1, 100, 1200)]
    scans.append({"k": (3, 2), "budget": sz(istrata(rng, 1, 200, 600)[0])})
    g["find_violation"] = scans
    return mix(rng, g)


def prepare(specs: list[tuple]) -> dict:
    """Oracle BFS tables and Lipschitz constants per generating set."""
    ctx = {"bfs": {}, "lip": {}}
    std = ((1, 0), (0, 1))
    for kind, p in specs:
        if kind == "genset" and p["gens"] not in ctx["bfs"]:
            table = oracle.bfs_table(p["gens"], GENSET_CAP)
            ctx["bfs"][p["gens"]] = table
            m = max(table[s] for s in oracle.symmetric(std))
            n = max(oracle.l1((0, 0), s) for s in oracle.symmetric(p["gens"]))
            ctx["lip"][p["gens"]] = (m, n)
    return ctx


# -- floor-map batches --------------------------------------------------------


def _floor_batch(p, tr, params, chain: bool):
    with tr.span("quasi.sample_plane_pairs", n=p["pairs"]):
        pairs = quasi.sample_plane_pairs(BOX, p["pairs"], p["seed"])
    with tr.span("quasi.check_embedding.floor", n=len(pairs)) as sp:
        report = quasi.check_embedding(quasi.FloorMap(), params, pairs)
    sp.k = len(report.violations)
    holds = []
    if chain:
        for a, b in pairs:
            with tr.span("quasi.floor_chain_holds"):
                holds.append(quasi.floor_chain_holds(a, b))
    return pairs, report, holds


def run_floor_pass(ctx, p, tr):
    return _floor_batch(p, tr, quasi.QIParams.from_k(2, 2), chain=True)


def check_floor_pass(ctx, p, out):
    pairs, report, holds = out
    require(len(pairs) == p["pairs"] and report.pairs_checked == p["pairs"],
            "floor batch size")
    require(report.violations == [], "k=2 floor map reported a violation")
    require(oracle.floor_violations(pairs, Fraction(4), Fraction(2)) == [],
            "oracle found a k=2 violation")
    require(all(holds) and len(holds) == len(pairs), "floor chain failed")


def run_floor_violate(ctx, p, tr):
    return _floor_batch(p, tr, quasi.QIParams.from_k(Fraction(7, 5), 2), chain=False)


def check_floor_violate(ctx, p, out):
    pairs, report, _ = out
    require(report.pairs_checked == len(pairs) == p["pairs"], "floor batch size")
    got = [(v.pair, v.side, v.margin) for v in report.violations]
    want = oracle.floor_violations(pairs, Fraction(49, 25), Fraction(2))
    require(got == want, f"k=7/5 violations {len(got)} != oracle {len(want)}")


# -- roundtrip and surjectivity -----------------------------------------------


def run_roundtrip(ctx, p, tr):
    with tr.span("quasi.sample_plane_points", n=p["points"]):
        samples = quasi.sample_plane_points(BOX, p["points"], p["seed"])
    with tr.span("quasi.roundtrip_displacement", n=len(samples)):
        rt = quasi.roundtrip_displacement(samples)
    targets = samples[: p["targets"]]
    with tr.span("quasi.quasi_surjectivity_bound", n=len(targets)):
        incl = quasi.quasi_surjectivity_bound(quasi.InclusionMap(), targets)
    lattice_targets = [(oracle.ffloor(x), oracle.ffloor(y)) for x, y in targets]
    with tr.span("quasi.quasi_surjectivity_bound", n=len(lattice_targets)):
        flo = quasi.quasi_surjectivity_bound(quasi.FloorMap(), lattice_targets)
    return samples, rt, targets, incl, flo


def check_roundtrip(ctx, p, out):
    samples, rt, targets, incl, flo = out
    want = max(oracle.cell_sq(s) for s in samples)
    require(rt.samples == p["points"] == len(samples), "roundtrip sample count")
    require(rt.max_sq_displacement == want, "roundtrip max displacement != oracle")
    require(want < 2, "roundtrip squared displacement >= 2")
    near = max(oracle.nearest_lattice_sq(t) for t in targets)
    require(incl.bound == 1 and incl.max_sq_distance == near < 1,
            "inclusion surjectivity != oracle")
    require(flo.bound == 1 and flo.targets == len(targets), "floor surjectivity")


# -- inclusion maps -----------------------------------------------------------


def _inclusion(p, tr, case):
    params = quasi.QIParams.from_k_squared(p["k2"], 0)
    with tr.span(f"quasi.check_embedding.{case}", n=len(p["pairs"])) as sp:
        report = quasi.check_embedding(quasi.InclusionMap(), params, p["pairs"])
    sp.k = len(report.violations)
    return report


def run_inclusion_small(ctx, p, tr):
    return _inclusion(p, tr, "inclusion_small_k2")


def run_inclusion_large(ctx, p, tr):
    return _inclusion(p, tr, "inclusion_large_k2")


def check_inclusion(ctx, p, report):
    # l2 <= l1 <= sqrt(2) l2, so k^2 >= 2 with c = 0 never fails
    require(report.pairs_checked == len(p["pairs"]), "inclusion batch size")
    require(report.violations == [], f"inclusion k^2={p['k2']} reported a violation")


# -- generating sets ----------------------------------------------------------


def run_genset(ctx, p, tr):
    with tr.span("lattice.GeneratingSet"):
        S = lattice.GeneratingSet([(1, 0), (0, 1)])
    with tr.span("lattice.GeneratingSet"):
        S2 = lattice.GeneratingSet(p["gens"])
    with tr.span("lattice.generating_set_lipschitz"):
        mn = lattice.generating_set_lipschitz(S, S2, GENSET_CAP)
    with tr.span("lattice.bfs_distances") as sp:
        table = lattice.bfs_distances(S2, GENSET_CAP)
    sp.n = len(table)
    dists = []
    for t in p["targets"]:
        with tr.span("lattice.bfs_metric"):
            dists.append(lattice.bfs_metric(S2, (0, 0), t, GENSET_CAP))
    params = quasi.QIParams.from_k(max(mn), 0)
    qmap = quasi.GensetMap(S, S2, radius_cap=GENSET_CAP)
    with tr.span("quasi.check_embedding.genset", n=len(p["pairs"])) as sp:
        report = quasi.check_embedding(qmap, params, p["pairs"])
    sp.k = len(report.violations)
    return S2, mn, table, dists, report


def check_genset(ctx, p, out):
    S2, mn, table, dists, report = out
    want = ctx["bfs"][p["gens"]]
    require(S2.vectors == oracle.symmetric(p["gens"]), "generating set closure")
    require(tuple(mn) == ctx["lip"][p["gens"]], "Lipschitz constants != oracle")
    require(table == want, "BFS table != oracle")
    require(dists == [want.get(t) for t in p["targets"]], "bfs_metric != oracle")
    # d_S2 <= m d_S and d_S <= n d_S2, so k = max(m, n), c = 0 holds
    require(report.pairs_checked == len(p["pairs"]) and report.violations == [],
            "genset certificate failed")


# -- violation search ---------------------------------------------------------


def run_find_violation(ctx, p, tr):
    params = quasi.QIParams.from_k(Fraction(*p["k"]), 2)
    with tr.span("quasi.find_violation") as sp:
        found = quasi.find_violation(quasi.FloorMap(), params, "diagonal-ray",
                                     p["budget"])
    # pairs scanned: the witness index on the diagonal, else the budget
    sp.n = int(found.pair[1][0]) if found is not None else p["budget"]
    return found


def check_find_violation(ctx, p, found):
    k = Fraction(*p["k"])
    want = oracle.first_diagonal_violation(k * k, Fraction(2), p["budget"])
    if want is None:
        require(found is None, "violation reported where the oracle finds none")
        return
    require(found is not None, f"missed the diagonal violation at n={want[0]}")
    require((found.pair, found.side, found.margin) == want[1],
            "diagonal witness != oracle")


KINDS = {
    "floor_pass": (run_floor_pass, check_floor_pass),
    "floor_violate": (run_floor_violate, check_floor_violate),
    "roundtrip": (run_roundtrip, check_roundtrip),
    "inclusion_small": (run_inclusion_small, check_inclusion),
    "inclusion_large": (run_inclusion_large, check_inclusion),
    "genset": (run_genset, check_genset),
    "find_violation": (run_find_violation, check_find_violation),
}
