"""Command-line front end.

Every subcommand wraps one library operation or demo and reports through
a common envelope: text by default, or ``{"op", "input", "output"}`` JSON,
or CSV for tabular output. Exit codes: 0 success, 1 assertion or library
failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from functools import partial
from itertools import islice
from typing import Optional

# every subcommand needs lattice; the other modules load in the handlers
# that use them, so a process compiles only what it runs. A handler imports
# rays before ell1, demos or svgfig even where it names only those: rays
# compiled inside another module's import raised a child's peak RSS by
# about 0.6 MB over importing everything up front.
from . import lattice

#: subcommand -> operations it exposes (coverage contract for the tests)
REGISTRY: dict[str, tuple[str, ...]] = {
    "metric": ("lattice.word_metric",),
    "bfs-metric": ("lattice.bfs_metric",),
    "count": ("lattice.geodesic_count",),
    "enumerate": ("lattice.enumerate_geodesics",),
    "is-geodesic": ("lattice.is_geodesic_word",),
    "genset-lipschitz": ("lattice.generating_set_lipschitz",),
    "nmap": ("rays.n_map", "rays.validate"),
    "bmap": ("rays.b_map",),
    "digitize": ("rays.digitize", "rays.digit_at"),
    "direction": ("rays.direction_of",),
    "asymptotic": ("rays.are_asymptotic",),
    "divergence": ("rays.divergence_time",),
    "splice": ("rays.splice", "rays.point_at"),
    "ball": ("rays.ball_contains",),
    "qi-check": ("quasi.check_embedding", "quasi.floor_map",
                 "quasi.quasi_surjectivity_bound"),
    "qi-violate": ("quasi.find_violation",),
    "roundtrip": ("quasi.roundtrip_displacement",),
    "ell1-check": ("ell1.ell1_distance", "ell1.is_geodesic_polyline",
                   "ell1.check_monotone_commitment"),
    "ell1-splice": ("ell1.splice_plane",),
    "project": ("ell1.project_to_lattice",),
    "demo trivial-topology": ("rays.trivial_topology_demo",),
    "demo cardinality": ("demos.demo_cardinality",),
    "demo cone": ("demos.cone_lengths",),
    "render": ("svgfig.Scene",),
}


class CliError(Exception):
    """Library-level failure surfaced with context; exits with code 1."""


def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"bad rational {text!r}: {exc}")


def _count(text: str) -> int:
    """argparse type: a count that is not an integer >= 1 exits with 2."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _box(text: str) -> tuple[Fraction, Fraction]:
    """argparse type: a box "lo,hi" not of two rationals lo <= hi exits with 2."""
    try:
        lo, hi = map(Fraction, text.split(","))
        if lo <= hi:
            return lo, hi
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(
        f"expected two rationals lo,hi with lo <= hi, got {text!r}")


def _fmt(value):
    """JSON-friendly rendering of exact values."""
    if isinstance(value, bool):
        return value
    # a Surd exists only once exactnum is loaded, so never load it here
    exactnum = sys.modules.get(f"{__package__}.exactnum")
    if isinstance(value, Fraction) or (
            exactnum is not None and isinstance(value, exactnum.Surd)):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_fmt(v) for v in value]
    return value


def _parse_gens(text: str) -> lattice.GeneratingSet:
    vecs = []
    for part in text.split(";"):
        vecs.append(lattice.parse_point(part))
    return lattice.GeneratingSet(vecs)


def _parse_ray_arg(text: str) -> rays.RayCode:
    from . import rays
    ray = rays.parse_ray(text).canonical()
    if not rays.validate(ray):
        raise CliError(f"invalid ray literal {text!r}")
    return ray


def _ball_query(args) -> rays.BallQuery:
    from . import rays
    a, b = args.K.split(",")
    return rays.BallQuery(_frac(a), _frac(b), _frac(args.eps))


def _verdict_payload(verdict) -> dict:
    from . import rays
    if isinstance(verdict, rays.Asymptotic):
        return {"kind": "asymptotic", "bound": verdict.bound,
                "attained": verdict.attained}
    if isinstance(verdict, rays.Divergent):
        return {"kind": "divergent", "witness_t": verdict.witness_t,
                "distance": verdict.distance,
                "probe": rays.DIVERGENCE_PROBE}
    return {"kind": "unknown", "horizon": verdict.horizon}


def _emit(args, op: str, inputs: dict, output, text_lines=None,
          csv_rows=None) -> None:
    fmt = args.format
    if fmt == "json":
        payload = json.dumps({"op": op, "input": inputs, "output": output},
                             indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        if csv_rows is None:
            raise CliError(f"subcommand {op!r} has no CSV form")
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        payload = buf.getvalue()
    else:
        if text_lines is None:
            text_lines = [json.dumps(output, sort_keys=True)]
        payload = "\n".join(str(line) for line in text_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code)


def _cmd_metric(args) -> int:
    p, q = lattice.parse_point(args.p), lattice.parse_point(args.q)
    d = lattice.word_metric(p, q)
    _emit(args, "metric", {"p": args.p, "q": args.q}, d, [d])
    return 0


def _cmd_bfs_metric(args) -> int:
    S = _parse_gens(args.gens)
    p, q = lattice.parse_point(args.p), lattice.parse_point(args.q)
    d = lattice.bfs_metric(S, p, q, args.cap)
    out = "exceeded" if d is None else d
    _emit(args, "bfs-metric",
          {"p": args.p, "q": args.q, "gens": args.gens, "cap": args.cap},
          out, [out])
    return 0


def _cmd_count(args) -> int:
    p, q = lattice.parse_point(args.p), lattice.parse_point(args.q)
    n = lattice.geodesic_count(p, q)
    _emit(args, "count", {"p": args.p, "q": args.q}, n, [n])
    return 0


def _cmd_enumerate(args) -> int:
    p, q = lattice.parse_point(args.p), lattice.parse_point(args.q)
    words = lattice.enumerate_geodesics(p, q, args.limit)
    _emit(args, "enumerate",
          {"p": args.p, "q": args.q, "limit": args.limit},
          words, words, csv_rows=[["word"]] + [[w] for w in words])
    return 0


def _cmd_is_geodesic(args) -> int:
    ok = lattice.is_geodesic_word(args.word)
    _emit(args, "is-geodesic", {"word": args.word}, ok, ["true" if ok else "false"])
    return 0


def _cmd_genset_lipschitz(args) -> int:
    S = _parse_gens(args.gens)
    S2 = _parse_gens(args.gens2)
    m, n = lattice.generating_set_lipschitz(S, S2, args.cap)
    _emit(args, "genset-lipschitz",
          {"gens": args.gens, "gens2": args.gens2, "cap": args.cap},
          {"m": m, "n": n}, [f"m={m} n={n}"])
    return 0


def _cmd_nmap(args) -> int:
    from . import rays
    ray = _parse_ray_arg(args.ray)
    val = rays.n_map(ray)
    if isinstance(val, rays.Enclosure):
        out = {"lo": str(val.lo), "hi": str(val.hi)}
        text = [f"[{val.lo}, {val.hi}]"]
    else:
        out = str(val)
        text = [val]
    _emit(args, "nmap", {"ray": args.ray}, out, text)
    return 0


def _cmd_bmap(args) -> int:
    from . import rays
    m = rays._LITERAL.match(args.code.strip())
    if not m:
        raise CliError(f"expected a binary literal like '1(01)', got {args.code!r}")
    val = rays.b_map(m.group(1), m.group(2))
    _emit(args, "bmap", {"code": args.code}, str(val), [val])
    return 0


def _cmd_digitize(args) -> int:
    from . import rays
    ray = rays.digitize(_frac(args.dx), _frac(args.dy))
    prefix = "".join(str(d) for d in ray.digits(args.steps))
    _emit(args, "digitize", {"dx": args.dx, "dy": args.dy},
          {"ray": ray.literal(), "prefix": prefix},
          [ray.literal(), prefix])
    return 0


def _cmd_direction(args) -> int:
    from . import rays
    ray = _parse_ray_arg(args.ray)
    ux, uy = rays.direction_of(ray)
    _emit(args, "direction", {"ray": args.ray},
          {"ux": _fmt(ux), "uy": _fmt(uy)}, [f"({ux}, {uy})"])
    return 0


def _cmd_asymptotic(args) -> int:
    from . import rays
    f = _parse_ray_arg(args.f)
    g = _parse_ray_arg(args.g)
    verdict = rays.are_asymptotic(f, g)
    payload = _verdict_payload(verdict)
    _emit(args, "asymptotic", {"f": args.f, "g": args.g}, payload)
    return 0


def _cmd_divergence(args) -> int:
    from . import rays
    f = _parse_ray_arg(args.f)
    g = _parse_ray_arg(args.g)
    t = rays.divergence_time(f, g, args.M, args.horizon)
    out = "not-found" if t is None else t
    _emit(args, "divergence",
          {"f": args.f, "g": args.g, "M": args.M, "horizon": args.horizon},
          out, [out])
    return 0


def _cmd_splice(args) -> int:
    from . import rays
    f = _parse_ray_arg(args.f)
    g = _parse_ray_arg(args.g)
    result = rays.splice(f, g, args.s)
    pts = [lattice.format_point(result.point_at(t))
           for t in range(min(args.s, 16) + 1)]
    _emit(args, "splice", {"f": args.f, "g": args.g, "s": args.s},
          {"ray": result.literal(), "prefix_points": pts},
          [result.literal()])
    return 0


def _cmd_ball(args) -> int:
    from . import rays
    f = _parse_ray_arg(args.f)
    g = _parse_ray_arg(args.g)
    q = _ball_query(args)
    ok = rays.ball_contains(f, g, q)
    _emit(args, "ball",
          {"center": args.f, "candidate": args.g, "K": args.K, "eps": args.eps},
          ok, ["true" if ok else "false"])
    return 0


def _qi_map(args):
    from . import quasi
    if args.map == "floor":
        return quasi.FloorMap()
    if args.map == "inclusion":
        return quasi.InclusionMap()
    if not args.gens or not args.gens2:
        raise CliError("--map genset needs --gens and --gens2")
    return quasi.GensetMap(_parse_gens(args.gens), _parse_gens(args.gens2),
                           radius_cap=args.cap)


def _qi_params(args) -> quasi.QIParams:
    from . import quasi
    if args.k2 is not None:
        return quasi.QIParams.from_k_squared(_frac(args.k2), _frac(args.c))
    return quasi.QIParams.from_k(_frac(args.k), _frac(args.c))


def _violations_payload(violations) -> list:
    return [{"pair": [[_fmt(c) for c in p] for p in v.pair],
             "side": v.side, "margin": str(v.margin)}
            for v in violations[:16]]


def _cmd_qi_check(args) -> int:
    from . import quasi
    qmap = _qi_map(args)
    params = _qi_params(args)
    if args.map == "genset":
        # product order, streamed: O(count) memory for any radius
        ball = partial(quasi.iter_lattice_ball, args.radius)
        pairs = list(islice(((p, q) for p in ball() for q in ball()),
                            args.count))
    elif args.map == "inclusion":
        # rng.choice reads only len and indices: O(1) memory for any radius
        ball = quasi.LatticeBall(args.radius)
        import random
        rng = random.Random(args.seed)
        pairs = [(rng.choice(ball), rng.choice(ball)) for _ in range(args.count)]
    else:
        pairs = quasi.sample_plane_pairs(args.box, args.count, args.seed)
    report = quasi.check_embedding(qmap, params, pairs)
    if args.map == "floor":
        targets = [quasi.floor_map(p) for p, _ in pairs[:256]]
        surj = quasi.quasi_surjectivity_bound(qmap, targets)
        report.surjectivity_bound = surj.bound
    elif args.map == "inclusion":
        targets = quasi.sample_plane_points(args.box, 256, args.seed + 1)
        surj = quasi.quasi_surjectivity_bound(qmap, targets)
        report.surjectivity_bound = surj.bound
    payload = {
        "map": report.map_name,
        "k": report.params.k_label,
        "k_sq": str(report.params.k_sq),
        "c": str(report.params.c),
        "checked": report.pairs_checked,
        "violations": _violations_payload(report.violations),
        "violation_count": len(report.violations),
        "D": None if report.surjectivity_bound is None
        else str(report.surjectivity_bound),
    }
    _emit(args, "qi-check",
          {"map": args.map, "count": args.count, "seed": args.seed},
          payload)
    return 0 if report.ok else 1


def _cmd_qi_violate(args) -> int:
    from . import quasi
    qmap = _qi_map(args)
    params = _qi_params(args)
    found = quasi.find_violation(qmap, params, args.strategy, args.budget,
                                 seed=args.seed)
    if found is None:
        _emit(args, "qi-violate", {"strategy": args.strategy}, "none", ["none"])
        return 0
    payload = _violations_payload([found])[0]
    _emit(args, "qi-violate", {"strategy": args.strategy}, payload)
    return 0


def _cmd_roundtrip(args) -> int:
    from . import quasi
    samples = quasi.sample_plane_points(args.box, args.count, args.seed)
    report = quasi.roundtrip_displacement(samples)
    payload = {"max_sq_displacement": str(report.max_sq_displacement),
               "argmax": [_fmt(c) for c in report.argmax],
               "samples": report.samples,
               "below_two": report.max_sq_displacement < 2}
    _emit(args, "roundtrip", {"count": args.count, "seed": args.seed}, payload)
    return 0 if report.max_sq_displacement < 2 else 1


def _cmd_ell1_check(args) -> int:
    from . import rays, ell1
    path = ell1.parse_polyline(args.path)
    geodesic = ell1.is_geodesic_polyline(path)
    first = path.vertices[0]
    last = path.vertices[-1]
    payload = {
        "length": str(path.length),
        "endpoint_distance": str(ell1.ell1_distance(first, last)),
        "geodesic": geodesic,
    }
    if first == (Fraction(0), Fraction(0)):
        t = ell1.check_monotone_commitment(path)
        payload["monotone_commitment"] = True if t is None else str(t)
    _emit(args, "ell1-check", {"path": args.path}, payload)
    return 0


def _cmd_ell1_splice(args) -> int:
    from . import rays, ell1
    f = ell1.parse_polyline(args.f)
    g = ell1.parse_polyline(args.g)
    result = ell1.splice_plane(f, g, _frac(args.b))
    payload = {"path": result.path.literal(),
               "bound": str(result.bound),
               "handoff_gap": str(result.handoff_gap)}
    _emit(args, "ell1-splice", {"f": args.f, "g": args.g, "b": args.b}, payload)
    return 0


def _cmd_project(args) -> int:
    from . import rays, ell1
    ray = ell1.parse_polyline(args.path)
    code = ell1.project_to_lattice(ray)
    _emit(args, "project", {"path": args.path}, code.literal(),
          [code.literal()])
    return 0


def _cmd_demo_trivial_topology(args) -> int:
    from . import rays, demos
    f = _parse_ray_arg(args.f)
    g = _parse_ray_arg(args.g)
    q = _ball_query(args)
    report, demo = demos.demo_trivial_topology(f, g, q)
    if args.svg:
        from . import svgfig
        horizon = int(q.b) + 10
        win = _ray_window([demo.f, demo.g, demo.g_s], horizon)
        scene = svgfig.Scene(win)
        for ray, label in ((demo.f, "f"), (demo.g, "g"), (demo.g_s, "g_s")):
            scene.add_path([(float(x), float(y))
                            for x, y in ray.points(horizon)], label)
        scene.write(args.svg)
        report.artifacts.append(args.svg)
    _emit_demo(args, "demo trivial-topology", report,
               extra={"s": demo.s, "g_s": demo.g_s.literal()})
    return 0 if report.ok else 1


def _cmd_demo_cardinality(args) -> int:
    from . import rays, demos
    report, rows = demos.demo_cardinality(args.rays)
    csv_rows = [["ray", "m", "N", "collides_with"]]
    csv_rows += [[r.literal, r.m, r.value, r.collides_with or ""] for r in rows]
    out = {"rows": [{"ray": r.literal, "m": r.m, "N": r.value,
                     "collides_with": r.collides_with} for r in rows],
           "assertions": [a.__dict__ for a in report.assertions]}
    _emit(args, "demo cardinality", report.inputs, out,
          [f"{r.literal}\tm={r.m}\tN={r.value}"
           + (f"\tcollides with {r.collides_with}" if r.collides_with else "")
           for r in rows],
          csv_rows=csv_rows)
    return 0 if report.ok else 1


def _cmd_demo_cone(args) -> int:
    from . import rays, demos
    report = demos.demo_cone(_frac(args.eps))
    _emit_demo(args, "demo cone", report)
    return 0 if report.ok else 1


def _emit_demo(args, op: str, report, extra: Optional[dict] = None) -> None:
    out = {"assertions": [a.__dict__ for a in report.assertions],
           "artifacts": report.artifacts,
           "ok": report.ok}
    if extra:
        out.update(extra)
    lines = [f"{'PASS' if a.passed else 'FAIL'} {a.name}: "
             f"expected {a.expected}, got {a.actual}"
             for a in report.assertions]
    lines.append("OK" if report.ok else "FAILED")
    _emit(args, op, report.inputs, out, lines)


def _ray_window(ray_list, horizon: int) -> tuple[float, float, float, float]:
    xs, ys = [0.0], [0.0]
    for ray in ray_list:
        for x, y in ray.points(horizon):
            xs.append(float(x))
            ys.append(float(y))
    return (min(xs), max(xs) + 1, min(ys), max(ys) + 1)


def _cmd_render(args) -> int:
    from . import rays, svgfig
    ray_list = [_parse_ray_arg(lit) for lit in args.rays]
    win = _ray_window(ray_list, args.steps)
    scene = svgfig.Scene(win)
    for i, (lit, ray) in enumerate(zip(args.rays, ray_list)):
        scene.add_path([(float(x), float(y)) for x, y in ray.points(args.steps)],
                       label=lit)
    if args.with_line:
        for ray in ray_list:
            ux, uy = ray.direction()
            scene.add_ray_line((float(ux), float(uy)), color="#999999")
    if not args.out:
        raise CliError("render needs --out PATH")
    scene.write(args.out)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    # the global flags are accepted both before and after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "csv", "text"),
                        default=argparse.SUPPRESS)
    common.add_argument("--out", default=argparse.SUPPRESS,
                        help="write output to a file")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="gridrays",
        description="Exact computations on the grid's geodesic rays, "
                    "boundary codes, and quasi-isometries.")
    parser.add_argument("--format", choices=("json", "csv", "text"),
                        default="text")
    parser.add_argument("--out", default=None, help="write output to a file")
    parser.add_argument("--seed", type=int, default=0)
    subaction = parser.add_subparsers(dest="command", required=True)

    class _Sub:
        def __init__(self, action):
            self._action = action

        def add_parser(self, name, **kwargs):
            return self._action.add_parser(name, parents=[common], **kwargs)

    sub = _Sub(subaction)

    p = sub.add_parser("metric", help="word metric between two points")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=_cmd_metric)

    p = sub.add_parser("bfs-metric", help="BFS distance under any generators")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--gens", default="1,0;0,1", help="semicolon-separated vectors")
    p.add_argument("--cap", type=_count, default=64)
    p.set_defaults(func=_cmd_bfs_metric)

    p = sub.add_parser("count", help="number of geodesics between two points")
    p.add_argument("p")
    p.add_argument("q")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("enumerate", help="list geodesic words in lex order")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--limit", type=_count, default=None)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("is-geodesic", help="check a digit word for backtracking")
    p.add_argument("word")
    p.set_defaults(func=_cmd_is_geodesic)

    p = sub.add_parser("genset-lipschitz",
                       help="bi-Lipschitz constants between two word metrics")
    p.add_argument("--gens", required=True)
    p.add_argument("--gens2", required=True)
    p.add_argument("--cap", type=_count, default=64)
    p.set_defaults(func=_cmd_genset_lipschitz)

    p = sub.add_parser("nmap", help="boundary value N of a ray")
    p.add_argument("ray")
    p.set_defaults(func=_cmd_nmap)

    p = sub.add_parser("bmap", help="value of a binary expansion literal")
    p.add_argument("code")
    p.set_defaults(func=_cmd_bmap)

    p = sub.add_parser("digitize", help="staircase ray of a direction")
    p.add_argument("dx")
    p.add_argument("dy")
    p.add_argument("--steps", type=_count, default=24)
    p.set_defaults(func=_cmd_digitize)

    p = sub.add_parser("direction", help="limiting direction of a ray")
    p.add_argument("ray")
    p.set_defaults(func=_cmd_direction)

    p = sub.add_parser("asymptotic", help="classify a pair of rays")
    p.add_argument("f")
    p.add_argument("g")
    p.set_defaults(func=_cmd_asymptotic)

    p = sub.add_parser("divergence", help="first time the distance exceeds M")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--M", type=int, default=10)
    p.add_argument("--horizon", type=int, default=1000)
    p.set_defaults(func=_cmd_divergence)

    p = sub.add_parser("splice", help="follow f for s steps, then g")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("s", type=int)
    p.set_defaults(func=_cmd_splice)

    p = sub.add_parser("ball", help="basis-ball membership")
    p.add_argument("f", help="center ray")
    p.add_argument("g", help="candidate ray")
    p.add_argument("--K", required=True, help="compact interval a,b")
    p.add_argument("--eps", required=True, help="radius as a rational")
    p.set_defaults(func=_cmd_ball)

    for name, func in (("qi-check", _cmd_qi_check),
                       ("qi-violate", _cmd_qi_violate)):
        p = sub.add_parser(name)
        p.add_argument("--map", default="floor",
                       choices=("floor", "inclusion", "genset"))
        p.add_argument("--k", default="2")
        p.add_argument("--k2", default=None,
                       help="k squared, for irrational constants")
        p.add_argument("--c", default="2")
        p.add_argument("--gens")
        p.add_argument("--gens2")
        p.add_argument("--cap", type=_count, default=64)
        if name == "qi-check":
            p.add_argument("--box", type=_box, default="-1000,1000",
                           help="sampling box lo,hi")
            p.add_argument("--count", type=_count, default=1000)
            p.add_argument("--radius", type=_count, default=10)
        else:
            p.add_argument("--strategy", default="diagonal-ray",
                           choices=("diagonal-ray", "grid", "random"))
            p.add_argument("--budget", type=_count, default=1000)
        p.set_defaults(func=func)

    p = sub.add_parser("roundtrip", help="displacement of floor-then-include")
    p.add_argument("--box", type=_box, default="-1000,1000")
    p.add_argument("--count", type=_count, default=1000)
    p.set_defaults(func=_cmd_roundtrip)

    p = sub.add_parser("ell1-check", help="taxicab geodesy of a polyline")
    p.add_argument("path")
    p.set_defaults(func=_cmd_ell1_check)

    p = sub.add_parser("ell1-splice", help="plane splice of two rays")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("b")
    p.set_defaults(func=_cmd_ell1_splice)

    p = sub.add_parser("project", help="lattice staircase of a plane ray")
    p.add_argument("path")
    p.set_defaults(func=_cmd_project)

    demo = _Sub(sub.add_parser("demo").add_subparsers(dest="demo",
                                                      required=True))

    p = demo.add_parser("trivial-topology")
    p.add_argument("--f", default="(01)")
    p.add_argument("--g", default="(001)")
    p.add_argument("--K", default="0,5")
    p.add_argument("--eps", default="1")
    p.add_argument("--svg", default=None, help="also write a figure here")
    p.set_defaults(func=_cmd_demo_trivial_topology)

    p = demo.add_parser("cardinality")
    p.add_argument("rays", nargs="*", default=["(0)", "(23)", "(1)"])
    p.set_defaults(func=_cmd_demo_cardinality)

    p = demo.add_parser("cone")
    p.add_argument("--eps", default="1")
    p.set_defaults(func=_cmd_demo_cone)

    p = sub.add_parser("render", help="draw rays as an SVG staircase figure")
    p.add_argument("rays", nargs="+")
    p.add_argument("--steps", type=int, default=30)
    p.add_argument("--with-line", action="store_true")
    p.set_defaults(func=_cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, lattice.BallExceeded, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
