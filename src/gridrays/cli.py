"""Command-line front end.

Every subcommand wraps one library operation or demo and reports through
a common envelope: text by default, or ``{"op", "input", "output"}`` JSON,
or CSV for tabular output. Exit codes: 0 success, 1 assertion or library
failure, 2 usage error. Each subcommand is one row of ``COMMANDS``; the
parser, ``REGISTRY`` and the envelope's ``op`` are derived from it.
"""

from __future__ import annotations

import argparse
import io
import re
import sys
from itertools import islice
from math import ceil, floor
from typing import Optional

# every subcommand needs lattice; the other modules, json and fractions
# load where they are used, so a process loads only what it runs. A handler
# imports rays before ell1, demos or svgfig even where it names only those:
# rays compiled inside another module's import raised a child's peak RSS by
# about 0.6 MB over importing everything up front.
from . import lattice


class CliError(Exception):
    """Library-level failure surfaced with context; exits with code 1."""


def _frac(text: str) -> Fraction:
    from fractions import Fraction
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
    """argparse type: a box "lo,hi" not of two rationals with an integer
    between them exits with 2. A box with an integer has a numerator for
    every sampled denominator, so the sampler never meets an empty row."""
    from fractions import Fraction
    try:
        lo, hi = map(Fraction, text.split(","))
        if ceil(lo) <= floor(hi):
            return lo, hi
    except (ValueError, ZeroDivisionError):
        pass
    raise argparse.ArgumentTypeError(
        f"expected two rationals lo,hi with an integer between them, "
        f"got {text!r}")


def _fmt(value):
    """JSON-friendly rendering of exact values."""
    if isinstance(value, bool):
        return value
    # a Fraction or a Surd exists only once its module is loaded, so never
    # load one here
    fractions = sys.modules.get("fractions")
    exactnum = sys.modules.get(f"{__package__}.exactnum")
    if (fractions is not None and isinstance(value, fractions.Fraction)) or (
            exactnum is not None and isinstance(value, exactnum.Surd)):
        return str(value)
    if isinstance(value, (tuple, list)):
        return [_fmt(v) for v in value]
    return value


def _parse_gens(text: str) -> lattice.GeneratingSet:
    return lattice.GeneratingSet(map(lattice.parse_point, text.split(";")))


def _parse_ray_arg(text: str) -> rays.RayCode:
    from . import rays
    ray = rays.parse_ray(text).canonical()
    if not rays.validate(ray):
        raise CliError(f"invalid ray literal {text!r}")
    return ray


def _ball_query(args) -> rays.BallQuery:
    from . import rays
    try:
        a, b = args.K.split(",")
    except ValueError:
        raise CliError(f"--K expects two rationals a,b, got {args.K!r}") from None
    return rays.BallQuery(_frac(a), _frac(b), _frac(args.eps))


def _verdict_payload(verdict) -> dict:
    from . import rays
    if isinstance(verdict, rays.Asymptotic):
        return {"kind": "asymptotic", "bound": verdict.bound,
                "attained": verdict.attained}
    return {"kind": "divergent", "witness_t": verdict.witness_t,
            "distance": verdict.distance, "probe": rays.DIVERGENCE_PROBE}


def _emit(args, inputs: dict, output, text_lines=None, csv_rows=None) -> None:
    fmt = args.format
    if fmt == "json":
        import json
        payload = json.dumps({"op": args.op, "input": inputs, "output": output},
                             indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":  # main refused the rows with no CSV form
        import csv
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows:
            writer.writerow(row)
        payload = buf.getvalue()
    else:
        if text_lines is None:
            import json
            text_lines = [json.dumps(output, sort_keys=True)]
        payload = "\n".join(str(line) for line in text_lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# subcommand handlers (each returns an exit code)


def _cmd_point_pair(args, func) -> int:
    """Prints ``func(p, q)``, an integer, for the points p and q."""
    n = func(lattice.parse_point(args.p), lattice.parse_point(args.q))
    _emit(args, {"p": args.p, "q": args.q}, n, [n])
    return 0


def _cmd_bfs_metric(args) -> int:
    S = _parse_gens(args.gens)
    p, q = lattice.parse_point(args.p), lattice.parse_point(args.q)
    d = lattice.bfs_metric(S, p, q, args.cap)
    out = "exceeded" if d is None else d
    _emit(args, {"p": args.p, "q": args.q, "gens": args.gens,
                 "cap": args.cap}, out, [out])
    return 0


def _cmd_enumerate(args) -> int:
    p, q = lattice.parse_point(args.p), lattice.parse_point(args.q)
    words = lattice.enumerate_geodesics(p, q, args.limit)
    _emit(args, {"p": args.p, "q": args.q, "limit": args.limit},
          words, words, csv_rows=[["word"]] + [[w] for w in words])
    return 0


def _cmd_is_geodesic(args) -> int:
    ok = lattice.is_geodesic_word(args.word)
    _emit(args, {"word": args.word}, ok, ["true" if ok else "false"])
    return 0


def _cmd_genset_lipschitz(args) -> int:
    S = _parse_gens(args.gens)
    S2 = _parse_gens(args.gens2)
    m, n = lattice.generating_set_lipschitz(S, S2, args.cap)
    _emit(args, {"gens": args.gens, "gens2": args.gens2, "cap": args.cap},
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
    _emit(args, {"ray": args.ray}, out, text)
    return 0


def _cmd_bmap(args) -> int:
    from . import rays
    m = rays._LITERAL.match(args.code.strip())
    if not m:
        raise CliError(f"expected a binary literal like '1(01)', got {args.code!r}")
    val = rays.b_map(m.group(1), m.group(2))
    _emit(args, {"code": args.code}, str(val), [val])
    return 0


def _cmd_digitize(args) -> int:
    from . import rays
    ray = rays.digitize(_frac(args.dx), _frac(args.dy))
    prefix = rays._text(ray.digits(args.steps))
    _emit(args, {"dx": args.dx, "dy": args.dy},
          {"ray": ray.literal(), "prefix": prefix}, [ray.literal(), prefix])
    return 0


def _cmd_direction(args) -> int:
    from . import rays
    ray = _parse_ray_arg(args.ray)
    ux, uy = rays.direction_of(ray)
    _emit(args, {"ray": args.ray}, {"ux": _fmt(ux), "uy": _fmt(uy)},
          [f"({ux}, {uy})"])
    return 0


def _cmd_asymptotic(args) -> int:
    from . import rays
    f = _parse_ray_arg(args.f)
    g = _parse_ray_arg(args.g)
    verdict = rays.are_asymptotic(f, g)
    payload = _verdict_payload(verdict)
    _emit(args, {"f": args.f, "g": args.g}, payload)
    return 0


def _cmd_divergence(args) -> int:
    from . import rays
    f = _parse_ray_arg(args.f)
    g = _parse_ray_arg(args.g)
    t = rays.divergence_time(f, g, args.M, args.horizon)
    out = "not-found" if t is None else t
    _emit(args, {"f": args.f, "g": args.g, "M": args.M,
                 "horizon": args.horizon}, out, [out])
    return 0


def _cmd_splice(args) -> int:
    from . import rays
    f = _parse_ray_arg(args.f)
    g = _parse_ray_arg(args.g)
    result = rays.splice(f, g, args.s)
    pts = [lattice.format_point(result.point_at(t))
           for t in range(min(args.s, 16) + 1)]
    _emit(args, {"f": args.f, "g": args.g, "s": args.s},
          {"ray": result.literal(), "prefix_points": pts},
          [result.literal()])
    return 0


def _cmd_ball(args) -> int:
    from . import rays
    f = _parse_ray_arg(args.f)
    g = _parse_ray_arg(args.g)
    q = _ball_query(args)
    ok = rays.ball_contains(f, g, q)
    _emit(args, {"center": args.f, "candidate": args.g, "K": args.K,
                 "eps": args.eps}, ok, ["true" if ok else "false"])
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
            for v in violations]


def _cmd_qi_check(args) -> int:
    from . import quasi
    qmap = _qi_map(args)
    params = _qi_params(args)
    strategy = "grid" if args.map == "genset" else "random"
    pairs = islice(quasi.iter_pairs(qmap, strategy, args.seed, args.box,
                                    args.radius), args.count)
    # 256 pairs at a time (4,096 raised a passing run's peak RSS), keeping
    # only the violations printed and their count
    checked, shown, violation_count = 0, [], 0
    while chunk := list(islice(pairs, 256)):
        found = quasi.check_embedding(qmap, params, chunk).violations
        checked += len(chunk)
        violation_count += len(found)
        shown += found[:16 - len(shown)]
    # the surjectivity bound D by rule: the floor map is onto the grid, and
    # every plane point lies within sqrt(1/2) of the lattice; genset has none
    D = None if args.map == "genset" else "1"
    payload = {
        "map": qmap.name,
        "k": params.k_label,
        "k_sq": str(params.k_sq),
        "c": str(params.c),
        "checked": checked,
        "violations": _violations_payload(shown),
        "violation_count": violation_count,
        "D": D,
    }
    _emit(args, {"map": args.map, "count": args.count, "seed": args.seed}, payload)
    return 0 if violation_count == 0 else 1


def _cmd_qi_violate(args) -> int:
    from . import quasi
    qmap = _qi_map(args)
    params = _qi_params(args)
    found = quasi.find_violation(qmap, params, args.strategy, args.budget,
                                 seed=args.seed)
    if found is None:
        _emit(args, {"strategy": args.strategy}, "none", ["none"])
        return 0
    payload = _violations_payload([found])[0]
    _emit(args, {"strategy": args.strategy}, payload)
    return 0


def _cmd_roundtrip(args) -> int:
    from . import quasi
    report = quasi.roundtrip_displacement(
        islice(quasi._plane_points(args.box, args.seed), args.count))
    payload = {"max_sq_displacement": str(report.max_sq_displacement),
               "argmax": [_fmt(c) for c in report.argmax],
               "samples": report.samples,
               "below_two": report.max_sq_displacement < 2}
    _emit(args, {"count": args.count, "seed": args.seed}, payload)
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
    if first == (0, 0):
        t = ell1.check_monotone_commitment(path)
        payload["monotone_commitment"] = True if t is None else str(t)
    _emit(args, {"path": args.path}, payload)
    return 0


def _cmd_ell1_splice(args) -> int:
    from . import rays, ell1
    f = ell1.parse_polyline(args.f)
    g = ell1.parse_polyline(args.g)
    result = ell1.splice_plane(f, g, _frac(args.b))
    payload = {"path": result.path.literal(),
               "bound": str(result.bound),
               "handoff_gap": str(result.handoff_gap)}
    _emit(args, {"f": args.f, "g": args.g, "b": args.b}, payload)
    return 0


def _cmd_project(args) -> int:
    from . import rays, ell1
    ray = ell1.parse_polyline(args.path)
    code = ell1.project_to_lattice(ray)
    _emit(args, {"path": args.path}, code.literal(), [code.literal()])
    return 0


def _cmd_demo_trivial_topology(args) -> int:
    from . import rays, demos
    f = _parse_ray_arg(args.f)
    g = _parse_ray_arg(args.g)
    q = _ball_query(args)
    report, demo = demos.demo_trivial_topology(f, g, q)
    if args.svg:
        _ray_scene([(demo.f, "f"), (demo.g, "g"), (demo.g_s, "g_s")],
                   int(q.b) + 10).write(args.svg)
        report.artifacts.append(args.svg)
    _emit_demo(args, report, extra={"s": demo.s, "g_s": demo.g_s.literal()})
    return 0 if report.ok else 1


def _cmd_demo_cardinality(args) -> int:
    from . import rays, demos
    report, rows = demos.demo_cardinality(args.rays)
    csv_rows = [["ray", "m", "N", "collides_with"]]
    csv_rows += [[r.literal, r.m, r.value, r.collides_with or ""] for r in rows]
    out = {"rows": [{"ray": r.literal, "m": r.m, "N": r.value,
                     "collides_with": r.collides_with} for r in rows],
           "assertions": [a._fields() for a in report.assertions]}
    _emit(args, report.inputs, out,
          [f"{r.literal}\tm={r.m}\tN={r.value}"
           + (f"\tcollides with {r.collides_with}" if r.collides_with else "")
           for r in rows],
          csv_rows=csv_rows)
    return 0 if report.ok else 1


def _cmd_demo_cone(args) -> int:
    from . import rays, demos
    report = demos.demo_cone(_frac(args.eps))
    _emit_demo(args, report)
    return 0 if report.ok else 1


def _emit_demo(args, report, extra: Optional[dict] = None) -> None:
    out = {"assertions": [a._fields() for a in report.assertions],
           "artifacts": report.artifacts,
           "ok": report.ok}
    if extra:
        out.update(extra)
    lines = [f"{'PASS' if a.passed else 'FAIL'} {a.name}: "
             f"expected {a.expected}, got {a.actual}"
             for a in report.assertions]
    lines.append("OK" if report.ok else "FAILED")
    _emit(args, report.inputs, out, lines)


def _ray_scene(labelled, steps: int) -> svgfig.Scene:
    """A scene of each (ray, label) pair's first ``steps`` steps, its window
    spanning those points and the origin."""
    from . import svgfig
    paths = [([(float(x), float(y)) for x, y in ray.points(steps)], label)
             for ray, label in labelled]
    xs = [0.0, *(x for pts, _ in paths for x, _ in pts)]
    ys = [0.0, *(y for pts, _ in paths for _, y in pts)]
    scene = svgfig.Scene((min(xs), max(xs) + 1, min(ys), max(ys) + 1))
    for pts, label in paths:
        scene.add_path(pts, label)
    return scene


def _cmd_render(args) -> int:
    if not args.out:
        raise CliError("render needs --out PATH")
    from . import rays
    ray_list = [_parse_ray_arg(lit) for lit in args.rays]
    scene = _ray_scene(zip(ray_list, args.rays), args.steps)
    if args.with_line:
        for ray in ray_list:
            ux, uy = ray.direction()
            scene.add_ray_line((float(ux), float(uy)), color="#999999")
    scene.write(args.out)
    sys.stdout.write(f"wrote {args.out}\n")
    return 0


# ---------------------------------------------------------------------------
# the subcommand table: one row per subcommand, from which the parser,
# REGISTRY and each envelope's "op" are derived. A row is (name, help or
# None, the operations it exposes, handler, arguments), and "csv" after
# them when it has a CSV form; an argument is a bare positional name or a
# (name or flag, add_argument keywords) pair.

# accepted both before and after the subcommand
_GLOBAL_FLAGS = [
    ("--format", dict(choices=("json", "csv", "text"), default="text")),
    ("--out", dict(default=None, help="write output to a file")),
    ("--seed", dict(type=int, default=0)),
]

_CAP = ("--cap", dict(type=_count, default=64))
_BOX = ("--box", dict(type=_box, default="-1000,1000"))
_COUNT = ("--count", dict(type=_count, default=1000))
_QI = [("--map", dict(default="floor",
                      choices=("floor", "inclusion", "genset"))),
       ("--k", dict(default="2")),
       ("--k2", dict(default=None, help="k squared, for irrational constants")),
       ("--c", dict(default="2")),
       ("--gens", {}), ("--gens2", {}), _CAP]

COMMANDS = [
    ("metric", "word metric between two points", ("lattice.word_metric",),
     lambda args: _cmd_point_pair(args, lattice.word_metric), ["p", "q"]),
    ("bfs-metric", "BFS distance under any generators",
     ("lattice.bfs_metric",), _cmd_bfs_metric,
     ["p", "q", ("--gens", dict(default="1,0;0,1",
                                help="semicolon-separated vectors")), _CAP]),
    ("count", "number of geodesics between two points",
     ("lattice.geodesic_count",),
     lambda args: _cmd_point_pair(args, lattice.geodesic_count), ["p", "q"]),
    ("enumerate", "list geodesic words in lex order",
     ("lattice.enumerate_geodesics",), _cmd_enumerate,
     ["p", "q", ("--limit", dict(type=_count, default=None))], "csv"),
    ("is-geodesic", "check a digit word for backtracking",
     ("lattice.is_geodesic_word",), _cmd_is_geodesic, ["word"]),
    ("genset-lipschitz", "bi-Lipschitz constants between two word metrics",
     ("lattice.generating_set_lipschitz",), _cmd_genset_lipschitz,
     [("--gens", dict(required=True)), ("--gens2", dict(required=True)),
      _CAP]),
    ("nmap", "boundary value N of a ray", ("rays.n_map", "rays.validate"),
     _cmd_nmap, ["ray"]),
    ("bmap", "value of a binary expansion literal", ("rays.b_map",),
     _cmd_bmap, ["code"]),
    ("digitize", "staircase ray of a direction",
     ("rays.digitize", "rays.RayCode.digits"), _cmd_digitize,
     ["dx", "dy", ("--steps", dict(type=_count, default=24))]),
    ("direction", "limiting direction of a ray", ("rays.direction_of",),
     _cmd_direction, ["ray"]),
    ("asymptotic", "classify a pair of rays", ("rays.are_asymptotic",),
     _cmd_asymptotic, ["f", "g"]),
    ("divergence", "first time the distance exceeds M",
     ("rays.divergence_time",), _cmd_divergence,
     ["f", "g", ("--M", dict(type=int, default=10)),
      ("--horizon", dict(type=int, default=1000))]),
    ("splice", "follow f for s steps, then g",
     ("rays.splice", "rays.RayCode.point_at"), _cmd_splice,
     ["f", "g", ("s", dict(type=int))]),
    ("ball", "basis-ball membership", ("rays.ball_contains",), _cmd_ball,
     [("f", dict(help="center ray")), ("g", dict(help="candidate ray")),
      ("--K", dict(required=True, help="compact interval a,b")),
      ("--eps", dict(required=True, help="radius as a rational"))]),
    ("qi-check", None, ("quasi.check_embedding",), _cmd_qi_check,
     [*_QI, ("--box", dict(_BOX[1], help="sampling box lo,hi")), _COUNT,
      ("--radius", dict(type=_count, default=10))]),
    ("qi-violate", None, ("quasi.find_violation",), _cmd_qi_violate,
     [*_QI, ("--strategy", dict(default="diagonal-ray",
                                choices=("diagonal-ray", "grid", "random"))),
      ("--budget", dict(type=_count, default=1000))]),
    ("roundtrip", "displacement of floor-then-include",
     ("quasi.roundtrip_displacement",), _cmd_roundtrip, [_BOX, _COUNT]),
    ("ell1-check", "taxicab geodesy of a polyline",
     ("ell1.ell1_distance", "ell1.is_geodesic_polyline",
      "ell1.check_monotone_commitment"), _cmd_ell1_check, ["path"]),
    ("ell1-splice", "plane splice of two rays", ("ell1.splice_plane",),
     _cmd_ell1_splice, ["f", "g", "b"]),
    ("project", "lattice staircase of a plane ray",
     ("ell1.project_to_lattice",), _cmd_project, ["path"]),
    ("demo trivial-topology", None, ("rays.trivial_topology_demo",),
     _cmd_demo_trivial_topology,
     [("--f", dict(default="(01)")), ("--g", dict(default="(001)")),
      ("--K", dict(default="0,5")), ("--eps", dict(default="1")),
      ("--svg", dict(default=None, help="also write a figure here"))]),
    ("demo cardinality", None, ("demos.demo_cardinality",),
     _cmd_demo_cardinality,
     [("rays", dict(nargs="*", default=["(0)", "(23)", "(1)"]))], "csv"),
    ("demo cone", None, ("demos.cone_lengths",), _cmd_demo_cone,
     [("--eps", dict(default="1"))]),
    ("render", "draw rays as an SVG staircase figure", ("svgfig.Scene",),
     _cmd_render, [("rays", dict(nargs="+")),
                   ("--steps", dict(type=int, default=30)),
                   ("--with-line", dict(action="store_true"))]),
]

#: subcommand -> operations it exposes (coverage contract for the tests)
REGISTRY = {name: ops for name, _, ops, *_ in COMMANDS}


class _Parser(argparse.ArgumentParser):
    """A parser that reads a token of "-" and a digit, such as the point
    "-3,4" or the rational "-3/2", as an argument rather than an option.
    Its subparsers are of its class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern admits only "-3" and "-3.5"
        self._negative_number_matcher = re.compile(r"^-\d")


class _Retry(Exception):
    """A one-row parse failed; the full parser reparses and reports."""


class _RowParser(_Parser):
    """A parser of one row, whose usage errors raise rather than print and
    exit (``exit_on_error=False`` still exits on a missing required
    argument in 3.10 and 3.11)."""

    def error(self, message):
        raise _Retry(message)


def build_parser(only: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every row of ``COMMANDS``, or of the row named ``only``
    alone, whose usage errors raise ``_Retry``."""
    parser = (_Parser if only is None else _RowParser)(
        prog="gridrays",
        description="Exact computations on the grid's geodesic rays, "
                    "boundary codes, and quasi-isometries.")
    common = argparse.ArgumentParser(add_help=False)
    for flag, kwargs in _GLOBAL_FLAGS:
        parser.add_argument(flag, **kwargs)
        common.add_argument(flag, **dict(kwargs, default=argparse.SUPPRESS))
    # "demo cone" is the leaf "cone" of the group "demo"
    groups = {"": parser.add_subparsers(dest="command", required=True)}
    for name, text, _, func, arguments, *form in COMMANDS:
        if only is not None and name != only:
            continue
        group, _, leaf = name.rpartition(" ")
        if group not in groups:
            parent = groups[""].add_parser(group, parents=[common])
            groups[group] = parent.add_subparsers(dest=group, required=True)
        # even help=None would list the subcommand in its group's help
        p = groups[group].add_parser(
            leaf, parents=[common], **({} if text is None else {"help": text}))
        for arg in arguments:
            flag, kwargs = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **kwargs)
        p.set_defaults(func=func, op=name, csv=bool(form))
    return parser


#: the global flags, each of which takes a value
_VALUED = {flag for flag, _ in _GLOBAL_FLAGS}


def _row_named(argv: list[str]) -> Optional[str]:
    """The row that argv's first words name, or None where there is none or
    a help flag (or its abbreviation) may be read: help comes from the full
    parser."""
    words, tokens = [], iter(argv)
    for tok in tokens:
        # "-h", "-hx" and every prefix of "--help" down to "--h"
        if tok.startswith("-h") or (
                len(tok) > 2 and "--help".startswith(tok.partition("=")[0])):
            return None
        if tok in _VALUED:
            next(tokens, None)
        elif not tok.startswith("-") and len(words) < 2:
            words.append(tok)
    name = " ".join(words[:2] if words[:1] == ["demo"] else words[:1])
    return name if name in REGISTRY else None


def _parse(argv: list[str]) -> argparse.Namespace:
    """argv parsed by the parser of the row it names, which holds the same
    arguments as that row in the full parser; anything else (no row, help,
    a usage error) by the full parser, so its messages are unchanged."""
    row = _row_named(argv)
    if row is not None:
        try:
            return build_parser(row).parse_args(argv)
        except _Retry:
            pass
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    if args.format == "csv" and not args.csv:  # a usage error, before the work
        print(f"error: subcommand {args.op!r} has no CSV form", file=sys.stderr)
        return 2
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
