"""cli-oneshot: fresh ``python -m gridrays.cli`` processes, one at a time.

Start-up, import (mpmath included), argparse and emission dominate here;
the numeric kernels barely run. One op is one process: its wall time from
spawn to reaped exit, with the exit code and output checked.

A traced run also calls ``cli.main(argv)`` in process for every op, and
for the demo and render ops the library entry points they wrap, so the
trace can split an op into process overhead and handler time.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import select
import subprocess
import sys
from fractions import Fraction
from math import comb
from time import perf_counter

import oracle
from common import OUT, SRC, CheckFailed, mix, require, rng_for

NAME = "cli-oneshot"
#: a process still running after this long is killed and counts as failed
PROCESS_TIMEOUT_S = 20.0
#: the in-process limit on one op leaves room for the process's own
OP_TIMEOUT_S = 2 * PROCESS_TIMEOUT_S
#: an op is a fresh process, so the host speed is probed with one
REFERENCE = "process"
WORKDIR = OUT / "cli"
SUBCOMMANDS = ("count", "enumerate", "bfs-metric", "nmap", "digitize",
               "asymptotic", "divergence", "splice", "ball", "qi-check",
               "roundtrip", "ell1-check", "project", "demo trivial-topology",
               "demo cardinality", "demo cone", "render")
GENSETS = ("1,0;1,1", "2,1;1,1", "1,0;0,1;1,1", "3,1;2,1")
_PERIODIC = re.compile(r"^[0-4]*\([0-4]+\)$")


def _point(rng, r: int) -> str:
    # argparse reads a leading "-" as an option, so x stays nonnegative
    return f"{rng.randint(0, r)},{rng.randint(-r, r)}"


def _mixed(rng, n: int) -> str:
    while True:
        s = "".join(rng.choice("01") for _ in range(n))
        if "0" in s and "1" in s:
            return s


def _path(rng) -> str:
    sx, sy = rng.choice((1, -1)), rng.choice((1, -1))
    x = y = Fraction(0)
    verts = ["0,0"]
    for _ in range(rng.randrange(1, 6)):
        den = rng.choice((1, 2, 4))
        dx, dy = Fraction(rng.randrange(0, 3 * den), den), Fraction(rng.randrange(1, 3 * den), den)
        x, y = x + sx * dx, y + sy * dy
        verts.append(f"{x},{y}")
    return ";".join(verts) + f" >{sx * rng.randrange(0, 3)}/{sy * rng.randrange(1, 3)}"


def _args(rng, sub: str) -> list[str]:
    """Seeded arguments for one subcommand, all on inputs that succeed."""
    if sub in ("count", "enumerate"):
        args = [_point(rng, 6), _point(rng, 6)]
        while args[0] == args[1]:
            args[1] = _point(rng, 6)
        return args + (["--limit", str(rng.randrange(5, 60))] if sub == "enumerate" else [])
    if sub == "bfs-metric":
        return [_point(rng, 5), _point(rng, 5), "--gens", rng.choice(GENSETS), "--cap", "32"]
    if sub == "nmap":
        n = rng.randrange(20, 400)
        p = rng.randrange(1, n)
        return [f"slope:{p}/{n - p}@1"]
    if sub == "digitize":
        return [str(rng.choice((1, -1)) * rng.randrange(1, 40)),
                str(rng.choice((1, -1)) * rng.randrange(1, 40)),
                "--steps", str(rng.randrange(10, 80))]
    if sub == "asymptotic":
        if rng.random() < 0.5:
            a = _mixed(rng, rng.randrange(2, 6))
            return [f"({a})", f"{_mixed(rng, 3)}({a * rng.randrange(1, 4)})"]
        p = rng.randrange(8, 25)
        return [f"slope:{p}/1@1", f"slope:{p - 1}/1@1"]
    if sub == "divergence":
        return [f"slope:{rng.randrange(1, 9)}/{rng.randrange(1, 9)}@1",
                f"slope:{rng.randrange(1, 9)}/{rng.randrange(1, 9)}@1",
                "--M", str(rng.randrange(3, 30)), "--horizon", str(rng.randrange(100, 2000))]
    if sub == "splice":
        return [f"({_mixed(rng, 4)})", f"({_mixed(rng, 5)})", str(rng.randrange(0, 40))]
    if sub == "ball":
        return [f"({_mixed(rng, 3)})", f"({_mixed(rng, 4)})",
                "--K", f"0,{rng.randrange(1, 30)}", "--eps", str(rng.randrange(1, 6))]
    if sub in ("qi-check", "roundtrip"):
        return ["--seed", str(rng.randrange(1 << 20))]
    if sub in ("ell1-check", "project"):
        return [_path(rng)]
    if sub == "demo trivial-topology":
        return ["--f", f"({_mixed(rng, 3)})", "--g", f"({_mixed(rng, 4)})",
                "--K", f"0,{rng.randrange(3, 20)}"]
    if sub == "demo cardinality":
        return [f"{_mixed(rng, 3)}({_mixed(rng, 3)})" for _ in range(3)] + ["1(0)", "0(1)"]
    if sub == "demo cone":
        return ["--eps", f"1/{rng.randrange(1, 50)}"]
    if sub == "render":
        return [f"({_mixed(rng, 3)})", f"({_mixed(rng, 4)})", "--steps", str(rng.randrange(10, 60))]
    raise ValueError(sub)


def build(seed: int, scale: float = 1.0) -> list[tuple]:
    """One pass: every subcommand in text and in JSON (render writes a
    file, so text only), plus one malformed literal that must exit 1.
    ``scale`` < 1 keeps the text forms only."""
    rng = rng_for(NAME, seed)
    fmts = ("text", "json") if scale >= 1 else ("text",)
    g: dict[str, list[dict]] = {}
    for sub in SUBCOMMANDS:
        g[sub] = [{"args": _args(rng, sub), "fmt": fmt, "exit": 0}
                  for fmt in fmts if not (sub == "render" and fmt == "json")]
    g["nmap"].append({"args": [f"({rng.choice('01')}5)"], "fmt": "text", "exit": 1})
    specs = mix(rng, g)
    for i, (sub, p) in enumerate(specs):
        if sub == "render":
            p["args"] = p["args"] + ["--out", str(WORKDIR / f"fig-{i}.svg")]
    return specs


def prepare(specs: list[tuple]) -> dict:
    WORKDIR.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {"env": env}


def argv_of(sub: str, p: dict) -> list[str]:
    fmt = ["--format", "json"] if p["fmt"] == "json" else []
    return fmt + sub.split() + p["args"]


def spawn(argv: list[str], env: dict) -> tuple[int, bytes, float, float, int]:
    """Run one fresh CLI process: (exit code, stdout, start, end, peak RSS KiB).

    Waits on a pidfd so the timeout needs no thread, then reaps with
    wait4 to read the child's own peak RSS.
    """
    with open(WORKDIR / "stdout", "w+b") as out, open(WORKDIR / "stderr", "w+b") as err:
        t0 = perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "gridrays.cli", *argv],
                                stdout=out, stderr=err, env=env, cwd=WORKDIR)
        done = []
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                done = select.select([fd], [], [], PROCESS_TIMEOUT_S)[0]
            finally:
                os.close(fd)
        finally:
            if not done:  # timed out, or the op's own alarm interrupted the wait
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        t1 = perf_counter()
        if not done:
            raise CheckFailed(f"timed out after {PROCESS_TIMEOUT_S} s: {argv}")
        out.seek(0)
        return proc.returncode, out.read(), t0, t1, usage.ru_maxrss


def _key(sub: str) -> str:
    return sub.replace(" ", "-")


def run_op(ctx, sub, p, tr):
    argv = argv_of(sub, p)
    code, out, t0, t1, rss = spawn(argv, ctx["env"])
    ctx["peak_rss_kb"] = max(ctx.get("peak_rss_kb", 0), rss)
    tr.add(f"cli.process.{_key(sub)}", t0, t1, n=len(out))
    return code, out


def traced_extra(ctx, sub, p, tr):
    """In-process twins of one op: ``cli.main`` and the library entry
    points behind the demo and render handlers."""
    # imported here, not at the top: an untraced run keeps this process
    # smaller than any CLI child, whose peak RSS would otherwise count it
    from gridrays import cli, demos, rays, svgfig

    argv = argv_of(sub, p)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        with tr.span(f"cli.main.{_key(sub)}"):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    require(code == p["exit"], f"in-process exit {code} != {p['exit']}")
    args = p["args"]
    if sub == "demo cardinality":
        with tr.span("demos.demo_cardinality"):
            demos.demo_cardinality(args)
    elif sub == "demo cone":
        with tr.span("demos.demo_cone"):
            demos.demo_cone(Fraction(args[1]))
    elif sub == "render":
        steps = int(args[args.index("--steps") + 1])
        ray_list = [rays.parse_ray(a).canonical() for a in args[:2]]
        pts = [ray.points(steps) for ray in ray_list]
        xs = [x for ps in pts for x, _ in ps] + [0]
        ys = [y for ps in pts for _, y in ps] + [0]
        scene = svgfig.Scene((min(xs), max(xs) + 1, min(ys), max(ys) + 1))
        for lit, ps in zip(args, pts):
            scene.add_path([(float(x), float(y)) for x, y in ps], label=lit)
        path = WORKDIR / "fig-inproc.svg"
        with tr.span("svgfig.Scene.write") as sp:
            scene.write(str(path))
        sp.k = path.stat().st_size


# -- checks --------------------------------------------------------------------


def _walk_of(lit: str) -> oracle.Walk:
    pre, per = lit[:-1].split("(")
    return oracle.Walk(pre, per)


def _words(p, q, limit: int) -> list[str]:
    """The first ``limit`` geodesic words from p to q in lexicographic
    order (multiset permutations by next-permutation)."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    w = sorted(("0" if dx >= 0 else "2") * abs(dx) + ("1" if dy >= 0 else "3") * abs(dy))
    out = ["".join(w)]
    while len(out) < limit:
        i = len(w) - 2
        while i >= 0 and w[i] >= w[i + 1]:
            i -= 1
        if i < 0:
            break
        j = len(w) - 1
        while w[j] <= w[i]:
            j -= 1
        w[i], w[j] = w[j], w[i]
        w[i + 1:] = reversed(w[i + 1:])
        out.append("".join(w))
    return out


def _parse_pt(s: str) -> tuple[int, int]:
    x, y = s.split(",")
    return int(x), int(y)


def _slope_line(lit: str) -> oracle.Line:
    p, q = lit[len("slope:"):-2].split("/")
    return oracle.Line.rational(int(p), int(q))


def _expected(sub: str, a: list[str]):
    """The JSON ``output`` the op must produce, or a predicate on it."""
    if sub == "count":
        p, q = _parse_pt(a[0]), _parse_pt(a[1])
        return comb(oracle.l1(p, q), abs(p[0] - q[0]))
    if sub == "enumerate":
        return _words(_parse_pt(a[0]), _parse_pt(a[1]), int(a[3]))
    if sub == "bfs-metric":
        p, q = _parse_pt(a[0]), _parse_pt(a[1])
        gens = [_parse_pt(v) for v in a[3].split(";")]
        d = oracle.bfs_table(gens, int(a[5])).get((q[0] - p[0], q[1] - p[1]))
        return "exceeded" if d is None else d
    if sub == "nmap":
        line = _slope_line(a[0])
        n = sum(int(v) for v in a[0][len("slope:"):-2].split("/"))
        return str(oracle.periodic_value(line.digits(n)))
    if sub == "digitize":
        dx, dy, steps = int(a[0]), int(a[1]), int(a[3])
        own = oracle.Line.rational(abs(dx), abs(dy), 1 if dx > 0 else -1, 1 if dy > 0 else -1)
        prefix = "".join(map(str, own.digits(steps)))
        return lambda out: out["prefix"] == prefix and _PERIODIC.match(out["ray"])
    if sub == "asymptotic":
        if a[0].startswith("slope:"):
            lf, lg = _slope_line(a[0]), _slope_line(a[1])
            return lambda out: (out["kind"] == "divergent" and out["distance"] > out["probe"]
                                and oracle.l1(lf.point(out["witness_t"]),
                                              lg.point(out["witness_t"])) == out["distance"])
        wf, wg = _walk_of(a[0]), _walk_of(a[1])
        sup = max(oracle.l1(wf.point(t), wg.point(t)) for t in range(200))
        return {"kind": "asymptotic", "bound": sup, "attained": True}
    if sub == "divergence":
        lf, lg, m, h = _slope_line(a[0]), _slope_line(a[1]), int(a[3]), int(a[5])
        t = next((u for u in range(h + 1) if oracle.l1(lf.point(u), lg.point(u)) > m), None)
        return "not-found" if t is None else t
    if sub == "splice":
        wf, s = _walk_of(a[0]), int(a[2])
        pts = [f"{x},{y}" for x, y in (wf.point(t) for t in range(min(s, 16) + 1))]
        return lambda out: out["prefix_points"] == pts and _PERIODIC.match(out["ray"])
    if sub == "ball":
        wf, wg = _walk_of(a[0]), _walk_of(a[1])
        b, eps = int(a[3].split(",")[1]), int(a[5])
        return all(oracle.l1(wf.point(t), wg.point(t)) < eps for t in range(b + 1))
    if sub == "qi-check":
        return lambda out: (out["checked"] == 1000 and out["violation_count"] == 0
                            and out["map"] == "floor" and out["D"] == "1")
    if sub == "roundtrip":
        return lambda out: out["samples"] == 1000 and out["below_two"] is True
    if sub in ("ell1-check", "project"):
        body, d = a[0].split(">")
        verts = [tuple(Fraction(c) for c in v.split(",")) for v in body.strip().split(";")]
        dx, dy = (Fraction(c) for c in d.split("/"))
        # a last segment running on in the ray's direction belongs to the ray
        while len(verts) >= 2:
            ux, uy = verts[-1][0] - verts[-2][0], verts[-1][1] - verts[-2][1]
            if ux * dy != uy * dx or ux * dx + uy * dy <= 0:
                break
            verts.pop()
        length = sum(oracle.l1(u, v) for u, v in zip(verts, verts[1:]))
        if sub == "project":
            return lambda out: bool(_PERIODIC.match(out))
        return {"length": str(length), "endpoint_distance": str(oracle.l1(verts[0], verts[-1])),
                "geodesic": True, "monotone_commitment": True}
    if sub in ("demo trivial-topology", "demo cone"):
        return lambda out: out["ok"] is True and all(x["passed"] for x in out["assertions"])
    if sub == "demo cardinality":
        return lambda out: (len(out["rows"]) == len(a)
                            and out["rows"][-1]["collides_with"] == "1(0)")
    raise ValueError(sub)


def _text_output(sub: str, text: str):
    """Recover the JSON ``output`` value from the text form."""
    lines = text.splitlines()
    if sub in ("count", "bfs-metric", "divergence"):
        return json.loads(lines[0]) if lines[0] not in ("exceeded", "not-found") else lines[0]
    if sub == "enumerate":
        return lines
    if sub in ("nmap", "project"):
        return lines[0]
    if sub == "digitize":
        return {"ray": lines[0], "prefix": lines[1]}
    if sub == "ball":
        return {"true": True, "false": False}[lines[0]]
    if sub in ("asymptotic", "qi-check", "roundtrip", "ell1-check"):
        return json.loads(lines[0])
    if sub in ("demo trivial-topology", "demo cone"):
        ok = lines[-1] == "OK"
        return {"ok": ok, "assertions": [{"passed": ln.startswith("PASS")} for ln in lines[:-1]]}
    if sub == "demo cardinality":
        rows = [dict(zip(("ray", "collides_with"),
                         (ln.split("\t")[0], ln.split("collides with ")[-1]
                          if "collides with" in ln else None))) for ln in lines]
        return {"rows": rows}
    if sub == "splice":
        return None  # the text form carries only the literal
    raise ValueError(sub)


def check_op(ctx, sub, p, out):
    code, data = out
    require(code == p["exit"], f"{sub}: exit {code}, expected {p['exit']}")
    text = data.decode("utf-8")
    if p["exit"] != 0:
        require(text == "", f"{sub}: failing op wrote to stdout")
        return
    if sub == "render":
        path = p["args"][-1]
        require(text == f"wrote {path}\n", "render: unexpected stdout")
        with open(path, encoding="utf-8") as fh:
            svg = fh.read()
        require(svg.startswith("<?xml") and svg.endswith("</svg>\n"), "render: bad SVG")
        return
    if p["fmt"] == "json":
        env = json.loads(text)
        require(isinstance(env, dict) and set(env) == {"op", "input", "output"}
                and env["op"] == sub, f"{sub}: bad JSON envelope")
        got = env["output"]
    else:
        require(text.endswith("\n") and text.strip() != "", f"{sub}: empty text output")
        got = _text_output(sub, text)
        if sub == "splice":
            require(_PERIODIC.match(text.strip()), "splice: bad literal")
            return
    want = _expected(sub, p["args"])
    ok = want(got) if callable(want) else got == want
    require(bool(ok), f"{sub} {p['fmt']}: output {str(got)[:120]} != oracle")


KINDS = {sub: (lambda ctx, p, tr, sub=sub: run_op(ctx, sub, p, tr),
              lambda ctx, p, out, sub=sub: check_op(ctx, sub, p, out))
         for sub in SUBCOMMANDS}
