"""Command-line interface: envelopes, exit codes, determinism, coverage."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from importlib import import_module
from pathlib import Path

import pytest

from gridrays import cli
from gridrays.cli import REGISTRY, build_parser, main

ROOT = Path(__file__).resolve().parent.parent

SUBCOMMANDS = [
    "metric", "bfs-metric", "count", "enumerate", "is-geodesic",
    "genset-lipschitz", "nmap", "bmap", "digitize", "direction",
    "asymptotic", "divergence", "splice", "ball", "qi-check", "qi-violate",
    "roundtrip", "ell1-check", "ell1-splice", "project",
    "demo trivial-topology", "demo cardinality", "demo cone", "render",
]


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_registry_covers_every_subcommand():
    assert sorted(REGISTRY) == sorted(SUBCOMMANDS)


def test_registry_maps_each_operation_once():
    ops = Counter(op for ops in REGISTRY.values() for op in ops)
    dupes = [op for op, n in ops.items() if n > 1]
    assert not dupes


def test_registry_names_operations_that_exist():
    # an op is an attribute path, so a method is named through its class
    missing = []
    for op in (op for ops in REGISTRY.values() for op in ops):
        module, *path = op.split(".")
        obj = import_module(f"gridrays.{module}")
        for name in path:
            obj = getattr(obj, name, None)
        if obj is None:
            missing.append(op)
    assert not missing


def test_every_subcommand_is_wired():
    parser = build_parser()
    top = next(a for a in parser._actions
               if a.__class__.__name__ == "_SubParsersAction")
    names = set(top.choices)
    plain = {s for s in SUBCOMMANDS if " " not in s}
    assert plain <= names
    demo = next(a for a in top.choices["demo"]._actions
                if a.__class__.__name__ == "_SubParsersAction")
    assert {"trivial-topology", "cardinality", "cone"} <= set(demo.choices)


def test_metric_text_and_json(capsys):
    code, out, _ = run(["metric", "0,0", "3,3"], capsys)
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(["--format", "json", "metric", "0,0", "3,3"], capsys)
    payload = json.loads(out)
    assert set(payload) == {"op", "input", "output"}
    assert payload["op"] == "metric" and payload["output"] == 6


def test_global_flags_after_subcommand(capsys):
    code, out, _ = run(["metric", "0,0", "1,2", "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["output"] == 3


def test_enumerate_csv(capsys):
    code, out, _ = run(["--format", "csv", "enumerate", "0,0", "1,1"], capsys)
    assert code == 0
    assert out.splitlines() == ["word", "01", "10"]


@pytest.mark.parametrize("argv, op", [
    (["--format", "csv", "roundtrip", "--count", "300000"], "roundtrip"),
    (["metric", "0,0", "3,4", "--format=csv"], "metric"),
    (["--format", "csv", "divergence", "(01)", "(001)"], "divergence"),
    (["--format", "csv", "demo", "cone"], "demo cone"),
])
def test_csv_on_a_row_without_a_csv_form_is_a_usage_error(argv, op, capsys):
    # argv alone decides it, so it is refused before the handler runs:
    # roundtrip's 300,000 points took about 0.5 s before the refusal
    start = time.perf_counter()
    code, out, err = run(argv, capsys)
    assert time.perf_counter() - start < 0.05
    assert (code, out, err) == (
        2, "", f"error: subcommand {op!r} has no CSV form\n")


def test_only_enumerate_and_cardinality_have_a_csv_form():
    assert {row[0] for row in cli.COMMANDS if row[5:] == ("csv",)} == \
        {"enumerate", "demo cardinality"}


def test_out_file(tmp_path, capsys):
    target = tmp_path / "o.json"
    code, out, _ = run(["--format", "json", "--out", str(target),
                        "count", "0,0", "2,2"], capsys)
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["output"] == 6


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["metric", "0,0"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_library_error_exit_1(capsys):
    code, _, err = run(["nmap", "(02)"], capsys)  # east/west mixed
    assert code == 1 and err
    code, _, err = run(["metric", "0,0", "zebra"], capsys)
    assert code == 1 and err


def test_nmap_and_bmap(capsys):
    code, out, _ = run(["nmap", "(23)"], capsys)
    assert code == 0 and out.strip() == "7/3"
    code, out, _ = run(["bmap", "(01)"], capsys)
    assert code == 0 and out.strip() == "1/3"


def test_seeded_commands_deterministic(capsys):
    args = ["--format", "json", "--seed", "11", "qi-check", "--map", "floor",
            "--count", "100"]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2
    _, out3, _ = run(["--format", "json", "--seed", "12", "qi-check",
                      "--map", "floor", "--count", "100"], capsys)
    assert json.loads(out1)["output"]["checked"] == 100
    assert out3 != out1


def test_genset_qi_check_builds_only_count_pairs(capsys):
    # a radius-25 ball has 1301 points, so all pairs would be 1.69 M tuples
    tracemalloc.start()
    try:
        code, out, _ = run(["--format", "json", "qi-check", "--map", "genset",
                            "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
                            "--radius", "25", "--count", "10"], capsys)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0 and json.loads(out)["output"]["checked"] == 10
    assert peak < 16 * 2**20


def test_genset_qi_check_streams_its_pairs(capsys):
    # a radius-600 ball has 721,201 points; listing it peaked near 73 MB.
    # The bytes are frozen from that listing.
    tracemalloc.start()
    try:
        outs = [run(["--format", fmt, "qi-check", "--map", "genset",
                     "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
                     "--radius", "600", "--count", "10"], capsys)
                for fmt in ("text", "json")]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert [(code, hashlib.sha256(out.encode()).hexdigest())
            for code, out, _ in outs] == [
        (0, "65c00520f8c9fee28a91a08e290986006fe36dee912170e862b2a310968ace19"),
        (0, "c29bcc7d051c48c4ea9756b721bbd7823babd67cd68d58c1b37d51b95defd513")]


def test_inclusion_qi_check_draws_from_a_closed_form_ball(capsys):
    # a radius-600 ball has 721,201 points; listing it for rng.choice traced
    # 58.7 MB. The bytes are frozen from that listing, violations included.
    tracemalloc.start()
    try:
        outs = [run(["--format", fmt, "qi-check", "--map", "inclusion",
                     "--k", "1", "--c", "0", "--radius", "600",
                     "--count", "10"], capsys)
                for fmt in ("text", "json")]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20
    assert [(code, hashlib.sha256(out.encode()).hexdigest())
            for code, out, _ in outs] == [
        (1, "9f4e48820e29916938cd067636fa76c12ed44bf7cc7061a6ace90316d1fdfb32"),
        (1, "64431e1694503dabbc5ca30a6423c6aad4594b09869ec0711de2c3a4bd4580c1")]


def test_floor_qi_check_streams_its_pairs(capsys):
    # listing the 5,000 pairs traced 2.6 MB; they are checked 256 at a time
    # now. The bytes are frozen from that listing.
    from gridrays import quasi  # noqa: F401  imported before tracing
    tracemalloc.start()
    try:
        outs = [run(["--format", fmt, "qi-check", "--count", "5000"], capsys)
                for fmt in ("text", "json")]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [(code, hashlib.sha256(out.encode()).hexdigest())
            for code, out, _ in outs] == [
        (0, "06499abccffc5879c75357f5cb45f68ad1c5923fedcc6edcbe9eca354a6655fe"),
        (0, "ee02f686ab0e2d80dbc6c7aa40f3acd344cbfdee38f5f803e9dffc6fb38f748a")]


def _qi_check_listed(argv):
    """The exit code and stdout of ``qi-check`` as it was when it listed
    every pair: one ``check_embedding`` over the whole list, its first 16
    violations and their count, and the floor map's probes floored from the
    first points of its first 256 pairs."""
    from gridrays import cli, quasi
    args = build_parser().parse_args(argv)
    qmap, params = cli._qi_map(args), cli._qi_params(args)
    strategy = "grid" if args.map == "genset" else "random"
    pairs = list(itertools.islice(quasi.iter_pairs(
        qmap, strategy, args.seed, args.box, args.radius), args.count))
    report = quasi.check_embedding(qmap, params, pairs)
    D = None
    if args.map != "genset":
        targets = (quasi.sample_plane_points(args.box, 256, args.seed + 1)
                   if args.map == "inclusion"
                   else [quasi.floor_map(p) for p, _ in pairs[:256]])
        D = str(quasi.quasi_surjectivity_bound(qmap, targets).bound)
    output = {"map": qmap.name, "k": params.k_label,
              "k_sq": str(params.k_sq), "c": str(params.c),
              "checked": report.pairs_checked,
              "violations": cli._violations_payload(report.violations[:16]),
              "violation_count": len(report.violations), "D": D}
    inputs = {"map": args.map, "count": args.count, "seed": args.seed}
    return (0 if report.ok else 1), json.dumps(
        {"op": "qi-check", "input": inputs, "output": output},
        indent=2, sort_keys=True) + "\n"


# (map arguments, the certificate's constants), one passing and one failing
# certificate per map
QI_CHECK_CERTIFICATES = [
    ([], ["--k", "2", "--c", "2"]),
    ([], ["--k", "1", "--c", "0", "--seed", "3"]),
    (["--map", "inclusion"], ["--k2", "2", "--c", "0"]),
    (["--map", "inclusion"], ["--k2", "3/2", "--c", "1/3", "--seed", "5"]),
    (["--map", "genset", "--gens", "1,0;0,1", "--gens2", "1,0;1,1"],
     ["--k", "2", "--c", "0"]),
    (["--map", "genset", "--gens", "1,0;0,1", "--gens2", "1,0;1,1"],
     ["--k", "1", "--c", "1/2"]),
]


@pytest.mark.parametrize("count", [1, 255, 256, 257, 16 * 256 + 1])
@pytest.mark.parametrize("qmap, constants", QI_CHECK_CERTIFICATES)
def test_qi_check_chunks_match_the_listed_check(qmap, constants, count,
                                                capsys):
    argv = ["--format", "json", "qi-check", *qmap, *constants,
            "--count", str(count)]
    code, out, err = run(argv, capsys)
    assert (code, out) == _qi_check_listed(argv), err


def _under_limit(argv, megabytes):
    """Runs ``python <argv>`` in a child under an address-space limit of
    ``megabytes``, set on that child only; returns its exit code, stdout
    and stderr."""
    resource = pytest.importorskip("resource")
    limit = megabytes * 2**20
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, *argv], env=env,
        capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
    return proc.returncode, proc.stdout, proc.stderr


def test_failing_qi_check_keeps_only_what_it_prints():
    # nearly every pair violates k = 1, c = 0; keeping each violation
    # peaked at 80 MB RSS for 100,000 pairs and died of MemoryError under
    # this limit
    code, out, err = _under_limit(["-m", "gridrays.cli", "qi-check", "--k",
                                   "1", "--c", "0", "--count", "200000"], 128)
    assert code == 1 and "Traceback" not in err, err
    output = json.loads(out)
    assert output["checked"] == 200000 and len(output["violations"]) == 16
    assert 0 < output["violation_count"] <= 2 * 200000


def _bfs_metric_under_256_mb(gens):
    """Runs ``bfs-metric 0,0 0,1 --gens <gens> --cap 5000`` in a child under
    a 256 MB address-space limit; returns its exit code, stdout and stderr,
    whose last line is the traced peak in bytes."""
    code = ("import sys, tracemalloc\n"
            "from gridrays.cli import main\n"
            "tracemalloc.start()\n"
            "code = main(sys.argv[1:])\n"
            "print(tracemalloc.get_traced_memory()[1], file=sys.stderr)\n"
            "sys.exit(code)")
    return _under_limit(["-c", code, "bfs-metric", "0,0", "0,1", "--gens", gens,
                         "--cap", "5000"], 256)


def test_bfs_metric_reads_a_far_basis_in_closed_form():
    # (0, 1) = (3000, 1) - 3000 (1, 0) is 3001 steps out; a BFS to it grows
    # about N^2 = 9 M nodes, and at N = 300 already peaked at 49 MB RSS. The
    # child runs under a 256 MB address-space limit, so a search dies there.
    code, out, err = _bfs_metric_under_256_mb("1,0;3000,1")
    assert (code, out) == (0, "3001\n"), err
    assert int(err) < 2**20


def test_bfs_metric_reads_a_far_unimodular_hull_in_closed_form():
    # (3001, 1) - (3000, 1) = (1, 0): each edge of the hull has det 1, so
    # the word length is max_i n_i . v, with n = (-1, 3001) giving 3001
    code, out, err = _bfs_metric_under_256_mb("1,0;3000,1;3001,1")
    assert (code, out) == (0, "3001\n"), err
    assert int(err) < 2**20


@pytest.mark.parametrize("radius, count", [(1, 1), (1, 4), (1, 25), (2, 30),
                                           (3, 300), (4, 2000)])
def test_genset_pairs_are_the_ball_product(radius, count, capsys, monkeypatch):
    from gridrays import quasi
    seen, check = [], quasi.check_embedding

    def spy(qmap, params, pairs):
        pairs = list(pairs)  # the pairs come as a stream
        seen.extend(pairs)
        return check(qmap, params, pairs)

    monkeypatch.setattr(quasi, "check_embedding", spy)
    run(["qi-check", "--map", "genset", "--gens", "1,0;0,1",
         "--gens2", "1,0;1,1", "--radius", str(radius), "--count", str(count)],
        capsys)
    ball = list(quasi.LatticeBall(radius))
    assert seen == list(itertools.islice(itertools.product(ball, ball), count))


def test_genset_qi_violate_searches_lattice_pairs(capsys):
    # grid and random once drew plane points, and exited 1 at the first
    code, out, err = run(["--format", "json", "qi-violate", "--map", "genset",
                          "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
                          "--strategy", "grid", "--k", "1", "--c", "0"],
                         capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["output"] == {
        "pair": [[-10, 0], [-9, -1]], "side": "upper", "margin": "5"}


@pytest.mark.parametrize("qmap", [
    ["--map", "inclusion"],
    ["--map", "genset", "--gens", "1,0;0,1", "--gens2", "1,0;1,1"]])
@pytest.mark.parametrize("strategy", ["grid", "random", "diagonal-ray"])
def test_lattice_qi_violate_reports_only_lattice_pairs(qmap, strategy,
                                                       capsys):
    # the inclusion's grid search once reported (-4,-4), (-7/2,-7/2), and
    # the diagonal scan "0" for 0
    code, out, _ = run(["--format", "json", "qi-violate", *qmap,
                        "--strategy", strategy, "--k", "1", "--c", "0"],
                       capsys)
    pair = json.loads(out)["output"]["pair"]
    assert code == 0
    assert all(type(x) is int for pt in pair for x in pt)


def test_qi_violate_exit_codes(capsys):
    code, out, _ = run(["qi-violate", "--k", "7/5", "--c", "2",
                        "--strategy", "diagonal-ray", "--budget", "1000"],
                       capsys)
    assert code == 0 and "100" in out
    code, out, _ = run(["qi-violate", "--k", "2", "--c", "2",
                        "--strategy", "diagonal-ray", "--budget", "200"],
                       capsys)
    assert code == 0 and out.strip() == "none"


def test_demo_exit_codes(capsys):
    code, out, _ = run(["demo", "cone", "--eps", "1"], capsys)
    assert code == 0 and "OK" in out
    code, out, _ = run(["demo", "cardinality", "1(0)", "0(1)"], capsys)
    assert code == 0 and "collides" in out
    code, out, _ = run(["demo", "trivial-topology"], capsys)
    assert code == 0 and "OK" in out


def test_render_writes_svg(tmp_path, capsys):
    target = tmp_path / "fig.svg"
    code, out, _ = run(["render", "(01)", "--steps", "10",
                        "--out", str(target)], capsys)
    assert code == 0
    text = target.read_text()
    assert text.startswith("<?xml") and "<svg" in text
    # determinism: a second render is byte-identical
    target2 = tmp_path / "fig2.svg"
    run(["render", "(01)", "--steps", "10", "--out", str(target2)], capsys)
    assert target2.read_text() == text


def test_render_without_out_walks_no_ray(monkeypatch, capsys):
    from gridrays import rays
    calls = []
    points = rays.RayCode.points
    monkeypatch.setattr(rays.RayCode, "points",
                        lambda ray, t: calls.append(t) or points(ray, t))
    code, out, err = run(["render", "(01)", "--steps", "300000"], capsys)
    assert (code, out, err) == (1, "", "error: render needs --out PATH\n")
    assert calls == []


def test_ray_literals_canonicalized_on_input(capsys):
    # "(2323)" is accepted and treated as its canonical form "(23)"
    code, out, _ = run(["nmap", "(2323)"], capsys)
    assert code == 0 and out.strip() == "7/3"


def test_ell1_subcommands(capsys):
    code, out, _ = run(["ell1-check", "0,0;1,1;2,1"], capsys)
    assert code == 0 and json.loads(out)["geodesic"] is True
    code, out, _ = run(["ell1-splice", "0,0 >1/1", "0,0 >1/0", "4"], capsys)
    assert code == 0 and json.loads(out)["bound"] == "4"
    code, out, _ = run(["project", "0,0 >1/1"], capsys)
    assert code == 0 and out.strip() == "(01)"


def test_divergence_and_ball(capsys):
    code, out, _ = run(["divergence", "(0)", "(1)", "--M", "10"], capsys)
    assert code == 0 and out.strip() == "6"
    code, out, _ = run(["ball", "(01)", "(01)", "--K", "0,5", "--eps", "1"],
                       capsys)
    assert code == 0 and out.strip() == "true"


@pytest.mark.parametrize("argv", [
    ["qi-check", "--count", "-5"],
    ["qi-check", "--map", "inclusion", "--count", "-5"],
    ["qi-check", "--map", "genset", "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
     "--count", "-5"],
    ["roundtrip", "--count", "-3"],
    ["roundtrip", "--count", "many"],
    ["qi-check", "--map", "genset", "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
     "--radius", "-1"],
    ["qi-check", "--map", "inclusion", "--radius", "-1"],
    ["qi-check", "--map", "genset", "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
     "--cap", "-1"],
    ["qi-violate", "--map", "genset", "--gens", "1,0;0,1", "--gens2",
     "1,0;1,1", "--cap", "-2"],
    ["bfs-metric", "0,0", "1,1", "--cap", "-3"],
    ["genset-lipschitz", "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
     "--cap", "-1"],
    ["enumerate", "0,0", "2,1", "--limit", "-1"],
    ["digitize", "1", "2", "--steps", "-3"],
])
def test_negative_count_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["qi-check", "--count", "0"],
    ["qi-check", "--map", "inclusion", "--count", "0"],
    ["qi-check", "--map", "genset", "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
     "--count", "0"],
    ["roundtrip", "--count", "0"],
    ["roundtrip", "--count", "000"],
    ["qi-check", "--map", "genset", "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
     "--radius", "0"],
    ["qi-check", "--map", "genset", "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
     "--cap", "0"],
    ["qi-violate", "--map", "genset", "--gens", "1,0;0,1", "--gens2",
     "1,0;1,1", "--cap", "0"],
    ["bfs-metric", "0,0", "1,1", "--cap", "0"],
    ["genset-lipschitz", "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
     "--cap", "0"],
    ["enumerate", "0,0", "2,1", "--limit", "0"],
    ["digitize", "1", "2", "--steps", "0"],
])
def test_zero_count_is_a_usage_error(argv, capsys):
    # a certificate over no samples is vacuous: "checked": 0, "below_two";
    # a radius of 0 checks only the zero-distance pair, which cannot fail;
    # no words or no digits printed an empty line
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert argv[-2] in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
@pytest.mark.parametrize("strategy", ["random", "grid", "diagonal-ray"])
def test_vacuous_budget_is_a_usage_error(strategy, budget, capsys):
    # a search over no pairs would print "none" for a certificate that
    # fails on nearly every pair
    with pytest.raises(SystemExit) as exc:
        main(["qi-violate", "--k", "1", "--c", "0", "--strategy", strategy,
              "--budget", budget])
    assert exc.value.code == 2
    assert "--budget" in capsys.readouterr().err


@pytest.mark.parametrize("box", ["--box=5", "--box=1,2,3", "--box=5/2,-7/3",
                                 "--box=1/0,2", "--box=a,b"])
@pytest.mark.parametrize("command", ["qi-check", "roundtrip"])
def test_malformed_box_is_a_usage_error(command, box, capsys):
    # a box is exactly two rationals lo <= hi, on both subcommands alike
    with pytest.raises(SystemExit) as exc:
        main([command, box, "--count", "5"])
    assert exc.value.code == 2
    assert "--box" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["qi-check", "roundtrip"])
def test_box_without_an_integer_is_a_usage_error(command, capsys):
    # [1/3, 1/2] has no numerator over the denominator 1: refused before any
    # draw, so the outcome no longer depends on the seed and the count
    lines = []
    for count in ("5", "100"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--box=1/3,1/2", "--count", count])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        lines.append(captured.err.splitlines()[-1])
    assert lines[0] == lines[1] == (
        f"gridrays {command}: error: argument --box: expected two rationals "
        f"lo,hi with an integer between them, got '1/3,1/2'")
    # one integer is enough for every denominator
    assert main([command, "--box=1/3,1", "--count", "100"]) == 0


def test_no_runtime_dependencies():
    # the package and the cone demo run with mpmath unimportable
    code = ("import sys; sys.modules['mpmath'] = None\n"
            "import gridrays, gridrays.cli\n"
            "sys.exit(gridrays.cli.main(['demo', 'cone', '--eps', '1/7']))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "OK"
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["dependencies"] == []


GENSET_ARGS = ["--map", "genset", "--gens", "1,0;0,1", "--gens2", "1,0;1,1",
               "--radius", "4", "--count", "300"]

# sha256 of stdout (text, json) and the exit code, frozen from the Fraction
# implementation of the certificates; the integer kernel must match byte
# for byte, margins (Fraction and Surd) included
GOLDEN = [
    (["qi-check", "--count", "300"], 0,
     "fac11af2d750a45449c34bc1d8a16b9af824228fe0cd89ce29fe778da3a96045",
     "14cd374e02f7bd7d806a7384fc71b58b400d0a9b11328ac355df4c2ab63acce5"),
    (["qi-check", "--k", "7/5", "--c", "2", "--count", "300", "--seed", "3"], 1,
     "59c8f3fb2ea2f5c603fa1969c6f5ba558a74a2979d0059ee0c357b2fb39a3304",
     "ce7d5109b8c89a5ae92543b28be26ffecbccaf53698e39144ee8c275641d6ad6"),
    (["qi-check", "--map", "inclusion", "--k2", "2", "--c", "0",
      "--count", "300"], 0,
     "555f2a68c5549213872eee0e76f6293478e7720aee5f313b33db38c617fa0aa5",
     "8ff39d2377321a8d71eea3b94dffc148d1752a310986bf1b05a42245d79d177f"),
    (["qi-check", "--map", "inclusion", "--k2", "3/2", "--c", "1/3",
      "--count", "300"], 1,
     "fd15999e7a9bc740fc3643d44b552a1512bf38ffceacd8ece2783e7d0bea15af",
     "eb064cfa88015f5933d6c1f383106cb2adb27781ea62506d7818300dac735d05"),
    (["qi-check", "--map", "inclusion", "--k2", "1000000000039/1000000000000",
      "--c", "1/3", "--count", "100"], 1,
     "f4648a935a6f6bdcea052cbcae35d9f0d82e2ed75908756e80add5e6b6b416c5",
     "69130d3eac5e6d35c9887d84bee9c2dc423c800cfb50044d5676e880f2a8fe01"),
    (["qi-check", *GENSET_ARGS, "--k", "2", "--c", "0"], 0,
     "4ce9bb840901f4ffb5fdd3e886c78ebf6bfe2c2c29f3f0887dcaa2d7ed6c290b",
     "c596899885c60978122dcfc7e6f65433132df2d4cb9160419db0e2b869ab88de"),
    (["qi-check", *GENSET_ARGS, "--k", "1", "--c", "1/2"], 1,
     "f593d4d0eeddf6f48348d17a5b09a9042930ee28ab883af10c74ee67392398b1",
     "391b00dbc821a4b93df10801d0afc25b38e7a5ab25c74c923a4d59e8e568f357"),
    (["qi-violate", "--k", "7/5", "--c", "2", "--strategy", "diagonal-ray"], 0,
     "6dec30eca099889781319ee0048c4af2e47e9d3804638ffe3d652458b33444cd",
     "2c761f4c51b7114074dfd91336cb1faf32be04d80cbde4dd20d6872e18b59915"),
    # re-frozen when the diagonal witness became a pair of lattice ints,
    # as grid and random report it (it printed "0" for 0 in both forms)
    (["qi-violate", "--map", "inclusion", "--k", "7/5", "--c", "0",
      "--strategy", "diagonal-ray"], 0,
     "d0f72f9786954fab8741905b935b0e2c83444e4ce91ea1353e468494c31776f4",
     "13f1e599bc8c8d5a78351b3d10b1f89f71ee32e144b0e376147be9c35bb9d5e3"),
    (["qi-violate", "--k", "1", "--c", "0", "--strategy", "grid"], 0,
     "20a79c8cba4955a89f6da6e46fbb6d537a775b1da8a137ac1052f417f86bce44",
     "1db6191a8df3e255105cd376edb3299bb510b685fbeb117c34fb318e1fcc2c45"),
    (["qi-violate", "--k", "1", "--c", "0", "--strategy", "random",
      "--seed", "3"], 0,
     "240749fad05cb468dd94b370b55d4dcf59b3dad0aa70fb6dc57ee737fde873cb",
     "a5f48490e561d20fb0c895287510ef0d8248a6ac14f53aa944283bd3ed600e1c"),
    # frozen from the listed ball that rng.choice drew from
    (["qi-check", "--map", "inclusion", "--radius", "40", "--count", "50"], 0,
     "243fd88523ac7335b241cdd448ef27e33deb38c9723f1d84624c2fbe527f9c62",
     "ae9c330b3406c78f5e8953d135e5310e76de16808d31adec94a68d9c13ae563a"),
    (["qi-check", "--map", "inclusion", "--k2", "3/2", "--c", "1/3",
      "--radius", "40", "--count", "50"], 1,
     "7871c89ee2ad275828aeac7f3a5f56781badb4ba118e878dffc049af6260e7fb",
     "c9c29839e763f41e004a1629dfe5ace4029d340d8a49ef69ed6c0b1092517dfb"),
    (["roundtrip"], 0,
     "8c5055f5cf6c448ef3d69a57a9d0b777fe942f3ebdfed7536b5fa340c88e02d5",
     "9e03d5af275018b5d1e584ae2037d6a4a625af52bbe509cf8efe1e9da9d0cd79"),
    (["roundtrip", "--box=-7/3,5/2", "--count", "300", "--seed", "4"], 0,
     "e0d2dd4585d6c0d603ff6f8d9b080adae38527d4ec7f0db32cf3364ed82f5b7f",
     "44ff06c784ffc41e082cc3a9e5b3f15f15ed47b387c5b65b3295539fe92d10ea"),
    # frozen while the demo assertions were dataclasses serialized through
    # their __dict__
    (["demo", "cone", "--eps", "1/7"], 0,
     "8a86d689ec5d94ba297f1eb824d7f635080a6f91e7d5bde12f6de2aa100726c8",
     "f9850ac6ddea8f4ca08b6bcfde2a35bd7a67b4c37ef704bda51fd49e10fa35a3"),
    (["demo", "cardinality", "(0)", "(23)", "1(0)", "0(1)"], 0,
     "cccef36baae04dd050d1d5421582ace36beb81fb42b0ad1dd68e940e9e550295",
     "aad2980ebc0a89570a63bb7ffb287bdd8e52a60881e2d8d94c22d602df04924f"),
]

# the CSV form of the cardinality pin above
CARDINALITY_CSV_SHA = \
    "ebd2619cdcead6b4ce1fe10829f8616ae004d96a36acf08b3a2668689767a359"


# the same for ray classification, frozen from the list-building scans and
# the Surd line bound; "0101(010)" and "222122212(221)" are `splice` output
# (`splice (01) (001) 7`, `splice slope:3/1@2 slope:2/1@2 9`)
RAY_GOLDEN = [
    (["asymptotic", "(01)", "1(01)"], 0,
     "b084e18934767290536ba07854b52f55d3ee4e49592053ea1a77a71bb5b3eb56",
     "a334a52597056f35422fdcface2707328adf47a38198c87ba977ea1431dac279"),
    (["asymptotic", "0101(010)", "(001)"], 0,
     "b084e18934767290536ba07854b52f55d3ee4e49592053ea1a77a71bb5b3eb56",
     "4a7f6993ba8d50208bfd23f6b43fd096bd1be187f5f5dfb6b3cfef57cb05d28e"),
    (["asymptotic", "222122212(221)", "slope:2/1@2"], 0,
     "b084e18934767290536ba07854b52f55d3ee4e49592053ea1a77a71bb5b3eb56",
     "26cb9a4b7d95b3ec7635b3095e11fc992378d15cba096709e18cfd6e6235193a"),
    (["asymptotic", "slope:30/1@1", "slope:29/1@1"], 0,
     "ba31f872023ebe4c5a0a56c0bbfc64919d36295db9253555d317521d9cb9d2c1",
     "a1dd7f6e2459976e51f1b128e04e311afafc321b4d20694c24e4f454dabf87e5"),
    (["asymptotic", "slope:7/3@3", "slope:3/7@3"], 0,
     "74c159265e64983fd0fb19cdb654072f982543e1b6bc39244193c4b05412e64a",
     "aa56f248d154b1858f392e97b79015b0cb16146e8d21bd05f1eda43cc562770f"),
    (["asymptotic", "(0)", "(1)"], 0,
     "07bc682289ecb18e389c593902570fa4e188f0f54aa3238d943e6f7db36c5476",
     "e67364703255281351bbd3806b9c040ae09a00f4d48889d40b8f2d530a2b322d"),
    (["divergence", "(0)", "(1)", "--M", "10"], 0,
     "06e9d52c1720fca412803e3b07c4b228ff113e303f4c7ab94665319d832bbfb7",
     "94fa723f27a63569bfdde12a0423e5c81222ffb78efdbaff9f6e09faedf7431e"),
    (["divergence", "slope:3/2@4", "slope:2/3@4", "--M", "25"], 0,
     "2a62cf402cd3396aa00f55f892f4545f308f74d01c8caa0f2837b1982f821595",
     "79bd6a74903ed5db4668d082f1cb29453f5ba9d5b0249982070a2faa0d0fbd4a"),
    (["divergence", "(01)", "1(01)"], 0,
     "391bc413c3044926b4afa41806bf4a5c4fad68a3165b8563fe1bffec0792fc76",
     "c8dd2a90faf93f0be1c2c08ca3605bbe79390e8919dd63db08d42ffaa6ee7dc8"),
    (["divergence", "slope:5/1@1", "slope:4/1@1", "--horizon", "50"], 0,
     "391bc413c3044926b4afa41806bf4a5c4fad68a3165b8563fe1bffec0792fc76",
     "c3bd70de95748ff1dda2f4ad49adbe8c308c72cbdd0fa973d12c67beb954e5c8"),
    (["demo", "trivial-topology"], 0,
     "865b9be521fd74b003096a0d804ba61335d67bd17a824c9faa962062eeef4b2e",
     "629ff98d6055daf7f0d68e94619bae92ff76ff7a103f916b185ccc30e2a36b80"),
    (["demo", "trivial-topology", "--f", "(001)", "--g", "(011)",
      "--K", "0,12"], 0,
     "865b9be521fd74b003096a0d804ba61335d67bd17a824c9faa962062eeef4b2e",
     "83f3df9091169e89ca5c6008563059246d00ab8332e2ed396cc99fc5c3da2435"),
    # frozen from the point-list supremum, the per-digit staircase, the
    # shift-sum b_map and the loop canonical form: equal-direction periodic
    # pairs with other periods and preambles, and periods near 3000
    (["asymptotic", "(0011)", "110(010110)"], 0,
     "318aecb631dbfab0b420ef12972ae79d935fd62db5e1c00e43138f33da509797",
     "75c5221f092f40c6df09d64ce1b52a66195e47f2589076d3a105174efb59b406"),
    (["asymptotic", "33(223232)", "2323(232)"], 0,
     "b084e18934767290536ba07854b52f55d3ee4e49592053ea1a77a71bb5b3eb56",
     "f5da91223e5ddf4c5ecb01a1299eee2afef1a2b8781510c6c9b4822d1bd1e203"),
    (["asymptotic", "0" * 7 + "(" + "0" * 50 + "1" * 50 + ")",
      "(" + "0" * 49 + "1" * 49 + ")"], 0,
     "1ae3a61b649b679f998c316242c01ed0aa996e674a9eb73a0c47ab166b19d183",
     "388af7cb5bc0b6515ab6e9f3e42d1a9f545ea3d60ec603d63b3fd189ccbb99dc"),
    (["nmap", "slope:1499/1498@3"], 0,
     "7f0c37db586aef3f5041248db7c01df39aeb9b3b00647edf4563b6d95cdc0c34",
     "2639fe66e3cae256693ebbf127267d8c45731bb5236c438d82b9398123dd2504"),
    (["bmap", "01" * 30 + "(" + "0110" * 200 + "1)"], 0,
     "4eb52b636df12e42a3ce0ead7b7d3e77e1621a42f37be3e3151c51a0e6425664",
     "71fdbb4655b19e742ad6d291247f0224cef25fd95ca68303758ef66f54fe31ff"),
    (["digitize", "1499", "-1498", "--steps", "3000"], 0,
     "d6480ad921026e6758ffcded81e30a2cb1a02869807777e4dbf194c534e0626c",
     "76d1df60a9671564ced2318e0034d7b0bc450c5cce2effe9af70f7dea6e7d780"),
    # frozen from the separate sign tests of lattice, rays and ell1:
    # words with 4s, axis directions (due south changes window, not
    # digits) and plane splices of axis rays
    (["is-geodesic", "4403"], 0,
     "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
     "465306a5750cb072e4bee1a49ad4810ff1195d9044fbce06468b82de03701f7f"),
    (["is-geodesic", "4421"], 0,
     "2ed27c1421e6928dbe13dbfdb5c59e1045b30341fe7ebe05700006bc5ac572c0",
     "ae6bfbfc66d3ce505c0e9cf5e3c70e2a760672ac7dd338c14e78b019a29dec52"),
    (["is-geodesic", "3434"], 0,
     "a17fcf0a2f50e2d495e4f90ce263410edc183add6c62699a2facbccf60410f74",
     "e9cd9750bdc482821585a7cbebbd67b3add20fd38f6cc6c993ab8eb19281848a"),
    (["digitize", "0", "-5"], 0,
     "d875e06adb1c5981a888ac8fa838f4a58810ecbf96a8e94819781e3b10c4ee97",
     "715b8fd25303994081ec579ac1ee87e9f7bffdedcd44d0c159b010b9ab13c9c7"),
    (["digitize", "-3", "0", "--steps", "4"], 0,
     "9048835b0b99c37f1ea2752f1137bdfb5325b833c85d0f59df12c4eac6f30263",
     "7ff30a1306779b3aa0bcb7ba9a863cdc3fbd5b013150d6ee9a68c5fe17f8f7cb"),
    (["project", "0,0;0,-2 >0/-1"], 0,
     "dbf78efba4db41ce351ceab5ca07bfe190a657585eb296f8feb10f49fb626bd4",
     "2c95c8c986cc1fa704831f856b0765569287357fbc7298fff35f0591a2da2068"),
    (["project", "0,0;-3,0;-3,1 >0/1"], 0,
     "8db591c12584efeae018ddee7c2f70b2a192fbad1234415ee4e7ae0b71b3821e",
     "c9422a90e35a2bbb6ba5896a3b16fecb7a09b5b2b8c7b7ab30135faabb7dcb15"),
    (["ell1-splice", "0,0;0,-2 >0/-1", "0,0;1,0 >0/-1", "3"], 0,
     "6ba6e8456502a0e4516d9fffd1b1c6e7a6f06d2beab7da92c1d3c9707fe28880",
     "e8fe93c29e30061d16ed44ea5feec54d0dcfa081d91a618d1bbd757b5d598464"),
    (["ell1-splice", "0,0;-1,0 >-1/0", "0,0 >0/1", "5/2"], 0,
     "12fea8ede8a8051fdb4063e9b53e0a029bcb2b3fa6472f69e37b661451964051",
     "44776af5211daf902396f770cb405088570283edad691d485345ffa2e4e9d202"),
    (["ell1-splice", "0,0 >0/-1", "0,0 >0/1", "1"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


# the same for plane paths with fractional vertices, frozen from the Fraction
# implementation of ell1: mixed denominators (2, 3, 4, 12), a splice time
# with a new denominator and times inside diagonal segments, directions
# with a zero component, non-geodesic paths with a retreat time, a refused
# splice, and projections in all four quadrants
PLANE_GOLDEN = [
    (["ell1-check", "0,0;1/2,1/3;5/4,1/3;5/4,7/12"], 0,
     "a763fd6ba425ea4972b2eda21576532c0dfd035e8e4f90b19743895563a7430e",
     "35f0c8e2ff441890fde3eb568f1cd9dc30d14125835027e9b4996f8cdfa5c0e1"),
    (["ell1-check", "0,0;1/2,2/3;3/4,1/3;1,1/12"], 0,
     "68b552ce021f84784a1c3c19919a900c28d56b18fcd5c17ec33853a7bd0623c5",
     "ffde28e8a4cf797ba4994b0471cf097017b5f5c9a0a65f441f850347e1e07ab6"),
    (["ell1-check", "0,0;-1/3,1/4;-1/3,-5/12;1/6,-5/12"], 0,
     "f138c7c6c6414cdf8e3387dc2596c03a47ee5f9620046c1b7716f165e3282446",
     "e87cde19f3e8626c23d154396e5e4b585e4e4c895b544193cb759a81d1b117f5"),
    (["ell1-check", "1/3,1/2;2/3,1/4;7/12,0"], 0,
     "dea2dec47dfb13e4695b890c700012287c809a4eb9a7e63de77cbc72df333145",
     "311847f778eda21e0b4d8c9452b36b8cede00709b19369de96a9d7dc2b2aa9dd"),
    (["ell1-splice", "0,0;1/3,1/4;5/6,3/2 >2/1", "0,0;3/4,0;3/4,5/12 >1/3", "29/2"], 0,
     "6860a2739bbf3b42a59bbfb3d03a54edb12d5bec4c4eb0c27ed384a662055a63",
     "32e9f575d4823a4aa682e9649606f96f091761562aea0d63c971ff36e9e85801"),
    (["ell1-splice", "0,0;2/3,1/2;1,3 >1/1", "0,0;1/4,1/3 >3/2", "5/4"], 0,
     "8c1b48e0fb8f66cc3afcd5349a8fa2087b71b1bb51c6c1e8621be110cfbaf366",
     "67afa06ef9cba149f33c821ea6e95f4f54d72d98b25baefd85b226e7e3cfb365"),
    (["ell1-splice", "0,0;1/2,1/3 >1/0", "0,0;0,5/4;7/12,5/4 >0/1", "7/3"], 0,
     "73a68dbfe6de2f2d8f29fa157c0c1d2e74d45d6895b1328395725a521d435d59",
     "369fa3537b0f0b473ee7eb9f7250a6df0f4423fadc5efaeac4a4353cd2986ce4"),
    (["ell1-splice", "0,0;-1/2,1/3;-5/4,7/6 >-1/2", "0,0;-1/12,1/4 >-3/1", "0"], 0,
     "dfafd7ce707e7e542d406d6dc06828ebba5cadceac17d2815b5963763dc15370",
     "099c46a32f6327ad466cbc93038e80300c1e659694820d8a25f4880bc60b693a"),
    (["ell1-splice", "0,0;1/2,1/3;1/4,1 >1/1", "0,0 >1/1", "1"], 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (["project", "0,0;1/3,1/4;5/6,3/2 >2/1"], 0,
     "cbb6a09d47f47428419789a7e6be0388a9f31ec0f32d07a82fe8134da5ed27cc",
     "af50bfce6b6c129bf4159778ce91ca7eeca2a766144a2c9d5e064c3a23834f4b"),
    (["project", "0,0;-1/2,1/3;-5/4,7/6 >-1/2"], 0,
     "7da0e908d240295d6d4a3991b7b5ea9b01067eb66857fed0c23132784efd2024",
     "dbc63ab92d88cc1a71e94ede957710a1dd7afd02e5615c68b3f9737de5aac013"),
    (["project", "0,0;-2/3,-1/4;-7/6,-3/2 >-3/-1"], 0,
     "e6d5f0409349c159d67b34b746f86c97e96cccdf0669b6fceb15cae428db1e10",
     "0cc5be8e8665d85d64f640f182ea5350e60c91051005cae9f301d6eb1a6b3057"),
    (["project", "0,0;5/12,-1/3;3/4,-7/4 >1/-3"], 0,
     "1655513ce52331dda8239409a739609eb859b1fd1e26d18b789f2d2d74739b13",
     "a4a757117dc3a221622f51535e16e213d1c43ef025cf6d1ecb772cc425dc3786"),
    (["project", "0,0;-1/3,-1/2 >0/-1"], 0,
     "dbf78efba4db41ce351ceab5ca07bfe190a657585eb296f8feb10f49fb626bd4",
     "f5740cd1dee89940421f6a0d0e392b6c69f494eba86157c8d0d9d160fd61cd05"),
    (["ell1-check", "0,0;1/4,1/6;1/2,1/3;0.75,1/3"], 0,
     "5f1f234f8c2fdd1af005294cbffa5e6b25ae0f9cde135452b20e33ce7456defc",
     "adbaca70cd0e4a2fc9ceabab18d2400bd6e80e7fb831a828693354c9200c3db9"),
    (["ell1-splice", "0,0;1/3,1/2;2/3,1 >1/3", "0,0;1/6,0 >1/1", "10/3"], 0,
     "8963acf5cd529e5ad255d3111ad30775550def185e164ec659db79a920c1a80d",
     "ab0391541f99965c1b3f4b53da9b5035ee017f1d85a46869917ef0f66df15254"),
    (["project", "0,0;-1/4,0;-1/2,0;-1/2,5/3 >-3/4"], 0,
     "0b4adcce0172b2c56462a8211341b66e61a782690dcd9d8faaf1020c6739de9b",
     "2384534b299e87a1f15ba4f1299ae3c0265d35d1bda8b1c3e407d02840493e7a"),
]


def _assert_golden(argv, code, text_sha, json_sha, capsys):
    for fmt, want in (("text", text_sha), ("json", json_sha)):
        got_code, out, _ = run(["--format", fmt, *argv], capsys)
        assert got_code == code
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt


@pytest.mark.parametrize("argv, code, text_sha, json_sha", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_certificate_output_is_byte_identical(argv, code, text_sha, json_sha,
                                              capsys):
    _assert_golden(argv, code, text_sha, json_sha, capsys)


def test_demo_cone_bytes_ignore_the_environment():
    # the cone demo once read its precision from LATTICE_HORIZON_PRECISION:
    # 128 changed these bytes and 3 exited 1; fresh children, so no import
    # in this process can have read the variable first
    argv, code, text_sha, json_sha = next(
        g for g in GOLDEN if g[0] == ["demo", "cone", "--eps", "1/7"])
    main_code = "import sys\nfrom gridrays.cli import main\nsys.exit(main())"
    for precision in ("128", "3"):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                   LATTICE_HORIZON_PRECISION=precision)
        for fmt, want in (("text", text_sha), ("json", json_sha)):
            proc = subprocess.run(
                [sys.executable, "-c", main_code, "--format", fmt, *argv],
                env=env, capture_output=True, timeout=120)
            assert proc.returncode == code, proc.stderr
            assert hashlib.sha256(proc.stdout).hexdigest() == want, \
                (precision, fmt)


def test_cardinality_csv_is_byte_identical(capsys):
    code, out, _ = run(["--format", "csv", "demo", "cardinality", "(0)",
                        "(23)", "1(0)", "0(1)"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == CARDINALITY_CSV_SHA


@pytest.mark.parametrize("argv, code, text_sha, json_sha", RAY_GOLDEN,
                         ids=[" ".join(g[0])[:60] for g in RAY_GOLDEN])
def test_ray_output_is_byte_identical(argv, code, text_sha, json_sha, capsys):
    _assert_golden(argv, code, text_sha, json_sha, capsys)


@pytest.mark.parametrize("argv, code, text_sha, json_sha", PLANE_GOLDEN,
                         ids=[" ".join(g[0])[:60] for g in PLANE_GOLDEN])
def test_plane_output_is_byte_identical(argv, code, text_sha, json_sha, capsys):
    _assert_golden(argv, code, text_sha, json_sha, capsys)


@pytest.mark.parametrize("literal", ["0,0;1/0,1", "0,0;1", "0,0;1,1 >1",
                                     "0,0 >1/0 >1/1"])
def test_malformed_polyline_is_one_typed_error(literal, capsys):
    # a ZeroDivisionError escaped main and unpacking errors were printed raw
    err = f"error: ValueError: cannot parse polyline literal {literal!r}\n"
    for argv in (["ell1-check", literal], ["project", literal],
                 ["ell1-splice", "0,0 >1/1", literal, "1"]):
        assert run(argv, capsys) == (1, "", err)


def test_fractional_direction_splice_reads_back(capsys):
    # a fractional direction is written scaled to integers, so it reads back
    path = "0,0;1/2,1/2 >1/2"
    assert run(["ell1-splice", "0,0 >1/1", "0,0 >0.5/1", "1"], capsys) == \
        (0, '{"bound": "1/3", "handoff_gap": "1/3", "path": "%s"}\n' % path,
         "")
    code, out, err = run(["ell1-check", path], capsys)
    assert (code, err) == (0, "") and json.loads(out)["geodesic"] is True


def test_equal_direction_queries_skip_the_window(monkeypatch, capsys):
    # both scanned every time up to 10**10; the supremum answers at once
    from gridrays import rays
    calls = []

    def word_metric(p, q):
        calls.append(1)
        assert len(calls) < 10_000, "the window is being scanned"
        return abs(p[0] - q[0]) + abs(p[1] - q[1])
    monkeypatch.setattr(rays, "word_metric", word_metric)
    assert run(["ball", "(01)", "(01)", "--K", "0,10000000000", "--eps", "1"],
               capsys) == (0, "true\n", "")
    assert run(["divergence", "(0011)", "(0110)", "--M", "10",
                "--horizon", "10000000000"], capsys) == (0, "not-found\n", "")
    # what the scans print on a small window
    monkeypatch.undo()
    f, g = rays.parse_ray("(01)"), rays.parse_ray("(01)")
    assert all(rays.word_metric(f.point_at(t), g.point_at(t)) < 1
               for t in range(200))
    f, g = rays.parse_ray("(0011)"), rays.parse_ray("(0110)")
    assert all(rays.word_metric(f.point_at(t), g.point_at(t)) <= 10
               for t in range(200))


def test_negative_time_is_a_library_error(tmp_path, capsys):
    code, out, err = run(["render", "(01)", "--steps", "-1",
                          "--out", str(tmp_path / "neg.svg")], capsys)
    assert code == 1 and out == "" and "ValueError" in err
    code, out, err = run(["divergence", "(0)", "(1)", "--horizon", "-1"], capsys)
    assert code == 1 and out == "" and "ValueError" in err


# exit code and exact stderr of library errors, frozen when each exception
# type was listed in main's except clause
ERROR_GOLDEN = [
    (["nmap", "(05)"],
     "error: ValueError: cannot parse ray literal '(05)'\n"),
    (["splice", "(01)", "(23)", "2"],
     "error: QuadrantMismatch: '(01)' and '(23)' do not share a quadrant "
     "window\n"),
    (["bfs-metric", "0,0", "1,1", "--gens", "2,0;0,2"],
     "error: GenerationError: ((-2, 0), (0, -2), (0, 2), (2, 0)) does not "
     "generate the grid\n"),
    (["genset-lipschitz", "--gens", "1,0;0,1", "--gens2", "5,1;1,0",
      "--cap", "2"],
     "error: BallExceeded: generator (0, -1) outside radius 2 in S2\n"),
    (["ball", "(01)", "(001)", "--K", "5", "--eps", "1"],
     "error: --K expects two rationals a,b, got '5'\n"),
    (["metric", "1,2", "3"],
     "error: ValueError: expected a point x,y of two integers, got '3'\n"),
    (["count", "0,0", "a,b"],
     "error: ValueError: expected a point x,y of two integers, got 'a,b'\n"),
    (["bfs-metric", "0,0", "1,1", "--gens", "1,0;x"],
     "error: ValueError: expected a point x,y of two integers, got 'x'\n"),
    (["qi-violate", "--map", "genset", "--gens", "1,0;0,1", "--gens2",
      "1,0;100,1", "--cap", "5", "--strategy", "grid"],
     "error: ValueError: pair (-10, 0), (-9, -1) outside radius cap 5\n"),
    (["qi-check", "--map", "genset", "--gens", "1,0;0,1", "--gens2",
      "1,0;100,1", "--cap", "5", "--radius", "3"],
     "error: ValueError: pair (-3, 0), (-2, -1) outside radius cap 5\n"),
    # a negative k is refused, not certified as |k|
    (["qi-check", "--k", "-2", "--count", "50"],
     "error: ValueError: need k >= 1 and c >= 0\n"),
    (["qi-violate", "--k", "-3/2", "--c", "0"],
     "error: ValueError: need k >= 1 and c >= 0\n"),
]


def _row_ids(rows) -> list[str]:
    """Each row's subcommand, with "-2", "-3", ... on its repeats."""
    names = [argv[0] for argv, _ in rows]
    return [n if i == names.index(n) else f"{n}-{names[:i + 1].count(n)}"
            for i, n in enumerate(names)]


@pytest.mark.parametrize("argv, err", ERROR_GOLDEN, ids=_row_ids(ERROR_GOLDEN))
def test_library_error_stderr_is_byte_identical(argv, err, capsys):
    assert run(argv, capsys) == (1, "", err)


# a token of "-" and a digit is an argument, not an option: each of these
# was a usage error (exit 2) unless "--" came before it, or for --box ever
NEGATIVE_LEADING = [
    (["metric", "0,0", "-3,4"], (0, "7\n", "")),
    (["count", "0,0", "-2,3"], (0, "10\n", "")),
    (["enumerate", "-1,-2", "1,-1"], (0, "001\n010\n100\n", "")),
    (["bfs-metric", "-1,0", "1,1"], (0, "3\n", "")),
    (["ell1-check", "-1,0;1,1"], (0, '{"endpoint_distance": "3", '
                                     '"geodesic": true, "length": "3"}\n', "")),
    (["project", "-1,0;0,2"],
     (1, "", "error: ValueError: a final direction is required\n")),
    (["ell1-splice", "-1,0;1,1", "0,0;1,0 >1/0", "1"],
     (1, "", "error: ValueError: f must be a ray\n")),
    (["ell1-splice", "0,0;1,1 >1/1", "0,0;1,0 >1/0", "-1/2"],
     (1, "", "error: ValueError: splice parameter must be nonnegative\n")),
    (["digitize", "-3/2", "1", "--steps", "6"], (0, "(21221)\n212212\n", "")),
    (["qi-check", "--box", "-5,5", "--count", "10"],
     (0, '{"D": "1", "c": "2", "checked": 10, "k": "2", "k_sq": "4", '
         '"map": "floor", "violation_count": 0, "violations": []}\n', "")),
]


@pytest.mark.parametrize("argv, want", NEGATIVE_LEADING,
                         ids=_row_ids(NEGATIVE_LEADING))
def test_a_negative_leading_number_is_an_argument(argv, want, capsys):
    assert run(argv, capsys) == want


def test_long_project_period_is_refused_before_any_digit(monkeypatch, capsys):
    from gridrays import rays
    calls = []
    digits = rays.Staircase.digits
    monkeypatch.setattr(rays.Staircase, "digits",
                        lambda line, *a: calls.append(a) or digits(line, *a))
    assert run(["project", "0,0 >1/100000"], capsys) == (
        1, "", "error: ValueError: rational direction 100000/1 has period "
        "100001; reduce the fraction or pass an exact irrational\n")
    assert calls == []
    # the same cap and message as digitize
    assert run(["digitize", "1", "100000"], capsys)[2] == (
        "error: ValueError: rational direction 100000/1 has period 100001; "
        "reduce the fraction or pass an exact irrational\n")
    assert calls == []
