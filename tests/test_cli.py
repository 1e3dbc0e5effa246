"""Command-line interface: envelopes, exit codes, determinism, coverage."""

import json
import tracemalloc
from collections import Counter

import pytest

from gridrays.cli import REGISTRY, build_parser, main

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
])
def test_negative_count_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


def test_negative_time_is_a_library_error(capsys):
    code, out, err = run(["render", "(01)", "--steps", "-1"], capsys)
    assert code == 1 and out == "" and "ValueError" in err
    code, out, err = run(["divergence", "(0)", "(1)", "--horizon", "-1"], capsys)
    assert code == 1 and out == "" and "ValueError" in err
