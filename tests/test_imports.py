"""The lazy package surface: what a fresh process loads, and what
``gridrays`` exports."""

import ast
import json
import os
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import gridrays

ROOT = Path(__file__).resolve().parent.parent

# the public surface before names resolved lazily, in its order
PUBLIC = """
Surd sqrt_exact exact_sign GeneratingSet
GenerationError BallExceeded word_metric bfs_metric geodesic_count
enumerate_geodesics is_geodesic_word generating_set_lipschitz
standard_generators RayCode InvalidRay QuadrantMismatch BallQuery Enclosure
Asymptotic Divergent parse_ray periodic_ray east_ray axis_ray validate b_map
n_map digitize direction_of are_asymptotic divergence_time splice
ball_contains trivial_topology_demo QIParams QIReport FloorMap InclusionMap
GensetMap floor_map check_embedding find_violation roundtrip_displacement
quasi_surjectivity_bound floor_chain_holds Polyline parse_polyline
ell1_distance is_geodesic_polyline check_monotone_commitment splice_plane
project_to_lattice cone_lengths demo_cone demo_cardinality
demo_trivial_topology
""".split()

# standard modules that no fresh process may load: dataclasses imports
# inspect, and csv is needed only for --format csv
SLOW = ["dataclasses", "inspect", "csv"]

# imports gridrays, runs cli.main on argv if any, and prints the gridrays
# modules the process had loaded then, and which of the modules named in
# argv[1] it had loaded, before it loads json to print them
PROBE = """\
import contextlib, io, sys
import gridrays
if sys.argv[2:]:
    import gridrays.cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert gridrays.cli.main(sys.argv[2:]) == 0
loaded = set(sys.modules)
import json
print(json.dumps(sorted(m for m in loaded if m.partition(".")[0] == "gridrays")))
print(json.dumps([m for m in sys.argv[1].split(",") if m in loaded]))
"""

CLI = {"gridrays", "gridrays.cli", "gridrays.lattice"}
RAYS = CLI | {"gridrays.exactnum", "gridrays.rays"}
LOADED = [
    ([], {"gridrays"}),
    (["count", "0,0", "3,4"], CLI),
    (["nmap", "(23)"], RAYS),
    (["qi-check", "--count", "20"],
     CLI | {"gridrays.exactnum", "gridrays.quasi"}),
    (["project", "0,0;1,2 >1/0"], RAYS | {"gridrays.ell1"}),
    (["demo", "cone"], RAYS | {"gridrays.demos"}),
    (["--format", "json", "demo", "cardinality", "(0)"],
     RAYS | {"gridrays.demos"}),
    (["render", "(01)", "--steps", "5", "--out", "fig.svg"],
     RAYS | {"gridrays.svgfig"}),
]


def _probe(argv, watched, cwd):
    """The gridrays modules and the modules of ``watched`` that a fresh
    process running ``cli.main(argv)`` loads."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", PROBE, ",".join(watched),
                           *argv], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded, seen = map(json.loads, proc.stdout.splitlines())
    return set(loaded), seen


@pytest.mark.parametrize("argv, modules", LOADED,
                         ids=[" ".join(a[:2]) or "import" for a, _ in LOADED])
def test_a_fresh_process_loads_only_what_it_runs(argv, modules, tmp_path):
    loaded, slow = _probe(argv, SLOW, tmp_path)
    assert loaded == modules
    assert slow == []  # no row runs --format csv


def test_a_text_count_loads_neither_json_nor_fractions(tmp_path):
    # it prints an int: json loads for JSON output or a default text line,
    # fractions (with decimal and numbers) for a rational argument
    watched = ["json", "fractions", "decimal", "numbers"]
    assert _probe(["count", "0,0", "3,4"], watched, tmp_path) == (CLI, [])
    assert _probe(["--format", "json", "count", "0,0", "3,4"], watched,
                  tmp_path) == (CLI, ["json"])


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted((ROOT / "src" / "gridrays").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, n) for n in names
                      if n.partition(".")[0] == "dataclasses"]
    assert found == []


def test_public_names_are_their_home_modules_objects():
    assert gridrays.__all__ == PUBLIC
    for name in gridrays.__all__:
        obj = getattr(gridrays, name)
        home = f"gridrays.{gridrays._HOME[name]}"
        assert obj.__module__ == home, name
        assert obj is getattr(import_module(home), name), name


def test_dir_and_star_import_cover_the_public_names():
    assert set(gridrays.__all__) <= set(dir(gridrays))
    namespace = {}
    exec("from gridrays import *", namespace)
    assert set(gridrays.__all__) <= set(namespace)
    assert namespace["Surd"] is import_module("gridrays.exactnum").Surd


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gridrays.no_such_name
    assert not hasattr(gridrays, "no_such_name")
    with pytest.raises(ImportError):
        exec("from gridrays import no_such_name", {})
