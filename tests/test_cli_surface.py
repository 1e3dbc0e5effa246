"""The parser's surface: a structural snapshot of every parser and the
exit code and last line of the usage errors, both frozen before the
subcommands were described by one table; and the one-row parser a run
builds, against the full parser.

The snapshot records what argparse is told, not how it lays out help, so
it holds on every supported Python version."""

import argparse
import hashlib
import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from gridrays import cli
from gridrays.cli import REGISTRY, build_parser, main


def _subparsers(parser):
    return next((a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), None)


def _action(a) -> dict:
    return {
        "class": type(a).__name__,
        "option_strings": a.option_strings,
        "dest": a.dest,
        "nargs": a.nargs,
        "default": a.default,
        "type": None if a.type is None else a.type.__name__,
        "choices": None if a.choices is None else list(a.choices),
        "required": a.required,
        "help": a.help,
        "metavar": a.metavar,
    }


def _snapshot(parser, out=None) -> dict:
    """{prog: the parser's description and actions, and for a parser with
    subcommands their order and the help each was given}, leaves included."""
    out = {} if out is None else out
    entry = {"description": parser.description,
             "actions": [_action(a) for a in parser._actions]}
    sub = _subparsers(parser)
    if sub is not None:
        entry["subcommands"] = list(sub.choices)
        entry["subcommand_help"] = [[c.dest, c.help]
                                    for c in sub._choices_actions]
    out[parser.prog] = entry
    for child in (sub.choices.values() if sub is not None else ()):
        _snapshot(child, out)
    return out


def _sha(entry) -> str:
    return hashlib.sha256(json.dumps(entry, sort_keys=True).encode()).hexdigest()


SURFACE = {
    "gridrays":
        "fdd7d12fbbadc6cee5a86c22919eb48fddd2ea730c949dd893e93cbf782913d7",
    "gridrays metric":
        "2b5165d5d83e939b0893ad9c0c4300bb326cc46b4dc2d59c514630486957af47",
    "gridrays bfs-metric":
        "7753e5dd7a20e499e89cc19fabf9031638426d40138a9a1f370746cbd5c75b5a",
    "gridrays count":
        "2b5165d5d83e939b0893ad9c0c4300bb326cc46b4dc2d59c514630486957af47",
    "gridrays enumerate":
        "f0825c72ee8fa17d0c26d7f335d55c55405ce65ffaafc4fe1861f5f4f966b9b0",
    "gridrays is-geodesic":
        "9ef9440d084bcd5afc0ab47730de70a6e4c0a58a1a985850ae05bb0c076463f4",
    "gridrays genset-lipschitz":
        "0b670f3737bf60a290c7cbd2bb1f83b9e43d79b8015d500b827907536ea6ed29",
    "gridrays nmap":
        "5cb771e1890edf650a8c5f6924ab01805243287db6edf5ab75b2008be916487d",
    "gridrays bmap":
        "201d3649ef523775e5465d0d3e2b0ecaf5f36ec935e86004bdd53fc1b323d74d",
    "gridrays digitize":
        "9e53f3ae8f51e238ddb8f81ffe320967c397560fddca90c82f10f3baa3e092e2",
    "gridrays direction":
        "5cb771e1890edf650a8c5f6924ab01805243287db6edf5ab75b2008be916487d",
    "gridrays asymptotic":
        "0a2c8b9e5646e101801b9192b55ca52f8a564df4c43e7811740431f0164a288f",
    "gridrays divergence":
        "57c58a7ccbd9bc7ef88630e7f0537272d41038d8c6a5aec975a683e3526b08ba",
    "gridrays splice":
        "f7fca22c5d0a3fd701d458b07a76323dc19f433f9b7116dfcebe73078dcecb35",
    "gridrays ball":
        "50158e6a355316d445e180d52ee0f5c7ea34a95e951f6760e8fcd4b2b9a99d6d",
    "gridrays qi-check":
        "c621e0cd192f02af9c9b32691f7ec2c261b0d7c7227102c57b408108b5698979",
    "gridrays qi-violate":
        "227bfde94d21aaea6466d32a0960f7239be9386a178d768c0099550274a3506d",
    "gridrays roundtrip":
        "c2479683fec8ecee1c109168c09cc77911c7777820fd713759d31930a4f7af76",
    "gridrays ell1-check":
        "ed9b81dc32f4f68cbee6278cfe29813a3365cfb1ed7b50c26fe1633c3d8fd3bf",
    "gridrays ell1-splice":
        "84d4ddca85e082042a980b340ececb35bd035ed34dd86b3e33f77a3105522e7c",
    "gridrays project":
        "ed9b81dc32f4f68cbee6278cfe29813a3365cfb1ed7b50c26fe1633c3d8fd3bf",
    "gridrays demo":
        "db6f997fbd9fd47c6ace72e0e3c77a58d85e06e2491bb70706a20d78c5d879a4",
    "gridrays demo trivial-topology":
        "49af58c2aea72fee9950587229000d63f1ba47b1eaf15f6d916009c2ba6920dc",
    "gridrays demo cardinality":
        "d232f26352a4433778ab92f0cea956a5a7c4040885e62960a9b71db01992604f",
    "gridrays demo cone":
        "6f4f12a51948f5df733a5426d39558df266ee098b6ba762d8e4b7c1bbe4bebd9",
    "gridrays render":
        "13c1b5d25564b3f885a61df5678ac6593485e1b90e5ad2d80986c7d382dfc326",
}


def test_every_parser_is_pinned():
    assert list(_snapshot(build_parser())) == list(SURFACE)


@pytest.mark.parametrize("prog", list(SURFACE))
def test_parser_surface_is_unchanged(prog):
    entry = _snapshot(build_parser())[prog]
    assert _sha(entry) == SURFACE[prog], json.dumps(entry, indent=1)


USAGE_ERRORS = [
    (["bogus"],
     "gridrays: error: argument command: invalid choice: 'bogus' (choose "
     "from 'metric', 'bfs-metric', 'count', 'enumerate', 'is-geodesic', "
     "'genset-lipschitz', 'nmap', 'bmap', 'digitize', 'direction', "
     "'asymptotic', 'divergence', 'splice', 'ball', 'qi-check', "
     "'qi-violate', 'roundtrip', 'ell1-check', 'ell1-splice', 'project', "
     "'demo', 'render')"),
    ([],
     "gridrays: error: the following arguments are required: command"),
    (["metric", "0,0"],
     "gridrays metric: error: the following arguments are required: q"),
    (["qi-check", "--count", "-5"],
     "gridrays qi-check: error: argument --count: expected an integer >= 1, "
     "got '-5'"),
    (["qi-check", "--map", "x"],
     "gridrays qi-check: error: argument --map: invalid choice: 'x' (choose "
     "from 'floor', 'inclusion', 'genset')"),
    (["demo"],
     "gridrays demo: error: the following arguments are required: demo"),
    (["demo", "x"],
     "gridrays demo: error: argument demo: invalid choice: 'x' (choose from "
     "'trivial-topology', 'cardinality', 'cone')"),
    (["--format", "xml", "count", "0,0", "1,1"],
     "gridrays: error: argument --format: invalid choice: 'xml' (choose from "
     "'json', 'csv', 'text')"),
]


@pytest.mark.parametrize("argv, last", USAGE_ERRORS,
                         ids=[" ".join(a) or "no-argument"
                              for a, _ in USAGE_ERRORS])
def test_usage_error_is_unchanged(argv, last, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2 and captured.out == ""
    assert captured.err.splitlines()[-1] == last


# -- the one-row parser against the full parser ------------------------------


def _outcome(parse_or_run, argv):
    """(exit code, stdout, stderr) of a call that returns or exits."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = parse_or_run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _full_main(argv):
    """main with every argv parsed by the full parser."""
    with mock.patch.object(cli, "_row_named", return_value=None):
        return main(argv)


def _leaf(parser, name):
    for word in name.split():
        parser = _subparsers(parser).choices[word]
    return parser


def test_a_run_builds_only_its_rows_parser(monkeypatch, capsys):
    built, init = [], cli._Parser.__init__

    def counted(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", counted)
    assert main(["count", "0,0", "3,4"]) == 0
    assert built == ["gridrays", "gridrays count"]
    built.clear()
    assert main(["--format", "json", "demo", "--seed", "4", "cone"]) == 0
    assert built == ["gridrays", "gridrays demo", "gridrays demo cone"]
    built.clear()
    # a usage error is the full parser's, reported after the one-row try
    with pytest.raises(SystemExit):
        main(["count", "0,0"])
    assert built == ["gridrays", "gridrays count", *SURFACE]
    assert capsys.readouterr().err.splitlines()[-1] == \
        "gridrays count: error: the following arguments are required: q"


@pytest.mark.parametrize("name", list(REGISTRY))
def test_a_rows_parser_is_its_row_of_the_full_parser(name):
    full, one = build_parser(), build_parser(name)
    assert _snapshot(_leaf(one, name)) == _snapshot(_leaf(full, name))
    assert _leaf(one, name).format_help() == _leaf(full, name).format_help()


HELP = [[], ["demo"], *(name.split() for name in REGISTRY)]


@pytest.mark.parametrize("words", HELP, ids=[" ".join(w) or "top" for w in HELP])
def test_help_is_the_full_parsers(words):
    # help layout differs between Python versions, so the two paths are
    # compared on the running interpreter
    for flag in ("--help", "-h", "--he"):
        want = _outcome(build_parser().parse_args, [*words, flag])
        assert want[0] == 0 and want[1].startswith("usage: gridrays")
        assert _outcome(main, [*words, flag]) == want
        assert _outcome(main, [flag, *words]) == \
            _outcome(build_parser().parse_args, [flag, *words])


# argv drawn from global flags, a row's name and arguments that run it, and
# stray tokens spliced in: row names, short values, bogus words and flags
_GLOBAL = [["--format=json"], ["--form", "json"], ["--format", "csv"],
           ["--format", "xml"], ["--seed", "3"], ["--seed", "-5"],
           ["--seed=x"], ["--out", "count"], ["--out", "demo"], ["--out"],
           ["-h"]]
_RUNS = {
    "metric": ["0,0", "3,4"], "bfs-metric": ["0,0", "3,4", "--cap", "7"],
    "count": ["-1,2", "3,4"], "enumerate": ["0,0", "2,3", "--limit", "4"],
    "is-geodesic": ["0110"],
    "genset-lipschitz": ["--gens", "1,0;0,1", "--gens2", "1,0;1,1"],
    "nmap": ["(01)"], "bmap": ["1(01)"], "digitize": ["1", "3", "--steps", "7"],
    "direction": ["1(0)"], "asymptotic": ["(01)", "(001)"],
    "divergence": ["(01)", "(001)", "--M", "3"], "splice": ["(01)", "(001)", "3"],
    "ball": ["(01)", "(001)", "--K", "0,5", "--eps", "1"],
    "qi-check": ["--count", "7"], "qi-violate": ["--budget", "7"],
    "roundtrip": ["--count", "7"], "ell1-check": ["0,0;1,2;3,2"],
    "ell1-splice": ["0,0;1/3,1/2 >1/3", "0,0;1/6,0 >1/1", "10/3"],
    "project": ["0,0;1,2 >1/0"], "demo trivial-topology": ["--K", "0,3"],
    "demo cardinality": ["(0)", "(1)"], "demo cone": ["--eps", "1/2"],
    "render": ["(01)", "--steps", "5", "--out", "fig.svg"],
    "demo": [], "demo bogus": [], "bogus": ["0,0"], "": [],
}
_TOKENS = ["0,0", "-1,2", "-5", "-3/2", "0", "7", "x", "", "(001)",
           "1/3,1/2", "count", "cone", "demo", "--count", "--cap", "--steps",
           "--K", "--eps", "--gens", "--box=1/3,1/2", "--box", "--k2",
           "--map", "genset", "--out", "--format=csv", "--bogus", "-h"]


@st.composite
def _argvs(draw):
    head = draw(st.lists(st.sampled_from(_GLOBAL), max_size=2))
    row = draw(st.sampled_from(list(_RUNS)))
    argv = [tok for group in head for tok in group] + row.split() + _RUNS[row]
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at] = [draw(st.sampled_from(_TOKENS))]
    return draw(st.permutations(argv)) if draw(st.integers(0, 7)) == 0 else argv


def _in_fresh_dir(run, argv):
    """run's outcome on argv, with the files it wrote, in an empty folder."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            got = _outcome(run, argv)
        finally:
            os.chdir(cwd)
        files = {}
        for name in os.listdir(tmp):
            with open(os.path.join(tmp, name), "rb") as fh:
                files[name] = fh.read()
    return got, files


@settings(deadline=None, max_examples=200)
@given(_argvs())
def test_main_matches_the_full_parser_on_any_argv(argv):
    # an exception other than SystemExit escaping main fails the test
    got = _in_fresh_dir(main, argv)
    assert got == _in_fresh_dir(_full_main, argv)
    assert got[0][0] in (0, 1, 2)
