"""The parser's surface: a structural snapshot of every parser and the
exit code and last line of the usage errors, both frozen before the
subcommands were described by one table.

The snapshot records what argparse is told, not how it lays out help, so
it holds on every supported Python version."""

import argparse
import hashlib
import json

import pytest

from gridrays.cli import build_parser, main


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
