"""Shared pieces of the benchmark: paths, seeded sampling, the check error."""

from __future__ import annotations

import random
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
#: run artifacts (trace files, rendered figures); listed in .gitignore
OUT = ROOT / ".bench_out"


class CheckFailed(Exception):
    """An operation's output disagreed with the benchmark's own oracle."""


def require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def rng_for(workload: str, seed: int) -> random.Random:
    """The seeded generator for one workload (string seeds hash stably)."""
    return random.Random(f"{workload}:{seed}")


def strata(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n sizes spread evenly over [lo, hi]: the middle of each of n equal
    strata, moved by the seed by at most a tenth of a stratum.

    Every seed then gets nearly the same sizes, so what a pass costs does
    not swing with the seed, while the inputs themselves still differ.
    """
    return [lo + (hi - lo) * (i + 0.5 + 0.2 * (rng.random() - 0.5)) / n
            for i in range(n)]


def istrata(rng: random.Random, n: int, lo: int, hi: int) -> list[int]:
    return [int(v) for v in strata(rng, n, lo, hi)]


def mix(rng: random.Random, groups: dict[str, list[dict]]) -> list[tuple]:
    """Flatten kind -> param lists into one seeded-shuffled pass of specs."""
    specs = [(kind, params) for kind, plist in groups.items() for params in plist]
    rng.shuffle(specs)
    return specs
