"""Self-checking demonstration scenarios exposed by the CLI.

Each demo returns a report whose assertions were evaluated exactly; the
CLI turns a failed assertion into a nonzero exit code.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from . import rays
from .exactnum import Surd
from .lattice import Value
from .rays import (BallQuery, Enclosure, RayCode, n_map, parse_ray,
                   trivial_topology_demo, validate)


class Assertion(Value):
    __slots__ = ("name", "expected", "actual", "passed")


class DemoReport(Value):
    __slots__ = ("scenario", "inputs", "assertions", "artifacts")

    def __init__(self, scenario: str, inputs: dict,
                 assertions: Optional[list] = None,
                 artifacts: Optional[list] = None):
        self.scenario, self.inputs = scenario, inputs
        self.assertions = [] if assertions is None else assertions
        self.artifacts = [] if artifacts is None else artifacts

    def check(self, name: str, expected, actual) -> None:
        self.assertions.append(
            Assertion(name, str(expected), str(actual), expected == actual))

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)


def _pi_bounds(bits: int) -> tuple[Fraction, Fraction]:
    """pi = 16*atan(1/5) - 4*atan(1/239) in fixed point: each floored term is
    off by < 1 and the dropped tail is < 1, so the error is below the weighted
    term counts + 1; the guard bits keep the width at most 2^(1-bits)."""
    one = 1 << (bits + bits.bit_length() + 8)
    total = err = 0
    for weight, x in ((16, 5), (-4, 239)):
        power, k, acc = one // x, 0, 0
        while power:
            acc += (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        total += weight * acc
        err += abs(weight) * (k + 1)
    return Fraction(total - err, one), Fraction(total + err, one)


class ConeLengths(Value):
    """The two candidate extensions past the cone point: the segment pair
    through it (length 2*sqrt(26)*eps) versus the horizontal circle arc
    around it (length pi*eps)."""

    __slots__ = ("epsilon", "through_cone", "around_cone", "extendable")


def cone_lengths(epsilon: Fraction, bits: int = 64) -> ConeLengths:
    """Certified enclosures showing the cone geodesic cannot be extended."""
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    lo, hi = Surd(0, 2, 26).bounds(bits)
    through = Enclosure(lo * epsilon, hi * epsilon)
    lo, hi = _pi_bounds(bits)
    around = Enclosure(lo * epsilon, hi * epsilon)
    if through.lo > around.hi:
        extendable = False
    elif through.hi < around.lo:
        extendable = True
    else:
        raise ValueError("enclosures overlap; raise the precision")
    return ConeLengths(epsilon, through, around, extendable)


def demo_cone(epsilon: Fraction, bits: int = 64) -> DemoReport:
    result = cone_lengths(epsilon, bits)
    report = DemoReport("cone", {"epsilon": str(epsilon)})
    report.check("through_longer_than_around", True,
                 result.through_cone.lo > result.around_cone.hi)
    report.check("extendable", False, result.extendable)
    ratio_lo = result.through_cone.lo / result.around_cone.hi
    report.check("ratio_exceeds_3", True, ratio_lo > 3)
    report.inputs["through"] = [str(result.through_cone.lo),
                                str(result.through_cone.hi)]
    report.inputs["around"] = [str(result.around_cone.lo),
                               str(result.around_cone.hi)]
    return report


class CardinalityRow(Value):
    __slots__ = ("literal", "m", "value", "collides_with")

    def __init__(self, literal: str, m: int, value: str,
                 collides_with: Optional[str] = None):
        # value: exact rational, or an interval for Sturmian tails
        self.literal, self.m, self.value = literal, m, value
        self.collides_with = collides_with


def demo_cardinality(literals: Sequence[str]) -> tuple[DemoReport, list[CardinalityRow]]:
    """Tabulate the boundary-value map over ray literals, flagging the
    dyadic-twin collisions."""
    report = DemoReport("cardinality", {"rays": list(literals)})
    rows: list[CardinalityRow] = []
    values: dict[Fraction, str] = {}
    for lit in literals:
        ray = parse_ray(lit).canonical()
        if not validate(ray):
            raise rays.InvalidRay(f"invalid ray literal {lit!r}")
        val = n_map(ray)
        if isinstance(val, Enclosure):
            rows.append(CardinalityRow(lit, ray.m(),
                                       f"[{val.lo}, {val.hi}]"))
            continue
        twin = values.get(val)
        rows.append(CardinalityRow(lit, ray.m(), str(val), twin))
        if twin is None:
            values[val] = lit
    report.check("all_values_in_range", True,
                 all(isinstance(r.m, int) and 0 <= r.m <= 3 for r in rows))
    return report, rows


def demo_trivial_topology(f: RayCode, g: RayCode,
                          query: BallQuery) -> tuple[DemoReport, "rays.TopologyDemo"]:
    demo = trivial_topology_demo(f, g, query)
    report = DemoReport("trivial-topology", {
        "f": f.literal(), "g": g.literal(),
        "K": [str(query.a), str(query.b)], "epsilon": str(query.epsilon),
    })
    report.check("g_s_in_ball", True, demo.contained)
    report.check("g_s_asymptotic_to_g", True,
                 isinstance(demo.verdict, rays.Asymptotic))
    for i, link in enumerate(demo.chain):
        report.check(f"chain_{i}_contained", True, link.contained)
        report.check(f"chain_{i}_asymptotic", True,
                     isinstance(link.verdict, rays.Asymptotic))
    axes = {link.axis.literal() for link in demo.chain}
    report.check("chain_covers_four_axes", 4, len(axes))
    return report, demo
