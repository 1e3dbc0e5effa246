"""Demo reports and the certified cone-length computation."""

from fractions import Fraction

import pytest

from gridrays.demos import (cone_lengths, demo_cardinality, demo_cone,
                            demo_trivial_topology)
from gridrays.rays import BallQuery, parse_ray


def test_cone_lengths_precision_scales(monkeypatch):
    coarse = cone_lengths(Fraction(1), bits=32)
    fine = cone_lengths(Fraction(1), bits=96)
    assert fine.through_cone.width < coarse.through_cone.width
    assert coarse.through_cone.lo <= fine.through_cone.lo
    assert not fine.extendable


# pi to 100 decimals, truncated: PI_100 < pi < PI_100 + 10^-100
PI_100 = Fraction(
    "3.1415926535897932384626433832795028841971693993751"
    "058209749445923078164062862089986280348253421170679")


@pytest.mark.parametrize("bits", [8, 32, 64, 96, 300])
@pytest.mark.parametrize("eps", [Fraction(1), Fraction(1, 10), Fraction(1, 7),
                                 Fraction(3, 2), Fraction(1, 10**9)])
def test_cone_enclosures_contain_their_values(eps, bits):
    result = cone_lengths(eps, bits=bits)
    through, around = result.through_cone, result.around_cone
    # lo < 2*sqrt(26)*eps < hi, decided on squares: (2*sqrt(26)*eps)^2 = 104*eps^2
    assert 0 < through.lo and through.lo ** 2 < 104 * eps ** 2 < through.hi ** 2
    assert around.lo <= PI_100 * eps
    assert (PI_100 + Fraction(1, 10**100)) * eps <= around.hi
    for enc in (through, around):
        assert 0 < enc.width <= 4 * eps / 2**bits


def test_demo_cone_ok():
    report = demo_cone(Fraction(1, 10))
    assert report.ok
    assert any(a.name == "extendable" for a in report.assertions)


def test_demo_cardinality_flags_twins():
    report, rows = demo_cardinality(["1(0)", "0(1)", "(23)"])
    assert report.ok
    twins = [r for r in rows if r.collides_with]
    assert len(twins) == 1 and twins[0].collides_with == "1(0)"
    assert {r.value for r in rows} == {"1/2", "7/3"}


def test_demo_cardinality_rejects_invalid():
    with pytest.raises(Exception):
        demo_cardinality(["(02)"])


def test_demo_trivial_topology_report():
    report, demo = demo_trivial_topology(parse_ray("(01)"), parse_ray("(001)"),
                                         BallQuery(0, 5, 1))
    assert report.ok and demo.ok
    names = {a.name for a in report.assertions}
    assert "chain_covers_four_axes" in names
