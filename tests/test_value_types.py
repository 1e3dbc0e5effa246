"""The package's value types: construction, equality, hashing, repr and
validation, frozen while they were dataclasses."""

from fractions import Fraction

import pytest

from gridrays.demos import Assertion, CardinalityRow, ConeLengths, DemoReport
from gridrays.ell1 import PlaneSplice, Polyline
from gridrays.exactnum import Surd, sqrt_exact
from gridrays.quasi import (QIParams, QIReport, RoundtripReport,
                            SurjectivityReport, Violation)
from gridrays.rays import (Asymptotic, BallQuery, ChainLink, Divergent,
                           Enclosure, PeriodicTail, RayCode, SturmianTail,
                           TopologyDemo, parse_ray)

F = Fraction


def _query():
    return BallQuery(F(0), F(5), F(1, 2))


def _link():
    return ChainLink(parse_ray("(0)"), parse_ray("(1)"), parse_ray("0(1)"),
                     True, Asymptotic(1, True))


# (type, a factory of its fields in order, the fields given defaults, the
# exact repr of the type built from those fields); each factory call builds
# new objects, so equal instances share no field object
CASES = [
    (PeriodicTail, lambda: {"period": (0, 1, 1)}, (),
     "PeriodicTail(period=(0, 1, 1))"),
    (Enclosure, lambda: {"lo": F(1, 3), "hi": F(1, 2)}, (),
     "Enclosure(lo=Fraction(1, 3), hi=Fraction(1, 2))"),
    (Asymptotic, lambda: {"bound": 2, "attained": True}, ("attained",),
     "Asymptotic(bound=2, attained=True)"),
    (Divergent, lambda: {"witness_t": 3, "distance": 11}, (),
     "Divergent(witness_t=3, distance=11)"),
    (BallQuery, lambda: {"a": F(0), "b": F(5), "epsilon": F(1, 2)}, (),
     "BallQuery(a=Fraction(0, 1), b=Fraction(5, 1), "
     "epsilon=Fraction(1, 2))"),
    (ChainLink, lambda: {"center": parse_ray("(0)"), "axis": parse_ray("(1)"),
                         "spliced": parse_ray("0(1)"), "contained": True,
                         "verdict": Asymptotic(1, True)}, (),
     "ChainLink(center=RayCode('(0)'), axis=RayCode('(1)'), "
     "spliced=RayCode('0(1)'), contained=True, "
     "verdict=Asymptotic(bound=1, attained=True))"),
    (TopologyDemo, lambda: {"f": parse_ray("(0)"), "g": parse_ray("(1)"),
                            "query": _query(), "s": 5,
                            "g_s": parse_ray("00000(1)"), "contained": True,
                            "verdict": Asymptotic(0),
                            "chain": (_link(),)}, (),
     "TopologyDemo(f=RayCode('(0)'), g=RayCode('(1)'), "
     "query=BallQuery(a=Fraction(0, 1), b=Fraction(5, 1), "
     "epsilon=Fraction(1, 2)), s=5, g_s=RayCode('00000(1)'), contained=True, "
     "verdict=Asymptotic(bound=0, attained=False), "
     "chain=(ChainLink(center=RayCode('(0)'), axis=RayCode('(1)'), "
     "spliced=RayCode('0(1)'), contained=True, "
     "verdict=Asymptotic(bound=1, attained=True)),))"),
    (QIParams, lambda: {"k_sq": F(2), "c": F(1, 3), "k_label": "k"},
     ("k_label",),
     "QIParams(k_sq=Fraction(2, 1), c=Fraction(1, 3), k_label='k')"),
    (Violation, lambda: {"pair": ((F(0), F(0)), (F(1, 2), F(0))),
                         "side": "upper", "margin": F(1, 4)}, (),
     "Violation(pair=((Fraction(0, 1), Fraction(0, 1)), "
     "(Fraction(1, 2), Fraction(0, 1))), side='upper', "
     "margin=Fraction(1, 4))"),
    (QIReport, lambda: {"map_name": "floor", "params": QIParams(F(1), F(2)),
                        "pairs_checked": 4,
                        "violations": [Violation(((0, 0), (1, 1)), "lower",
                                                 F(1))]},
     ("pairs_checked", "violations"),
     "QIReport(map_name='floor', params=QIParams(k_sq=Fraction(1, 1), "
     "c=Fraction(2, 1), k_label='sqrt(1)'), pairs_checked=4, "
     "violations=[Violation(pair=((0, 0), (1, 1)), side='lower', "
     "margin=Fraction(1, 1))])"),
    (RoundtripReport, lambda: {"max_sq_displacement": F(1, 2),
                               "argmax": (F(1, 2), F(1, 2)), "samples": 3},
     (),
     "RoundtripReport(max_sq_displacement=Fraction(1, 2), "
     "argmax=(Fraction(1, 2), Fraction(1, 2)), samples=3)"),
    (SurjectivityReport, lambda: {"map_name": "inclusion", "bound": F(1),
                                  "max_sq_distance": F(1, 2), "targets": 4},
     (),
     "SurjectivityReport(map_name='inclusion', bound=Fraction(1, 1), "
     "max_sq_distance=Fraction(1, 2), targets=4)"),
    (Assertion, lambda: {"name": "ok", "expected": "1", "actual": "2",
                         "passed": False}, (),
     "Assertion(name='ok', expected='1', actual='2', passed=False)"),
    (DemoReport, lambda: {"scenario": "cone", "inputs": {"epsilon": "1"},
                          "assertions": [Assertion("a", "1", "1", True)],
                          "artifacts": ["fig.svg"]},
     ("assertions", "artifacts"),
     "DemoReport(scenario='cone', inputs={'epsilon': '1'}, "
     "assertions=[Assertion(name='a', expected='1', actual='1', "
     "passed=True)], artifacts=['fig.svg'])"),
    (ConeLengths, lambda: {"epsilon": F(1), "through_cone": Enclosure(F(10),
                                                                      F(11)),
                           "around_cone": Enclosure(F(3), F(4)),
                           "extendable": False}, (),
     "ConeLengths(epsilon=Fraction(1, 1), through_cone=Enclosure("
     "lo=Fraction(10, 1), hi=Fraction(11, 1)), around_cone=Enclosure("
     "lo=Fraction(3, 1), hi=Fraction(4, 1)), extendable=False)"),
    (CardinalityRow, lambda: {"literal": "0(1)", "m": 0, "value": "1/2",
                              "collides_with": "1(0)"}, ("collides_with",),
     "CardinalityRow(literal='0(1)', m=0, value='1/2', "
     "collides_with='1(0)')"),
    (PlaneSplice, lambda: {"path": Polyline([(0, 0)], (1, 1)),
                           "bound": F(1, 3), "handoff_gap": F(0)}, (),
     "PlaneSplice(path=Polyline([(Fraction(0, 1), Fraction(0, 1))], "
     "direction=(Fraction(1, 1), Fraction(1, 1))), bound=Fraction(1, 3), "
     "handoff_gap=Fraction(0, 1))"),
]

IDS = [case[0].__name__ for case in CASES]

# the value each defaulted field takes when it is left out (QIParams fills
# k_label in from k_sq)
DEFAULTS = {"attained": False, "k_label": "sqrt(2)", "pairs_checked": 0,
            "violations": [], "assertions": [],
            "artifacts": [], "collides_with": None}

# types with a mutable field, or a field without a hash
UNHASHABLE = {QIReport, DemoReport}


@pytest.mark.parametrize("cls, make, defaulted, text", CASES, ids=IDS)
def test_construction_positional_keyword_and_default(cls, make, defaulted,
                                                     text):
    fields = make()
    by_position, by_keyword = cls(*fields.values()), cls(**make())
    for name, value in fields.items():
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    required = {k: v for k, v in make().items() if k not in defaulted}
    bare = cls(**required)
    for name in defaulted:
        assert getattr(bare, name) == DEFAULTS[name]
    assert cls(*required.values()) == bare


@pytest.mark.parametrize("cls, make, defaulted, text", CASES, ids=IDS)
def test_misused_construction_is_a_type_error(cls, make, defaulted, text):
    # each type's first field has no default
    fields = make()
    first, *rest = fields
    misuses = {
        "a field missing": lambda: cls(**{n: fields[n] for n in rest}),
        "one positional too many": lambda: cls(*fields.values(), None),
        "an unknown keyword": lambda: cls(**fields, unknown=None),
        "a field given twice": lambda: cls(fields[first], **fields),
    }
    for what, misuse in misuses.items():
        with pytest.raises(TypeError):
            misuse()
            pytest.fail(f"{what}: no TypeError")


@pytest.mark.parametrize("cls, make, defaulted, text", CASES, ids=IDS)
def test_equality_is_by_value_and_within_one_type(cls, make, defaulted, text):
    a, b = cls(**make()), cls(**make())
    assert a == b and not a != b
    assert a != tuple(make().values())
    others = [c(**m()) for c, m, _, _ in CASES if c is not cls]
    assert all(a != other for other in others)
    # the last field changed
    name, value = list(make().items())[-1]
    changed = dict(make(), **{name: _other(value)})
    assert cls(**changed) != a


def _other(value):
    """A value in place of a field's value that differs from it."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, Fraction)):
        return value + 7
    if isinstance(value, tuple):
        return value[:-1] if len(value) > 1 else value * 2
    if isinstance(value, (str, list)):
        return value * 2
    return None


def test_equal_fields_in_another_type_are_not_equal():
    assert Asymptotic(3, False) != Divergent(3, 0)
    assert Divergent(3, 0) != Asymptotic(3, False)
    assert Asymptotic(3, False) != (3, False)
    assert Enclosure(F(0), F(1)) != (F(0), F(1))
    assert RoundtripReport(F(1), (F(0), F(0)), 2) != \
        SurjectivityReport("floor", F(1), F(0), 2)


@pytest.mark.parametrize("cls, make, defaulted, text", CASES, ids=IDS)
def test_hashing_follows_equality(cls, make, defaulted, text):
    a, b = cls(**make()), cls(**make())
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
        return
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_periodic_tails_and_their_ray_codes_deduplicate():
    tails = [PeriodicTail((0, 1)), PeriodicTail(tuple([0, 1])),
             PeriodicTail((1, 0))]
    assert hash(tails[0]) == hash(tails[1])
    assert len(set(tails)) == 2
    # the walk table is filled on first use and does not change the value
    tails[0].displacement(5)
    assert tails[0] == tails[1] and hash(tails[0]) == hash(tails[1])
    codes = [RayCode((0,), tails[0]), RayCode([0], tails[1]),
             RayCode((0,), tails[2]), parse_ray("0(01)")]
    assert hash(codes[0]) == hash(codes[1]) == hash(codes[3])
    assert len(set(codes)) == 2


def test_sturmian_tails_compare_by_line_window_and_offset():
    # its equality, hash and repr come from the same base as the value types
    tail = SturmianTail(1, Surd(0, 1, 2), 2, 3)
    same = SturmianTail(1, Surd(0, 1, 2), 2).advanced(3)
    assert tail == same and hash(tail) == hash(same) and len({tail, same}) == 1
    assert tail != SturmianTail(1, Surd(0, 1, 2), 2)
    assert tail != SturmianTail(1, Surd(0, 1, 2), 1, 3)
    assert tail != PeriodicTail((0, 1))
    assert repr(tail) == ("SturmianTail(ux=Surd(-1, 1, 2), uy=Surd(2, -1, 2), "
                          "window=2, offset=3)")


def test_surds_compare_by_value_and_never_equal_a_rational():
    # sqrt(8) is stored as 2*sqrt(2), so these three are one value
    same = [Surd(1, 2, 8), Surd(F(1), F(4), 2), 1 + 4 * sqrt_exact(2)]
    assert same[0] == same[1] == same[2]
    assert len({hash(s) for s in same}) == 1
    assert len({*same, Surd(1, 4, 3), Surd(1, -4, 2)}) == 3
    root2 = Surd(0, 1, 2)
    for rational in (F(1), 1, F(0), 0):
        assert root2 != rational and rational != root2
        assert not (root2 == rational or rational == root2)
    assert repr(same[0]) == "Surd(1, 4, 2)"


def test_ray_codes_never_equal_their_literals():
    code = parse_ray("0(01)")
    assert code.literal() == "0(01)"
    assert code != "0(01)" and "0(01)" != code
    assert not (code == "0(01)" or "0(01)" == code)
    assert repr(code) == "RayCode('0(01)')"


@pytest.mark.parametrize("cls, make, defaulted, text", CASES, ids=IDS)
def test_repr_is_dataclass_style(cls, make, defaulted, text):
    assert repr(cls(**make())) == text


def test_validation_errors():
    with pytest.raises(ValueError, match="empty period"):
        PeriodicTail(())
    with pytest.raises(ValueError, match="empty enclosure"):
        Enclosure(F(1), F(0))
    assert Enclosure(F(1), F(1)).width == 0
    for a, b, eps in ((-1, 1, 1), (2, 1, 1), (0, 1, 0), (0, 1, F(-1, 2))):
        with pytest.raises(ValueError, match="need 0 <= a <= b"):
            BallQuery(a, b, eps)
    for k_sq, c in ((F(1, 2), 0), (1, F(-1, 3))):
        with pytest.raises(ValueError, match="need k >= 1 and c >= 0"):
            QIParams(k_sq, c)


def test_coercion_to_fraction():
    q = BallQuery(1, "5/2", 0.5)
    assert (q.a, q.b, q.epsilon) == (F(1), F(5, 2), F(1, 2))
    assert all(type(x) is Fraction for x in (q.a, q.b, q.epsilon))
    assert q == BallQuery(F(1), F(5, 2), F(1, 2))
    p = QIParams(4, "1/3")
    assert type(p.k_sq) is Fraction and type(p.c) is Fraction
    assert (p.k_sq, p.c, p.k_label) == (F(4), F(1, 3), "sqrt(4)")
    assert p.k == 2 and QIParams.from_k(F(3, 2), 0).k_label == "3/2"
    assert QIParams.from_k(2, 0) != QIParams(4, 0)  # the labels differ
    assert QIParams.from_k_squared(2, 1) == QIParams(F(2), F(1))


def test_mutable_reports():
    params = QIParams(F(1), F(0))
    report = QIReport("floor", params)
    assert report.ok and report.violations == []
    assert QIReport("floor", params).violations is not report.violations
    report.violations.append(Violation(((0, 0), (0, 1)), "upper", F(1)))
    assert not report.ok
    demo = DemoReport("cone", {})
    assert DemoReport("cone", {}).assertions is not demo.assertions
    demo.check("x", 1, 1)
    demo.artifacts.append("fig.svg")
    assert demo.ok and demo.assertions == [Assertion("x", "1", "1", True)]
    demo.check("y", 1, 2)
    assert not demo.ok and demo.artifacts == ["fig.svg"]
