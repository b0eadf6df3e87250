from fractions import Fraction

import pytest

from rispace import (
    INF,
    Affine,
    AtomicSymbol,
    Branch,
    IntervalSymbol,
    LogClip,
    Lorentz,
    Lp,
    MarcWeak,
    Power,
    PowerOnUnit,
    StepApprox,
    WeakLp,
    XiWeight,
    atomic_n,
    atomic_set,
    atomic_z,
    halfline,
    interval,
    interval_set,
    line,
    seq,
    step,
)
from rispace import jsonio
from rispace.examples import shifted_power_symbol


def test_dumps_is_deterministic_and_newline_terminated():
    s = jsonio.dumps({"b": 1, "a": 2})
    assert s == '{\n  "a": 2,\n  "b": 1\n}\n'


def test_loads_decodes_floats_as_fractions():
    obj = jsonio.loads('{"x": 0.1}')
    assert obj["x"] == Fraction(1, 10)  # not the binary double nearest 0.1


def test_space_round_trip():
    for sp in (halfline(), line(), interval(Fraction(5, 2)), atomic_n(), atomic_z(Fraction(1, 3))):
        assert jsonio.space_from_obj(jsonio.space_to_obj(sp)) == sp


def test_set_round_trip():
    sp = halfline()
    E = interval_set(sp, [(0, 1), (2, INF)])
    assert jsonio.set_from_obj(jsonio.set_to_obj(E)) == E
    spz = atomic_z()
    F = atomic_set(spz, [1, 5], cofinite=True)
    assert jsonio.set_from_obj(jsonio.set_to_obj(F)) == F


def _roundtrip_fn(f):
    return jsonio.measfn_from_obj(jsonio.measfn_to_obj(f))


def test_measfn_round_trip_each_layout():
    cases = [
        step(halfline(), [1, 2], [1, 3, 0]),
        step(halfline(), [], [2]),
        step(interval(3), [1], [Fraction(1, 3), 5]),
        step(line(), [0, 1], [0, 7, 0]),
        step(line(), [], [4]),
        seq(atomic_n(), {0: 1, 4: Fraction(2, 7)}, tail=1),
        seq(atomic_z(Fraction(1, 2)), {-3: 5}),
    ]
    for f in cases:
        assert _roundtrip_fn(f) == f


def test_measfn_layouts_are_shaped_per_space():
    h = jsonio.measfn_to_obj(step(halfline(), [1], [2, 0]))
    assert h["breakpoints"] == [0, 1] and h["values"] == [2] and h["right_tail"] == 0
    i = jsonio.measfn_to_obj(step(interval(2), [1], [3, 4]))
    assert i["breakpoints"] == [0, 1, 2] and i["values"] == [3, 4]
    assert "right_tail" not in i
    l = jsonio.measfn_to_obj(step(line(), [0], [1, 2]))
    assert l["left_tail"] == 1 and l["right_tail"] == 2 and l["values"] == []


def test_measfn_count_mismatch_rejected():
    with pytest.raises(ValueError):
        jsonio.measfn_from_obj(
            {
                "space": {"kind": "lebesgue_halfline"},
                "breakpoints": [0, 1],
                "values": [1, 2],  # one too many
                "right_tail": 0,
            }
        )


def test_measfn_interval_endpoints_must_match_length():
    with pytest.raises(ValueError):
        jsonio.measfn_from_obj(
            {
                "space": {"kind": "lebesgue_interval", "length": 2},
                "breakpoints": [0, 1, 3],
                "values": [1, 2],
            }
        )


def test_symbol_round_trip():
    syms = [
        shifted_power_symbol(2),
        IntervalSymbol(line(), (Branch(-INF, INF, Affine(2, -1)),)),
        AtomicSymbol(atomic_z(), ((3, 0),), shift=2),
        AtomicSymbol(atomic_n(), (), shift=1),
    ]
    for sym in syms:
        assert jsonio.symbol_from_obj(jsonio.symbol_to_obj(sym)) == sym


def test_symbol_power_shorthand():
    obj = {
        "space": {"kind": "lebesgue_interval", "length": 1},
        "branches": [{"lo": 0, "hi": 1, "form": {"power": 3}}],
    }
    sym = jsonio.symbol_from_obj(obj)
    assert isinstance(sym.branches[0].form, PowerOnUnit)
    assert sym.branches[0].form.n == 3


def test_normspec_round_trip():
    specs = [
        Lp(halfline(), Fraction(3, 2)),
        Lp(halfline(), INF),
        Lorentz(halfline(), 2, 1),
        WeakLp(atomic_n(), 2),
        MarcWeak(interval(1), LogClip()),
        MarcWeak(halfline(), Power(Fraction(2, 3))),
        MarcWeak(halfline(), StepApprox(((1, 1), (3, 2)), Fraction(1, 4))),
    ]
    for spec in specs:
        assert jsonio.normspec_from_obj(jsonio.normspec_to_obj(spec)) == spec


def test_xiweight_round_trip():
    w = XiWeight(step(halfline(), [1, 4], [3, 1, 0]))
    assert jsonio.xiweight_from_obj(jsonio.xiweight_to_obj(w)) == w


def test_number_spellings():
    # string spellings pass through loads untouched; decoding happens per field
    obj = jsonio.loads('{"breakpoints": [0, "1/3", "inf"]}')
    assert obj["breakpoints"] == [0, "1/3", "inf"]
    f = jsonio.measfn_from_obj(
        {
            "space": {"kind": "lebesgue_halfline"},
            "breakpoints": [0, "1/3"],
            "values": ["7/2"],
            "right_tail": 0,
        }
    )
    assert f == step(halfline(), [Fraction(1, 3)], [Fraction(7, 2), 0])


def test_json_numbers_survive_the_full_cycle():
    for f in (
        step(halfline(), [Fraction(1, 3)], [Fraction(1, 10), 0]),
        # a double cut whose shortest float text reads back as another decimal
        step(halfline(), [Fraction(16385, 262144)], [1, 0]),
    ):
        text = jsonio.dumps(jsonio.measfn_to_obj(f))
        back = jsonio.measfn_from_obj(jsonio.loads(text))
        assert back == f  # exact, no float contamination
