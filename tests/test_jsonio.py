import dataclasses
import json
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rispace import (
    INF,
    Affine,
    AtomicSymbol,
    Branch,
    ExpRecip,
    IntervalSymbol,
    LogClip,
    Lorentz,
    Lp,
    MarcStrong,
    MarcWeak,
    Power,
    PowerOnUnit,
    StepApprox,
    WeakLp,
    XiWeight,
    atomic_finite,
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
from rispace import check_condition_I, jsonio
from rispace.examples import shifted_power_symbol

from .payloads import (
    measfn,
    measfn_obj,
    measurable_set,
    mutated,
    normspec,
    normspec_obj,
    phi,
    space,
    symbol,
    symbol_obj,
    wire,
    xiweight,
    xiweight_obj,
)
from .test_rearrange import deep_fn


def test_dumps_is_deterministic_and_newline_terminated():
    s = jsonio.dumps({"b": 1, "a": 2})
    assert s == '{\n  "a": 2,\n  "b": 1\n}\n'


def test_loads_decodes_floats_as_fractions():
    obj = jsonio.loads('{"x": 0.1}')
    assert obj["x"] == Fraction(1, 10)  # not the binary double nearest 0.1


def test_loads_refuses_non_json_literals():
    # json.loads would read these as floats; the wire spells infinity "inf"
    for literal in ("Infinity", "-Infinity", "NaN"):
        with pytest.raises(ValueError, match=f"{literal} is not a JSON value"):
            jsonio.loads(f'{{"p": {literal}}}')


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
    # a constant: a finite end is still a breakpoint, an infinite end a tail
    h = jsonio.measfn_to_obj(step(halfline(), [], [5]))
    assert list(h) == ["space", "breakpoints", "values", "right_tail"]
    assert h["breakpoints"] == [0] and h["values"] == [] and h["right_tail"] == 5
    i = jsonio.measfn_to_obj(step(interval(2), [], [5]))
    assert list(i) == ["space", "breakpoints", "values"]
    assert i["breakpoints"] == [0, 2] and i["values"] == [5]
    l = jsonio.measfn_to_obj(step(line(), [], [5]))
    assert list(l) == ["space", "breakpoints", "left_tail", "values", "right_tail"]
    assert l["breakpoints"] == [] and l["values"] == [] and l["left_tail"] == l["right_tail"] == 5


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
    cases = [
        ({"space": {"kind": "lebesgue_interval", "length": 2},
          "breakpoints": [0, 1, 3], "values": [1, 2]},
         "interval breakpoints must run from 0 to the length"),
        ({"space": {"kind": "lebesgue_halfline"},
          "breakpoints": [1, 2], "values": [1], "right_tail": 0},
         "half-line breakpoints must start at 0"),
        ({"space": {"kind": "lebesgue_line"},
          "breakpoints": [], "left_tail": 1, "right_tail": 2},
         "a constant line function must have equal tails"),
    ]
    for obj, message in cases:
        with pytest.raises(ValueError, match=message):
            jsonio.measfn_from_obj(obj)


def test_symbol_round_trip():
    syms = [
        shifted_power_symbol(2),
        IntervalSymbol(line(), (Branch(-INF, INF, Affine(2, -1)),)),
        AtomicSymbol(atomic_z(), ((3, 0),), shift=2),
        AtomicSymbol(atomic_n(), (), shift=1),
    ]
    for sym in syms:
        assert jsonio.symbol_from_obj(jsonio.symbol_to_obj(sym)) == sym


def test_null_shift_reads_as_no_shift():
    # the schema lets "shift" be null
    finite = {"space": {"kind": "atomic_finite", "count": 2}, "table": [[0, 1], [1, 0]]}
    assert jsonio.symbol_from_obj(dict(finite, shift=None)) == jsonio.symbol_from_obj(finite)
    unbounded = {"space": {"kind": "atomic_z"}, "table": [[0, 1]], "shift": None}
    with pytest.raises(ValueError, match="need a shift rule off the table window"):
        jsonio.symbol_from_obj(unbounded)


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


# jsonio.dumps(jsonio.to_obj(x)) for one value of each space kind, atomic
# symbols with and without a shift, every branch form, and every norm and
# profile kind, and an xi weight; each text is the same JSON on one line
_WIRE_TEXTS = {
    "lebesgue_halfline": (halfline(), '{"kind": "lebesgue_halfline"}'),
    "lebesgue_line": (line(), '{"kind": "lebesgue_line"}'),
    "lebesgue_interval": (interval(Fraction(5, 2)), '{"kind": "lebesgue_interval", "length": 2.5}'),
    "atomic_n": (atomic_n(Fraction(1, 3)), '{"atom_mass": "1/3", "kind": "atomic_n"}'),
    "atomic_z": (atomic_z(), '{"atom_mass": 1, "kind": "atomic_z"}'),
    "atomic_finite": (atomic_finite(3, Fraction(1, 2)),
                      '{"atom_mass": 0.5, "count": 3, "kind": "atomic_finite"}'),
    "atomic symbol, shift": (
        AtomicSymbol(atomic_z(), ((3, 0), (-1, 4)), shift=2),
        '{"shift": 2, "space": {"atom_mass": 1, "kind": "atomic_z"}, "table": [[-1, 4], [3, 0]]}'),
    "atomic symbol, no shift": (
        AtomicSymbol(atomic_finite(2), ((0, 1), (1, 0))),
        '{"space": {"atom_mass": 1, "count": 2, "kind": "atomic_finite"}, "table": [[0, 1], [1, 0]]}'),
    "affine": (
        IntervalSymbol(line(), (Branch(-INF, 0, Affine(2, -1)),
                                Branch(0, INF, Affine(Fraction(1, 3), -1)))),
        '{"branches": [{"form": {"alpha": 2, "beta": -1, "kind": "affine"}, "hi": 0, "lo": "-inf"},'
        ' {"form": {"alpha": "1/3", "beta": -1, "kind": "affine"}, "hi": "inf", "lo": 0}],'
        ' "space": {"kind": "lebesgue_line"}}'),
    "power_on_unit": (
        IntervalSymbol(interval(1), (Branch(0, 1, PowerOnUnit(3)),)),
        '{"branches": [{"form": {"kind": "power_on_unit", "n": 3}, "hi": 1, "lo": 0}],'
        ' "space": {"kind": "lebesgue_interval", "length": 1}}'),
    "shifted_power, affine_tail": (
        shifted_power_symbol(2),
        '{"branches": [{"form": {"kind": "shifted_power", "n": 2}, "hi": 1, "lo": 0},'
        ' {"form": {"kind": "affine_tail", "n": 2}, "hi": "inf", "lo": 1}],'
        ' "space": {"kind": "lebesgue_halfline"}}'),
    "exp_recip": (
        IntervalSymbol(interval(1), (Branch(0, 1, ExpRecip()),)),
        '{"branches": [{"form": {"kind": "exp_recip"}, "hi": 1, "lo": 0}],'
        ' "space": {"kind": "lebesgue_interval", "length": 1}}'),
    "lp": (Lp(halfline(), Fraction(3, 2)),
           '{"kind": "lp", "p": 1.5, "space": {"kind": "lebesgue_halfline"}}'),
    "lp inf": (Lp(atomic_z(), INF),
               '{"kind": "lp", "p": "inf", "space": {"atom_mass": 1, "kind": "atomic_z"}}'),
    "lorentz": (
        Lorentz(interval(2), Fraction(7, 3), 1),
        '{"kind": "lorentz", "p": "7/3", "q": 1, "space": {"kind": "lebesgue_interval", "length": 2}}'),
    "weak_lp": (WeakLp(atomic_n(), Fraction(1, 3)),
                '{"kind": "weak_lp", "p": "1/3", "space": {"atom_mass": 1, "kind": "atomic_n"}}'),
    "marcinkiewicz_weak, logclip": (
        MarcWeak(halfline(), LogClip()),
        '{"kind": "marcinkiewicz_weak", "phi": {"kind": "logclip"},'
        ' "space": {"kind": "lebesgue_halfline"}}'),
    "marcinkiewicz_strong, power": (
        MarcStrong(halfline(), Power(Fraction(2, 3))),
        '{"kind": "marcinkiewicz_strong", "phi": {"alpha": "2/3", "kind": "power"},'
        ' "space": {"kind": "lebesgue_halfline"}}'),
    "step_approx": (StepApprox(((1, 1), (3, 2)), Fraction(1, 4)),
                    '{"final_slope": 0.25, "kind": "step_approx", "knots": [[1, 1], [3, 2]]}'),
    "xi weight": (
        XiWeight(step(halfline(), [1, Fraction(4, 3)], [3, Fraction(1, 10), 0])),
        '{"weight": {"breakpoints": [0, 1, "4/3"], "right_tail": 0,'
        ' "space": {"kind": "lebesgue_halfline"}, "values": [3, "1/10"]}}'),
}


@pytest.mark.parametrize("name", sorted(_WIRE_TEXTS))
def test_wire_texts_are_pinned(name):
    value, text = _WIRE_TEXTS[name]
    assert jsonio.dumps(jsonio.to_obj(value)) == jsonio.dumps(json.loads(text))


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


def _numbers(x):
    """The numbers inside a value object, fields in order."""
    if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        yield x
    elif dataclasses.is_dataclass(x):
        for field in dataclasses.fields(x):
            yield from _numbers(getattr(x, field.name))
    elif isinstance(x, tuple):
        for v in x:
            yield from _numbers(v)


def test_encoded_spec_decodes_in_memory():
    # json_real writes the knot 15/4 as the float 3.75; read as a float it
    # made the profile fail its quasiconcavity check
    spec = MarcWeak(halfline(), StepApprox(((2, 2), (Fraction(15, 4), Fraction(53, 16))),
                                           Fraction(53, 60)))
    back = jsonio.normspec_from_obj(jsonio.normspec_to_obj(spec))
    assert back == spec and repr(back) == repr(spec)


# value type -> (a generator of objects from a seed, its encoder, its decoder)
_CODECS = {
    "measfn": (measfn, jsonio.measfn_to_obj, jsonio.measfn_from_obj),
    "normspec": (normspec, jsonio.normspec_to_obj, jsonio.normspec_from_obj),
    "phi": (phi, jsonio.phi_to_obj, jsonio.phi_from_obj),
    "set": (measurable_set, jsonio.set_to_obj, jsonio.set_from_obj),
    "space": (space, jsonio.space_to_obj, jsonio.space_from_obj),
    "symbol": (symbol, jsonio.symbol_to_obj, jsonio.symbol_from_obj),
    "xiweight": (xiweight, jsonio.xiweight_to_obj, jsonio.xiweight_from_obj),
}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_CODECS)), st.integers(0, 2**32))
def test_generated_objects_decode_in_memory_to_themselves(name, seed):
    generate, encode, decode = _CODECS[name]
    obj = generate(seed)
    wire_obj = encode(obj)
    # the one encoder for any result agrees with the kind-specific one
    assert jsonio.to_obj(obj) == wire_obj
    assert jsonio.to_obj({"value": [obj]}) == {"value": [wire_obj]}
    if isinstance(obj, IntervalSymbol):
        for br, br_obj in zip(obj.branches, wire_obj["branches"]):
            assert jsonio.to_obj(br.form) == br_obj["form"]
    if name == "symbol":
        ana = check_condition_I(obj, 2)
        assert jsonio.to_obj(ana) == jsonio.analysis_to_obj(ana)
    if isinstance(obj, StepApprox):  # the one field the wire may omit
        short = {key: v for key, v in wire_obj.items() if key != "final_slope"}
        assert decode(short) == StepApprox(obj.knots, 0)
    back = decode(wire_obj)
    assert back == obj
    pairs = list(zip(_numbers(obj), _numbers(back)))
    assert len(pairs) == len(list(_numbers(obj))) == len(list(_numbers(back)))
    assert not any(isinstance(a, Fraction) and isinstance(b, float) for a, b in pairs)


# ---------------------------------------------------------------------------
# Strict decoding, and conformance of the decoders to the shipped schemas
# ---------------------------------------------------------------------------

_HALFLINE_FN = {
    "space": {"kind": "lebesgue_halfline"},
    "breakpoints": [0, 1],
    "values": [1],
    "right_tail": 0,
}


@pytest.mark.parametrize(
    "decode, obj",
    [
        # a fractional index and a string index
        (jsonio.measfn_from_obj, {"space": {"kind": "atomic_z"}, "entries": [[2.5, 1], ["3", 2]]}),
        # a boolean and a fractional table entry
        (jsonio.symbol_from_obj, {"space": {"kind": "atomic_z"}, "table": [[True, 1.9]], "shift": 1}),
        # a key the object does not use, at each level
        (jsonio.measfn_from_obj, dict(_HALFLINE_FN, left_tail=0)),
        (jsonio.measfn_from_obj, dict(_HALFLINE_FN, space={"kind": "lebesgue_halfline", "length": 1})),
        (jsonio.normspec_from_obj, {"kind": "lp", "space": {"kind": "lebesgue_halfline"}, "p": 1, "q": 1}),
        # number strings off the schemas' spelling, and a boolean number
        (jsonio.measfn_from_obj, dict(_HALFLINE_FN, values=["1\n"])),
        (jsonio.measfn_from_obj, dict(_HALFLINE_FN, values=[" 1"])),
        (jsonio.measfn_from_obj, dict(_HALFLINE_FN, values=["1_0"])),
        (jsonio.measfn_from_obj, dict(_HALFLINE_FN, values=[True])),
        (jsonio.measfn_from_obj, dict(_HALFLINE_FN, values=["1/0"])),
        # a pair with a third item, and a missing key
        (jsonio.measfn_from_obj, {"space": {"kind": "atomic_z"}, "entries": [[0, 1, 2]]}),
        (jsonio.measfn_from_obj, {"space": {"kind": "lebesgue_halfline"}, "breakpoints": [0]}),
        # a boolean index, a key of the other set layout, overlapping intervals
        (jsonio.set_from_obj, {"space": {"kind": "atomic_z"}, "indices": [True]}),
        (jsonio.set_from_obj, {"space": {"kind": "atomic_z"}, "intervals": []}),
        (jsonio.set_from_obj, {"space": {"kind": "lebesgue_line"}, "intervals": [[0, 2], [1, 3]]}),
        # an xi weight off the half-line
        (jsonio.xiweight_from_obj, {"weight": {"space": {"kind": "lebesgue_interval", "length": 1},
                                               "breakpoints": [0, 1], "values": [1]}}),
    ],
)
def test_decoders_are_strict(decode, obj):
    with pytest.raises(ValueError):
        decode(obj)


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"space": {"kind": "lebesgue_interval", "length": 1}, "intervals": [[0, 2]]}',
         "set: [0, 2) outside the space domain"),
        ('{"space": {"kind": "atomic_z"}, "indices": [true]}', "set.indices[0]: expected an integer, got a boolean"),
        ('{"space": {"kind": "atomic_z"}, "indices": [1.5]}', "set.indices[0]: expected an integer, got 3/2"),
        ('{"space": {"kind": "atomic_finite", "count": 3}, "indices": [3]}', "set: index 3 outside the space's range"),
        # cofinite is read on the wire before the builder runs, with the wire's own message
        ('{"space": {"kind": "atomic_z"}, "cofinite": "no"}', "set.cofinite: expected a boolean, got 'no'"),
        ('{"space": {"kind": "atomic_n"}, "cofinite": 0.5}', "set.cofinite: expected a boolean, got 1/2"),
        ('{"space": {"kind": "atomic_finite", "count": 3}, "indices": [3], "cofinite": 1}',
         "set.cofinite: expected a boolean, got 1"),
        # two faults in the space: the mass is named before the count
        ('{"space": {"kind": "atomic_finite", "count": 0, "atom_mass": 0}}',
         "set.space: atom_mass must be positive and finite"),
    ],
)
def test_set_faults_on_the_wire_are_named_as_the_builders_name_them(text, message):
    with pytest.raises(ValueError) as info:
        jsonio.set_from_obj(jsonio.loads(text))
    assert str(info.value) == message


def test_decoder_errors_name_the_object():
    with pytest.raises(ValueError, match=r"function\.breakpoints\[1\]"):
        jsonio.measfn_from_obj(dict(_HALFLINE_FN, breakpoints=[0, "one"]))
    with pytest.raises(ValueError, match=r"symbol\.branches\[0\]\.form"):
        jsonio.symbol_from_obj({"space": {"kind": "lebesgue_interval", "length": 1},
                                "branches": [{"lo": 0, "hi": 1, "form": {"kind": "nope"}}]})


def test_huge_exponents_are_refused_at_parse_time():
    with pytest.raises(ValueError):
        jsonio.loads('{"x": 1e5000}')
    with pytest.raises(ValueError):
        jsonio.measfn_from_obj(dict(_HALFLINE_FN, values=["1e5000"]))
    assert jsonio.loads('{"x": 1e300}')["x"] == 10**300


def test_deep_nesting_is_a_value_error():
    with pytest.raises(ValueError):
        jsonio.loads("[" * 100_000 + "]" * 100_000)


_SCHEMAS = Path(jsonio.__file__).parent / "schemas"


def _validator(name: str):
    schema = json.loads((_SCHEMAS / f"{name}.schema.json").read_text())
    return jsonschema.validators.validator_for(schema)(schema)


# schema -> (its decoder, a generator of valid payloads from a seed)
_KINDS = {
    "measfn": (jsonio.measfn_from_obj, measfn_obj),
    "normspec": (jsonio.normspec_from_obj, normspec_obj),
    "symbol": (jsonio.symbol_from_obj, symbol_obj),
    "xiweight": (jsonio.xiweight_from_obj, xiweight_obj),
}
_VALIDATORS = {name: _validator(name) for name in _KINDS}


@st.composite
def _payloads(draw):
    """(schema name, a valid payload for it), deep functions included."""
    name = draw(st.sampled_from(sorted(_KINDS)))
    if name == "measfn" and draw(st.booleans()):
        return name, jsonio.measfn_to_obj(draw(deep_fn()))
    return name, _KINDS[name][1](draw(st.integers(0, 2**32)))


@settings(max_examples=150, deadline=None)
@given(_payloads())
def test_generated_payloads_decode_and_match_their_schema(named):
    name, payload = named
    _VALIDATORS[name].validate(payload)
    _KINDS[name][0](wire(payload))


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_decoders_accept_only_what_their_schema_accepts(data):
    name, payload = data.draw(_payloads())
    bad = data.draw(mutated(payload))
    for obj in (bad, wire(bad)):
        try:
            _KINDS[name][0](obj)
        except ValueError:
            continue
        errors = [e.message for e in _VALIDATORS[name].iter_errors(obj)]
        assert not errors, f"{name} decoder accepted a payload its schema rejects: {errors}"
