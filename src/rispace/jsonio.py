"""JSON encoding and decoding for the shipped value types.

Numbers travel as JSON numbers when exactly representable in double
precision, as exact strings ("3/7", "inf") otherwise; decoding accepts both
forms everywhere, and float literals in the input text are read exactly as
decimals (0.1 becomes 1/10), so a round trip never loses precision.

A step function travels as its breakpoints, one value per gap between
consecutive breakpoints (``values``), and its tails, by one rule read off the
space's domain: a finite end of the domain is a breakpoint, and an infinite
end carries a tail (``left_tail`` before the first breakpoint, ``right_tail``
after the last).  Its instances:

* half-line — breakpoints start at 0; ``right_tail`` is the value on the
  final ray;
* interval — breakpoints start at 0 and end at the length; no tails;
* line — no breakpoint is fixed; both tails (a constant has no breakpoints
  and equal tails).

The ``*_from_obj`` decoders are the input validator.  They are strict and
total: JSON types are exact (a boolean is never a number, an integer field
takes only an integer), number strings must match the schemas' spelling in
full, pairs have exactly two items, and an object must hold every key its
kind requires and no key its kind does not use.  Whatever the input, they
return a value or raise ``ValueError`` with a message that names the object
at fault, such as ``function.breakpoints[2]``.  The schemas in ``schemas/``
document the same format.

Records travel by one rule: a record is its ``kind``, when it is a catalog
record (a norm spec, a quasiconcave profile, a branch form), plus each of its
dataclass fields that is not ``None`` (an ``AtomicSymbol`` without a shift
rule has no ``shift``).  ``to_obj`` writes every record so, and one reader
decodes it, each field by the one decoder of its name; ``final_slope`` may be
omitted and reads as 0, and ``shift`` may be omitted or null.  Only the types
whose wire is not their fields keep an encoder of their own:
``measfn_to_obj`` for step functions and atom sequences (breakpoints and
tails), ``set_to_obj`` for atomic sets (``indices``) and ``analysis_to_obj``
for symbol analyses (power bounds flattened).  Spaces keep a decoder of their
own, as an omitted ``atom_mass`` reads as 1.  A new norm, profile or form
kind is one class, which states its own meaning, plus one entry in its
family's kind table that names it, plus its schema.  The tables hold class
names, not classes: each is resolved through the package surface
(``rispace.__getattr__``) on first decode or encode, so an ``eval`` loads
only the modules its payload names.  ``to_obj`` encodes any result, once,
where it leaves the program: ``eval`` output, ``run-example`` reports and
verdicts, and property counterexamples.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING

from .num import INF, NEG_INF, Real, as_real, is_finite, json_real
from .space import (
    ATOMIC_FINITE,
    ATOMIC_N,
    ATOMIC_Z,
    LEBESGUE_HALFLINE,
    LEBESGUE_INTERVAL,
    LEBESGUE_LINE,
    AtomicSet,
    MeasureSpace,
    interval_set,
)
from .stepfn import AtomSeq, MeasFn, seq, step

if TYPE_CHECKING:  # the record classes are named below, and resolved on first use
    from .spaces import NormSpec, XiWeight
    from .symbols import Symbol, SymbolAnalysis

# The schemas' number spelling.  It is matched whole: the schemas' "$" would
# also admit a trailing newline.
_NUMBER_TEXT = re.compile(
    r"-?(inf|[0-9]+(/[0-9]+)?|([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?)"
)


def _decimal(text: str) -> Fraction:
    """The exact value of a decimal or "p/q" text.

    A decimal exponent of more than ``sys.get_int_max_str_digits()`` is
    refused before 10**e is built; that is the bound Python already puts on
    an integer literal in the same payload.
    """
    _, e, exponent = text.lower().partition("e")
    # 4300 is that bound's default, for a Python 3.10 patch release without it
    limit = getattr(sys, "get_int_max_str_digits", lambda: 4300)()
    if e and limit and abs(int(exponent)) > limit:
        raise ValueError(f"the exponent of {_shown(text)} exceeds {limit}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {_shown(text)}") from None


def _no_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def loads(text: str):
    """json.loads with float literals read exactly, and without the non-JSON
    literals Infinity, -Infinity and NaN that json.loads would accept."""
    try:
        return json.loads(text, parse_float=_decimal, parse_constant=_no_constant)
    except RecursionError:
        raise ValueError("the document nests too deeply") from None


def dumps(obj) -> str:
    """Deterministic serialization: sorted keys, fixed indentation."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Strict readers for decoded JSON values
# ---------------------------------------------------------------------------

_JSON_TYPES = {dict: "an object", list: "an array", bool: "a boolean", type(None): "null"}


def _shown(x) -> str:
    """A decoded JSON value as an error message quotes it."""
    if isinstance(x, str):
        return repr(x if len(x) <= 40 else x[:40] + "...")
    if isinstance(x, (int, float, Fraction)) and not isinstance(x, bool):
        return str(x)
    return _JSON_TYPES.get(type(x), type(x).__name__)


def _num(x, where: str) -> Real:
    """A JSON number, or a string in the schemas' number spelling; a finite
    float (as ``json_real`` writes an exact double) reads as its exact value."""
    if isinstance(x, str):
        if not _NUMBER_TEXT.fullmatch(x):
            raise ValueError(f"{where}: {_shown(x)} is not a number")
        if x.endswith("inf"):
            return NEG_INF if x.startswith("-") else INF
        try:
            return _decimal(x)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None
    if isinstance(x, bool) or not isinstance(x, (int, float, Fraction)):
        raise ValueError(f"{where}: expected a number, got {_shown(x)}")
    if isinstance(x, float) and math.isnan(x):
        raise ValueError(f"{where}: NaN is not a number here")
    return Fraction(x) if isinstance(x, float) and math.isfinite(x) else as_real(x)


def int_from_obj(x, where: str) -> int:
    """A JSON integer: an int, never a boolean or a number with a fraction."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"{where}: expected an integer, got {_shown(x)}")
    return x


def check_object(obj, where: str, required=(), optional=()) -> None:
    """Raise unless obj is a JSON object holding every required key and no
    key that is neither required nor optional."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {_shown(obj)}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{where}: missing {key!r}")
    for key in obj:
        if key not in required and key not in optional:
            raise ValueError(f"{where}: unknown key {key!r}")


def _kind(obj, where: str, kinds: dict) -> str:
    """obj's "kind", one of the keys of kinds; the caller checks its other
    keys."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {_shown(obj)}")
    if "kind" not in obj:
        raise ValueError(f"{where}: missing 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in kinds:
        raise ValueError(f"{where}: unknown kind {_shown(kind)}")
    return kind


def _array(x, where: str, item) -> list:
    """A JSON array, each element read by item(element, path)."""
    if not isinstance(x, list):
        raise ValueError(f"{where}: expected an array, got {_shown(x)}")
    return [item(v, f"{where}[{i}]") for i, v in enumerate(x)]


def _pair(first, second):
    """A reader for two-item arrays [a, b]."""

    def read(x, where: str) -> tuple:
        if not isinstance(x, list) or len(x) != 2:
            raise ValueError(f"{where}: expected a pair [a, b], got {_shown(x)}")
        return first(x[0], f"{where}[0]"), second(x[1], f"{where}[1]")

    return read


def _made(where: str, build, *args):
    """build(*args), with a ValueError it raises named after the object."""
    try:
        return build(*args)
    except ValueError as e:
        raise ValueError(f"{where}: {e}") from None


# ---------------------------------------------------------------------------
# Spaces and sets
# ---------------------------------------------------------------------------

# space kind -> its (required, optional) keys; an omitted atom_mass reads as 1
_SPACE_LAYOUTS = {
    LEBESGUE_HALFLINE: (("kind",), ()),
    LEBESGUE_LINE: (("kind",), ()),
    LEBESGUE_INTERVAL: (("kind", "length"), ()),
    ATOMIC_N: (("kind",), ("atom_mass",)),
    ATOMIC_Z: (("kind",), ("atom_mass",)),
    ATOMIC_FINITE: (("kind", "count"), ("atom_mass",)),
}


def space_from_obj(obj, where: str = "space") -> MeasureSpace:
    kind = _kind(obj, where, _SPACE_LAYOUTS)
    check_object(obj, where, *_SPACE_LAYOUTS[kind])
    if kind == LEBESGUE_INTERVAL:
        return _made(where, MeasureSpace, kind, _num(obj["length"], f"{where}.length"))
    if kind in (LEBESGUE_HALFLINE, LEBESGUE_LINE):
        return MeasureSpace(kind)
    mass = _num(obj.get("atom_mass", 1), f"{where}.atom_mass")
    count = int_from_obj(obj["count"], f"{where}.count") if kind == ATOMIC_FINITE else None
    return _made(where, MeasureSpace, kind, None, mass, count)


def _space_in(obj, where: str) -> MeasureSpace:
    """The decoded "space" of a set, function or symbol object."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {_shown(obj)}")
    if "space" not in obj:
        raise ValueError(f"{where}: missing 'space'")
    return space_from_obj(obj["space"], f"{where}.space")


def set_to_obj(E) -> dict:
    if isinstance(E, AtomicSet):
        return {"space": to_obj(E.space), "indices": sorted(E.atoms), "cofinite": E.cofinite}
    return to_obj(E)


def set_from_obj(obj, where: str = "set"):
    sp = _space_in(obj, where)
    if sp.is_atomic:
        check_object(obj, where, ("space",), ("indices", "cofinite"))
        indices = _array(obj.get("indices", []), f"{where}.indices", int_from_obj)
        cofinite = obj.get("cofinite", False)
        if not isinstance(cofinite, bool):
            raise ValueError(f"{where}.cofinite: expected a boolean, got {_shown(cofinite)}")
        return _made(where, AtomicSet, sp, frozenset(indices), cofinite)
    check_object(obj, where, ("space",), ("intervals",))
    pairs = _array(obj.get("intervals", []), f"{where}.intervals", _pair(_num, _num))
    return _made(where, interval_set, sp, pairs)


# ---------------------------------------------------------------------------
# Functions
# ---------------------------------------------------------------------------

def measfn_to_obj(f: MeasFn) -> dict:
    if isinstance(f, AtomSeq):
        out = {
            "space": to_obj(f.space),
            "entries": [[j, json_real(v)] for j, v in f.entries],
        }
        if f.space.has_tail:
            out["tail_value"] = json_real(f.tail)
        return out
    sp = f.space
    left, right = sp.domain
    vals = [json_real(v) for v in f.vals]
    out = {
        "space": to_obj(sp),
        "breakpoints": [json_real(c) for c in (left, *f.cuts, right) if is_finite(c)],
    }
    if left == NEG_INF:
        out["left_tail"] = vals[0]
    out["values"] = vals[left == NEG_INF : len(vals) - (right == INF)]
    if right == INF:
        out["right_tail"] = vals[-1]
    return out


def measfn_from_obj(obj, where: str = "function") -> MeasFn:
    sp = _space_in(obj, where)
    if sp.is_atomic:
        check_object(obj, where, ("space", "entries"), ("tail_value",))
        entries = _array(obj["entries"], f"{where}.entries", _pair(int_from_obj, _num))
        tail = _num(obj.get("tail_value", 0), f"{where}.tail_value")
        return _made(where, seq, sp, entries, tail)
    # a finite end of the domain is a breakpoint, an infinite end carries a tail
    left, right = sp.domain
    tails = [key for key, end in (("left_tail", left), ("right_tail", right)) if not is_finite(end)]
    check_object(obj, where, ("space", "breakpoints", *tails), ("values",))
    bps = _array(obj["breakpoints"], f"{where}.breakpoints", _num)
    values = _array(obj.get("values", []), f"{where}.values", _num)
    if any(not a < b for a, b in zip(bps, bps[1:])):
        raise ValueError(f"{where}: breakpoints must be strictly increasing")
    if len(values) != max(len(bps) - 1, 0):
        raise ValueError(f"{where}: need exactly one value per gap")
    if (is_finite(left) and bps[:1] != [left]) or (is_finite(right) and bps[-1:] != [right]):
        if is_finite(right):
            raise ValueError(f"{where}: interval breakpoints must run from 0 to the length")
        raise ValueError(f"{where}: half-line breakpoints must start at 0")
    cuts = bps[is_finite(left) : len(bps) - is_finite(right)]
    left_tail = [_num(obj["left_tail"], f"{where}.left_tail")] if "left_tail" in tails else []
    right_tail = [_num(obj["right_tail"], f"{where}.right_tail")] if "right_tail" in tails else []
    if not bps:  # only the line gets here: its two rays are then one piece
        if left_tail != right_tail:
            raise ValueError(f"{where}: a constant line function must have equal tails")
        return _made(where, step, sp, [], left_tail)
    return _made(where, step, sp, cuts, left_tail + values + right_tail)


# ---------------------------------------------------------------------------
# Records: symbols, branches, catalog records (norm specs, quasiconcave
# profiles, branch forms), weights
# ---------------------------------------------------------------------------

# one table per catalog family: wire kind -> the name of its record class
_NORMS = {"lp": "Lp", "lorentz": "Lorentz", "weak_lp": "WeakLp",
          "marcinkiewicz_weak": "MarcWeak", "marcinkiewicz_strong": "MarcStrong"}
_PHIS = {"power": "Power", "logclip": "LogClip", "step_approx": "StepApprox"}
_FORMS = {"affine": "Affine", "power_on_unit": "PowerOnUnit", "shifted_power": "ShiftedPower",
          "affine_tail": "AffineTail", "exp_recip": "ExpRecip"}
_KIND_OF = {name: kind for kinds in (_NORMS, _PHIS, _FORMS) for kind, name in kinds.items()}


def _class(name: str) -> type:
    """The record class of that name, from the package surface, which imports
    its module on first use: a payload loads only the modules it names."""
    return getattr(sys.modules[__package__], name)


# the fields the wire may omit, and the value each then takes
_DEFAULTS = {"final_slope": 0, "shift": None}


@functools.cache
def _layout(cls) -> tuple:
    """The (required, optional) keys of a record class: "kind" for a catalog
    class, then its fields, of which those in ``_DEFAULTS`` are optional."""
    names = [field.name for field in dataclasses.fields(cls)]
    kind = ["kind"] if cls.__name__ in _KIND_OF else []
    return kind + [n for n in names if n not in _DEFAULTS], [n for n in names if n in _DEFAULTS]


def _fields_from_obj(obj, where: str, cls):
    """The cls record that obj encodes: its keys must match cls's layout, and
    its fields are decoded in dataclass order, so the first fault is the one
    reported."""
    check_object(obj, where, *_layout(cls))
    return _made(where, cls, *(
        _FIELD_DECODERS[field.name](obj.get(field.name, _DEFAULTS.get(field.name)),
                                    f"{where}.{field.name}")
        for field in dataclasses.fields(cls)
    ))


def _record_from_obj(obj, where: str, kinds: dict):
    """The record of one of the kinds' classes that obj encodes."""
    return _fields_from_obj(obj, where, _class(kinds[_kind(obj, where, kinds)]))


def _form_from_obj(obj, where: str):
    if isinstance(obj, dict) and "kind" not in obj:  # the {"power": n} shorthand
        check_object(obj, where, ("power",))
        return _made(where, _class("PowerOnUnit"), int_from_obj(obj["power"], f"{where}.power"))
    return _record_from_obj(obj, where, _FORMS)


def symbol_from_obj(obj, where: str = "symbol") -> Symbol:
    name = "AtomicSymbol" if _space_in(obj, where).is_atomic else "IntervalSymbol"
    return _fields_from_obj(obj, where, _class(name))


def phi_from_obj(obj, where: str = "phi"):
    return _record_from_obj(obj, where, _PHIS)


def normspec_from_obj(obj, where: str = "spec") -> NormSpec:
    return _record_from_obj(obj, where, _NORMS)


# record field -> its decoder, the same in every record
_FIELD_DECODERS = {
    "space": space_from_obj,
    "phi": phi_from_obj,
    "form": _form_from_obj,
    "branches": lambda x, where: tuple(
        _array(x, where, lambda br, at: _fields_from_obj(br, at, _class("Branch")))),
    "table": lambda x, where: tuple(_array(x, where, _pair(int_from_obj, int_from_obj))),
    # the schema lets a symbol spell "no shift rule" as null
    "shift": lambda x, where: None if x is None else int_from_obj(x, where),
    "knots": lambda x, where: tuple(_array(x, where, _pair(_num, _num))),
    "n": int_from_obj,
    **dict.fromkeys(("p", "q", "alpha", "beta", "final_slope", "lo", "hi"), _num),
}


def xiweight_from_obj(obj) -> XiWeight:
    check_object(obj, "xi weight", ("weight",))
    fn = measfn_from_obj(obj["weight"], "weight")
    if fn.space.kind != LEBESGUE_HALFLINE:
        raise ValueError("weight: xi weights are step functions on the half-line")
    return _made("weight", _class("XiWeight"), fn)


def analysis_to_obj(ana: SymbolAnalysis) -> dict:
    return {
        "measure_bound": json_real(ana.measure_bound),
        "lower_bound": json_real(ana.lower_bound),
        "power_bounds": [[n, json_real(a)] for n, a in ana.power_bounds.per_n],
        "power_bound_sup": json_real(ana.power_bounds.sup),
        "power_certified": ana.power_bounds.certified,
        "condition_I1": ana.condition_I1,
        "condition_I3": ana.condition_I3,
        "condition_I3_witness": json_real(ana.condition_I3_witness),
        "nonsingular": ana.nonsingular,
        "strictly_nonsingular": ana.strictly_nonsingular,
        "dilation_B": json_real(ana.dilation_B),
    }


# ---------------------------------------------------------------------------
# Any result
# ---------------------------------------------------------------------------

# value type's name -> its encoder, for the types whose wire is not their fields
_ENCODERS = {
    "StepFn": measfn_to_obj, "AtomSeq": measfn_to_obj, "AtomicSet": set_to_obj,
    "SymbolAnalysis": analysis_to_obj,
}


def to_obj(x):
    """The JSON-ready image of a result: dicts, lists and tuples item by item,
    strings, integers and booleans as they are, exact and float numbers
    through ``json_real``, the types of ``_ENCODERS`` through their encoder,
    and any other record as its kind, if it has one, and its fields that are
    not None."""
    if isinstance(x, dict):
        return {key: to_obj(v) for key, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [to_obj(v) for v in x]
    if isinstance(x, (str, int)):
        return x
    if isinstance(x, (Fraction, float)):
        return json_real(x)
    name = type(x).__name__
    encode = _ENCODERS.get(name)
    if encode is not None:
        return encode(x)
    out = {"kind": _KIND_OF[name]} if name in _KIND_OF else {}
    for field in dataclasses.fields(x):
        value = getattr(x, field.name)
        if value is not None:
            out[field.name] = to_obj(value)
    return out


# the encoders of the records whose wire is their fields
space_to_obj = symbol_to_obj = phi_to_obj = normspec_to_obj = xiweight_to_obj = to_obj
