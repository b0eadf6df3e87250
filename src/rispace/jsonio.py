"""JSON encoding and decoding for the shipped value types.

Numbers travel as JSON numbers when exactly representable in double
precision, as exact strings ("3/7", "inf") otherwise; decoding accepts both
forms everywhere, and float literals in the input text are read exactly as
decimals (0.1 becomes 1/10), so a round trip never loses precision.

Step functions serialize with the breakpoint layout fixed per space kind:

* half-line — breakpoints start at 0, ``values`` fills the gaps between
  consecutive breakpoints, ``right_tail`` is the value on the final ray;
* interval — breakpoints start at 0 and end at the length; no tails;
* line — ``left_tail`` before the first breakpoint, ``values`` between,
  ``right_tail`` after (a constant has no breakpoints and equal tails).

The ``*_from_obj`` decoders are the input validator.  They are strict and
total: JSON types are exact (a boolean is never a number, an integer field
takes only an integer), number strings must match the schemas' spelling in
full, pairs have exactly two items, and an object must hold every key its
kind requires and no key its kind does not use.  Whatever the input, they
return a value or raise ``ValueError`` with a message that names the object
at fault, such as ``function.breakpoints[2]``.  The schemas in ``schemas/``
document the same format.
"""

from __future__ import annotations

import json
import math
import re
import sys
from fractions import Fraction

from .num import INF, NEG_INF, Real, as_real, json_real
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
from .spaces import (
    LogClip,
    Lorentz,
    Lp,
    MarcStrong,
    MarcWeak,
    NormSpec,
    Power,
    StepApprox,
    WeakLp,
    XiWeight,
)
from .stepfn import AtomSeq, MeasFn, seq, step
from .symbols import (
    Affine,
    AffineTail,
    AtomicSymbol,
    Branch,
    ExpRecip,
    IntervalSymbol,
    PowerOnUnit,
    ShiftedPower,
    Symbol,
    SymbolAnalysis,
)

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


def loads(text: str):
    """json.loads with float literals read exactly."""
    try:
        return json.loads(text, parse_float=_decimal)
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


def _kind(obj, where: str, layouts: dict) -> str:
    """obj's "kind", once its other keys match the (required, optional)
    layout of that kind."""
    if not isinstance(obj, dict):
        raise ValueError(f"{where}: expected an object, got {_shown(obj)}")
    if "kind" not in obj:
        raise ValueError(f"{where}: missing 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in layouts:
        raise ValueError(f"{where}: unknown kind {_shown(kind)}")
    required, optional = layouts[kind]
    check_object(obj, where, ("kind", *required), optional)
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

_SPACE_LAYOUTS = {
    LEBESGUE_HALFLINE: ((), ()),
    LEBESGUE_LINE: ((), ()),
    LEBESGUE_INTERVAL: (("length",), ()),
    ATOMIC_N: ((), ("atom_mass",)),
    ATOMIC_Z: ((), ("atom_mass",)),
    ATOMIC_FINITE: (("count",), ("atom_mass",)),
}


def space_to_obj(sp: MeasureSpace) -> dict:
    out = {"kind": sp.kind}
    if sp.kind == LEBESGUE_INTERVAL:
        out["length"] = json_real(sp.length)
    if sp.is_atomic:
        out["atom_mass"] = json_real(sp.atom_mass)
    if sp.kind == ATOMIC_FINITE:
        out["count"] = sp.count
    return out


def space_from_obj(obj, where: str = "space") -> MeasureSpace:
    kind = _kind(obj, where, _SPACE_LAYOUTS)
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
        return {
            "space": space_to_obj(E.space),
            "indices": sorted(E.atoms),
            "cofinite": E.cofinite,
        }
    return {
        "space": space_to_obj(E.space),
        "intervals": [
            ["-inf" if a == NEG_INF else json_real(a), "inf" if b == INF else json_real(b)]
            for a, b in E.intervals
        ],
    }


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

# the keys beside "space" of a step function, per space kind
_STEP_LAYOUTS = {
    LEBESGUE_HALFLINE: (("breakpoints", "right_tail"), ("values",)),
    LEBESGUE_INTERVAL: (("breakpoints",), ("values",)),
    LEBESGUE_LINE: (("breakpoints", "left_tail", "right_tail"), ("values",)),
}


def measfn_to_obj(f: MeasFn) -> dict:
    if isinstance(f, AtomSeq):
        out = {
            "space": space_to_obj(f.space),
            "entries": [[j, json_real(v)] for j, v in f.entries],
        }
        if f.space.kind == ATOMIC_N:
            out["tail_value"] = json_real(f.tail)
        return out
    sp = f.space
    if sp.kind == LEBESGUE_HALFLINE:
        return {
            "space": space_to_obj(sp),
            "breakpoints": [0] + [json_real(c) for c in f.cuts],
            "values": [json_real(v) for v in f.vals[:-1]],
            "right_tail": json_real(f.vals[-1]),
        }
    if sp.kind == LEBESGUE_INTERVAL:
        return {
            "space": space_to_obj(sp),
            "breakpoints": [0] + [json_real(c) for c in f.cuts] + [json_real(sp.length)],
            "values": [json_real(v) for v in f.vals],
        }
    return {
        "space": space_to_obj(sp),
        "breakpoints": [json_real(c) for c in f.cuts],
        "left_tail": json_real(f.vals[0]),
        "values": [json_real(v) for v in f.vals[1:-1]] if f.cuts else [],
        "right_tail": json_real(f.vals[-1]),
    }


def measfn_from_obj(obj, where: str = "function") -> MeasFn:
    sp = _space_in(obj, where)
    if sp.is_atomic:
        check_object(obj, where, ("space", "entries"), ("tail_value",))
        entries = _array(obj["entries"], f"{where}.entries", _pair(int_from_obj, _num))
        tail = _num(obj.get("tail_value", 0), f"{where}.tail_value")
        return _made(where, seq, sp, entries, tail)
    required, optional = _STEP_LAYOUTS[sp.kind]
    check_object(obj, where, ("space", *required), optional)
    bps = _array(obj["breakpoints"], f"{where}.breakpoints", _num)
    values = _array(obj.get("values", []), f"{where}.values", _num)
    if any(not a < b for a, b in zip(bps, bps[1:])):
        raise ValueError(f"{where}: breakpoints must be strictly increasing")
    if len(values) != max(len(bps) - 1, 0):
        raise ValueError(f"{where}: need exactly one value per gap")
    if sp.kind == LEBESGUE_HALFLINE:
        if not bps or bps[0] != 0:
            raise ValueError(f"{where}: half-line breakpoints must start at 0")
        right = _num(obj["right_tail"], f"{where}.right_tail")
        return _made(where, step, sp, bps[1:], values + [right])
    if sp.kind == LEBESGUE_INTERVAL:
        if len(bps) < 2 or bps[0] != 0 or bps[-1] != sp.length:
            raise ValueError(f"{where}: interval breakpoints must run from 0 to the length")
        return _made(where, step, sp, bps[1:-1], values)
    left = _num(obj["left_tail"], f"{where}.left_tail")
    right = _num(obj["right_tail"], f"{where}.right_tail")
    if not bps:
        if left != right:
            raise ValueError(f"{where}: a constant line function must have equal tails")
        return _made(where, step, sp, [], [left])
    return _made(where, step, sp, bps, [left] + values + [right])


# ---------------------------------------------------------------------------
# Symbols
# ---------------------------------------------------------------------------

_FORM_NAMES = {
    Affine: "affine",
    PowerOnUnit: "power_on_unit",
    ShiftedPower: "shifted_power",
    AffineTail: "affine_tail",
    ExpRecip: "exp_recip",
}
_FORM_LAYOUTS = {
    "affine": (("alpha", "beta"), ()),
    "power_on_unit": (("n",), ()),
    "shifted_power": (("n",), ()),
    "affine_tail": (("n",), ()),
    "exp_recip": ((), ()),
}
_INTEGER_FORMS = {"power_on_unit": PowerOnUnit, "shifted_power": ShiftedPower,
                  "affine_tail": AffineTail}


def _form_to_obj(form) -> dict:
    out = {"kind": _FORM_NAMES[type(form)]}
    if isinstance(form, Affine):
        out["alpha"] = json_real(form.alpha)
        out["beta"] = json_real(form.beta)
    elif isinstance(form, (PowerOnUnit, ShiftedPower, AffineTail)):
        out["n"] = form.n
    return out


def _form_from_obj(obj, where: str):
    if isinstance(obj, dict) and "kind" not in obj:  # the {"power": n} shorthand
        check_object(obj, where, ("power",))
        return _made(where, PowerOnUnit, int_from_obj(obj["power"], f"{where}.power"))
    kind = _kind(obj, where, _FORM_LAYOUTS)
    if kind == "affine":
        alpha = _num(obj["alpha"], f"{where}.alpha")
        return _made(where, Affine, alpha, _num(obj["beta"], f"{where}.beta"))
    if kind == "exp_recip":
        return ExpRecip()
    return _made(where, _INTEGER_FORMS[kind], int_from_obj(obj["n"], f"{where}.n"))


def _branch_from_obj(obj, where: str) -> Branch:
    check_object(obj, where, ("lo", "hi", "form"))
    lo, hi = _num(obj["lo"], f"{where}.lo"), _num(obj["hi"], f"{where}.hi")
    return _made(where, Branch, lo, hi, _form_from_obj(obj["form"], f"{where}.form"))


def symbol_to_obj(sym: Symbol) -> dict:
    if isinstance(sym, AtomicSymbol):
        out = {
            "space": space_to_obj(sym.space),
            "table": [[j, k] for j, k in sym.table],
        }
        if sym.shift is not None:
            out["shift"] = sym.shift
        return out
    return {
        "space": space_to_obj(sym.space),
        "branches": [
            {
                "lo": "-inf" if br.lo == NEG_INF else json_real(br.lo),
                "hi": "inf" if br.hi == INF else json_real(br.hi),
                "form": _form_to_obj(br.form),
            }
            for br in sym.branches
        ],
    }


def symbol_from_obj(obj, where: str = "symbol") -> Symbol:
    sp = _space_in(obj, where)
    if sp.is_atomic:
        check_object(obj, where, ("space", "table"), ("shift",))
        table = _array(obj["table"], f"{where}.table", _pair(int_from_obj, int_from_obj))
        shift = obj.get("shift")
        if shift is not None:
            shift = int_from_obj(shift, f"{where}.shift")
        return _made(where, AtomicSymbol, sp, tuple(table), shift)
    check_object(obj, where, ("space", "branches"))
    branches = _array(obj["branches"], f"{where}.branches", _branch_from_obj)
    return _made(where, IntervalSymbol, sp, tuple(branches))


# ---------------------------------------------------------------------------
# Norm specs, quasiconcave functions, weights
# ---------------------------------------------------------------------------

_PHI_LAYOUTS = {
    "power": (("alpha",), ()),
    "logclip": ((), ()),
    "step_approx": (("knots",), ("final_slope",)),
}
_NORM_LAYOUTS = {
    "lp": (("space", "p"), ()),
    "lorentz": (("space", "p", "q"), ()),
    "weak_lp": (("space", "p"), ()),
    "marcinkiewicz_weak": (("space", "phi"), ()),
    "marcinkiewicz_strong": (("space", "phi"), ()),
}


def phi_to_obj(phi) -> dict:
    if isinstance(phi, Power):
        return {"kind": "power", "alpha": json_real(phi.alpha)}
    if isinstance(phi, LogClip):
        return {"kind": "logclip"}
    return {
        "kind": "step_approx",
        "knots": [[json_real(t), json_real(v)] for t, v in phi.knots],
        "final_slope": json_real(phi.final_slope),
    }


def phi_from_obj(obj, where: str = "phi"):
    kind = _kind(obj, where, _PHI_LAYOUTS)
    if kind == "power":
        return _made(where, Power, _num(obj["alpha"], f"{where}.alpha"))
    if kind == "logclip":
        return LogClip()
    knots = _array(obj["knots"], f"{where}.knots", _pair(_num, _num))
    slope = _num(obj.get("final_slope", 0), f"{where}.final_slope")
    return _made(where, StepApprox, tuple(knots), slope)


def normspec_to_obj(spec: NormSpec) -> dict:
    base = {"space": space_to_obj(spec.space)}
    if isinstance(spec, Lp):
        return {"kind": "lp", "p": json_real(spec.p), **base}
    if isinstance(spec, Lorentz):
        return {"kind": "lorentz", "p": json_real(spec.p), "q": json_real(spec.q), **base}
    if isinstance(spec, WeakLp):
        return {"kind": "weak_lp", "p": json_real(spec.p), **base}
    if isinstance(spec, MarcWeak):
        return {"kind": "marcinkiewicz_weak", "phi": phi_to_obj(spec.phi), **base}
    if isinstance(spec, MarcStrong):
        return {"kind": "marcinkiewicz_strong", "phi": phi_to_obj(spec.phi), **base}
    raise TypeError(f"not a norm spec: {spec!r}")


def normspec_from_obj(obj, where: str = "spec") -> NormSpec:
    kind = _kind(obj, where, _NORM_LAYOUTS)
    sp = space_from_obj(obj["space"], f"{where}.space")
    if kind == "lp":
        return _made(where, Lp, sp, _num(obj["p"], f"{where}.p"))
    if kind == "lorentz":
        p, q = _num(obj["p"], f"{where}.p"), _num(obj["q"], f"{where}.q")
        return _made(where, Lorentz, sp, p, q)
    if kind == "weak_lp":
        return _made(where, WeakLp, sp, _num(obj["p"], f"{where}.p"))
    phi = phi_from_obj(obj["phi"], f"{where}.phi")
    return _made(where, MarcWeak if kind == "marcinkiewicz_weak" else MarcStrong, sp, phi)


def xiweight_to_obj(w: XiWeight) -> dict:
    return {"weight": measfn_to_obj(w.weight)}


def xiweight_from_obj(obj) -> XiWeight:
    check_object(obj, "xi weight", ("weight",))
    fn = measfn_from_obj(obj["weight"], "weight")
    if fn.space.kind != LEBESGUE_HALFLINE:
        raise ValueError("weight: xi weights are step functions on the half-line")
    return _made("weight", XiWeight, fn)


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
