"""The package surface: ``rispace`` resolves each name from its module on
first use, and a cold ``rispace eval`` imports only the modules its
operation needs."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rispace
from rispace import cli, examples

from . import coldstart, parity

_ENV = dict(os.environ, PYTHONPATH=str(Path(rispace.__file__).parents[1]))

# the public names: every exported function, class and constant, and every
# module but cli
_ALL = """
Affine AffineTail AtomSeq AtomicSet AtomicSymbol Branch CesaroTrajectory Decomposition
EXAMPLE_IDS ErgodicReport ExampleCheck ExampleRun ExpRecip INF IntervalSet
IntervalSymbol LogClip Lorentz Lp MarcStrong MarcWeak MeasFn MeasureSpace NEG_INF
NormSpec PROPERTIES Power PowerBounds PowerOnUnit PropertyResult Real ShiftedPower
StepApprox StepFn SuiteResult Symbol SymbolAnalysis UndefinedIntegralError WeakLp
XiWeight abs_fn add apply as_real atomic_finite atomic_n atomic_power atomic_set
atomic_z cesaro cesaro_schedule check_condition_I constant convergence_report
decomposition_check dilate distribution_at empty_set equimeasurable ergodic examples
fmt_real fundamental_function halfline hardy_integral hardy_littlewood_pair hlp_leq
indicator integrate interval interval_set is_acr is_finite is_rearranged iterate_apply
json_real jsonio line linear_combine logclip_norm_of_log_profile lower_bound
maximal_truncated measure measure_bound norm_eval num permutation_limit phi_at
phi_breakpoints pointwise_leq pointwise_max pointwise_mul power_measure_bound preimage
preimage_measure properties quasiconcave_check rearrange rearrangement run_example scale
seq seq_from_values space spaces spec_label step stepfn subtract symbols to_float
verify_suite weak_type_ratio xi_seminorm
""".split()

_MODULES = sorted({*rispace._MODULE_OF.values()})


def _python(code: str, *argv: str, stdin: str = "") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *argv], env=_ENV, input=stdin,
                          capture_output=True, text=True, timeout=60)


def test_all_holds_the_public_names():
    assert len(_ALL) == 114
    assert sorted(rispace.__all__) == _ALL
    assert dir(rispace) == _ALL
    assert "cli" in _MODULES and "cli" not in rispace.__all__


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        rispace.nope  # noqa: B018


_RESOLVE = """
import importlib, sys
import rispace

module_name, names = sys.argv[1], sys.argv[2:]
module = getattr(rispace, module_name)
assert module is sys.modules["rispace." + module_name], module
for name in names:
    assert getattr(rispace, name) is getattr(module, name), name
"""


@pytest.mark.parametrize("module", _MODULES)
def test_each_module_and_its_names_resolve_after_a_bare_import(module):
    # the module first, in a fresh process, then every name it exports
    names = [n for n, m in rispace._MODULE_OF.items() if m == module and n != module]
    out = _python(_RESOLVE, module, *names)
    assert out.returncode == 0, out.stderr


def test_star_import_binds_every_public_name():
    out = _python("from rispace import *\nprint(sorted(n for n in dir() if not n.startswith('_')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(_ALL)


# what every cold eval loads: the package, the wire format and the step
# functions it decodes; cli itself runs as __main__, so it is not among them
_EVAL_BASE = {"rispace", "rispace.jsonio", "rispace.num", "rispace.space", "rispace.stepfn"}


# operation -> the modules it loads past those
_EVAL_MODULES = {
    "rearrange": {"rearrange"},
    "norm": {"rearrange", "spaces"},
    "xi": {"rearrange", "spaces"},
    "analyze-symbol": {"symbols"},
    "apply": {"ergodic", "rearrange", "symbols"},
    "cesaro": {"ergodic", "rearrange", "symbols"},
    "maximal": {"ergodic", "rearrange", "symbols"},
}


@pytest.mark.parametrize("operation", _EVAL_MODULES)
def test_a_cold_eval_loads_only_what_its_operation_needs(operation):
    out = _python(coldstart.LOADED, "eval", operation, stdin=json.dumps(coldstart.PAYLOADS[operation]))
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stderr.splitlines()[-1]))
    assert loaded == _EVAL_BASE | {f"rispace.{m}" for m in _EVAL_MODULES[operation]}


@pytest.mark.parametrize("argv", [["--help"], ["abc"], ["0"], ["-3"], ["2.5"], ["1", "2"]])
def test_coldstart_prints_its_usage_for_anything_but_one_positive_count(argv, capsys, monkeypatch):
    monkeypatch.setattr(coldstart, "cold_ms", lambda rounds: pytest.fail("no process may start"))
    assert coldstart.main(argv) == 2
    assert capsys.readouterr().err == coldstart.USAGE + "\n"


@pytest.mark.parametrize("argv", [[], ["a", "b"], ["nonempty"], ["file"]])
def test_parity_prints_its_usage_for_anything_but_one_new_or_empty_directory(argv, tmp_path, capsys,
                                                                              monkeypatch):
    monkeypatch.setattr(parity, "write_outputs", lambda outdir: pytest.fail("no output may be written"))
    (tmp_path / "nonempty").mkdir()
    (tmp_path / "nonempty" / "eval").mkdir()
    (tmp_path / "file").write_text("")
    assert parity.main([str(tmp_path / a) for a in argv]) == 2
    assert capsys.readouterr().err == parity.USAGE + "\n"


def test_parity_writes_into_a_new_or_an_empty_directory(tmp_path, monkeypatch):
    written = []
    monkeypatch.setattr(parity, "write_outputs", written.append)
    (tmp_path / "empty").mkdir()
    assert parity.main([str(tmp_path / "empty")]) == 0
    assert parity.main([str(tmp_path / "new")]) == 0
    assert written == [tmp_path / "empty", tmp_path / "new"]


_H = {"kind": "lebesgue_halfline"}
_INTERVAL = {"kind": "lebesgue_interval", "length": 1}
_WEIGHT = {"space": _H, "breakpoints": [0, 1], "values": [2], "right_tail": 1}

# (decoder, wire, class name, the wire that to_obj writes back when it differs)
# for each class that jsonio names, the classes of the norm catalog first
_RECORDS = [
    ("phi", {"kind": "power", "alpha": "1/3"}, "Power", None),
    ("phi", {"kind": "logclip"}, "LogClip", None),
    ("phi", {"kind": "step_approx", "knots": [[1, 1], [3, 2]], "final_slope": "1/3"},
     "StepApprox", None),
    ("spec", {"kind": "lp", "space": _H, "p": 2}, "Lp", None),
    ("spec", {"kind": "lorentz", "space": _H, "p": 2, "q": "4/3"}, "Lorentz", None),
    ("spec", {"kind": "weak_lp", "space": _H, "p": 3}, "WeakLp", None),
    ("spec", {"kind": "marcinkiewicz_weak", "space": _H, "phi": {"kind": "logclip"}},
     "MarcWeak", None),
    ("spec", {"kind": "marcinkiewicz_strong", "space": _H,
              "phi": {"kind": "power", "alpha": "2/3"}}, "MarcStrong", None),
    ("weight", {"weight": _WEIGHT}, "XiWeight", None),
    ("form", {"kind": "affine", "alpha": 2, "beta": "1/3"}, "Affine", None),
    ("form", {"kind": "power_on_unit", "n": 3}, "PowerOnUnit", None),
    ("form", {"power": 2}, "PowerOnUnit", {"kind": "power_on_unit", "n": 2}),
    ("form", {"kind": "shifted_power", "n": 2}, "ShiftedPower", None),
    ("form", {"kind": "affine_tail", "n": 2}, "AffineTail", None),
    ("form", {"kind": "exp_recip"}, "ExpRecip", None),
    ("symbol", {"space": _INTERVAL, "branches": [{"lo": 0, "hi": 1, "form": {"power": 2}}]},
     "IntervalSymbol", {"space": _INTERVAL,
                        "branches": [{"lo": 0, "hi": 1, "form": {"kind": "power_on_unit", "n": 2}}]}),
    ("symbol", {"space": {"kind": "atomic_z", "atom_mass": 1}, "table": [[0, 1]], "shift": 1},
     "AtomicSymbol", None),
    ("symbol", {"space": {"kind": "atomic_finite", "atom_mass": 1, "count": 2},
                "table": [[0, 1], [1, 0]], "shift": None}, "AtomicSymbol",
     {"space": {"kind": "atomic_finite", "atom_mass": 1, "count": 2}, "table": [[0, 1], [1, 0]]}),
]

# decodes each record of argv[1], then encodes it and decodes that again, in
# a process that imported only rispace.jsonio; prints the rispace modules
# loaded after each record
_ROUND_TRIP = """
import json, sys
import rispace
from rispace import jsonio

DECODERS = {"phi": jsonio.phi_from_obj, "spec": jsonio.normspec_from_obj,
            "weight": lambda obj, where: jsonio.xiweight_from_obj(obj),
            "form": jsonio._form_from_obj, "symbol": jsonio.symbol_from_obj}
for decoder, wire, name, written in json.loads(sys.argv[1]):
    x = DECODERS[decoder](wire, decoder)
    assert type(x).__name__ == name, (name, x)
    obj = jsonio.to_obj(x)
    assert obj == (wire if written is None else written), (name, obj)
    assert DECODERS[decoder](obj, decoder) == x, name
    print(json.dumps(sorted(m for m in sys.modules if m.startswith("rispace."))))
analysis = jsonio.to_obj(rispace.check_condition_I(x, 2))
assert analysis["power_bounds"] == [[1, 1], [2, 1]] and analysis["nonsingular"], analysis
"""


def test_the_classes_jsonio_names_resolve_and_round_trip_from_a_bare_jsonio():
    from rispace import jsonio

    names = {*jsonio._KIND_OF, *jsonio._ENCODERS, "AtomicSymbol", "IntervalSymbol", "Branch",
             "XiWeight"}
    for name in names:
        assert name in rispace.__all__ and isinstance(getattr(rispace, name), type), name
        assert getattr(rispace, name).__name__ == name
    assert {name for _, _, name, _ in _RECORDS} >= set(jsonio._KIND_OF)
    out = _python(_ROUND_TRIP, json.dumps(_RECORDS))
    assert out.returncode == 0, out.stderr
    loaded = [json.loads(line) for line in out.stdout.splitlines()]
    # a norm, a profile or a weight loads the norm catalog, not the symbols
    catalog = next(i for i, (decoder, *_) in enumerate(_RECORDS) if decoder == "form")
    assert "rispace.spaces" in loaded[catalog - 1] and "rispace.symbols" not in loaded[catalog - 1]
    assert "rispace.symbols" in loaded[-1]


def test_the_parser_knows_the_example_registry():
    assert cli.EXAMPLE_IDS == examples.EXAMPLE_IDS
    assert cli.DEFAULT_SEED == examples.DEFAULT_SEED
