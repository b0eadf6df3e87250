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


# runs the CLI as ``python -m rispace.cli`` does, then reports the rispace
# modules loaded as the last line of stderr
_LOADED = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules if m.startswith("rispace"))),
                              file=sys.stderr))
sys.argv[0] = "rispace.cli"
runpy.run_module("rispace.cli", run_name="__main__", alter_sys=True)
"""

_HALFLINE_FN = {"space": {"kind": "lebesgue_halfline"}, "breakpoints": [0, 1, 2],
                "values": [1, 3], "right_tail": 0}
_Z = {"kind": "atomic_z", "atom_mass": 1}
_SHIFT_PAYLOAD = {"symbol": {"space": _Z, "table": [], "shift": 1},
                  "function": {"space": _Z, "entries": [[0, 1]]}, "n": 2}


@pytest.mark.parametrize("operation, payload, needed, unused", [
    ("rearrange", {"function": _HALFLINE_FN}, {"rispace.rearrange"},
     {"rispace.ergodic", "rispace.examples", "rispace.properties"}),
    ("cesaro", _SHIFT_PAYLOAD, {"rispace.ergodic"}, {"rispace.examples", "rispace.properties"}),
])
def test_a_cold_eval_loads_only_what_its_operation_needs(operation, payload, needed, unused):
    out = _python(_LOADED, "eval", operation, stdin=json.dumps(payload))
    assert out.returncode == 0, out.stderr
    loaded = set(json.loads(out.stderr.splitlines()[-1]))
    assert needed <= loaded and not loaded & unused, sorted(loaded)


def test_the_parser_knows_the_example_registry():
    assert cli.EXAMPLE_IDS == examples.EXAMPLE_IDS
    assert cli.DEFAULT_SEED == examples.DEFAULT_SEED
