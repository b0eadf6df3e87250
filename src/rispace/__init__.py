"""Exact rearrangement-invariant analysis of composition operators.

Measure spaces, step functions and atom sequences, non-increasing
rearrangements, a catalog of function-space norms, composition symbols with
exact preimage analytics, and Cesaro/maximal averaging — all in rational
arithmetic wherever the quantities are rational.

Every name below is imported from its module on first use (PEP 562), so
``import rispace`` loads none of the modules; each module is also a name.
"""

from importlib import import_module as _import_module

# module -> the names it exports here
_EXPORTS = {
    "ergodic": """CesaroTrajectory Decomposition ErgodicReport apply cesaro
        cesaro_schedule convergence_report decomposition_check iterate_apply
        maximal_truncated permutation_limit spec_label weak_type_ratio""",
    "examples": "EXAMPLE_IDS ExampleCheck ExampleRun run_example",
    "jsonio": "",
    "num": "INF NEG_INF Real as_real fmt_real is_finite json_real to_float",
    "properties": "PROPERTIES PropertyResult SuiteResult verify_suite",
    "rearrange": """dilate distribution_at equimeasurable hardy_integral
        hardy_littlewood_pair hlp_leq is_acr is_rearranged rearrangement""",
    "space": """AtomicSet IntervalSet MeasureSpace atomic_finite atomic_n
        atomic_set atomic_z empty_set halfline interval interval_set line
        measure""",
    "spaces": """LogClip Lorentz Lp MarcStrong MarcWeak NormSpec Power
        StepApprox WeakLp XiWeight fundamental_function
        logclip_norm_of_log_profile norm_eval phi_at phi_breakpoints
        quasiconcave_check xi_seminorm""",
    "stepfn": """AtomSeq MeasFn StepFn UndefinedIntegralError abs_fn add
        constant indicator integrate linear_combine pointwise_leq
        pointwise_max pointwise_mul scale seq seq_from_values step subtract""",
    "symbols": """Affine AffineTail AtomicSymbol Branch ExpRecip IntervalSymbol
        PowerBounds PowerOnUnit ShiftedPower Symbol SymbolAnalysis atomic_power
        check_condition_I lower_bound measure_bound power_measure_bound
        preimage preimage_measure""",
}

# name -> its module; a module name maps to itself
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)

_MODULE_OF["cli"] = "cli"  # reachable as rispace.cli, but not star-imported


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f".{_MODULE_OF[name]}", __name__)
    if name != _MODULE_OF[name]:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return list(__all__)
