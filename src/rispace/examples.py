"""Pinned demonstration configurations, runnable by id.

Each id maps to a fixed (space, symbol, seed function, norm specs, schedule)
bundle plus a list of exact expectations; ``run_example`` executes the bundle,
builds the convergence report, and evaluates every expectation.  All checks
are derivable from the report and the module operations alone — there is no
hidden state, and a fixed seed makes reruns byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .ergodic import (
    ErgodicReport,
    _report,
    apply,
    cesaro,
    cesaro_schedule,
    convergence_report,
    decomposition_check,
    permutation_limit,
    weak_type_ratio,
)
from .num import INF, fmt_real
from .rearrange import rearrangement
from .space import atomic_finite, atomic_n, atomic_z, halfline, interval, line
from .spaces import LogClip, Lp, MarcWeak, XiWeight, norm_eval, xi_seminorm
from .stepfn import StepFn, constant, seq, seq_from_values, step, subtract
from .symbols import (
    Affine,
    AffineTail,
    AtomicSymbol,
    Branch,
    ExpRecip,
    IntervalSymbol,
    PowerOnUnit,
    ShiftedPower,
    check_condition_I,
    measure_bound,
)

DEFAULT_SEED = 1729


@dataclass(frozen=True)
class ExampleCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExampleRun:
    example_id: str
    report: ErgodicReport
    checks: tuple[ExampleCheck, ...]

    @property
    def verdict(self) -> bool:
        return all(c.passed for c in self.checks)


# ---------------------------------------------------------------------------
# Shared symbol constructors
# ---------------------------------------------------------------------------


def translation_line() -> IntervalSymbol:
    """t -> t - 1 on the real line."""
    sp = line()
    return IntervalSymbol(sp, (Branch(-INF, INF, Affine(Fraction(1), Fraction(-1))),))


def power_symbol(n: int) -> IntervalSymbol:
    """t -> t^n on [0, 1)."""
    return IntervalSymbol(interval(1), (Branch(Fraction(0), Fraction(1), PowerOnUnit(n)),))


def exp_recip_symbol() -> IntervalSymbol:
    """t -> exp(1 - 1/t) on [0, 1)."""
    return IntervalSymbol(interval(1), (Branch(Fraction(0), Fraction(1), ExpRecip()),))


def shifted_power_symbol(n: int) -> IntervalSymbol:
    """t -> 1 + t^n on [0, 1), continued by the affine ray n(t-1)+2."""
    sp = halfline()
    return IntervalSymbol(
        sp,
        (
            Branch(Fraction(0), Fraction(1), ShiftedPower(n)),
            Branch(Fraction(1), INF, AffineTail(n)),
        ),
    )


def unilateral_shift() -> AtomicSymbol:
    return AtomicSymbol(atomic_n(), (), shift=1)


def bilateral_shift() -> AtomicSymbol:
    return AtomicSymbol(atomic_z(), (), shift=1)


def nonsurjective_shift() -> AtomicSymbol:
    """phi(0) = 0 and phi(j) = j - 1: measure-bounded but not power-bounded."""
    return AtomicSymbol(atomic_n(), ((0, 0),), shift=-1)


def demo_permutation() -> AtomicSymbol:
    table = ((0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (5, 5), (6, 7), (7, 6))
    return AtomicSymbol(atomic_finite(8), table)


def logclip_reciprocal_minorant(eps: Fraction) -> StepFn:
    """A step minorant of 1/Phi (Phi the log-clip function) on (0, 1],
    truncated at a value cap >= 1/eps.

    Pieces take the value 2^j on [c_{j+1}, c_j) with c_j = 2^{-m_j} chosen so
    that 1/Phi(c_j) = 1 + m_j log 2 >= 2^j; the extra +1 on m_j absorbs any
    float rounding in the ceiling.  The cap piece (0, c_J) is where the
    composition with exp(1 - 1/t) produces a large Marcinkiewicz norm.
    """
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    cap = 1 / eps
    J = 0
    while 2**J < cap:
        J += 1
    cuts = []
    for j in range(J, 0, -1):
        m_j = math.ceil((2**j - 1) / math.log(2)) + 1
        cuts.append(Fraction(1, 2**m_j))
    vals = [Fraction(2**j) for j in range(J, -1, -1)]
    return step(interval(1), cuts, vals)


# ---------------------------------------------------------------------------
# Seeded function generators (kept local so example outputs stay pinned)
# ---------------------------------------------------------------------------


def _random_unit_step(rng: random.Random, pieces: int = 5, denom: int = 64) -> StepFn:
    """Random nonnegative step function on [0, 1) with dyadic data."""
    sp = interval(1)
    while True:
        k = rng.randint(1, pieces)
        cuts = sorted({Fraction(rng.randint(1, denom - 1), denom) for _ in range(k)})
        vals = [Fraction(rng.randint(0, 8 * denom), denom) for _ in range(len(cuts) + 1)]
        f = step(sp, cuts, vals)
        if any(v > 0 for v in f.vals):
            return f


def _random_compact_step(rng: random.Random, pieces: int = 5, denom: int = 16) -> StepFn:
    """Random nonnegative step function on [0, inf) with compact support."""
    sp = halfline()
    while True:
        k = rng.randint(1, pieces)
        cuts = sorted({Fraction(rng.randint(1, 8 * denom), denom) for _ in range(k + 1)})
        vals = [Fraction(rng.randint(0, 4 * denom), denom) for _ in range(len(cuts))] + [Fraction(0)]
        f = step(sp, cuts, vals)
        if any(v > 0 for v in f.vals):
            return f


# ---------------------------------------------------------------------------
# The examples
# ---------------------------------------------------------------------------


def _check(name: str, passed: bool, detail: str) -> ExampleCheck:
    return ExampleCheck(name, bool(passed), detail)


def _run_counterex_sv(seed: int, trials: int, horizon: int, schedule) -> ExampleRun:
    n = 2
    sym = power_symbol(n)
    sp = sym.space
    spec = MarcWeak(sp, LogClip())
    checks = []

    A = measure_bound(sym)
    checks.append(_check("measure_bound_infinite", A == INF, f"measure_bound = {fmt_real(A)}"))

    rng = random.Random(seed)
    worst = Fraction(0)
    ok = True
    for _ in range(trials):
        f = _random_unit_step(rng)
        lhs = norm_eval(spec, apply(sym, f))
        rhs = norm_eval(spec, f)
        if rhs > 0:
            ok = ok and lhs <= n * rhs
            worst = max(worst, lhs / rhs)
    checks.append(
        _check(
            "norm_ratio_at_most_n",
            ok,
            f"max ||T f||/||f|| = {float(worst):.6f} over {trials} trials (bound {n})",
        )
    )

    tilde = exp_recip_symbol()
    g = logclip_reciprocal_minorant(Fraction(1, 10**6))
    blown = norm_eval(MarcWeak(sp, LogClip()), apply(tilde, g))
    checks.append(
        _check(
            "exp_recip_blowup",
            blown > 10**4,
            f"||T g||_m = {float(blown):.1f} for the capped 1/Phi minorant (needs > 1e4)",
        )
    )

    sched = schedule or (1, 2, 4, 8)
    f0 = step(sp, [Fraction(1, 4)], [Fraction(1), Fraction(0)])
    report = convergence_report(sym, f0, [spec], [], sched)
    return ExampleRun("counterex-sv", report, tuple(checks))


def _run_counterex_sv_power(seed: int, trials: int, horizon: int, schedule) -> ExampleRun:
    n = 2
    sym = shifted_power_symbol(n)
    spec = MarcWeak(sym.space, LogClip())
    checks = []

    checks.append(
        _check(
            "measure_bound_infinite",
            measure_bound(sym) == INF,
            "one branch is a power map, so no finite measure bound exists",
        )
    )

    rng = random.Random(seed)
    worst = 0.0
    ok = True
    for _ in range(trials):
        f = _random_compact_step(rng)
        base = norm_eval(spec, f)
        if base == 0:
            continue
        g = f
        for _ in range(30):
            g = apply(sym, g)
            ratio = norm_eval(spec, g) / base
            worst = max(worst, float(ratio))
            if not ratio <= n + Fraction(1, 10**9):
                ok = False
    checks.append(
        _check(
            "power_norm_ratio_at_most_n",
            ok,
            f"max ||T^k f||/||f|| = {worst:.6f} over {trials} trials, k <= 30 (bound {n})",
        )
    )

    ana = check_condition_I(sym, horizon)
    checks.append(
        _check(
            "not_bounded_from_below",
            not ana.condition_I3,
            f"condition (I3) fails: witness {fmt_real(ana.condition_I3_witness)}",
        )
    )

    sched = schedule or (1, 2, 4, 8, 16)
    f0 = step(sym.space, [Fraction(1), Fraction(3)], [Fraction(0), Fraction(1), Fraction(0)])
    report = convergence_report(sym, f0, [spec], [], sched)
    return ExampleRun("counterex-sv-power", report, tuple(checks))


def _run_counterex_l1(seed: int, trials: int, horizon: int, schedule) -> ExampleRun:
    sym = translation_line()
    sp = sym.space
    f = step(sp, [Fraction(0), Fraction(1)], [Fraction(0), Fraction(1), Fraction(0)])
    sched = schedule or (1, 10, 100, 1000)
    l2 = Lp(sp, 2)
    l1 = Lp(sp, 1)
    w1 = XiWeight(constant(halfline(), Fraction(1)))
    traj = cesaro_schedule(sym, f, sched)
    checks = []
    for n, mean in traj.means:
        expected = (
            f
            if n == 1
            else step(sp, [Fraction(0), Fraction(n)], [Fraction(0), Fraction(1, n), Fraction(0)])
        )
        checks.append(
            _check(f"mean_exact_n={n}", mean == expected, f"C_{n} f == (1/{n})·chi_[0,{n})")
        )
        xi = xi_seminorm(w1, mean)
        checks.append(_check(f"xi_constant_one_n={n}", xi == 1, f"xi(C_{n} f) = {fmt_real(xi)}"))
        l2v = norm_eval(l2, mean)
        target = 1.0 / math.sqrt(n)
        checks.append(
            _check(
                f"l2_decay_n={n}",
                abs(float(l2v) - target) <= 1e-12,
                f"||C_{n} f||_2 = {float(l2v)!r} vs n^(-1/2) = {target!r}",
            )
        )
    report = _report(traj.means, [l2, l1], [w1])
    return ExampleRun("counterex-l1", report, tuple(checks))


def _run_counterex_linfty(seed: int, trials: int, horizon: int, schedule) -> ExampleRun:
    sym = translation_line()
    sp = sym.space
    f = step(sp, [Fraction(0)], [Fraction(0), Fraction(1)])  # chi_[0, inf)
    sched = schedule or tuple(range(2, 101))
    traj = cesaro_schedule(sym, f, sched)
    one = constant(halfline(), Fraction(1))
    bad = [n for n, mean in traj.means if rearrangement(mean) != one]
    checks = [
        _check(
            "rearrangement_constant_one",
            not bad,
            f"(C_n f)* == 1 on [0, inf) for all n in schedule"
            + (f"; failures at n = {bad}" if bad else ""),
        )
    ]
    report = _report(traj.means[:8], [Lp(sp, INF)], [XiWeight(constant(halfline(), Fraction(1)))])
    return ExampleRun("counterex-linfty", report, tuple(checks))


def _run_shift_n(seed: int, trials: int, horizon: int, schedule) -> ExampleRun:
    sym = unilateral_shift()
    sp = sym.space
    f = seq_from_values(sp, [1, 1, 1, 1, 1, 1])
    sched = schedule or (1, 2, 4, 8, 16, 32, 64, 128)
    l1 = Lp(sp, 1)
    linf = Lp(sp, INF)
    traj = cesaro_schedule(sym, f, sched)
    checks = []
    ok = True
    details = []
    for n, mean in traj.means:
        val = norm_eval(l1, mean)
        if n >= 6:
            ok = ok and val == Fraction(21, n)
            details.append(f"n={n}: {fmt_real(val)}")
    checks.append(
        _check("l1_exact_21_over_n", ok, "||C_n f||_1 == 21/n for n >= 6: " + ", ".join(details))
    )
    c8 = cesaro(sym, f, 8)
    expected8 = seq(sp, [(j, Fraction(6 - j, 8)) for j in range(6)])
    checks.append(_check("mean_values_n=8", c8 == expected8, "C_8 f has values (6-j)/8, j<6"))
    zero = seq(sp, [])
    report = _report(traj.means, [l1, linf], [], limit_oracle=zero, sample_points=(0, 3))
    return ExampleRun("shift-n", report, tuple(checks))


def _run_shift_z(seed: int, trials: int, horizon: int, schedule) -> ExampleRun:
    sym = bilateral_shift()
    sp = sym.space
    f = seq(sp, [(j, Fraction(1)) for j in range(6)])
    sched = schedule or (1, 2, 4, 8, 16, 32, 64, 128)
    l1 = Lp(sp, 1)
    traj = cesaro_schedule(sym, f, sched)
    mass_ok = all(norm_eval(l1, mean) == 6 for _, mean in traj.means)
    checks = [_check("l1_preserved", mass_ok, "||C_n f||_1 == 6 for every n (mass transport)")]
    e0 = seq(sp, [(0, Fraction(1))])
    r = weak_type_ratio(sym, e0, 4, l1, [Fraction(1, 2)])
    checks.append(
        _check("weak_type_halfpoint", r == Fraction(1, 2), f"ratio at s=1/2 is {fmt_real(r)}")
    )
    grid = [Fraction(k, 16) for k in range(1, 17)]
    r2 = weak_type_ratio(sym, f, 8, l1, grid)
    checks.append(
        _check("hopf_bound", r2 <= 1, f"max weak-type ratio {fmt_real(r2)} <= 1 (measure-preserving)")
    )
    report = _report(traj.means, [l1], [], sample_points=(0, 6))
    return ExampleRun("shift-z", report, tuple(checks))


def _run_nonsurjective_shift(seed: int, trials: int, horizon: int, schedule) -> ExampleRun:
    sym = nonsurjective_shift()
    sp = sym.space
    hz = max(horizon, 5)
    ana = check_condition_I(sym, hz)
    checks = [
        _check("measure_bound_two", ana.measure_bound == 2, f"A = {fmt_real(ana.measure_bound)}"),
        _check(
            "power_bound_grows",
            ana.power_bounds.at(5) == 6,
            f"A_5 = {fmt_real(ana.power_bounds.at(5))} (power bound is not uniform)",
        ),
        _check("not_condition_I1", not ana.condition_I1, "A > 1"),
        _check(
            "bounded_from_below_under_iterates",
            ana.condition_I3 and ana.condition_I3_witness == 1,
            f"witness C = {fmt_real(ana.condition_I3_witness)}",
        ),
        _check("strictly_nonsingular", ana.strictly_nonsingular, "every atom stays covered"),
    ]
    f = seq(sp, [(0, Fraction(1))])
    sched = schedule or (1, 2, 4, 8, 16, 32)
    report = convergence_report(sym, f, [Lp(sp, 1), Lp(sp, INF)], [], sched, sample_points=(0,))
    return ExampleRun("nonsurjective-shift", report, tuple(checks))


def _run_permutation_demo(seed: int, trials: int, horizon: int, schedule) -> ExampleRun:
    sym = demo_permutation()
    sp = sym.space
    f = seq_from_values(sp, [1, 2, 6, 1, 3, 4, 0, 10])
    limit = permutation_limit(sym, f)
    expected = seq_from_values(sp, [3, 3, 3, 2, 2, 4, 5, 5])
    checks = [_check("orbit_averages", limit == expected, "Tf == (3,3,3,2,2,4,5,5)")]
    dec = decomposition_check(sym, f)
    checks.append(
        _check("decomposition_exact", dec.exact, "f == Tf + (I - T) g with exact witness g")
    )
    sched = schedule or tuple(2**k for k in range(11))
    traj = cesaro_schedule(sym, f, sched)
    linf = Lp(sp, INF)
    fmax = norm_eval(linf, f)
    L = 3  # longest cycle of the demo permutation
    ok = True
    for n, mean in traj.means:
        gap = norm_eval(linf, subtract(mean, limit))
        if not gap <= Fraction(2 * L) * fmax / n:
            ok = False
    checks.append(
        _check("mean_ergodic_rate", ok, f"||C_n f - Tf||_inf <= {2 * L}·||f||_inf / n on the schedule")
    )
    checks.append(_check("c1_is_f", cesaro(sym, f, 1) == f, "C_1 f == f"))
    report = _report(traj.means, [linf], [], limit_oracle=limit, sample_points=(0, 5))
    return ExampleRun("permutation-demo", report, tuple(checks))


_RUNNERS = {
    "counterex-sv": _run_counterex_sv,
    "counterex-sv-power": _run_counterex_sv_power,
    "counterex-l1": _run_counterex_l1,
    "counterex-linfty": _run_counterex_linfty,
    "shift-n": _run_shift_n,
    "shift-z": _run_shift_z,
    "nonsurjective-shift": _run_nonsurjective_shift,
    "permutation-demo": _run_permutation_demo,
}
EXAMPLE_IDS = tuple(_RUNNERS)


def run_example(
    example_id: str,
    seed: int = DEFAULT_SEED,
    trials: int = 50,
    horizon: int = 5,
    schedule=None,
) -> ExampleRun:
    """Execute a pinned example and evaluate its expectations."""
    if example_id not in _RUNNERS:
        raise KeyError(f"unknown example id {example_id!r}; choose from {EXAMPLE_IDS}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return _RUNNERS[example_id](seed, trials, horizon, tuple(schedule) if schedule else None)
