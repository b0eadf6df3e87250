"""The CLI's outputs on a fixed set of inputs, written out to compare two checkouts.

    PYTHONPATH=src python -m tests.parity OUTDIR

runs ``rispace.cli.main`` in this process and writes into OUTDIR:

* ``eval/OPERATION-SEED.txt``: the payload, exit code, stdout and stderr of
  ``eval`` for each of the seven operations on ``tests.payloads.eval_payload``
  of seeds 0-199;
* ``eval/analyze-symbol-h30-SEED.txt``: the same for ``analyze-symbol`` at
  horizon 30, for each seed whose payload symbol is atomic (an interval
  symbol keeps its drawn horizon of 1-3: its expanding maps grow each step);
* ``run-example/ID/``: the report and verdict files of every example id run
  with ``--format both``, and its exit code and output in ``ID.txt``;
* ``verify/``: ``verify --seed 42 --trials 60``, and the same run with
  ``--inject-failure`` beside its counterexample file;
* ``library/SEED.txt``: the reprs of ``maximal_truncated`` and
  ``cesaro_schedule`` on ``library_case(SEED)``, a float-valued atomic input,
  for seeds 0-199.  No ``eval`` payload carries a float, so these are what
  shows a change in how float sums round;
* ``library/interval-SEED.txt``: the reprs of ``apply``,
  ``cesaro_schedule(..., (1, 2, 4, 8))``, ``maximal_truncated(..., 4)`` and
  ``check_condition_I(..., 6)`` on ``interval_case(SEED)``, a non-affine
  interval symbol and a step function with 2^-k cuts, for seeds 0-199.  An
  ``eval`` payload meets an interval symbol only at horizons 1-3 and on
  small functions, so these are what shows a change in the float cuts,
  Cesàro sums and sampled bound rows of the non-affine maps;
* ``library/sets-SEED.txt``: the reprs (or errors) of ``interval_set`` and
  ``atomic_set`` on raw input of the seed, mixed floats and Fractions,
  inverted, overlapping, touching or out-of-range pieces and non-int atoms
  included; of ``union``, ``intersect``, ``complement``, ``difference`` and
  ``measure`` on ``properties.gen_set`` sets; and of up to three
  ``preimage`` steps of a ``properties.gen_set`` set under a
  ``properties.gen_symbol`` symbol, for seeds 0-199.  No ``eval`` payload
  carries a set, so these are what shows a change in how sets are built,
  combined and pulled back;
* ``library/seqs-SEED.txt``: the reprs (or errors) of ``linear_combine``,
  ``add``, ``subtract``, ``scale``, ``rearrangement``, ``abs_fn``,
  ``pointwise_leq``, ``pointwise_max``, ``pointwise_mul``, ``hlp_leq``,
  ``hardy_littlewood_pair`` and ``integrate`` on ``seqs_case(SEED)``, two
  ``properties.gen_seq`` sequences on one ``properties.gen_atomic_space``
  space, with tails over N, float values and values past the 1,024-bit
  budget, and coefficients among them 0, floats and 2^-1100; and of
  ``apply`` on them under a ``properties.gen_atomic_symbol`` symbol on
  their space, for seeds 0-199.  No ``eval`` payload combines sequences, so
  these are what shows a change in the sequence operations on their int
  views and on their fallbacks.

Every path the CLI prints is relative to OUTDIR, so the outputs of two
checkouts compare with ``diff -r OUTDIR_A OUTDIR_B``.  OUTDIR must be new or
empty, so that no tree left by an earlier or interrupted run is mixed in; for
anything else, or for any number of arguments but one, it prints the usage
line and exits 2.
"""

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from rispace import (INF, NEG_INF, AffineTail, AtomicSymbol, Branch, ExpRecip, IntervalSymbol, PowerOnUnit,
                     ShiftedPower, abs_fn, add, apply, atomic_finite, atomic_n, atomic_set, atomic_z,
                     cesaro_schedule, check_condition_I, cli, halfline, hardy_littlewood_pair, hlp_leq, integrate,
                     interval, interval_set, linear_combine, maximal_truncated, measure, pointwise_leq,
                     pointwise_max, pointwise_mul, rearrangement, scale, seq, step, subtract)
from rispace.properties import gen_atomic_space, gen_atomic_symbol, gen_seq, gen_set, gen_space, gen_symbol

from .payloads import eval_payload

OPERATIONS = ("rearrange", "norm", "xi", "apply", "cesaro", "maximal", "analyze-symbol")
SEEDS = range(200)


def run(argv, stdin: str = "") -> str:
    """The exit code, stdout and stderr of ``rispace argv``, as one text."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(stdin)), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        rc = cli.main(list(argv))
    return f"exit {rc}\n--- stdout\n{out.getvalue()}\n--- stderr\n{err.getvalue()}"


def _outcome(name: str, call) -> str:
    """The repr of what call() returns, or the error it raises."""
    try:
        return f"--- {name}\n{call()!r}"
    except Exception as e:  # an error is an output too
        return f"--- {name} raised {type(e).__name__}: {e}"


def library_case(seed: int):
    """(symbol, f, K, schedule) drawn from the seed: a finite table (a
    permutation half the time) or a shift of -2..3, 0 included, on Z or N with
    up to three table rows; f's entries in [-8, 8] mix floats with Fractions,
    at least one a float, and over N its tail is one that some entries equal
    in |value| with the other kind."""
    rng = random.Random(seed)
    kind = ("finite", "z", "n")[seed % 3]
    if kind == "finite":
        n = rng.randint(1, 7)
        images = rng.sample(range(n), n) if rng.random() < 0.5 else [rng.randrange(n) for _ in range(n)]
        sym, lo, hi, tail = AtomicSymbol(atomic_finite(n), tuple(enumerate(images))), 0, n - 1, 0
    else:
        sp, lo, hi = (atomic_z(), -8, 8) if kind == "z" else (atomic_n(), 0, 8)
        shift = rng.randint(-2, 3)
        rows = {rng.randint(lo, 6): rng.randint(lo, 6) for _ in range(rng.randint(0, 3))}
        if kind == "n" and shift < 0:  # the indices below -shift must not fall off N
            rows |= {j: rng.randint(0, 6) for j in range(-shift) if j not in rows}
        sym = AtomicSymbol(sp, tuple(rows.items()), shift)
        tail = 0 if kind == "z" else rng.choice([0, 0.3, 0.125, Fraction(5, 2)])
    floats = [0.1, 1 / 3, -0.7, 0.25, 1.5, 3e-17]
    pool = [*floats, Fraction(-3, 4), Fraction(2), *([Fraction(tail), -Fraction(tail), -float(tail)] if tail else [])]
    entries = {rng.randint(lo, hi): rng.choice(pool) for _ in range(rng.randint(0, 6))}
    entries[rng.randint(lo, hi)] = rng.choice(floats)
    K, schedule = rng.randint(1, 12), sorted(rng.sample(range(1, 13), rng.randint(1, 3)))
    return sym, seq(sym.space, entries, tail=tail), K, schedule


def library_text(seed: int) -> str:
    """The case of the seed, and what the maximal and Cesàro means give on it
    (or the error they raise)."""
    sym, f, K, schedule = library_case(seed)
    lines = [f"{sym!r}", f"{f!r}", f"K = {K}, schedule = {schedule}"]
    for name, call in (("maximal_truncated", lambda: maximal_truncated(sym, f, K)),
                       ("cesaro_schedule", lambda: cesaro_schedule(sym, f, schedule).means)):
        lines.append(_outcome(name, call))
    return "\n".join(lines) + "\n"


def interval_case(seed: int):
    """(symbol, f) drawn from the seed: x^n or exp(1 - 1/x) on [0, 1), or
    1 + x^n on [0, 1) beside the affine tail n(t - 1) + 2 on the half-line
    (n = 2 or 3); f has up to 24 pieces with 2^-k cuts (10 <= k <= 20) in
    [0, 1) or [0, 6) and values 0..9, 0 past the end of the half-line."""
    rng = random.Random(f"interval:{seed}")
    n = rng.randint(2, 3)
    if seed % 3 == 0:
        sym, width = IntervalSymbol(interval(1), (Branch(0, 1, PowerOnUnit(n)),)), 1
    elif seed % 3 == 1:
        sym, width = IntervalSymbol(interval(1), (Branch(0, 1, ExpRecip()),)), 1
    else:
        sym, width = IntervalSymbol(halfline(), (Branch(0, 1, ShiftedPower(n)), Branch(1, INF, AffineTail(n)))), 6
    cuts = sorted({width * Fraction(rng.randrange(1, 1 << k), 1 << k)
                   for k in (rng.randint(10, 20) for _ in range(rng.randint(1, 23)))})
    last = rng.randint(0, 9) if width == 1 else 0
    return sym, step(sym.space, cuts, [rng.randint(0, 9) for _ in cuts] + [last])


def interval_text(seed: int) -> str:
    """The interval case of the seed, and what apply, the Cesàro and
    maximal means and the condition (I) analysis give on it (or the error
    they raise)."""
    sym, f = interval_case(seed)
    lines = [f"{sym!r}", f"{f!r}"]
    for name, call in (("apply", lambda: apply(sym, f)),
                       ("cesaro_schedule", lambda: cesaro_schedule(sym, f, (1, 2, 4, 8)).means),
                       ("maximal_truncated", lambda: maximal_truncated(sym, f, 4)),
                       ("check_condition_I", lambda: check_condition_I(sym, 6))):
        lines.append(_outcome(name, call))
    return "\n".join(lines) + "\n"


# raw set input: ends that tie across the two kinds or share one double, and
# atoms that are no index (a bool, a float) or lie outside some space
_SET_ENDS = [NEG_INF, Fraction(-3), -1, 0, 0.0, Fraction(1, 10), 0.1, Fraction(1, 3), 1 / 3, 1, 2.5, Fraction(7, 2),
             5, INF]
_SET_ATOMS = [-3, -1, 0, 1, 2, 3, 5, 9, True, 1.5]


def sets_text(seed: int) -> str:
    """Sets built from raw input and by the generators of the seed, what the
    set algebra gives on them, and up to three preimages of a set under a
    symbol (the steps stop at the first error)."""
    rng = random.Random(f"sets:{seed}")
    size = rng.randint(1, 4)
    sp = gen_space(rng, size)
    ends = sorted(rng.sample(_SET_ENDS, 2 * rng.randint(0, 3)))
    pairs = list(zip(ends[::2], ends[1::2]))
    if rng.random() < 0.3:  # one more pair, which may be inverted or overlap
        pairs.insert(rng.randint(0, len(pairs)), (rng.choice(_SET_ENDS), rng.choice(_SET_ENDS)))
    atoms = rng.sample(_SET_ATOMS, rng.randint(0, 3))
    cofinite = rng.random() < 0.3
    lines = [f"{sp!r}", f"pairs = {pairs!r}", f"atoms = {atoms!r}, cofinite = {cofinite}",
             _outcome("interval_set", lambda: interval_set(sp, pairs)),
             _outcome("atomic_set", lambda: atomic_set(sp, atoms, cofinite))]
    E, F = gen_set(rng, size, sp), gen_set(rng, size, sp)
    try:  # the raw set, when it is one, meets E in F's place
        F = interval_set(sp, pairs) if not sp.is_atomic else atomic_set(sp, atoms, cofinite)
    except ValueError:
        pass
    lines += [f"E = {E!r}", f"F = {F!r}"]
    for name, call in (("union", lambda: E.union(F)), ("intersect", lambda: E.intersect(F)),
                       ("complement", E.complement), ("difference", lambda: E.difference(F)),
                       ("F.difference", lambda: F.difference(E)), ("measure", lambda: measure(sp, E)),
                       ("F.measure", F.measure)):
        lines.append(_outcome(name, call))
    sym = gen_symbol(rng, size)
    G = gen_set(rng, 4, sym.space)
    lines += [f"{sym!r}", f"G = {G!r}"]
    for n in range(1, 4):
        try:
            G = sym.preimage(G)
        except Exception as e:  # an error is an output too
            lines.append(f"--- preimage^{n} raised {type(e).__name__}: {e}")
            break
        lines.append(f"--- preimage^{n}\n{G!r}")
    return "\n".join(lines) + "\n"


# values and coefficients that take a sequence operation off its int path
# (a float, or 2^-1100, whose denominator is past the 1,024-bit budget), and
# tails over N, one of them a float
_SEQ_ODD_VALUES = [0.1, -0.7, 1 / 3, 2.5, Fraction(1, 2**1100), -Fraction(3, 2**1100)]
_SEQ_COEFFS = [0, 1, -1, Fraction(1, 3), Fraction(-5, 7), 2, 0.25, -1.5, Fraction(1, 2**1100)]
_SEQ_TAILS = [Fraction(1, 2), Fraction(-3, 4), 2, 0.5]


def seqs_case(seed: int):
    """(f, g, coeffs) drawn from the seed: two ``gen_seq`` sequences on one
    atomic space, over N each with a tail half the time (f's, in half of
    those, one that an entry of g equals); in a third of the seeds an entry
    of f is a float or a value past the budget; and three coefficients."""
    rng = random.Random(f"seqs:{seed}")
    size = rng.randint(0, 5)
    sp = gen_atomic_space(rng, size)
    f, g = gen_seq(rng, size, sp), gen_seq(rng, size, sp)
    if sp.has_tail and rng.random() < 0.5:
        g = seq(sp, g.entries, tail=rng.choice(_SEQ_TAILS))
    if sp.has_tail and rng.random() < 0.5:
        tail = rng.choice([g.entries[0][1]] if g.entries and rng.random() < 0.5 else _SEQ_TAILS)
        f = seq(sp, f.entries, tail=tail)
    if rng.random() < 1 / 3:
        j = rng.choice([j for j, _ in f.entries] or [0])
        f = seq(sp, {**dict(f.entries), j: rng.choice(_SEQ_ODD_VALUES)}, tail=f.tail)
    coeffs = [rng.choice(_SEQ_COEFFS) for _ in range(3)]
    return f, g, coeffs


def seqs_text(seed: int) -> str:
    """The sequence case of the seed, and what the sequence operations give
    on it and on its combination h (or the error they raise), apply under a
    symbol of the seed among them."""
    f, g, coeffs = seqs_case(seed)
    h = linear_combine(coeffs, [f, g, f])  # its values are finite: no case raises
    sym = gen_atomic_symbol(random.Random(f"seqs-symbol:{seed}"), 3, f.space)
    lines = [f"{f!r}", f"{g!r}", f"coeffs = {coeffs!r}", f"--- linear_combine\n{h!r}", f"{sym!r}"]
    for name, call in (("add", lambda: add(f, g)), ("subtract", lambda: subtract(f, g)),
                       ("subtract f f", lambda: subtract(f, f)), ("scale", lambda: scale(coeffs[0], g)),
                       ("rearrangement f", lambda: rearrangement(f)), ("rearrangement g", lambda: rearrangement(g)),
                       ("rearrangement h", lambda: rearrangement(h)), ("abs_fn f", lambda: abs_fn(f)),
                       ("abs_fn h", lambda: abs_fn(h)), ("pointwise_leq f g", lambda: pointwise_leq(f, g)),
                       ("pointwise_leq g h", lambda: pointwise_leq(g, h)),
                       ("pointwise_max f g", lambda: pointwise_max(f, g)),
                       ("pointwise_max h g", lambda: pointwise_max(h, g)),
                       ("pointwise_mul f g", lambda: pointwise_mul(f, g)),
                       ("pointwise_mul g h", lambda: pointwise_mul(g, h)),
                       ("apply f", lambda: apply(sym, f)), ("apply g", lambda: apply(sym, g)),
                       ("apply h", lambda: apply(sym, h)), ("hlp_leq f g", lambda: hlp_leq(f, g)),
                       ("hardy_littlewood_pair f g", lambda: hardy_littlewood_pair(f, g)),
                       ("hardy_littlewood_pair h f", lambda: hardy_littlewood_pair(h, f)),
                       ("integrate f", lambda: integrate(f)), ("integrate h", lambda: integrate(h))):
        lines.append(_outcome(name, call))
    return "\n".join(lines) + "\n"


def write_outputs(outdir: Path) -> None:
    (outdir / "eval").mkdir(parents=True)
    for operation in OPERATIONS:
        for seed in SEEDS:
            payload = json.dumps(eval_payload(operation, seed), sort_keys=True)
            text = run(["eval", operation], stdin=payload)
            (outdir / "eval" / f"{operation}-{seed:03d}.txt").write_text(f"{payload}\n{text}")
    for seed in SEEDS:
        obj = eval_payload("analyze-symbol", seed)
        if "table" in obj["symbol"]:
            payload = json.dumps({**obj, "horizon": 30}, sort_keys=True)
            text = run(["eval", "analyze-symbol"], stdin=payload)
            (outdir / "eval" / f"analyze-symbol-h30-{seed:03d}.txt").write_text(f"{payload}\n{text}")
    for sub in ("run-example", "verify", "library"):
        (outdir / sub).mkdir()
    for seed in SEEDS:
        (outdir / "library" / f"{seed:03d}.txt").write_text(library_text(seed))
        (outdir / "library" / f"interval-{seed:03d}.txt").write_text(interval_text(seed))
        (outdir / "library" / f"sets-{seed:03d}.txt").write_text(sets_text(seed))
        (outdir / "library" / f"seqs-{seed:03d}.txt").write_text(seqs_text(seed))
    with contextlib.chdir(outdir / "run-example"):
        for example_id in cli.EXAMPLE_IDS:
            text = run(["run-example", example_id, "--format", "both", "--out", example_id])
            Path(f"{example_id}.txt").write_text(text)
    with contextlib.chdir(outdir / "verify"):
        Path("verify.txt").write_text(run(["verify", "--seed", "42", "--trials", "60", "--out", "."]))
        Path("verify-inject-failure.txt").write_text(
            run(["verify", "--seed", "42", "--trials", "60", "--inject-failure", "--out", "."]))


USAGE = "usage: PYTHONPATH=src python -m tests.parity OUTDIR   (a new or empty directory)"


def main(argv: list[str]) -> int:
    """Write the outputs into ``OUTDIR``; for anything but one new or empty
    directory, print the usage line and return 2."""
    outdir = Path(argv[0]) if len(argv) == 1 else None
    if outdir is None or outdir.exists() and (not outdir.is_dir() or any(outdir.iterdir())):
        print(USAGE, file=sys.stderr)
        return 2
    write_outputs(outdir)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
