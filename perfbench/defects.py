"""Probes for the known defects that the benchmark's ops steer clear of.

The benchmark's ops must all pass, so its inputs avoid two defects of
rispace that no op of this benchmark can fix (ROADMAP, Known failures):

* the wire format: ``fmt_real`` and ``json_real`` write an exact rational
  that is a double as the shortest float text, which reads back as another
  rational.  ``cli-cold``'s medium payloads therefore use values that are
  not doubles (their denominators hold the prime 2^61 - 1).
* the window of ``symbols._atomic_window``: for a symbol on Z whose table
  indices are all negative and whose shift is 0 the window is empty, so
  ``atomic_power`` ignores the table.  ``suite`` therefore leaves out the
  properties whose generators reach such symbols (``SUITE_SKIPPED`` in
  workloads.py).

So that the defects still show, every run calls ``probe()``: one small,
fixed input per defect, untimed, checked against the benchmark's own
references.  Each run prints whether each defect is still present, and the
traced run reports the count as ``known_defects``.  When a probe reports a
defect gone, the inputs and properties left out for it can come back.
"""

from __future__ import annotations

from fractions import Fraction

import rispace as R

import reference as ref


def _wire() -> str | None:
    """A cut and a value that are exact doubles, through JSON and fmt_real."""
    f = R.step(R.halfline(), [Fraction(16385, 262144)], [Fraction(34625690820565, 17592186044416), 0])
    back = R.jsonio.measfn_from_obj(R.jsonio.loads(R.jsonio.dumps(R.jsonio.measfn_to_obj(f))))
    sent = (*f.cuts, *f.vals)
    lost = [(x, y) for x, y in zip(sent, (*back.cuts, *back.vals)) if x != y]
    lost_text = [x for x in sent if R.as_real(R.fmt_real(x)) != x]
    if not lost and not lost_text:
        return None
    example = f"{lost[0][0]} -> {lost[0][1]}" if lost else f"{lost_text[0]} -> {R.fmt_real(lost_text[0])}"
    return (f"{len(lost)} of {len(sent)} values change through JSON and {len(lost_text)} through "
            f"fmt_real, e.g. {example}")


def _window() -> str | None:
    """phi^3 on Z with the table {-4: -5} and shift 0, against three orbit steps."""
    sym = R.AtomicSymbol(R.atomic_z(), ((-4, -5),), 0)
    f = R.seq(sym.space, {-5: 4, 3: Fraction(3, 2), 4: Fraction(21, 4)})
    error = ref.check_seq(R.apply(R.atomic_power(sym, 3), f), ref.orbit_power_apply(sym, f, 3))
    return f"apply(atomic_power(phi, 3), f): {error}" if error else None


PROBES = (
    ("wire format (ROADMAP Known failure 1)", _wire),
    ("symbols._atomic_window on all-negative tables", _window),
)


def probe() -> list[tuple[str, str | None]]:
    """(defect, what shows it, or None when it is gone) for each probe."""
    results = []
    for name, run in PROBES:
        try:
            results.append((name, run()))
        except Exception as e:  # a crash shows the defect as well as a wrong value
            results.append((name, f"raised {type(e).__name__}: {e}"))
    return results
