"""Cold ``rispace eval`` processes: how long each operation takes from spawn
to exit, and which ``rispace`` modules it loads.

    PYTHONPATH=src python -m tests.coldstart [N]

runs each of the seven ``eval`` operations on its fixed payload (``PAYLOADS``)
as N (a positive integer, default 15) fresh ``python -m rispace.cli``
processes, one operation after another in each of N rounds, under the
environment as it is: bytecode caches are written and read, or not, as it
says.  It prints, per operation, the median wall time in ms and the
``rispace`` modules that one more process, run with the same payload, had
loaded at exit.  Any other argument prints the usage line and exits 2.  It
needs only the standard library, and pytest does not collect it.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time

_HALFLINE = {"kind": "lebesgue_halfline"}
_Z = {"kind": "atomic_z", "atom_mass": 1}
_HALFLINE_FN = {"space": _HALFLINE, "breakpoints": [0, 1, 2], "values": [1, 3], "right_tail": 0}
_Z_FN = {"space": _Z, "entries": [[0, 1], [2, "1/2"]]}
# x -> 2x on [0, 1), then x -> x + 1 on [1, inf)
_DOUBLING = {"space": _HALFLINE, "branches": [
    {"lo": 0, "hi": 1, "form": {"kind": "affine", "alpha": 2, "beta": 0}},
    {"lo": 1, "hi": "inf", "form": {"kind": "affine", "alpha": 1, "beta": 1}}]}

# operation -> its payload
PAYLOADS = {
    "rearrange": {"function": _HALFLINE_FN},
    "norm": {"spec": {"kind": "lorentz", "space": _HALFLINE, "p": 2, "q": 1},
             "function": _HALFLINE_FN},
    "xi": {"weight": {"space": _HALFLINE, "breakpoints": [0, 1], "values": [2], "right_tail": 1},
           "function": _HALFLINE_FN},
    "apply": {"symbol": _DOUBLING, "function": _HALFLINE_FN},
    "cesaro": {"symbol": {"space": _Z, "table": [], "shift": 1}, "function": _Z_FN, "n": 3},
    "maximal": {"symbol": _DOUBLING, "function": _HALFLINE_FN, "K": 3},
    "analyze-symbol": {"symbol": {"space": {"kind": "lebesgue_interval", "length": 1},
                                  "branches": [{"lo": 0, "hi": 1, "form": {"power": 2}}]}},
}

# runs the CLI as ``python -m rispace.cli`` does, then prints the rispace
# modules loaded as the last line of stderr
LOADED = """
import atexit, json, runpy, sys
atexit.register(lambda: print(json.dumps(sorted(m for m in sys.modules if m.startswith("rispace"))),
                              file=sys.stderr))
sys.argv[0] = "rispace.cli"
runpy.run_module("rispace.cli", run_name="__main__", alter_sys=True)
"""


def _run(argv: list[str], payload: dict) -> subprocess.CompletedProcess:
    out = subprocess.run([sys.executable, *argv], input=json.dumps(payload),
                         capture_output=True, text=True, timeout=60)
    if out.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {out.returncode}: {out.stderr}")
    return out


def loaded_modules(operation: str) -> list[str]:
    """The rispace modules that a cold ``eval operation`` on its payload has
    loaded at exit."""
    out = _run(["-c", LOADED, "eval", operation], PAYLOADS[operation])
    return json.loads(out.stderr.splitlines()[-1])


def cold_ms(rounds: int) -> dict[str, list[float]]:
    """operation -> the wall ms of each of its cold processes."""
    times: dict[str, list[float]] = {op: [] for op in PAYLOADS}
    for _ in range(rounds):
        for op, payload in PAYLOADS.items():
            start = time.perf_counter()
            _run(["-m", "rispace.cli", "eval", op], payload)
            times[op].append((time.perf_counter() - start) * 1000)
    return times


USAGE = "usage: python -m tests.coldstart [N]   (N rounds, a positive integer; default 15)"


def main(argv: list[str]) -> int:
    """Print the table for ``[N]``; for anything but one positive integer,
    print the usage line and return 2."""
    if len(argv) > 1 or argv and not (argv[0].isascii() and argv[0].isdigit() and int(argv[0]) > 0):
        print(USAGE, file=sys.stderr)
        return 2
    rounds = int(argv[0]) if argv else 15
    times = cold_ms(rounds)
    print(f"{'operation':<16}{'median ms':>10}  rispace modules loaded ({rounds} processes each)")
    for op, ms in times.items():
        modules = " ".join(m.removeprefix("rispace.") for m in loaded_modules(op) if m != "rispace")
        print(f"{op:<16}{statistics.median(ms):>10.1f}  {modules}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
