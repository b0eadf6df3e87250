"""Command-line interface.

Three subcommands:

* ``run-example ID`` — execute a pinned example, write its report (CSV and
  JSON) plus a verdict file into ``--out``, print one line per check, and
  exit 0/1 with the verdict.
* ``verify`` — run the randomized property suite, print one line per
  property, and write minimized counterexamples to a JSON file on failure.
* ``eval CMD`` — evaluate one operation on a JSON input document (``--in``
  or stdin).  Each field of the document is read by its strict ``jsonio``
  decoder, which is the only validation; a key the operation does not use
  is an error.

Outputs are deterministic: fixed seeds, sorted JSON keys, shortest
round-trip number formatting, and ``inf`` for infinities.  Exit codes:
0 success, 1 a verdict or property failed, 2 usage or input error,
3 internal error.
"""

from __future__ import annotations

import argparse
import os
import sys
from importlib import import_module

from . import jsonio

# examples' registry and seed, spelled out so that the parser need not import
# it (a test holds them equal)
EXAMPLE_IDS = ("counterex-sv", "counterex-sv-power", "counterex-l1", "counterex-linfty",
               "shift-n", "shift-z", "nonsurjective-shift", "permutation-demo")
DEFAULT_SEED = 1729


class UsageError(Exception):
    """Bad input from the user: malformed JSON, an invalid payload, bad flags."""


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def parse_schedule(text: str) -> tuple[int, ...]:
    """Comma-separated indices, or ``dyadic:k`` for 1, 2, 4, ..., 2^k."""
    if text.startswith("dyadic:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise UsageError(f"bad dyadic schedule {text!r}") from None
        if k < 0:
            raise UsageError("dyadic exponent must be >= 0")
        return tuple(2**j for j in range(k + 1))
    try:
        sched = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise UsageError(f"bad schedule {text!r}") from None
    if not sched or any(n < 1 for n in sched) or any(
        a >= b for a, b in zip(sched, sched[1:])
    ):
        raise UsageError("schedule must be strictly increasing positive integers")
    return sched


def _positive(x, where: str) -> int:
    """A positive integer, from a payload field or a flag."""
    n = jsonio.int_from_obj(x, where)
    if n < 1:
        raise UsageError(f"{where} must be >= 1")
    return n


def _write_text(path: str, text: str) -> None:
    """Atomic write: the file either holds the old content or the new."""
    import tempfile  # only the commands that write files pay for it

    directory = os.path.dirname(path) or "."
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-rispace-")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e.strerror}") from None


# ---------------------------------------------------------------------------
# run-example
# ---------------------------------------------------------------------------


def _cmd_run_example(args) -> int:
    if args.example_id not in EXAMPLE_IDS:
        raise UsageError(
            f"unknown example {args.example_id!r}; choose from: {', '.join(EXAMPLE_IDS)}"
        )
    from .examples import run_example

    schedule = parse_schedule(args.schedule) if args.schedule else None
    result = run_example(
        args.example_id,
        seed=args.seed,
        trials=_positive(args.trials, "--trials"),
        horizon=_positive(args.horizon, "--horizon"),
        schedule=schedule,
    )
    out = args.out
    if args.format in ("csv", "both"):
        _write_text(os.path.join(out, f"{result.example_id}.csv"), result.report.to_csv())
    if args.format in ("json", "both"):
        _write_text(os.path.join(out, f"{result.example_id}.json"), result.report.to_json())
    verdict_obj = {
        "example": result.example_id,
        "verdict": "pass" if result.verdict else "fail",
        "checks": jsonio.to_obj(result.checks),
    }
    _write_text(
        os.path.join(out, f"{result.example_id}-verdict.json"), jsonio.dumps(verdict_obj)
    )
    for c in result.checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    print(f"verdict: {'pass' if result.verdict else 'fail'}")
    return 0 if result.verdict else 1


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _cmd_verify(args) -> int:
    from .properties import verify_suite

    trials = _positive(args.trials, "--trials")
    suite = verify_suite(seed=args.seed, trials=trials, inject_failure=args.inject_failure)
    for r in suite.results:
        print(r.line())
    if not suite.ok:
        payload = {
            "seed": suite.seed,
            "trials": suite.trials,
            "counterexamples": [r.counterexample for r in suite.failed],
        }
        path = os.path.join(args.out, "verify-failures.json")
        _write_text(path, jsonio.dumps(payload))
        print(f"counterexamples written to {path}")
        return 1
    return 0


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------


# payload field -> its decoder, called as decode(value, field name)
_FIELDS = {
    "function": jsonio.measfn_from_obj,
    "spec": jsonio.normspec_from_obj,
    "symbol": jsonio.symbol_from_obj,
    "weight": lambda w, _: jsonio.xiweight_from_obj({"weight": w}),
    "n": _positive,
    "K": _positive,
    "horizon": _positive,
}


def _module(name: str):
    """The rispace module ``name``, imported when an operation first needs it."""
    return import_module(f".{name}", __package__)


# operation -> (its payload fields, its evaluation on their decoded values)
_OPERATIONS = {
    "rearrange": (("function",), lambda f: _module("rearrange").rearrangement(f)),
    "norm": (("spec", "function"), lambda spec, f: {"value": _module("spaces").norm_eval(spec, f)}),
    "xi": (("weight", "function"), lambda w, f: {"value": _module("spaces").xi_seminorm(w, f)}),
    "apply": (("symbol", "function"), lambda phi, f: _module("ergodic").apply(phi, f)),
    "cesaro": (("symbol", "function", "n"), lambda phi, f, n: _module("ergodic").cesaro(phi, f, n)),
    "maximal": (("symbol", "function", "K"),
                lambda phi, f, K: _module("ergodic").maximal_truncated(phi, f, K)),
    "analyze-symbol": (("symbol", "horizon"),
                       lambda phi, h: _module("symbols").check_condition_I(phi, h)),
}


def _decode(obj, fields: tuple, defaults: dict) -> list:
    """The payload's fields in order, each read by its decoder; a field
    without a default is required, and any other key is an error."""
    jsonio.check_object(obj, "input", [f for f in fields if f not in defaults], fields)
    return [_FIELDS[name](obj.get(name, defaults.get(name)), name) for name in fields]


def _cmd_eval(args) -> int:
    if args.infile:
        try:
            with open(args.infile) as handle:
                text = handle.read()
        except OSError as e:
            raise UsageError(f"cannot read {args.infile}: {e.strerror}") from None
    else:
        text = sys.stdin.read()
    try:
        obj = jsonio.loads(text)
    except ValueError as e:
        raise UsageError(f"cannot read the input: {e}") from None
    fields, evaluate = _OPERATIONS[args.operation]
    try:
        result = evaluate(*_decode(obj, fields, {"horizon": args.horizon}))
    except ValueError as e:
        raise UsageError(str(e)) from None
    text = jsonio.dumps(jsonio.to_obj(result))
    if args.outfile:
        _write_text(args.outfile, text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rispace",
        description="Exact rearrangements, function-space norms, and ergodic averages.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run-example", help="run a pinned example and check it")
    runp.add_argument("example_id", metavar="ID", help=f"one of: {', '.join(EXAMPLE_IDS)}")
    runp.add_argument("--seed", type=int, default=DEFAULT_SEED)
    runp.add_argument("--trials", type=int, default=50)
    runp.add_argument("--horizon", type=int, default=5)
    runp.add_argument("--schedule", help="comma-separated indices or dyadic:k")
    runp.add_argument("--out", default=".", help="directory for report and verdict files")
    runp.add_argument("--format", choices=("csv", "json", "both"), default="both")
    runp.set_defaults(func=_cmd_run_example)

    verp = sub.add_parser("verify", help="run the randomized property suite")
    verp.add_argument("--seed", type=int, default=42)
    verp.add_argument("--trials", type=int, default=500)
    verp.add_argument("--out", default=".", help="directory for counterexample files")
    verp.add_argument(
        "--inject-failure",
        action="store_true",
        help="include a deliberately broken property (self-test of the reporting path)",
    )
    verp.set_defaults(func=_cmd_verify)

    evp = sub.add_parser("eval", help="evaluate one operation on a JSON document")
    evp.add_argument(
        "operation",
        choices=tuple(_OPERATIONS),
    )
    evp.add_argument("--in", dest="infile", help="input file (default: stdin)")
    evp.add_argument("--out", dest="outfile", help="output file (default: stdout)")
    evp.add_argument("--horizon", type=int, default=5, help="horizon for analyze-symbol")
    evp.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
