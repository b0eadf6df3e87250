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
  ``--inject-failure`` beside its counterexample file.

Every path the CLI prints is relative to OUTDIR, so the outputs of two
checkouts compare with ``diff -r OUTDIR_A OUTDIR_B``.  OUTDIR must be new or
empty, so that no tree left by an earlier or interrupted run is mixed in; for
anything else, or for any number of arguments but one, it prints the usage
line and exits 2.
"""

import contextlib
import io
import json
import sys
from pathlib import Path
from unittest import mock

from rispace import cli

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
    for sub in ("run-example", "verify"):
        (outdir / sub).mkdir()
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
