"""Run one workload of the rispace benchmark and print its metrics.

    python3 perfbench/run.py --workload suite --seed 1 --seconds 12 --trace 0

Run it from the root of a checkout.  The workload runs in a child process
(worker.py), so its set-up time and peak memory are its own; four more
children only do the set-up, and setup_s is the median of the five.  Every
time metric is scaled to reference speed by the worker's calibration (see
worker.py); the raw figures are printed above the result.  With
``--trace 0`` the last line of output is the end-to-end metrics, with
``--trace 1`` the per-layer ones, both as one JSON object.  The lines above
it say the same for people, with the tail percentile, the sample count,
every failed op and whether each known defect (defects.py) is still present.
Exit code 2 means the checkout has no rispace sources.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite", "bulk", "orbits", "cli-cold")
SETUPS = 5
BUDGET_S = 170
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _worker(args, deadline: float, setup_only: bool) -> dict:
    """Run worker.py in a session of its own; kill the session on timeout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (os.path.join(ROOT, "src"), os.environ.get("PYTHONPATH"))))}
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"the {args.workload} worker ran out of time") from None
    lines = out.decode().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"the {args.workload} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile(sorted_xs: list[float], q: float) -> float:
    """Linear interpolation between the closest ranks."""
    pos = q / 100 * (len(sorted_xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_xs) - 1)
    return sorted_xs[lo] + (sorted_xs[hi] - sorted_xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """The highest ladder percentile with at least ten samples beyond it."""
    return next((q for q in TAIL_LADDER if n * (100 - q) >= 1000 - 1e-9), None)


def end_to_end(run: dict, setups: list[float], raw_setups: list[float]) -> tuple[dict, list[str]]:
    lat = sorted(x * 1000 for x in run["latencies_s"])
    raw = sorted(x * 1000 for x in run["raw_latencies_s"])
    n, failed = len(lat), len(run["failures"])
    q = tail_percentile(n)
    tail = percentile(lat, q) if q is not None else lat[-1]
    metrics = {
        "throughput_ops_s": (n / (sum(lat) / 1000), "1/s"),
        "latency_p50_ms": (percentile(lat, 50), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        "success_rate": ((n - failed) / n, "ratio"),
    }
    where = f"p{q:g}" if q is not None else "max"
    notes = [
        f"{n} ops in {run['cycles']} cycles of {n // run['cycles']} over {run['wall_s']:.2f} s, {failed} failed",
        f"latency_tail_ms is the {where} of {n} samples ({sum(x > tail for x in lat)} beyond it)",
        "setup_s is the median of " + ", ".join(f"{s:.3f}" for s in setups) + " s",
        f"raw (unscaled): p50 {percentile(raw, 50):.3f} ms, tail {percentile(raw, q) if q is not None else raw[-1]:.3f}"
        f" ms, throughput {n / (sum(raw) / 1000):.4f} 1/s, setup {statistics.median(raw_setups):.3f} s; "
        f"median calibration {run['calibration_s'] * 1000:.3f} ms",
        f"error_rate {failed / n:.4f} = {failed} failed / {n} attempted",
    ]
    return metrics, notes


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rispace", "__init__.py")):
        print(f"error: no rispace sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        setup_runs = [_worker(args, deadline, True) for _ in range(SETUPS - 1)]
        run = _worker(args, deadline, False)
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    setups = [r["setup_s"] for r in (*setup_runs, run)]
    raw_setups = [r["raw_setup_s"] for r in (*setup_runs, run)]
    if args.trace:
        metrics, notes = run["layer_metrics"], run["notes"]
        attempted = run["attempted"]
    else:
        metrics, notes = end_to_end(run, setups, raw_setups)
        notes += run.get("notes", [])
        attempted = len(run["latencies_s"])
    failures = run["failures"]
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:24s} {value:14.6f} {unit}")
    for failure in sorted(set(failures)):
        print(f"  FAILED x{failures.count(failure)} {failure}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
