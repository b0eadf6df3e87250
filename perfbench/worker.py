"""One run of one workload, in a process of its own; started by run.py.

Set-up (import, input generation, warm-up) is timed from the start of this
process.  Then every op's reference is computed, untimed and (except for
cli-cold) in a forked child, so that the reference's memory stays out of
this process's peak.  Then the closed loop runs: one client, each op timed
from call to return and checked right after, outside its timing, over
round(--seconds / SECONDS_PER_CYCLE) whole cycles of the op list.  With
``--trace 1`` the run instead makes one untraced and one traced pass over a
single cycle.

The worker pins itself, and so the processes it starts, to one CPU, and
times a fixed piece of Fraction arithmetic before the first op and after
every op, for about CALIBRATION_SHARE of the op's own time and at least
once.  Shared virtual machines drift in speed by up to 2x over minutes, and
the ops' times follow the calibration's, but only in part.  So besides its
raw latency every op gets a latency scaled to reference speed: multiplied by
(CALIBRATION_REFERENCE_S / c) ** CALIBRATION_EXPONENT, where c is the median
of the calibration times taken from CALIBRATION_WINDOW_S before the op
started to CALIBRATION_WINDOW_S after it ended.  Set-up time is scaled the
same way, by calibrations made right after it.

After the run, untimed, the probes of defects.py report which known defects
are still present.  The last line of standard output is one JSON object for
run.py.
"""

from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from fractions import Fraction  # noqa: E402

CALIBRATION_TERMS = 400
# what calibration_s() returns at reference speed: about its median on a
# 2-vCPU x86 VM (Python 3.11) when the host is quiet
CALIBRATION_REFERENCE_S = 0.002
# how strongly op times follow the calibration: over twenty runs of each
# workload, in both of the machine's speed states, scaling by the square root
# of the speed ratio spread the runs least (perfbench/README.md)
CALIBRATION_EXPONENT = 0.5
SETUP_CALIBRATIONS = 9
CALIBRATION_SHARE = 0.05
CALIBRATION_BURST_MAX = 25
# wide enough to hold many calibrations, so that their noise averages out,
# and narrow enough to follow the machine's swings in speed
CALIBRATION_WINDOW_S = 1.0


def calibration_s() -> float:
    """Time of a fixed piece of Fraction and dict work that does not use
    rispace, with the cyclic collector off (it makes no cycles)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        total, table = Fraction(0), {}
        for i in range(1, CALIBRATION_TERMS):
            total += Fraction(i, i % 7 + 1) * Fraction(3, i + 2)
            table[i % 97] = total.numerator % 1000
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _speed_factor(calibration: float) -> float:
    """What a time measured at this calibration time is multiplied by to
    read at reference speed."""
    return (CALIBRATION_REFERENCE_S / calibration) ** CALIBRATION_EXPONENT


def _pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, the one calibrated."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def _parse(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--root", required=True, help="checkout root (holds src/ and .perfbench/)")
    return p.parse_args(argv)


class _Broken:
    """Stands in for a reference whose computation raised."""

    def __init__(self, error: str):
        self.error = error


def _run_op(op, want, call):
    """(latency in s, error or None) for one execution of op."""
    t0 = perf_counter()
    try:
        got = call()
    except Exception as e:  # a failing op is counted, not fatal
        return perf_counter() - t0, f"raised {type(e).__name__}: {e}"
    latency = perf_counter() - t0
    if isinstance(want, _Broken):
        return latency, want.error
    try:
        return latency, op.check(got, want)
    except Exception as e:
        return latency, f"check raised {type(e).__name__}: {e}"


def _forked(compute, ops):
    """compute(ops), run in a forked child and sent back pickled, so that its
    memory does not count in this process's peak resident size."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        code = 1
        try:
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump(compute(ops), pipe)
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"the reference process failed with status {status}")
    return pickle.loads(data)


def _expectations(ops) -> list:
    """Each distinct op's reference, computed once."""
    cache = {}
    for op in ops:
        if id(op) not in cache:
            try:
                cache[id(op)] = op.expect()
            except Exception as e:
                cache[id(op)] = _Broken(f"reference raised {type(e).__name__}: {e}")
    return [cache[id(op)] for op in ops]


def _calibrate(at: list[float], times: list[float], latency: float) -> None:
    """Calibrate for about CALIBRATION_SHARE of the last op's latency, at
    least once, recording when each calibration ran and how long it took."""
    spent = 0.0
    for _ in range(CALIBRATION_BURST_MAX):
        at.append(perf_counter())
        times.append(calibration_s())
        spent += times[-1]
        if spent >= CALIBRATION_SHARE * latency:
            return


def measure(ops, expected) -> dict:
    latencies, starts, failures, cal_at, cal_s = [], [], [], [], []
    _calibrate(cal_at, cal_s, 0.0)
    start = perf_counter()
    for op, want in zip(ops, expected):
        starts.append(perf_counter())
        latency, error = _run_op(op, want, op.call)
        _calibrate(cal_at, cal_s, latency)
        latencies.append(latency)
        if error:
            failures.append(f"{op.name}: {error}")
    wall = perf_counter() - start
    scaled = []
    for t, latency in zip(starts, latencies):
        lo = bisect.bisect_left(cal_at, t - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(cal_at, t + latency + CALIBRATION_WINDOW_S)
        scaled.append(latency * _speed_factor(statistics.median(cal_s[lo:hi])))
    return {"latencies_s": scaled, "raw_latencies_s": latencies, "failures": failures, "wall_s": wall,
            "calibration_s": statistics.median(cal_s)}


def _startup_s(src: str) -> float:
    """Median wall time of a child process that only imports rispace.cli."""
    env = {**os.environ, "PYTHONPATH": src}
    times = []
    for _ in range(3):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", "import rispace.cli"], env=env, check=True)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def trace(workload: str, ops, expected, root: str, seed: int) -> dict:
    """Each op once untraced and right after once traced, in process (for
    cli-cold after a cold pass), and the per-layer metrics of the traced
    calls.  Alternating the two keeps both under the same machine load."""
    import tracer as tr

    src = os.path.join(root, "src")
    notes = []
    if workload == "cli-cold":
        cold_wall = sum(_run_op(op, want, op.call)[0] for op, want in zip(ops, expected))
    t = tr.Tracer()
    untraced = traced = 0.0
    failures = []
    for op, want in zip(ops, expected):
        call = op.in_process or op.call
        latency, error = _run_op(op, want, call)
        untraced += latency
        t.install()
        try:
            latency, traced_error = _run_op(op, want, lambda: t.span(op.name, call))
        finally:
            t.uninstall()
        traced += latency
        failures += [f"{op.name}: {e}" for e in (error, traced_error) if e]
    startup = _startup_s(src)
    metrics = {}
    for layer in tr.LAYERS:
        with open(os.path.join(src, "rispace", f"{layer}.py")) as handle:
            lines = sum(1 for _ in handle)
        metrics[f"{layer}.calls"] = (t.calls[layer], "count")
        metrics[f"{layer}.self_s"] = (t.self_s[layer], "s")
        metrics[f"{layer}.lines"] = (lines, "lines")
    for name in ("stepfn.pieces_out", "rearrange.pieces_in", "spaces.pieces_in",
                 "ergodic.iterates", "num.float_results", "jsonio.bytes"):
        metrics[name] = (t.counts[name], "count")
    metrics["num.max_bits"] = (t.max_bits, "bits")
    metrics["cli.startup_s"] = (startup, "s")
    metrics["cli.validate_s"] = (t.inclusive_s["cli.validate_s"], "s")
    metrics["properties.gen_s"] = (t.inclusive_s["properties.gen_s"], "s")
    metrics["trace_overhead_s"] = (traced - untraced, "s")
    self_total = sum(t.self_s[layer] for layer in tr.LAYERS)
    notes.append(f"one cycle of {len(ops)} ops: untraced {untraced:.3f} s, traced {traced:.3f} s, "
                 f"layer self time {self_total:.3f} s + benchmark {t.self_s['bench']:.3f} s, "
                 f"counter reads {t.observe_s:.3f} s")
    notes.append(f"layer self time minus untraced wall: {self_total - untraced:+.3f} s "
                 f"(trace overhead {traced - untraced:.3f} s)")
    if workload == "cli-cold":
        modelled = len(ops) * startup + untraced
        notes.append(f"cold processes {cold_wall:.3f} s vs {len(ops)} x startup {startup:.3f} s + in-process "
                     f"{untraced:.3f} s = {modelled:.3f} s")
    path = os.path.join(root, ".perfbench", f"trace-{workload}-{seed}.json")
    with open(path, "w") as handle:
        json.dump({"workload": workload, "seed": seed, **t.export(),
                   "metrics": {k: v for k, (v, _) in metrics.items()}}, handle)
    notes.append(f"spans written to {os.path.relpath(path, root)} ({len(t.spans)} kept, {t.dropped} dropped)")
    return {"layer_metrics": metrics, "failures": failures,
            "attempted": 2 * len(ops), "notes": notes}


def main(argv=None) -> int:
    args = _parse(argv)
    _pin_to_one_cpu()
    src = os.path.join(args.root, "src")
    import defects
    import workloads

    base = os.path.join(args.root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        for op in workloads.build(args.workload, args.seed, work_dir, src, tiny=True):
            op.call()
        cycles = 1 if args.trace else max(1, round(args.seconds / workloads.SECONDS_PER_CYCLE[args.workload]))
        ops = workloads.build(args.workload, args.seed, work_dir, src, cycles)
        setup = perf_counter() - T0
        speed = statistics.median(calibration_s() for _ in range(SETUP_CALIBRATIONS))
        out = {"setup_s": setup * _speed_factor(speed), "raw_setup_s": setup, "cycles": cycles}
        if not args.setup_only:
            # cli-cold's peak is its children's, which a forked child would join
            expected = _expectations(ops) if args.workload == "cli-cold" else _forked(_expectations, ops)
            if args.trace:
                out.update(trace(args.workload, ops, expected, args.root, args.seed))
            else:
                out.update(measure(ops, expected))
            who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
            out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
            if args.workload == "suite":
                out.setdefault("notes", []).append("suite fingerprint: " + workloads.suite_fingerprint())
            present = 0
            for name, shown in defects.probe():
                present += shown is not None
                out.setdefault("notes", []).append(
                    f"known defect {name}: " + (f"still present ({shown})" if shown else "gone"))
            if args.trace:
                out["layer_metrics"]["known_defects"] = (present, "count")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
