import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rispace
from rispace import jsonio
from rispace.cli import main, parse_schedule

from .payloads import eval_payload, mutated
from .test_num import primes_from


def run_cli(*argv):
    return main(list(argv))


# ---------------------------------------------------------------------------
# schedule parsing
# ---------------------------------------------------------------------------


def test_parse_schedule():
    assert parse_schedule("dyadic:3") == (1, 2, 4, 8)
    assert parse_schedule("1,3,9") == (1, 3, 9)
    for bad in ("3,1", "0,2", "1,1", "dyadic:-1", "fred"):
        with pytest.raises(Exception):
            parse_schedule(bad)


# ---------------------------------------------------------------------------
# run-example
# ---------------------------------------------------------------------------


def test_run_example_writes_reports(tmp_path, capsys):
    rc = run_cli("run-example", "counterex-l1", "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: pass" in out
    csv_text = (tmp_path / "counterex-l1.csv").read_text()
    assert csv_text.splitlines()[0].startswith("n,")
    report = json.loads((tmp_path / "counterex-l1.json").read_text())
    assert report["columns"][0] == "n"
    verdict = json.loads((tmp_path / "counterex-l1-verdict.json").read_text())
    assert verdict["verdict"] == "pass"
    assert all(c["passed"] for c in verdict["checks"])


def test_run_example_format_selection(tmp_path):
    run_cli("run-example", "shift-n", "--out", str(tmp_path), "--format", "csv")
    assert (tmp_path / "shift-n.csv").exists()
    assert not (tmp_path / "shift-n.json").exists()
    assert (tmp_path / "shift-n-verdict.json").exists()  # verdict always written


def test_run_example_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("run-example", "permutation-demo", "--out", str(a))
    run_cli("run-example", "permutation-demo", "--out", str(b))
    for name in ("permutation-demo.csv", "permutation-demo.json", "permutation-demo-verdict.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_example_unknown_id(tmp_path, capsys):
    rc = run_cli("run-example", "nope", "--out", str(tmp_path))
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_run_example_schedule_flag(tmp_path):
    run_cli("run-example", "shift-z", "--out", str(tmp_path), "--schedule", "1,2,4")
    report = json.loads((tmp_path / "shift-z.json").read_text())
    assert [row[0] for row in report["rows"]] == [1, 2, 4]


@pytest.mark.parametrize("example_id", ["permutation-demo", "shift-n"])
def test_run_example_on_a_schedule_without_its_checked_means(tmp_path, capsys, example_id):
    # the checks read C_1 f and C_8 f, which this schedule does not hold
    rc = run_cli("run-example", example_id, "--out", str(tmp_path), "--schedule", "3,5")
    assert rc in (0, 1)
    assert capsys.readouterr().out.endswith("verdict: pass\n")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_passes(tmp_path, capsys):
    rc = run_cli("verify", "--trials", "10", "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert rc == 0
    lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
    assert lines and all(l.startswith("PASS") for l in lines)
    assert not (tmp_path / "verify-failures.json").exists()


def test_verify_inject_failure(tmp_path, capsys):
    rc = run_cli("verify", "--trials", "10", "--inject-failure", "--out", str(tmp_path))
    out = capsys.readouterr().out
    assert rc == 1
    assert any(l.startswith("FAIL injected-violation") for l in out.splitlines())
    failures = json.loads((tmp_path / "verify-failures.json").read_text())
    assert failures["counterexamples"]
    assert failures["seed"] == 42


@pytest.mark.parametrize(
    "argv",
    [
        ("run-example", "shift-n", "--trials", "0"),
        ("run-example", "counterex-sv-power", "--horizon", "0"),
        ("verify", "--trials", "0"),
    ],
)
def test_count_flags_below_one_exit_2(tmp_path, capsys, argv):
    assert run_cli(*argv, "--out", str(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "must be >= 1" in err


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

HALFLINE_FN = {
    "space": {"kind": "lebesgue_halfline"},
    "breakpoints": [0, 1, 2],
    "values": [1, 3],
    "right_tail": 0,
}


def _eval(tmp_path, capsys, payload, *argv):
    src = tmp_path / "in.json"
    src.write_text(jsonio.dumps(payload))
    rc = run_cli("eval", *argv, "--in", str(src))
    out = capsys.readouterr().out
    return rc, (json.loads(out) if rc == 0 else out)


def test_eval_rearrange(tmp_path, capsys):
    rc, got = _eval(tmp_path, capsys, {"function": HALFLINE_FN}, "rearrange")
    assert rc == 0
    assert got["values"] == [3, 1] and got["breakpoints"] == [0, 1, 2]


def test_eval_norm(tmp_path, capsys):
    payload = {
        "spec": {"kind": "lp", "space": {"kind": "lebesgue_halfline"}, "p": 1},
        "function": HALFLINE_FN,
    }
    rc, got = _eval(tmp_path, capsys, payload, "norm")
    assert rc == 0 and got == {"value": 4}


def test_eval_norm_infinite_p(tmp_path, capsys):
    payload = {
        "spec": {"kind": "lp", "space": {"kind": "lebesgue_halfline"}, "p": "inf"},
        "function": HALFLINE_FN,
    }
    rc, got = _eval(tmp_path, capsys, payload, "norm")
    assert rc == 0 and got == {"value": 3}


def test_eval_xi(tmp_path, capsys):
    payload = {
        "weight": {
            "space": {"kind": "lebesgue_halfline"},
            "breakpoints": [0, 1],
            "values": [1],
            "right_tail": 0,
        },
        "function": HALFLINE_FN,
    }
    rc, got = _eval(tmp_path, capsys, payload, "xi")
    assert rc == 0 and got == {"value": 3}


def test_eval_apply_and_cesaro(tmp_path, capsys):
    sym = {
        "space": {"kind": "atomic_z", "atom_mass": 1},
        "table": [],
        "shift": 1,
    }
    fn = {"space": {"kind": "atomic_z", "atom_mass": 1}, "entries": [[0, 1]]}
    rc, got = _eval(tmp_path, capsys, {"symbol": sym, "function": fn}, "apply")
    assert rc == 0 and got["entries"] == [[-1, 1]]
    rc, got = _eval(tmp_path, capsys, {"symbol": sym, "function": fn, "n": 2}, "cesaro")
    assert rc == 0 and got["entries"] == [[-1, 0.5], [0, 0.5]]


def test_eval_maximal(tmp_path, capsys):
    sym = {"space": {"kind": "atomic_z", "atom_mass": 1}, "table": [], "shift": 1}
    fn = {"space": {"kind": "atomic_z", "atom_mass": 1}, "entries": [[0, 1]]}
    rc, got = _eval(tmp_path, capsys, {"symbol": sym, "function": fn, "K": 4}, "maximal")
    assert rc == 0
    assert got["entries"] == [[-3, 0.25], [-2, "1/3"], [-1, 0.5], [0, 1]]


def test_eval_analyze_symbol(tmp_path, capsys):
    sym = {
        "space": {"kind": "lebesgue_interval", "length": 1},
        "branches": [{"lo": 0, "hi": 1, "form": {"kind": "power_on_unit", "n": 2}}],
    }
    rc, got = _eval(tmp_path, capsys, {"symbol": sym}, "analyze-symbol")
    assert rc == 0
    assert got["measure_bound"] == "inf"
    assert got["lower_bound"] == 2
    assert got["condition_I1"] is False
    assert got["power_certified"] is False


def test_eval_errors(tmp_path, capsys):
    # invalid json
    src = tmp_path / "bad.json"
    src.write_text("not json")
    assert run_cli("eval", "norm", "--in", str(src)) == 2
    capsys.readouterr()
    # missing field
    rc, err = _eval(tmp_path, capsys, {"function": HALFLINE_FN}, "norm")
    assert rc == 2
    # schema violation: breakpoints holding a non-number string
    bad = dict(HALFLINE_FN, breakpoints=[0, "one", 2])
    rc, err = _eval(tmp_path, capsys, {"function": bad}, "rearrange")
    assert rc == 2
    # cesaro needs n >= 1
    sym = {"space": {"kind": "atomic_z", "atom_mass": 1}, "table": [], "shift": 1}
    fn = {"space": {"kind": "atomic_z", "atom_mass": 1}, "entries": [[0, 1]]}
    rc, err = _eval(tmp_path, capsys, {"symbol": sym, "function": fn, "n": 0}, "cesaro")
    assert rc == 2


def test_eval_out_file_is_written_atomically(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text(jsonio.dumps({"function": HALFLINE_FN}))
    dst = tmp_path / "sub" / "out.json"
    rc = run_cli("eval", "rearrange", "--in", str(src), "--out", str(dst))
    assert rc == 0
    assert json.loads(dst.read_text())["values"] == [3, 1]
    leftovers = [p for p in dst.parent.iterdir() if p.name.startswith(".tmp-")]
    assert not leftovers


def test_eval_on_a_missing_input_file_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert run_cli("eval", "rearrange", "--in", str(missing)) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {missing}: ")


def test_eval_on_an_input_file_that_is_not_utf8_exits_2(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_bytes(b"\xff\xfe{}")
    assert run_cli("eval", "rearrange", "--in", str(src)) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {src}: ")


def test_eval_of_a_result_past_the_int_to_str_limit_exits_2(tmp_path, capsys):
    # the L1 norm is the exact 10^-6000, whose 6,001 digits Python will not
    # write: a usage error, not an internal one
    payload = {
        "spec": {"kind": "lp", "space": {"kind": "lebesgue_halfline"}, "p": 1},
        "function": {"space": {"kind": "lebesgue_halfline"}, "breakpoints": [0, "1e-3000"],
                     "values": ["1e-3000"], "right_tail": 0},
    }
    src = tmp_path / "in.json"
    src.write_text(jsonio.dumps(payload))
    assert run_cli("eval", "norm", "--in", str(src)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "rearrange", "--in", "{src}", "--out", "{blocked}/out.json"),
        ("run-example", "shift-n", "--out", "{blocked}"),
        ("verify", "--trials", "10", "--inject-failure", "--out", "{blocked}"),
    ],
)
def test_an_output_that_cannot_be_written_exits_2(tmp_path, capsys, argv):
    src = tmp_path / "in.json"
    src.write_text(jsonio.dumps({"function": HALFLINE_FN}))
    blocked = tmp_path / "file"  # a regular file where the output directory should be
    blocked.write_text("")
    assert run_cli(*(a.format(src=src, blocked=blocked) for a in argv)) == 2
    assert f"error: cannot write {blocked}/" in capsys.readouterr().err


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_console_script_is_installed():
    out = subprocess.run(["rispace", "--help"], capture_output=True, text=True)
    assert out.returncode == 0
    assert "run-example" in out.stdout and "verify" in out.stdout and "eval" in out.stdout


# ---------------------------------------------------------------------------
# eval on invalid input: exit 2, never an internal error
# ---------------------------------------------------------------------------


def _eval_error(tmp_path, capsys, payload, operation):
    """stderr of an eval run that must exit 2."""
    src = tmp_path / "in.json"
    src.write_text(json.dumps(payload))
    assert run_cli("eval", operation, "--in", str(src)) == 2
    return capsys.readouterr().err


_HALFLINE = {"kind": "lebesgue_halfline"}


@pytest.mark.parametrize(
    "operation, payload",
    [
        # zero denominators: a breakpoint, a branch end, a spec's p
        ("rearrange", {"function": dict(HALFLINE_FN, breakpoints=[0, "1/0", 2])}),
        ("analyze-symbol", {"symbol": {"space": {"kind": "lebesgue_interval", "length": 1},
                                       "branches": [{"lo": "1/0", "hi": 1, "form": {
                                           "kind": "affine", "alpha": 1, "beta": 0}}]}}),
        ("norm", {"spec": {"kind": "lp", "space": _HALFLINE, "p": "1/0"}, "function": HALFLINE_FN}),
        # non-finite catalog parameters
        ("analyze-symbol", {"symbol": {"space": _HALFLINE, "branches": [
            {"lo": 0, "hi": "inf", "form": {"kind": "affine", "alpha": "inf", "beta": 0}}]}}),
        ("analyze-symbol", {"symbol": {"space": _HALFLINE, "branches": [
            {"lo": 0, "hi": "inf", "form": {"kind": "affine", "alpha": 1, "beta": "inf"}}]}}),
        ("rearrange", {"function": {"space": {"kind": "atomic_z", "atom_mass": "inf"},
                                    "entries": [[0, 1]]}}),
        ("rearrange", {"function": {"space": {"kind": "lebesgue_interval", "length": "inf"},
                                    "breakpoints": [0, "inf"], "values": [1]}}),
    ],
)
def test_eval_bad_number_exits_2(tmp_path, capsys, operation, payload):
    assert _eval_error(tmp_path, capsys, payload, operation).startswith("error:")


@pytest.mark.parametrize(
    "operation, payload",
    [
        # json.dumps writes these floats as the non-JSON literals Infinity,
        # -Infinity and NaN, which the wire does not accept
        ("norm", {"spec": {"kind": "lp", "space": _HALFLINE, "p": float("inf")},
                  "function": HALFLINE_FN}),
        ("analyze-symbol", {"symbol": {"space": {"kind": "lebesgue_line"}, "branches": [
            {"lo": float("-inf"), "hi": "inf", "form": {"kind": "affine", "alpha": 2, "beta": 0}}]}}),
        ("rearrange", {"function": dict(HALFLINE_FN, values=[1, float("nan")])}),
    ],
)
def test_eval_non_json_literals_exit_2(tmp_path, capsys, operation, payload):
    err = _eval_error(tmp_path, capsys, payload, operation)
    assert err.startswith("error: cannot read the input:")


def test_eval_huge_exponent_exits_2(tmp_path, capsys):
    src = tmp_path / "in.json"
    src.write_text('{"function": {"space": {"kind": "lebesgue_halfline"}, '
                   '"breakpoints": [0, 1e10000000], "values": [1], "right_tail": 0}}')
    assert run_cli("eval", "rearrange", "--in", str(src)) == 2
    assert capsys.readouterr().err.startswith("error:")


# exponents that once asked for exact powers like 3 ** 10**30
_EXTREME = ("1e30", "1e300", "1e-30", "1e-300")
_EXTREME_SPECS = [
    *({"kind": kind, "space": _HALFLINE, "p": p} for kind in ("lp", "weak_lp") for p in _EXTREME),
    *({"kind": "lorentz", "space": _HALFLINE, "p": p, "q": 1} for p in _EXTREME),
    *({"kind": "lorentz", "space": _HALFLINE, "p": 2, "q": q} for q in _EXTREME),
    *({"kind": kind, "space": _HALFLINE, "phi": {"kind": "power", "alpha": alpha}}
      for kind in ("marcinkiewicz_weak", "marcinkiewicz_strong") for alpha in ("1e-30", "1e-300")),
]


@pytest.mark.parametrize("spec", _EXTREME_SPECS, ids=lambda spec: "-".join(
    str(v["alpha"] if isinstance(v, dict) else v) for k, v in spec.items() if k != "space"))
def test_eval_norm_with_an_extreme_exponent_finishes(spec):
    # one process each, so that a hang fails this payload alone
    payload = {"spec": spec, "function": {"space": _HALFLINE, "breakpoints": [0, "1/3"],
                                          "values": [3], "right_tail": 0}}
    env = dict(os.environ, PYTHONPATH=str(Path(rispace.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "rispace.cli", "eval", "norm"], env=env,
                         input=json.dumps(payload), capture_output=True, text=True, timeout=30)
    assert out.returncode in (0, 2), out.stderr
    if out.returncode == 0:
        jsonio.loads(out.stdout)  # no NaN or other non-JSON literal


def test_eval_norm_with_a_large_whole_p_finishes():
    # the off-range root of p = 8192 once started Newton at 2^ceil(bits/p),
    # far above the root, and took about a minute
    payload = {"spec": {"kind": "lp", "space": _HALFLINE, "p": 8192},
               "function": {"space": _HALFLINE, "breakpoints": [0, 1, 2], "values": [3, 2], "right_tail": 0}}
    env = dict(os.environ, PYTHONPATH=str(Path(rispace.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "rispace.cli", "eval", "norm"], env=env, timeout=10,
                         input=json.dumps(payload), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["value"] == 3.0


def test_eval_rearrange_of_many_distinct_prime_denominators_finishes():
    # 1/p over 60,000 primes above 10^6, 1.2 MB of payload: the lcm of its
    # values was once formed whole before the budget was tested, about 20 s
    values = [f"1/{p}" for p in primes_from(10**6, 60_000)]
    fn = {"space": _HALFLINE, "breakpoints": list(range(len(values) + 1)), "values": values, "right_tail": 0}
    env = dict(os.environ, PYTHONPATH=str(Path(rispace.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "rispace.cli", "eval", "rearrange"], env=env, timeout=15,
                         input=json.dumps({"function": fn}), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_eval_maximal_past_the_denominator_budget_finishes():
    # exact entries whose denominators' lcm passes 1,024 bits once took a
    # K-long walk of every index, about 10 s at this K
    fn = {"space": _N_SHIFT["space"], "entries": [[0, f"1/{3**700}"], [1, f"1/{5**500}"]], "tail_value": "1/3"}
    env = dict(os.environ, PYTHONPATH=str(Path(rispace.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "rispace.cli", "eval", "maximal"], env=env, timeout=5,
                         input=json.dumps({"symbol": _N_SHIFT, "function": fn, "K": 200000}),
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout)
    assert got["tail_value"] == "1/3" and [j for j, _ in got["entries"]] == [0, 1]



def test_eval_cesaro_of_orbits_caught_by_a_fixed_row_finishes():
    # each of the n indices below the row (0, 0) once stepped the fixed point
    # one step at a time, about 4-5 s at this n; a row met again now adds its
    # whole cycles at once
    sym = {"space": {"kind": "atomic_z", "atom_mass": 1}, "table": [[0, 0]], "shift": 1}
    fn = {"space": {"kind": "atomic_z", "atom_mass": 1}, "entries": [[0, 1]]}
    env = dict(os.environ, PYTHONPATH=str(Path(rispace.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "rispace.cli", "eval", "cesaro"], env=env, timeout=3,
                         input=json.dumps({"symbol": sym, "function": fn, "n": 4000}), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    entries = json.loads(out.stdout)["entries"]
    assert [j for j, _ in entries] == list(range(-3999, 1)) and entries[0][1] == "1/4000" and entries[-1] == [0, 1]


def test_eval_analyze_symbol_of_a_shift_with_a_table_at_a_long_horizon_finishes():
    # sweeping a window about 2 * horizon wide at each step once took about
    # 20 s at this horizon
    sym = {"space": {"kind": "atomic_z", "atom_mass": 1}, "table": [[0, 5], [1, 0]], "shift": 1}
    env = dict(os.environ, PYTHONPATH=str(Path(rispace.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "rispace.cli", "eval", "analyze-symbol"], env=env, timeout=5,
                         input=json.dumps({"symbol": sym, "horizon": 4000}), capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert len(json.loads(out.stdout)["power_bounds"]) == 4000

# a half-line step function whose cuts lie off the double range on both sides
_OFF_RANGE_FN = {"space": _HALFLINE, "breakpoints": [0, "1e-400", "1e400"], "values": [3, 2],
                 "right_tail": 0}


def test_eval_norm_off_the_double_range(tmp_path, capsys):
    # Phi(t) H(t)/t peaks at t = 1e400, where H(t)/t is about 2
    spec = {"kind": "marcinkiewicz_strong", "space": _HALFLINE,
            "phi": {"kind": "power", "alpha": "1/3"}}
    rc, got = _eval(tmp_path, capsys, {"spec": spec, "function": _OFF_RANGE_FN}, "norm")
    assert rc == 0 and got["value"] == pytest.approx(2 * 10 ** (400 / 3))
    spec = {"kind": "lp", "space": _HALFLINE, "p": "1e30"}
    err = _eval_error(tmp_path, capsys, {"spec": spec, "function": _OFF_RANGE_FN}, "norm")
    assert err.startswith("error:")


@pytest.mark.parametrize("spec, width, value", [
    ({"kind": "lorentz", "space": _HALFLINE, "p": 3, "q": 2}, 2, 2**600),
    ({"kind": "weak_lp", "space": _HALFLINE, "p": 2}, 3, 2**1100),
    ({"kind": "marcinkiewicz_weak", "space": _HALFLINE, "phi": {"kind": "logclip"}}, "1/2", 2**1100),
    ({"kind": "lp", "space": _HALFLINE, "p": "3/2"}, "1e-400", 2**1101),
    ({"kind": "lorentz", "space": _HALFLINE, "p": "3/2", "q": "3/2"}, "1e-400", 2**1101),
    ({"kind": "lorentz", "space": _HALFLINE, "p": 2, "q": "3/2"}, "1e-400", 2**1101),
], ids=["lorentz", "weak_lp", "marcinkiewicz_weak", "lp_nan", "lorentz_nan", "lorentz_inf"])
def test_eval_norm_whose_float_term_meets_a_huge_value_exits_2(tmp_path, capsys, spec, width, value):
    # an exact value past the double range meets a float power or profile;
    # on a width below the double range, that power is inf, the width 0.0,
    # and their product NaN, or, where the width's power is a tiny nonzero
    # float, inf, which is not the norm (≈ 3.29e131 for lorentz_inf)
    fn = {"space": _HALFLINE, "breakpoints": [0, width], "values": [str(value)], "right_tail": 0}
    err = _eval_error(tmp_path, capsys, {"spec": spec, "function": fn}, "norm")
    assert err.startswith("error:") and "out of the double range" in err


# rays whose finite end lies past the double range: INF - 10^400 would call
# float() on the Fraction
_LINE = {"kind": "lebesgue_line"}
_FAR_RAY_FN = {"space": _HALFLINE, "breakpoints": [0, "1e400"], "values": [3], "right_tail": 2}


@pytest.mark.parametrize("function, star", [
    (_FAR_RAY_FN, _FAR_RAY_FN),
    ({"space": _LINE, "left_tail": 1, "breakpoints": ["1e400"], "right_tail": 0},
     {"space": _HALFLINE, "breakpoints": [0], "values": [], "right_tail": 1}),
    ({"space": _LINE, "left_tail": 2, "breakpoints": [0, 1, "1e400"], "values": [5, 2],
      "right_tail": 0},
     {"space": _HALFLINE, "breakpoints": [0, 1], "values": [5], "right_tail": 2}),
])
def test_eval_rearrange_of_a_ray_past_the_double_range(tmp_path, capsys, function, star):
    rc, got = _eval(tmp_path, capsys, {"function": function}, "rearrange")
    assert rc == 0
    assert jsonio.measfn_from_obj(got, "f*") == jsonio.measfn_from_obj(star, "f*")


@pytest.mark.parametrize("spec, value", [
    ({"kind": "lp", "space": _HALFLINE, "p": "inf"}, 3),
    ({"kind": "marcinkiewicz_strong", "space": _HALFLINE, "phi": {"kind": "logclip"}}, 3),
    ({"kind": "marcinkiewicz_strong", "space": _HALFLINE,
      "phi": {"kind": "power", "alpha": "1/2"}}, "inf"),
])
def test_eval_norm_of_a_ray_past_the_double_range(tmp_path, capsys, spec, value):
    rc, got = _eval(tmp_path, capsys, {"spec": spec, "function": _FAR_RAY_FN}, "norm")
    assert rc == 0 and got == {"value": value}


_N_SHIFT = {"space": {"kind": "atomic_n", "atom_mass": 1}, "table": [], "shift": 1}
_CYCLE_OF_3 = {"space": {"kind": "atomic_finite", "count": 3, "atom_mass": 1},
               "table": [[0, 1], [1, 2], [2, 0]]}


@pytest.mark.parametrize("operation, payload", [
    ("cesaro", {"symbol": _N_SHIFT, "function": HALFLINE_FN, "n": 1}),
    ("maximal", {"symbol": _N_SHIFT, "function": HALFLINE_FN, "K": 1}),
    ("cesaro", {"symbol": _CYCLE_OF_3, "function": dict(HALFLINE_FN, values=[5, 7]), "n": 4}),
])
def test_eval_on_a_function_off_the_symbols_space_exits_2(tmp_path, capsys, operation, payload):
    err = _eval_error(tmp_path, capsys, payload, operation)
    assert err == "error: function and symbol live on different spaces\n"


@pytest.mark.parametrize("function, message", [
    # two faults in the space: the mass is named before the count
    ({"space": {"kind": "atomic_finite", "count": 0, "atom_mass": 0}, "entries": []},
     "atom_mass must be positive and finite"),
    ({"space": {"kind": "atomic_finite", "count": 0}, "entries": []}, "count must be >= 1"),
    ({"space": {"kind": "atomic_n", "atom_mass": "-1"}, "entries": []}, "atom_mass must be positive and finite"),
    ({"space": {"kind": "lebesgue_interval", "length": 0}, "breakpoints": [0, 0], "values": [1]},
     "interval length must be positive and finite"),
])
def test_eval_on_a_bad_space_names_its_first_fault(tmp_path, capsys, function, message):
    err = _eval_error(tmp_path, capsys, {"function": function}, "rearrange")
    assert err == f"error: function.space: {message}\n"


def test_eval_unknown_field_exits_2(tmp_path, capsys):
    err = _eval_error(tmp_path, capsys, {"function": HALFLINE_FN, "extra": 1}, "rearrange")
    assert "'extra'" in err


_OPERATIONS = ("rearrange", "norm", "xi", "apply", "cesaro", "maximal", "analyze-symbol")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_OPERATIONS), st.integers(0, 2**32), st.data())
def test_eval_on_mutated_payloads_exits_0_or_2(operation, seed, data):
    payload = data.draw(mutated(eval_payload(operation, seed)))
    stdout, stderr = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(payload))), \
            contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        rc = run_cli("eval", operation)
    assert rc in (0, 2), stderr.getvalue()
    if rc == 2:
        assert stderr.getvalue().startswith("error:")
    else:
        json.loads(stdout.getvalue())
