"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gtpatterns.cli import main


def test_count(capsys):
    assert main(["count", "--k", "3", "--lambda", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def test_pieri_json(capsys):
    assert main(["pieri", "--d", "3", "--lambda", "1", "--m", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"0": 1, "1": 1, "2": 1}


def test_kernel_value(capsys):
    assert main(["kernel", "nu", "--q", "1/2", "--d", "3", "--y", "0"]) == 0
    assert capsys.readouterr().out.startswith("1/6")


def test_decimal_q_is_read_exactly(capsys):
    assert main(["kernel", "r", "--q", "0.25"]) == 0
    decimal = capsys.readouterr().out
    assert main(["kernel", "r", "--q", "1/4"]) == 0
    assert decimal == capsys.readouterr().out


def test_intertwine_passes(capsys):
    assert main(["intertwine", "--k", "2", "--q", "1/2", "--bound", "2"]) == 0
    assert "max discrepancy 0" in capsys.readouterr().out


def test_desintegration_passes(capsys):
    assert main(["desintegration", "--q", "1/3", "--bound", "2"]) == 0
    assert "violations 0" in capsys.readouterr().out


def test_simulate_writes_histogram(tmp_path, capsys):
    out = tmp_path / "sim.json"
    code = main(
        [
            "simulate", "--k", "2", "--q", "1/2", "--horizon", "1",
            "--paths", "500", "--seed", "3", "--output", str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["experiment"] == "simulate"
    assert sum(payload["histogram"].values()) == 500


def test_experiment_exit_codes(capsys):
    args = [
        "experiment", "markov-marginal", "--k", "1", "--q", "1/2",
        "--horizon", "1", "--paths", "20000", "--seed", "7",
        "--radius", "40",
    ]
    assert main(args + ["--tolerance", "0.05"]) == 0
    # an absurdly small tolerance must fail with exit code 1
    assert main(args + ["--tolerance", "1e-9"]) == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2


def run_python(args, timeout=60):
    """Run the interpreter with src/ on its path, in a child process that
    the timeout ends."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": path},
    )


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("gtpatterns: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


HUGE = "1" + "0" * 400  # past the float range


@pytest.mark.parametrize(
    "argv",
    [
        ["count", "--k", "3", "--lambda", "1,2"],
        ["kernel", "r", "--q", "2"],
        ["pieri", "--d", "2", "--lambda", "1", "--m", "1"],
        ["intertwine", "--k", "1", "--q", "1/2", "--bound", "2"],
        ["ctmc", "--k", "1", "--t-max", "-1"],
        ["ctmc", "--k", "0", "--t-max", "1"],
        ["ctmc", "--k", "1", "--t-max", "1", "--paths", "0"],
        ["simulate", "--k", "0", "--q", "1/2", "--horizon", "1"],
        ["simulate", "--k", "2", "--q", "1/2", "--horizon", "1", "--paths", "0"],
        ["experiment", "small-q", "--k", "1", "--q", "1/2"],
        ["experiment", "large-q", "--k", "1", "--q", "1/2"],
        ["kernel", "r", "--q", "1/0"],
        ["kernel", "pd", "--q", "1/2", "--d", "2", "--x", "1", "--y", "0"],
        ["experiment", "small-q", "--k", "1", "--big-n", "0"],
        ["experiment", "large-q", "--k", "1", "--big-n", "0"],
        ["intertwine", "--k", "2", "--q", "1/2", "--bound", "-1"],
        ["experiment", "markov-marginal", "--k", "2", "--paths", "100", "--radius", "-1"],
        ["simulate", "--k", "2", "--q", "1/2", "--horizon", "-1"],
        ["kernel", "r", "--q", "1/2", "--x", ""],
        ["kernel", "r", "--q", "1/2", "--y", "1,2"],
        ["kernel", "nu", "--q", "1/2", "--y", ""],
        ["experiment", "markov-marginal", "--k", "2", "--paths", "100", "--q", ""],
        ["experiment", "markov-marginal", "--k", "2", "--paths", "100", "--q", "0"],
        ["experiment", "markov-marginal", "--k", "2", "--paths", "100", "--q", "0.0"],
        ["experiment", "markov-marginal", "--k", "2", "--paths", "100", "--tolerance", "0"],
        ["experiment", "large-q", "--k", "2", "--paths", "300", "--big-n", "20", "--radius", "5"],
        ["experiment", "large-q", "--k", "2", "--paths", "300", "--big-n", "20", "--t-max", "9"],
        ["experiment", "small-q", "--k", "1", "--paths", "100", "--horizon", "7"],
        ["experiment", "small-q", "--k", "1", "--paths", "100", "--radius", "3"],
        ["experiment", "markov-marginal", "--k", "2", "--paths", "100", "--big-n", "3"],
        ["experiment", "markov-marginal", "--k", "2", "--paths", "100", "--t-max", "7"],
        ["experiment", "small-q", "--k", "2", "--t-max", "-1"],
        ["experiment", "small-q", "--k", "2", "--t-max", "nan"],
        ["experiment", "markov-marginal", "--k", "2", "--horizon", "0"],
        ["experiment", "large-q", "--k", "2", "--horizon", "0"],
        ["ctmc", "--k", "1", "--t-max", "nan", "--paths", "1"],
        ["ctmc", "--k", "1", "--t-max", "inf", "--paths", "1"],
        ["experiment", "small-q", "--k", "1", "--t-max", "inf", "--paths", "10"],
        ["experiment", "small-q", "--k", "1", "--big-n", HUGE],
        ["experiment", "large-q", "--k", "1", "--big-n", HUGE],
        ["ctmc", "--k", "1", "--t-max", "1", "--paths", HUGE],
    ],
)
def test_domain_error_is_one_line_and_exit_code_2(argv, capsys):
    if {"nan", "inf", HUGE} & set(argv):
        # a non-finite time or a huge count that slips through can loop
        # forever or exhaust memory
        proc = run_python(["-m", "gtpatterns.cli", *argv])
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    else:
        code = main(argv)
        out, err = capsys.readouterr()
    assert_usage_error(code, out, err)


@pytest.mark.parametrize(
    "argv,name",
    [
        (["ctmc", "--k", "1", "--t-max", "1e12", "--paths", "1"], "t_max"),
        (["experiment", "small-q", "--k", "1", "--t-max", "1e300", "--paths", "10"], "t_max"),
        (["experiment", "small-q", "--k", "1", "--big-n", "10", "--t-max", "1e8", "--paths", "1"],
         "t_max"),
        (["simulate", "--k", "2", "--q", "1/2", "--horizon", "10000000000", "--paths", "1"],
         "horizon"),
        # one stored pattern per path, with a tiny time
        (["ctmc", "--k", "1", "--t-max", "1e-9", "--paths", "1000000000"], "paths"),
        # a fixed cost per step, with one path
        (["simulate", "--k", "1", "--q", "1/2", "--horizon", "1000000000", "--paths", "1"],
         "horizon"),
        # the state alone, with no step
        (["simulate", "--k", "1", "--q", "1/2", "--horizon", "0", "--paths", "10000000000"],
         "paths"),
        (["simulate", "--k", "100000", "--q", "1/2", "--horizon", "1", "--paths", "1"], "state"),
        (["ctmc", "--k", "100000", "--t-max", "1", "--paths", "1"], "t_max"),
        # the exact law: n^2 |box|^2 and the box itself
        (["experiment", "markov-marginal", "--k", "1", "--horizon", "100000000", "--paths", "10"],
         "horizon"),
        (["experiment", "markov-marginal", "--k", "1", "--horizon", "100000", "--paths", "10"],
         "horizon"),
        (["experiment", "markov-marginal", "--k", "5", "--radius", "100000", "--paths", "10"],
         "radius"),
    ],
)
def test_run_over_its_work_budget_is_refused(argv, name):
    """A finite time, horizon, radius or path count whose work is over the
    fixed budget exits 2 at once; one that slipped through would run for
    hours or exhaust memory."""
    proc = run_python(["-m", "gtpatterns.cli", *argv])
    assert_usage_error(proc.returncode, proc.stdout, proc.stderr)
    assert name in proc.stderr and "budget" in proc.stderr


@pytest.mark.parametrize("module", ["gtpatterns.experiments", "gtpatterns.cli"])
def test_import_loads_no_scipy(module):
    """scipy costs more to import than the package itself, so only the
    functions that need it import it, when called."""
    proc = run_python([
        "-c",
        f"import sys, {module}; print([m for m in sys.modules if m.startswith('scipy')])",
    ])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["experiment", "large-q", "--k", "2", "--horizon", "0"], "--horizon"),
        (["experiment", "markov-marginal", "--k", "2", "--horizon", "0"], "--horizon"),
        (["experiment", "markov-marginal", "--k", "2", "--tolerance", "0"], "--tolerance"),
        (["experiment", "large-q", "--k", "2", "--tolerance", "nan"], "--tolerance"),
    ],
)
def test_bad_experiment_value_names_its_flag(argv, flag, capsys):
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "which,flag,value",
    [
        ("large-q", "--radius", "5"),
        ("large-q", "--t-max", "9"),
        ("large-q", "--q", "1/2"),
        ("small-q", "--horizon", "7"),
        ("small-q", "--radius", "3"),
        ("markov-marginal", "--big-n", "3"),
        ("markov-marginal", "--t-max", "7"),
    ],
)
def test_flag_an_experiment_does_not_read_is_named(which, flag, value, capsys):
    assert main(["experiment", which, "--k", "2", "--paths", "100", flag, value]) == 2
    assert f"{flag} does not apply to {which}" in capsys.readouterr().err
