"""End-to-end tests of the command line interface."""

import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from gtpatterns.cli import main


def test_count(capsys):
    assert main(["count", "--k", "3", "--lambda", "1,0"]) == 0
    assert capsys.readouterr().out.strip() == "4"


def gamma_dim(d, m):
    """dim of (m, 0, ..., 0) for SO(d), the binomial form in nu_tail_bound."""
    return math.comb(m + d - 2, d - 2) + math.comb(m + d - 3, d - 2)


def test_count_at_a_large_entry(capsys):
    assert main(["count", "--k", "9", "--lambda", "3000,0,0,0,0"]) == 0
    assert capsys.readouterr().out.strip() == str(gamma_dim(10, 3000))


def test_pieri_json(capsys):
    assert main(["pieri", "--d", "3", "--lambda", "1", "--m", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out == {"0": 1, "1": 1, "2": 1}


def test_kernel_value(capsys):
    assert main(["kernel", "nu", "--q", "1/2", "--d", "3", "--y", "0"]) == 0
    assert capsys.readouterr().out.startswith("1/6")


def test_kernel_nu_at_large_d(capsys):
    d, m, q = 3000, 1, Fraction(1, 2)
    assert main(["kernel", "nu", "--q", "1/2", "--d", str(d), "--y", str(m)]) == 0
    value = Fraction(capsys.readouterr().out.split()[0])
    assert value == (1 - q) ** (d - 1) * q**m * gamma_dim(d, m) / (1 + q)


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


def test_simulate_output_is_pinned(capsys):
    """The whole JSON, byte for byte, as recorded when each histogram key was
    built from numpy entries one int() at a time."""
    args = ["simulate", "--k", "3", "--q", "1/2", "--horizon", "5"]
    assert main([*args, "--paths", "2000", "--seed", "1"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "d445ce45d4a3a86dc9f19119377c2081a258967346ade1c75894120dd3556762"
    )


def test_experiment_exit_codes(capsys):
    args = [
        "experiment", "markov-marginal", "--k", "1", "--q", "1/2",
        "--horizon", "1", "--paths", "20000", "--seed", "7",
        "--radius", "40",
    ]
    assert main(args + ["--tolerance", "0.05"]) == 0
    # an absurdly small tolerance must fail with exit code 1
    assert main(args + ["--tolerance", "1e-9"]) == 1


@pytest.mark.parametrize("k", ["3", "4"])
def test_default_large_q_passes(k, capsys):
    """At the default horizon 1 the chain's coordinates past the first are
    exact zeros, as the discrete model's are; a rounding residue there read
    KS 0.41 at k = 3 and 1.0 at k = 4."""
    assert main(["experiment", "large-q", "--k", k]) == 0


@pytest.mark.parametrize("k", ["1", "2", "3", "4"])
def test_default_ctmc_marginal_passes(k, capsys):
    """At the defaults, t_max 1.0, radius 25 and 10000 paths, the simulated
    top row read TV at most 0.018 against its Weyl-group law at seeds 0 and
    1, within the default tolerance 0.05."""
    assert main(["experiment", "ctmc-marginal", "--k", k]) == 0
    assert "[PASS] ctmc-marginal" in capsys.readouterr().out


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
ONES = ",".join(["1"] * 500)


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
        ["experiment", "ctmc-marginal", "--k", "1", "--t-max", "nan", "--paths", "10"],
        ["experiment", "ctmc-marginal", "--k", "2", "--paths", "100", "--radius", "-1"],
        ["experiment", "small-q", "--k", "1", "--big-n", HUGE],
        ["experiment", "large-q", "--k", "1", "--big-n", HUGE],
        ["ctmc", "--k", "1", "--t-max", "1", "--paths", HUGE],
        ["count", "--k", "0", "--lambda", "1"],
        ["experiment", "ctmc-marginal", "--k", "0"],
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


@pytest.mark.parametrize("which", ["markov-marginal", "ctmc-marginal", "small-q", "large-q"])
def test_k_0_is_refused_by_name(which, capsys):
    assert main(["experiment", which, "--k", "0", "--paths", "10"]) == 2
    assert "need k >= 1" in capsys.readouterr().err


def test_reader_closing_the_pipe_leaves_no_traceback():
    """A reader that takes one line and closes the pipe, as `| head -1`
    does: the rest of the output (about 150 kB, more than a pipe holds)
    cannot be written, and the run ends without a traceback."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    argv = ["ctmc", "--k", "5", "--t-max", "3", "--paths", "6000"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gtpatterns.cli", *argv], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=60) == 1
    assert err == ""


@pytest.mark.parametrize(
    "argv,name",
    [
        (["ctmc", "--k", "1", "--t-max", "1e12", "--paths", "1"], "t_max"),
        (["experiment", "small-q", "--k", "1", "--t-max", "1e300", "--paths", "10"], "t_max"),
        (["experiment", "small-q", "--k", "1", "--big-n", "10", "--t-max", "1e8", "--paths", "1"],
         "t_max"),
        # refused before the exact law, whose determinants are not finite there
        (["experiment", "ctmc-marginal", "--k", "2", "--t-max", "1e12", "--paths", "1"], "t_max"),
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
        # the identity checkers: k pairs^2 lower rows, and bound^4
        (["intertwine", "--k", "4", "--q", "1/2", "--bound", "20"], "bound"),
        (["desintegration", "--q", "1/2", "--bound", "100000"], "bound"),
        # one kernel entry: the bits of q^e
        (["kernel", "r", "--q", "2/3", "--x", "100000000", "--y", "1"], "--x"),
        (["kernel", "rk", "--q", "2/3", "--k", "3", "--x", "100000000,0", "--y", "1,1"], "--x"),
        (["kernel", "nu", "--q", "1/2", "--d", "1000000001", "--y", "1"], "--d"),
        # the eigenvalue chain's arrays; the discrete budget admits this run
        (["experiment", "large-q", "--k", "3", "--horizon", "10000", "--paths", "200000"],
         "horizon=10000 with 200000 paths"),
        # within both entry budgets, but past the digits Python prints
        (["kernel", "r", "--q", "2/3", "--x", "10000", "--y", "1"], "--x, --y"),
        (["kernel", "r", "--q", "2/3", "--x", "9010", "--y", "1"], "--x, --y"),
        # the pair factors of the Weyl products, 500 nonzero entries at level 1000
        (["kernel", "rk", "--q", "1/2", "--k", "1000", "--x", ONES, "--y", ONES], "--k, --x, --y"),
        (["count", "--k", "1000", "--lambda", ONES], "--k, --lambda"),
        # one nonzero entry at level 9999: within the pair-factor budget, but
        # the dimension is past the digits Python prints
        (["count", "--k", "9999", "--lambda", "100000" + ",0" * 4999], "--k, --lambda"),
    ],
)
def test_run_over_its_work_budget_is_refused(argv, name):
    """A finite time, horizon, radius, bound, coordinate or path count whose
    work is over the fixed budget exits 2 at once; one that slipped through would run for
    hours or exhaust memory."""
    proc = run_python(["-m", "gtpatterns.cli", *argv])
    assert_usage_error(proc.returncode, proc.stdout, proc.stderr)
    assert name in proc.stderr and "budget" in proc.stderr


def test_entry_at_the_printed_digit_limit_prints():
    """r(9009, 1) at q = 2/3 has a 4300-digit denominator, exactly the
    default limit; r(9010, 1), refused above, has 4301."""
    proc = run_python(["-m", "gtpatterns.cli", "kernel", "r", "--q", "2/3", "--x", "9009", "--y", "1"])
    assert proc.returncode == 0, proc.stderr
    fraction = proc.stdout.split()[0]
    assert max(map(len, fraction.split("/"))) == 4300


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
        ("ctmc-marginal", "--q", "1/2"),
        ("ctmc-marginal", "--horizon", "7"),
        ("ctmc-marginal", "--big-n", "3"),
    ],
)
def test_flag_an_experiment_does_not_read_is_named(which, flag, value, capsys):
    assert main(["experiment", which, "--k", "2", "--paths", "100", flag, value]) == 2
    assert f"{flag} does not apply to {which}" in capsys.readouterr().err
