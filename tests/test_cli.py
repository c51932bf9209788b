"""End-to-end tests of the command line interface."""

import json

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
    ],
)
def test_domain_error_is_one_line_and_exit_code_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gtpatterns: error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
