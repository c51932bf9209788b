"""The source is what a command reaches: every CLI subcommand and
experiment runs once on a tiny input under sys.setprofile, and the
functions in src/ that none of them calls are exactly a written allowlist.
The runs are made in a child process, so that no cache another test warmed
hides a call."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gtpatterns"

# one tiny run of each subcommand, and of each experiment at tolerance 1,
# which any statistic passes; each must exit 0
RUNS = [
    ["count", "--k", "3", "--lambda", "1,0"],
    ["pieri", "--d", "3", "--lambda", "1", "--m", "1"],
    ["kernel", "r", "--q", "1/2"],
    ["kernel", "pd", "--q", "1/2", "--d", "4", "--x", "1,0", "--y", "1,1"],
    ["kernel", "rk", "--q", "1/2", "--k", "3", "--x", "1,0", "--y", "1,1"],
    ["kernel", "nu", "--q", "1/2", "--y", "2"],
    ["intertwine", "--k", "3", "--q", "1/2", "--bound", "1"],
    ["desintegration", "--q", "1/2", "--bound", "2"],
    ["simulate", "--k", "3", "--q", "1/2", "--horizon", "1", "--paths", "10"],
    ["ctmc", "--k", "3", "--t-max", "0.5", "--paths", "10"],
    *(
        ["experiment", which, "--k", k, "--paths", "10", "--tolerance", "1", *flags]
        for which, k, flags in [
            ("markov-marginal", "2", ["--radius", "5"]),
            ("ctmc-marginal", "3", ["--radius", "5"]),
            ("small-q", "2", ["--big-n", "5"]),
            # the closed-form chain at d <= 4 and the batched SVD at d >= 5
            ("large-q", "3", ["--big-n", "5"]),
            ("large-q", "4", ["--big-n", "5", "--horizon", "2"]),
        ]
    ),
]

# the functions in src/ that no command reaches, each with its reason
UNREACHED = {
    # the whole-pattern enumeration, for a fixed-time pattern law (ROADMAP item 5)
    "patterns.enumerate_patterns",
    "patterns.enumerate_lower_rows",
    # public API with no caller in src/ (ROADMAP item 18)
    "patterns.pattern_is_valid",
    # the counting oracle of weyl_dimension, whose cache the benchmark reads
    "patterns.count_patterns",
    # the q = 1 transition density, to be wired in by ROADMAP item 17
    "spectra._h_table",
    "spectra._floats",
    "spectra._h",
    "spectra.h_d",
    "spectra._bounds",
    "spectra._m",
    "spectra.m_d",
    "spectra._start",
    "spectra.p_d_density",
}


def defined() -> dict[tuple[str, int], str]:
    """Each function in src/, "module.qualname", keyed by its module and
    first line, the line of its code object (its first decorator's, if any)."""
    names = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names[module, first] = f"{module}.{prefix}{child.name}"
                walk(child, module, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, f"{prefix}{child.name}.")

    for path in SRC.glob("*.py"):
        walk(ast.parse(path.read_text()), path.stem, "")
    return names


def reached() -> set[tuple[str, int]]:
    """(module, first line) of every src/ code object that RUNS call."""
    from gtpatterns.cli import main

    calls = set()

    def profile(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(str(SRC)):
            calls.add((Path(code.co_filename).stem, code.co_firstlineno))

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(argv) for argv in RUNS]
    finally:
        sys.setprofile(None)
    assert codes == [0] * len(RUNS), codes
    return calls


def test_unreached_functions_are_the_allowlist():
    path = os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, __file__], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    calls = {tuple(call) for call in json.loads(proc.stdout)}
    names = defined()
    assert {name for key, name in names.items() if key not in calls} == UNREACHED


if __name__ == "__main__":
    print(json.dumps(sorted(reached())))
