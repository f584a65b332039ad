"""Property test over the CLI argument space: an answer or a one-line error.

Every ``curves``/``threshold``/``compare`` command line built from ordinary
floats and the edge values 0, negatives, 1e-300, 5e-324, 1e308, nan and inf
must exit with 0 or 2, never raise, and on exit 2 print exactly one stderr
line starting with ``error:``. An answered ``threshold`` with p > 1/3 must
also print the closed-form qubit crossing time.
"""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutrit_se.analysis import QUBIT_SEP_THRESHOLD, qubit_crossing_closed
from qutrit_se.cli import main

EDGE = [0.0, -0.0, -1.0, -2.5, 1e-300, 5e-324, 1e308, float("nan"), float("inf"), float("-inf")]
VALUES = st.one_of(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), st.sampled_from(EDGE))
OPTIONS = {
    "curves": ("a1", "a2", "a3", "p", "q", "t-max"),
    "threshold": ("a1", "a2", "a3", "p"),
    "compare": ("p",),
}


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for name in OPTIONS[command]:
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(VALUES)!r}")
    if command == "curves":
        argv.append(f"--steps={draw(st.integers(min_value=-3, max_value=50))}")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(command_lines())
@example(["threshold", "--a2=1e-300"])
@example(["curves", "--a2=1e-300", "--steps=50"])
@example(["threshold", "--a1=5e-324"])
def test_answer_or_one_line_error(argv):
    code, out, err = run(argv)
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        lines = err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert out == ""
    else:
        assert out
    p = next((float(arg[len("--p="):]) for arg in argv if arg.startswith("--p=")), 1.0)
    if argv[0] == "threshold" and code == 0 and p > QUBIT_SEP_THRESHOLD:
        # in a1*t units the qubit crossing depends on p only
        keys = dict(line.split("=", 1) for line in out.splitlines())
        assert abs(float(keys["t_cross_qubit"]) - qubit_crossing_closed(p)) <= 1e-7, out
