"""Property test over the CLI argument space: an answer or a one-line error.

Every ``curves``/``threshold``/``compare`` command line built from ordinary
floats and the edge values 0, negatives, 1e-300, 5e-324, 1e308, nan and inf,
and every ``haar``/``validate`` command line with small integer
``--samples``/``--seed`` values, must exit with 0 or 2, never raise, and on
exit 2 print exactly one stderr line starting with ``error:`` and nothing on
stdout. An ``--output`` path under a missing directory must end in exit 2.
An answered ``threshold`` with p > 1/3 must also print the closed-form qubit
crossing time.
"""

import io
import os
import tempfile
import uuid
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutrit_se.analysis import qubit_crossing_closed
from qutrit_se.cli import main

EDGE = [0.0, -0.0, -1.0, -2.5, 1e-300, 5e-324, 1e308, float("nan"), float("inf"), float("-inf")]
VALUES = st.one_of(st.floats(min_value=-10.0, max_value=10.0, allow_nan=False), st.sampled_from(EDGE))
OPTIONS = {
    "curves": ("a1", "a2", "a3", "p", "q", "t-max"),
    "threshold": ("a1", "a2", "a3", "p"),
    "compare": ("p",),
    "haar": (),
    "validate": (),
}
INTEGERS = {
    "curves": {"steps": (-3, 50)},
    "haar": {"samples": (-3, 2000), "seed": (-3, 10**6)},
    "validate": {"seed": (-3, 10**6)},
}
MISSING_DIR_OUTPUT = os.path.join(tempfile.gettempdir(), f"missing-{uuid.uuid4().hex}", "out.txt")


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command]
    for name in OPTIONS[command]:
        if draw(st.booleans()):
            argv.append(f"--{name}={draw(VALUES)!r}")
    for name, (lo, hi) in INTEGERS.get(command, {}).items():
        # haar's --samples defaults to 200,000, so it is always set small
        if name != "seed" or draw(st.booleans()):
            argv.append(f"--{name}={draw(st.integers(min_value=lo, max_value=hi))}")
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        argv.append(f"--output={MISSING_DIR_OUTPUT}")
    return argv


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, deadline=None, max_examples=250, database=None)
@given(command_lines())
@example(["threshold", "--a2=1e-300"])
@example(["curves", "--a2=1e-300", "--steps=50"])
@example(["threshold", "--a1=5e-324"])
@example(["threshold", "--a1=1e-200", "--a2=1e308", "--a3=1e308"])
@example(["curves", "--t-max=1e308", "--a1=0.5", "--steps=4"])
@example(["haar", "--samples=100", f"--output={MISSING_DIR_OUTPUT}"])
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
    assert code == 2 or not any(arg.startswith("--output=") for arg in argv)
    p = next((float(arg[len("--p="):]) for arg in argv if arg.startswith("--p=")), 1.0)
    if argv[0] == "threshold" and code == 0 and p > 1.0 / 3.0:
        # in a1*t units the qubit crossing depends on p only
        keys = dict(line.split("=", 1) for line in out.splitlines())
        assert abs(float(keys["t_cross_qubit"]) - qubit_crossing_closed(p)) <= 1e-7, out
