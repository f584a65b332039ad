"""The README's Example block runs against the package as it is."""

import contextlib
import io
import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def example_block() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Example\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_example_runs_and_its_routes_agree():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(example_block(), str(README), "exec"), {})
    s_state, s_closed, neg, s_four, crossing = (float(x) for x in out.getvalue().split())
    # the comments' claims: the two routes agree to 1e-10, the pair is NPT
    assert abs(s_state - s_closed) <= 1e-10
    assert neg > 0.0
    assert 0.2 < s_four < 1.0  # d = 4 is still above its threshold 1/5 at t = 1.5
    assert format(crossing, ".9g") == "2.01010508"
