"""Command-line behavior: CSV format, reports, self-checks, exit codes."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qutrit_se import analysis, channels
from qutrit_se.cli import RunConfig, main
from qutrit_se.su import generator_basis

HEADER = "t,s_qubit,s_qutrit,F_qubit,F_qutrit,neg_qubit,neg_qutrit"


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--output", str(out)])
    return code, out.read_bytes()


def parse_csv(data: bytes):
    lines = data.decode().strip().split("\n")
    rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]])
    return lines[0], rows


def parse_report(text: str) -> dict:
    out = {}
    for line in text.strip().split("\n"):
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestCurves:
    def test_default_run(self, tmp_path):
        code, data = run_to_file(tmp_path, "c.csv", ["curves"])
        assert code == 0
        header, rows = parse_csv(data)
        assert header == HEADER
        assert rows.shape == (501, 7)
        # t = 0 row: full correlations, unit fidelities, negativities 1/2 and 1
        np.testing.assert_allclose(rows[0], [0, 1, 1, 1, 1, 0.5, 1.0], atol=1e-8)
        # dimensionless time axis strictly increasing up to t_max
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert abs(rows[-1, 0] - 5.0) < 1e-12
        # s and F columns stay inside [0, 1]
        assert rows[:, 1:5].min() >= 0.0 and rows[:, 1:5].max() <= 1.0

    def test_qutrit_crossing_between_200_and_202(self, tmp_path):
        _, data = run_to_file(tmp_path, "c.csv", ["curves"])
        _, rows = parse_csv(data)
        i200 = np.argmin(np.abs(rows[:, 0] - 2.00))
        i202 = np.argmin(np.abs(rows[:, 0] - 2.02))
        assert rows[i200, 2] >= 0.25 >= rows[i202, 2]

    def test_no_negative_zero(self, capsys):
        assert main(["curves", "--steps", "10"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        # neg_qubit is 0 from a1*t = 2 on, where the qubit pair is PPT
        assert [line.split(",")[5] for line in lines[5:]] == ["0"] * 7
        assert all(field != "-0" for line in lines[1:] for field in line.split(","))

    def test_byte_identical_reruns(self, tmp_path):
        _, first = run_to_file(tmp_path, "a.csv", ["curves", "--steps", "40"])
        _, second = run_to_file(tmp_path, "b.csv", ["curves", "--steps", "40"])
        assert first == second

    def test_lf_line_endings_and_digits(self, tmp_path):
        _, data = run_to_file(tmp_path, "c.csv", ["curves", "--steps", "20"])
        assert b"\r" not in data
        for token in data.decode().strip().split("\n")[1].split(","):
            float(token)
            assert len(token.replace("-", "").replace(".", "").replace("e", "")) <= 11

    def test_rate_exchange_symmetry(self, tmp_path):
        _, d1 = run_to_file(
            tmp_path, "s1.csv", ["curves", "--a2", "2", "--a3", "1", "--steps", "60"]
        )
        _, d2 = run_to_file(
            tmp_path, "s2.csv", ["curves", "--a2", "1", "--a3", "2", "--steps", "60"]
        )
        _, rows1 = parse_csv(d1)
        _, rows2 = parse_csv(d2)
        np.testing.assert_allclose(rows1[:, 2], rows2[:, 2], atol=1e-12)  # s_qutrit
        np.testing.assert_allclose(rows1[:, 4], rows2[:, 4], atol=1e-12)  # F_qutrit

    def test_dimensionless_axis(self, tmp_path):
        # doubling a1 (with a2, a3 scaled too) leaves curves over a1*t unchanged
        base = ["--steps", "30"]
        _, d1 = run_to_file(tmp_path, "u1.csv", ["curves"] + base)
        _, d2 = run_to_file(
            tmp_path,
            "u2.csv",
            ["curves", "--a1", "2", "--a2", "2", "--a3", "2"] + base,
        )
        _, rows1 = parse_csv(d1)
        _, rows2 = parse_csv(d2)
        np.testing.assert_allclose(rows1, rows2, atol=1e-10)


class TestThreshold:
    def test_default_point(self, capsys):
        assert main(["threshold"]) == 0
        rep = parse_report(capsys.readouterr().out)
        assert abs(float(rep["t_cross_qubit"]) - 1.76274717) < 1e-5
        assert abs(float(rep["t_cross_qutrit"]) - 2.01010508) < 1e-4
        assert abs(float(rep["t_qubit_closed"]) - 1.76274717) < 1e-6
        assert rep["preservation_inequality"] == "true"
        assert rep["qutrit_preserves_longer"] == "true"

    def test_fast_rates_favor_qubit(self, capsys):
        assert main(["threshold", "--a2", "10", "--a3", "10"]) == 0
        rep = parse_report(capsys.readouterr().out)
        assert rep["preservation_inequality"] == "false"
        assert rep["qutrit_preserves_longer"] == "false"
        assert float(rep["t_cross_qutrit"]) < float(rep["t_cross_qubit"])

    def test_below_both_thresholds(self, capsys):
        assert main(["threshold", "--p", "0.2"]) == 0
        rep = parse_report(capsys.readouterr().out)
        assert rep["t_cross_qubit"] == "separable_at_t0"
        assert rep["t_cross_qutrit"] == "separable_at_t0"
        assert rep["preservation_inequality"] == "undefined"
        assert rep["qutrit_preserves_longer"] == "false"


    def test_undamped_arm_never_crosses(self, capsys):
        assert main(["threshold", "--a2", "1e-300"]) == 0
        rep = parse_report(capsys.readouterr().out)
        assert rep["t_cross_qutrit"] == "beyond_2^60"
        assert abs(float(rep["t_cross_qubit"]) - 1.76274717) < 1e-5
        assert rep["qutrit_preserves_longer"] == "true"
        assert main(["curves", "--a2", "1e-300", "--steps", "10"]) == 0
        assert len(capsys.readouterr().out.strip().split("\n")) == 12

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["--a2", "1e70", "--a3", "1e70"], "2.01010508e-70"),
            (["--a1", "1e-100"], "2.01010508e-100"),
            (["--a2", "1e300", "--a3", "1e300"], "2.01010508e-300"),
        ],
    )
    def test_crossing_far_below_the_time_unit(self, capsys, argv, expected):
        # the bisection used to stop after 200 halvings, at 2^-200 = 6.22e-61
        assert main(["threshold", *argv]) == 0
        rep = parse_report(capsys.readouterr().out)
        assert rep["t_cross_qutrit"] == expected
        assert rep["t_cross_qubit"] == "1.76274717"


class TestCompare:
    def test_grid_agreement(self, capsys):
        assert main(["compare"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "a21,a31,t_qubit,t_qutrit,inequality,agree"
        assert len(lines) == 101
        assert all(line.endswith(",true") for line in lines[1:])
        # both verdicts must occur on this grid
        verdicts = {line.split(",")[4] for line in lines[1:]}
        assert verdicts == {"true", "false"}

    def test_requires_entangled_qubit(self, capsys):
        assert main(["compare", "--p", "0.3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_run_config_checks_p(self):
        # validated with the other inputs, before any command runs
        with pytest.raises(ValueError, match=r"compare requires p > 1/3"):
            RunConfig(command="compare", p=1.0 / 3.0)
        assert RunConfig(command="threshold", p=0.3).p == 0.3


class TestHaarCommand:
    def test_report_contents(self, capsys):
        assert main(["haar", "--samples", "4000", "--seed", "9"]) == 0
        rep = parse_report(capsys.readouterr().out)
        assert rep["generator"] == "PCG64"
        assert rep["qubit_samples"] == "2000"
        assert rep["qutrit_samples"] == "4000"
        assert float(rep["qutrit_max_diag_dev"]) < 0.05
        assert float(rep["qubit_max_diag_dev"]) < 0.05
        assert abs(float(rep["qutrit_classical_quantum_ratio"]) - 0.25) < 0.05
        assert abs(float(rep["qubit_classical_quantum_ratio"]) - 1 / 3) < 0.05

    def test_byte_identical_for_fixed_seed(self, tmp_path):
        args = ["haar", "--samples", "2000", "--seed", "3"]
        _, d1 = run_to_file(tmp_path, "h1.txt", args)
        _, d2 = run_to_file(tmp_path, "h2.txt", args)
        assert d1 == d2


class TestValidate:
    def test_default_run_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert lines[-1].startswith("result=pass")
        checks = [l for l in lines if l.startswith("check=")]
        assert len(checks) >= 10
        assert all("pass=true" in l for l in checks)

    def test_seed_variation_keeps_passing(self, capsys):
        assert main(["validate", "--seed", "1234"]) == 0
        assert "result=pass" in capsys.readouterr().out

    def test_corrupted_coefficient_fails(self, capsys, monkeypatch):
        good = channels._kraus_operators
        lam3 = generator_basis(3).generators[2]

        def corrupted(rates, t):
            # flip the sign of the qutrit K0's lambda_3 coefficient
            k0, *jumps = good(rates, t)
            if len(rates) == 2:
                k0 = k0 - np.trace(k0 @ lam3) * lam3
            return (k0, *jumps)

        monkeypatch.setattr(channels, "_kraus_operators", corrupted)
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        line = next(l for l in out.split("\n") if "kraus_completeness_qutrit" in l)
        assert "pass=false" in line
        # sign flip shows up as an O(1) completeness defect
        assert float(line.split("defect=")[1].split()[0]) > 0.1


class TestUsageErrors:
    def test_bad_steps(self, capsys):
        assert main(["curves", "--steps", "1"]) == 2
        assert "steps" in capsys.readouterr().err

    def test_bad_t_max(self, capsys):
        assert main(["curves", "--t-max", "0"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_rate(self, capsys):
        assert main(["curves", "--a2", "-1"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["threshold", "--a1", "nan"],
            ["curves", "--t-max", "inf", "--steps", "5"],
            ["curves", "--a2", "inf", "--steps", "5"],
            ["threshold", "--a3=-inf"],
            ["curves", "--t-max", "nan", "--steps", "5"],
        ],
    )
    def test_non_finite_value(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [["threshold", "--a1", "5e-324"], ["curves", "--a1", "5e-324", "--steps", "5"]],
    )
    def test_a1_too_small_for_the_crossing_search(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: a1 ")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["haar", "validate"])
    def test_negative_seed(self, capsys, command):
        assert main([command, "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err
        assert len(err.strip().splitlines()) == 1

    def test_output_under_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.csv"
        assert main(["curves", "--steps", "4", "--output", str(target)]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:") and "x.csv" in lines[0]
        assert captured.out == "" and not target.parent.exists()

    def test_out_of_memory(self, capsys, monkeypatch):
        # stands in for haar --samples 100000000000, which numpy cannot allocate
        def no_memory(*args):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(analysis, "haar_moment_check", no_memory)
        assert main(["haar", "--samples", "100000000000"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 745. GiB for an array\n"
        assert captured.out == ""

    def test_unresolvable_crossing(self, capsys):
        # the qutrit crossing lies below the smallest subnormal a1*t
        assert main(["threshold", "--a1", "1e-200", "--a2", "1e308", "--a3", "1e308"]) == 2
        captured = capsys.readouterr()
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: crossing not resolved")
        assert captured.out == ""

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_non_numeric_value(self):
        with pytest.raises(SystemExit) as exc:
            main(["curves", "--a1", "fast"])
        assert exc.value.code == 2


def run_cli_process(argv):
    """Run the CLI in a child interpreter, with Python's default warning filters."""
    # the child interpreter imports the same package this test imported
    package_root = str(Path(channels.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "qutrit_se.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_console_entry_point_smoke():
    proc = run_cli_process(["threshold", "--p", "0.9"])
    assert proc.returncode == 0
    assert "t_cross_qutrit=" in proc.stdout


def test_overflowing_decay_exponent_is_silent():
    # a2*t = 1e308 * 5e200 overflows to inf: the arm factor is exp(-inf) = 0,
    # an answer, so numpy must not warn on stderr
    proc = run_cli_process(["curves", "--a1", "1e-200", "--a2", "1e308", "--steps", "4"])
    assert proc.returncode == 0
    assert proc.stderr == ""
    _, rows = parse_csv(proc.stdout.encode())
    assert rows.shape == (5, 7)
    assert np.all(rows[1:, 2] == 0.0)  # s_qutrit: the a2 arm has decayed
