"""Command-line behavior: CSV format, reports, self-checks, exit codes."""

import argparse
import io
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qutrit_se import analysis, channels, cli, states, su
from qutrit_se.channels import ChannelParams
from qutrit_se.cli import build_parser, main
from qutrit_se.linalg import random_density_matrix
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

    @pytest.mark.parametrize(
        "options",
        [
            {},
            {"q": 0.0, "steps": 70},
            {"q": 1.0, "p": 0.6, "a2": 3.0, "steps": 65},
            {"a1": 0.3, "a3": 7.5, "t_max": 30.0, "steps": 9},
            {"a1": 1e-200, "a2": 1e308, "steps": 4},
        ],
    )
    def test_rows_render_as_fmt_values(self, capsys, options):
        argv = ["curves"]
        for key, value in options.items():
            argv += [f"--{key.replace('_', '-')}", repr(value)]
        assert main(argv) == 0
        args = build_parser().parse_args(argv)
        params = ChannelParams(a1=args.a1, a2=args.a2, a3=args.a3, q=args.q)
        rows = analysis.separability_report(args.p, params, t_max=args.t_max, steps=args.steps)
        lines = [",".join(cli._fmt(x) for x in row) for row in rows]
        assert capsys.readouterr().out == "\n".join([HEADER, *lines]) + "\n"

    def test_block_writer_matches_a_per_row_writer(self, capsys, monkeypatch):
        # blocks of GRID_CHUNK rows: 2 GRID_CHUNK + 3 rows cross two block boundaries
        values = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e300, 0.1 + 0.2])
        rows = np.resize(values, (2 * analysis.GRID_CHUNK + 3, 7))
        monkeypatch.setattr(analysis, "separability_report", lambda *args, **kwargs: rows)
        assert main(["curves"]) == 0
        per_row = "".join(",".join("%.9g" % x for x in row) + "\n" for row in rows.tolist())
        assert capsys.readouterr().out == HEADER + "\n" + per_row

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

    def test_runs_no_crossing_search(self, capsys, monkeypatch):
        # curves prints no crossing time, so it must not search for one
        def no_search(*args, **kwargs):
            raise ValueError("crossing search called")

        monkeypatch.setattr(analysis, "crossing_time", no_search)
        assert main(["curves", "--steps", "4"]) == 0
        assert capsys.readouterr().err == ""
        # threshold does search, through the same module attribute
        assert main(["threshold"]) == 2
        assert capsys.readouterr().err == "error: crossing search called\n"

    def test_overflowing_time_keeps_a_slow_arm(self, capsys):
        # a1*t = 1e120 at a1 = 1e-200 is t = 1e320, past the largest float, yet
        # a2*t = (a2/a1)(a1*t) is only 4.9e-4: s_qutrit is 0.374876506, not 0
        argv = ["curves", "--a1", "1e-200", "--a2", "5e-324", "--t-max", "1e120", "--steps", "2"]
        assert main(argv) == 0
        last = capsys.readouterr().out.strip().split("\n")[-1].split(",")
        expected = analysis.indicator_closed(1.0, (5e-324 / 1e-200, 1e200), 1e120)
        assert abs(float(last[2]) - expected) <= 1e-8


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

    def test_crossing_near_zero_keeps_nine_digits(self, capsys):
        # just above p = 1/3 the qubit crossing is a1*t = 2.49e-4; the relative
        # bracket keeps its 9 digits where an absolute residual would not
        assert main(["threshold", "--p", "0.3333886963016026"]) == 0
        rep = parse_report(capsys.readouterr().out)
        assert rep["t_cross_qubit"] == rep["t_qubit_closed"] == "0.000249115256"

    @pytest.mark.parametrize(
        "p, qubit, qutrit",
        [("0.3333333333333333", "separable_at_t0", "0.389900353"),
         ("0.25", "separable_at_t0", "separable_at_t0")],
    )
    def test_start_at_the_threshold_is_separable(self, capsys, p, qubit, qutrit):
        # s_d(0) = p = 1/(d+1) certifies nothing, so there is no crossing to find
        assert main(["threshold", "--p", p]) == 0
        rep = parse_report(capsys.readouterr().out)
        assert rep["t_cross_qubit"] == qubit and rep["t_cross_qutrit"] == qutrit
        assert rep["t_qubit_closed"] == "separable_at_t0"
        assert rep["qutrit_preserves_longer"] == str(qutrit != "separable_at_t0").lower()

    def test_undamped_arm_never_crosses(self, capsys):
        # a zero rate is an undamped arm, as is a rate too small to act
        for arm in (["--a2", "1e-300"], ["--a2", "0"], ["--a3", "0"]):
            assert main(["threshold", *arm]) == 0
            rep = parse_report(capsys.readouterr().out)
            assert rep["t_cross_qutrit"] == "beyond_2^60"
            assert abs(float(rep["t_cross_qubit"]) - 1.76274717) < 1e-5
            assert rep["qutrit_preserves_longer"] == "true"
            assert main(["curves", *arm, "--steps", "10"]) == 0
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

    def test_agree_column_reads_the_one_crossing_rule(self, capsys, monkeypatch):
        # one qubit search and one lane search for the 100 cells, and one rule
        # for "no earlier"; each lane has the bits of its own single search
        rule, crossing = analysis.qutrit_crosses_no_earlier, analysis.indicator_crossing
        calls, searches = [], []

        def recorded_rule(cross_qb, cross_qt):
            calls.append((cross_qb, cross_qt))
            return rule(cross_qb, cross_qt)

        def recorded_crossing(p, rates, a1=1.0):
            searches.append((p, rates, a1))
            return crossing(p, rates, a1)

        monkeypatch.setattr(analysis, "qutrit_crosses_no_earlier", recorded_rule)
        monkeypatch.setattr(analysis, "indicator_crossing", recorded_crossing)
        assert main(["compare", "--p", "0.7"]) == 0
        rows = [line.split(",") for line in capsys.readouterr().out.split("\n")[1:-1]]
        grid = np.linspace(0.2, 5.0, 10)
        pairs = [(a21, a31) for a21 in grid for a31 in grid]
        (p_qb, qubit, a1_qb), (p_qt, lanes, a1_qt) = searches
        assert (p_qb, qubit, a1_qb) == (0.7, (1.0,), 1.0)
        assert (p_qt, a1_qt) == (0.7, 1.0) and np.array_equal(np.transpose(lanes), pairs)
        assert [(cli._fmt(qb), cli._fmt(qt)) for qb, qt in calls] == [
            (row[2], row[3]) for row in rows
        ]
        assert [row[:2] for row in rows] == [[cli._fmt(a21), cli._fmt(a31)] for a21, a31 in pairs]
        assert [row[3] for row in rows] == [cli._fmt(crossing(0.7, pair)) for pair in pairs]

    def test_checks_p_before_any_crossing_search(self, capsys, monkeypatch):
        # the weight, then the closed forms' domain, and only then the searches
        def no_search(*args, **kwargs):
            raise ValueError("crossing search called")

        monkeypatch.setattr(analysis, "crossing_time", no_search)
        for p, err in (
            ("1.5", "Werner weight p=1.5 outside [0, 1]"),
            ("nan", "Werner weight p=nan outside [0, 1]"),
            ("0.3", "qubit closed forms require 1/3 < p <= 1, got p=0.3"),
            (repr(1.0 / 3.0), "qubit closed forms require 1/3 < p <= 1, got p=0.3333333333333333"),
            ("1.0", "crossing search called"),
        ):
            assert main(["compare", "--p", p]) == 2
            assert capsys.readouterr() == ("", f"error: {err}\n")

    def test_requires_entangled_qubit(self, capsys):
        assert main(["compare", "--p", "0.3"]) == 2
        assert "error" in capsys.readouterr().err

    def test_closed_forms_check_p(self, capsys):
        # compare's qubit closed forms reject p = 1/3; threshold answers there
        assert main(["compare", "--p", repr(1.0 / 3.0)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: qubit closed forms require 1/3 < p <= 1, got p=0.3333333333333333\n"
        )
        assert captured.out == ""
        assert main(["threshold", "--p", "0.3"]) == 0
        assert "preservation_inequality=undefined" in capsys.readouterr().out


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


def loop_validate_checks(seed):
    """Reference: validate's checks one state and one draw at a time, each through
    the public single-state calls, with a Haar draw of its own for every check."""
    rng = np.random.default_rng(seed)
    rate_pairs = ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0))
    times = (0.0, 0.1, 1.0, 10.0)

    for d, name in cli._SPECIES:
        kraus = (channels.se_kraus(rates[: d - 1], times) for rates in rate_pairs)
        yield f"kraus_completeness_{name}", max(map(channels.completeness_defect, kraus)), 1e-12

    par = ChannelParams(a2=1.0, a3=0.7)
    defect = 0.0
    for _ in range(5):
        rho = random_density_matrix(3, rng)
        n0 = su.density_to_bloch(rho)
        for t in (0.3, 1.0, 2.5):
            at = par.with_time(t)
            via_kraus = channels.apply_kraus(rho, channels.se_kraus_qutrit(at))
            via_affine = su.bloch_to_density(channels.se_affine_map(at).apply(n0))
            defect = max(defect, float(np.max(np.abs(via_kraus - via_affine))))
    yield "kraus_vs_affine", defect, 1e-10

    defect = 0.0
    for _ in range(2):
        rho = random_density_matrix(3, rng)
        at = par.with_time(0.7)
        via_kraus = channels.apply_kraus(rho, channels.se_kraus_qutrit(at))
        via_ode = channels.lindblad_evolve(rho, at, steps=700)
        defect = max(defect, float(np.max(np.abs(via_kraus - via_ode))))
    yield "kraus_vs_lindblad", defect, 1e-6

    defect = 0.0
    for d in (2, 3):
        for _ in range(20):
            rho = random_density_matrix(d, rng)
            back = su.bloch_to_density(su.density_to_bloch(rho))
            defect = max(defect, float(np.max(np.abs(back - rho))))
    yield "bloch_round_trip", defect, 1e-12

    defects = [0.0]
    for n in analysis.haar_bloch_vectors(3, 200, seed):
        defects.append(abs(n @ n - 1.0))
        defects.append(float(np.max(np.abs(su.star_product(n, n) - n))))
    yield "pure_state_conditions", float(np.max(defects)), 1e-10

    for d, name in cli._SPECIES:
        yield f"ppt_threshold_{name}", abs(analysis.ppt_threshold(d) - 1.0 / (d + 1)), 1e-4
    for d, name in cli._SPECIES:
        m = analysis.haar_moment_check(d, 20_000, seed)
        defect = float(np.max(np.abs(m - np.eye(d * d - 1) / (d * d - 1))))
        yield f"haar_moments_{name}", defect, 0.02

    par = ChannelParams(a2=1.3, a3=0.4)
    m_a = channels.se_affine_map(par.with_time(0.6))
    m_b = channels.se_affine_map(par.with_time(1.1))
    m_ab = channels.se_affine_map(par.with_time(1.7))
    defect = max(
        float(np.max(np.abs(m_b.damping @ m_a.damping - m_ab.damping))),
        float(np.max(np.abs(m_b.damping @ m_a.shift + m_b.shift - m_ab.shift))),
    )
    yield "affine_semigroup", defect, 1e-12

    at = ChannelParams(t=1.0)
    sup = channels.superoperator(channels.se_kraus_qutrit(at))
    rho3 = channels.lift(states.werner(3, 1.0), sup, 0.5)
    closed = analysis.fidelity_closed(at.rates(3), at.t)
    defect = abs(analysis.fidelity_from_state(rho3) - closed)
    yield "fidelity_closed_vs_state", defect, 1e-10

    t_closed = analysis.qubit_crossing_closed(1.0)
    t_bisect = analysis.indicator_crossing(1.0, (1.0,))
    yield "qubit_crossing_closed_vs_bisection", abs(t_closed - t_bisect), 1e-11


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

    @pytest.mark.parametrize("seed", range(41))
    def test_stacked_checks_keep_every_defect_bit(self, seed):
        # stacked states and one Haar stream against the loop, defect for defect
        def bits(checks):
            return [(name, float(defect).hex(), tol) for name, defect, tol in checks]

        assert bits(cli._validate_checks(seed)) == bits(loop_validate_checks(seed))

    def test_corrupted_coefficient_fails(self, capsys, monkeypatch):
        good = channels._kraus_operators
        lam3 = generator_basis(3).generators[2]

        def corrupted(rates, t):
            # flip the sign of the qutrit K0's lambda_3 coefficient
            ops = good(rates, t)
            if len(rates) == 2:
                ops[0] -= np.trace(ops[0] @ lam3) * lam3
            return ops

        monkeypatch.setattr(channels, "_kraus_operators", corrupted)
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        line = next(l for l in out.split("\n") if "kraus_completeness_qutrit" in l)
        assert "pass=false" in line
        # sign flip shows up as an O(1) completeness defect
        assert float(line.split("defect=")[1].split()[0]) > 0.1

    @pytest.mark.parametrize("size, index, value", [
        pytest.param(8, 0, 0.0, id="zero"),
        pytest.param(8, 7, 1.0, id="e8"),  # |n| = 1 but n * n = -n
        pytest.param(15, 14, 1.0, id="d4-e15"),
        pytest.param(8, 7, np.nan, id="nan"),
    ])
    def test_pure_state_check_rejects_impure_vectors(self, capsys, monkeypatch, size, index, value):
        # validate's pure_state_conditions is the one owner of the pure-state rule
        n = np.zeros(size)
        n[index] = value
        heads = analysis._haar_heads

        def draws(seed, shapes):
            # the check's 200 draws; the moment checks keep theirs
            vectors = heads(seed, shapes)
            return [np.array([n]) if s == 200 else v for (_, s), v in zip(shapes, vectors)]

        monkeypatch.setattr(analysis, "_haar_heads", draws)
        assert main(["validate"]) == 1
        out = capsys.readouterr().out
        line = next(l for l in out.split("\n") if "pure_state_conditions" in l)
        assert line.endswith("pass=false")


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
            ["threshold", "--p", "1.5"],
            ["curves", "--p", "nan", "--steps", "5"],
            ["compare", "--p", "0.3333333333333333"],
            ["curves", "--t-max", "0"],
            ["curves", "--steps", "1"],
            ["threshold", "--a2", "-1"],
            ["curves", "--q", "1.5", "--steps", "5"],
            ["threshold", "--a1", "0"],
            ["curves", "--a1", "0", "--steps", "5"],
            ["haar", "--samples", "99"],
            ["validate", "--seed", "-1"],
        ],
    )
    def test_one_line_error(self, capsys, argv):
        # one bad input per rule, whichever function owns the rule
        assert main(argv) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
        assert captured.out == ""

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
        # any a1 > 0 is a time unit, but at a1 = 5e-324 the qutrit crossing,
        # a1*t = 1e-323, is closer to 0 than bisection resolves; curves runs no search
        code = main(argv)
        captured = capsys.readouterr()
        if argv[0] == "threshold":
            lines = captured.err.strip().splitlines()
            assert code == 2 and captured.out == ""
            assert len(lines) == 1 and lines[0].startswith("error: crossing not resolved")
        else:
            assert code == 0 and captured.err == ""
            assert captured.out.splitlines()[2].startswith("1,0.526980254,")

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

        monkeypatch.setattr(analysis, "_haar_pair_moments", no_memory)
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


def outcome(argv, capsys):
    """(exit code, stdout, stderr) of one in-process ``main`` call."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def two_level_parse(parser, argv):
    return parser.parse_args(argv)


COMMANDS = ["curves", "threshold", "compare", "haar", "validate"]
OPTION_NAMES = ["--a1", "--a2", "--a3", "--p", "--q", "--t-max", "--steps", "--samples", "--seed"]
OPTION_NAMES += ["--output", "--help", "-h"]
ABBREVIATIONS = ["--a", "--t", "--t-m", "--s", "--st", "--sa", "--se", "--o", "--out", "--he"]
VALUE_TOKENS = ["0.7", "3", "4", "-1", "1e308", "nan", "abc", ""]
JUNK = ["extra", "frobnicate", "--bogus", "-x", "-p", "-", "--", ""]


@st.composite
def command_lines(draw):
    # argv from command names, option names and abbreviations, --name=value
    # forms and junk, often but not always led by a command
    options = st.sampled_from(OPTION_NAMES + ABBREVIATIONS)
    token = st.one_of(
        st.sampled_from(COMMANDS + VALUE_TOKENS + JUNK),
        options,
        st.builds("{}={}".format, options, st.sampled_from(VALUE_TOKENS)),
    )
    head = draw(st.one_of(st.sampled_from(COMMANDS), token).map(lambda t: [t]) | st.just([]))
    return head + draw(st.lists(token, max_size=6))


def run_in(directory, argv):
    """(exit code, stdout, stderr, files written) of one ``main`` call run in ``directory``."""
    out, err, cwd = io.StringIO(), io.StringIO(), os.getcwd()
    os.chdir(directory)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        written = {}
        for name in os.listdir():
            with open(name) as fh:
                written[name] = fh.read()
            os.remove(name)
    finally:
        os.chdir(cwd)
    return code, out.getvalue(), err.getvalue(), written


class TestSharedParser:
    # usage errors, help and answers in one process, all through one parser
    SEQUENCE = [
        ["curves", "--steps", "abc"],
        ["threshold", "--p", "2"],
        ["--help"],
        ["curves", "--help"],
        ["threshold", "--p", "0.7", "--a1", "1.3", "--a2", "0.4", "--a3", "2.7"],
        ["compare", "--p", "0.55"],
        ["curves", "--steps", "60", "--q", "0.37"],
        ["threshold", "--p", "0.7", "extra"],
        ["threshold", "--bogus", "1"],
        ["curves", "--t-m", "3", "--steps", "4"],
        ["curves", "--steps=4"],
        ["threshold", "--p", "0.6", "--p", "0.7"],
        ["threshold", "--p"],
        ["frobnicate"],
        [],
    ]

    def test_built_once(self, monkeypatch):
        assert build_parser() is build_parser()
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert main(["threshold"]) == 0
        assert main(["threshold"]) == 0
        assert built == []
        # the counter sees every parser a build makes: the top level and five commands
        build_parser.__wrapped__()
        assert len(built) == 6

    def test_carries_no_state_between_calls(self, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        build_parser()
        shared = [outcome(argv, capsys) for argv in self.SEQUENCE]
        # fresh: a new parser per call, and the full two-level parse of every argv
        monkeypatch.setattr(cli, "build_parser", build_parser.__wrapped__)
        monkeypatch.setattr(cli, "_parse_args", two_level_parse)
        fresh = [outcome(argv, capsys) for argv in self.SEQUENCE]
        assert [code for code, _, _ in shared] == [2, 2, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 2, 2, 2]
        assert shared[1][2].startswith("error:")
        assert shared == fresh

    @settings(max_examples=300, deadline=None)
    @given(argv=command_lines())
    def test_one_level_parse_is_the_two_level_one(self, argv):
        # every handler prints its namespace, so the property is about the parse
        # alone; a run's --output file, if any, is read back into its outcome
        def namespace(args, out):
            out.write(f"{sorted(vars(args).items())}\n")
            return 0

        handlers = {f"run_{command}": namespace for command in COMMANDS}
        with mock.patch.multiple(cli, **handlers), tempfile.TemporaryDirectory() as tmp:
            one_level = run_in(tmp, argv)
            with mock.patch.object(cli, "_parse_args", two_level_parse):
                two_level = run_in(tmp, argv)
        assert one_level == two_level

    def test_help_wraps_to_columns_at_call_time(self, capsys, monkeypatch):
        texts = []
        for columns in ("40", "200", "40"):
            monkeypatch.setenv("COLUMNS", columns)
            texts.append(outcome(["curves", "--help"], capsys))
        assert texts[0] != texts[1]
        assert texts[2] == texts[0]


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
    # a2*t = 1e308 * 5e200, or t = 1e308 / 0.5, overflows to inf: the arm
    # factor is exp(-inf) = 0, an answer, so numpy must not warn on stderr
    for argv in (
        ["curves", "--a1", "1e-200", "--a2", "1e308", "--steps", "4"],
        ["curves", "--t-max", "1e308", "--a1", "0.5", "--steps", "4"],
    ):
        proc = run_cli_process(argv)
        assert proc.returncode == 0
        assert proc.stderr == ""
        _, rows = parse_csv(proc.stdout.encode())
        assert rows.shape == (5, 7)
        assert np.all(rows[1:, 2] == 0.0)  # s_qutrit: the decaying arms are gone


def test_jacobi_rotation_overflow_is_silent(capsys):
    # late in this grid a partial-transpose pivot is tiny against its diagonal
    # gap, so theta^2 in the Jacobi rotation overflows; t = 1/inf = 0 is the
    # exact limit, and no RuntimeWarning (an error under pytest) may escape
    argv = ["curves", "--a2", "0.001", "--a3", "12", "--q", "0.15"]
    assert main(argv + ["--steps", "50", "--t-max", "70"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    _, rows = parse_csv(captured.out.encode())
    assert rows.shape == (51, 7) and rows[:, 5:].min() >= 0.0
