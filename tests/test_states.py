"""Werner states, correlation matrices, and the density validator."""

import numpy as np
import pytest

from qutrit_se.linalg import hermitian_eigenvalues, partial_trace, partial_transpose
from qutrit_se.states import correlation_matrix, max_entangled, validate_density, werner
from qutrit_se.su import bloch_to_density

QUTRIT_SIGNS = np.array([1, -1, 1, 1, -1, 1, -1, 1.0])


class TestMaxEntangled:
    @pytest.mark.parametrize("d", [2, 3])
    def test_is_rank_one_projector(self, d):
        rho = max_entangled(d)
        assert abs(np.trace(rho) - 1) < 1e-14
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_marginals_maximally_mixed(self, d):
        rho = max_entangled(d)
        for side in ("A", "B"):
            np.testing.assert_allclose(
                partial_trace(rho, d, d, side), np.eye(d) / d, atol=1e-14
            )

    def test_qubit_correlation_matrix(self):
        c = correlation_matrix(max_entangled(2), 2)
        np.testing.assert_allclose(c, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_qutrit_correlation_matrix(self):
        c = correlation_matrix(max_entangled(3), 3)
        np.testing.assert_allclose(c, np.diag(QUTRIT_SIGNS) / 2, atol=1e-14)


class TestWerner:
    def test_endpoints(self):
        np.testing.assert_allclose(werner(3, 0.0), np.eye(9) / 9)
        np.testing.assert_allclose(werner(2, 1.0), max_entangled(2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_positive_for_all_p(self, d):
        for p in np.linspace(0, 1, 11):
            eigs = hermitian_eigenvalues(werner(d, p))
            assert eigs[0] >= -1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_marginals_for_all_p(self, d):
        for p in (0.0, 0.3, 0.77, 1.0):
            rho = werner(d, p)
            for side in ("A", "B"):
                np.testing.assert_allclose(
                    partial_trace(rho, d, d, side), np.eye(d) / d, atol=1e-12
                )

    def test_half_mixing_qubit_correlations(self):
        c = correlation_matrix(werner(2, 0.5), 2)
        np.testing.assert_allclose(c, np.diag([0.5, -0.5, 0.5]), atol=1e-14)

    def test_ppt_boundary_eigenvalues(self):
        # partial-transpose minimum: (1-3p)/4 for d=2, (1-4p)/9 for d=3
        for d, p_star in ((2, 1.0 / 3.0), (3, 0.25)):
            eigs = hermitian_eigenvalues(partial_transpose(werner(d, p_star), d, d))
            assert abs(eigs[0]) < 1e-10
        eigs = hermitian_eigenvalues(partial_transpose(werner(3, 1.0), 3, 3))
        assert abs(eigs[0] + 1.0 / 3.0) < 1e-12

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            werner(1, 0.5)  # d = 4 is a valid ququart pair now
        with pytest.raises(ValueError):
            werner(3, 1.2)


def test_correlation_matrix_linear_in_state():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    rho1 = a @ a.conj().T
    rho1 /= np.trace(rho1).real
    rho2 = werner(3, 0.6)
    alpha = 0.37
    mix = alpha * rho1 + (1 - alpha) * rho2
    np.testing.assert_allclose(
        correlation_matrix(mix, 3),
        alpha * correlation_matrix(rho1, 3) + (1 - alpha) * correlation_matrix(rho2, 3),
        atol=1e-12,
    )


def test_correlation_matrix_shape_check():
    with pytest.raises(ValueError):
        correlation_matrix(np.eye(4) / 4, 3)


class TestValidateDensity:
    def test_accepts_states(self):
        assert validate_density(np.eye(3) / 3).passed
        assert validate_density(werner(3, 0.8)).passed
        minus_e8 = np.zeros(8)
        minus_e8[7] = -1.0
        assert validate_density(bloch_to_density(minus_e8)).passed

    def test_flags_negative_eigenvalue(self):
        # Bloch vector outside the ball: rho = diag(1.1, -0.1)
        report = validate_density(bloch_to_density(np.array([0, 0, 1.2])))
        assert not report.passed
        assert abs(report.min_eigenvalue + 0.1) < 1e-12
        assert report.hermiticity_defect < 1e-14
        assert report.trace_defect < 1e-14

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_entry_is_reported_not_raised(self, bad):
        for rho in (np.full((3, 3), bad), np.eye(2) / 2 + np.array([[0, bad], [bad, 0]])):
            report = validate_density(rho)
            assert not report.passed
            assert np.isnan([report.hermiticity_defect, report.trace_defect,
                             report.min_eigenvalue]).all()

    def test_flags_non_hermitian_and_bad_trace(self):
        report = validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))
        assert report.hermiticity_defect > 0.1
        assert not report.passed
        report = validate_density(np.eye(2))
        assert report.trace_defect > 0.5
        assert not report.passed
