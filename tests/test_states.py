"""Werner states and correlation matrices."""

import numpy as np
import pytest

from qutrit_se import states
from qutrit_se.analysis import fidelity_from_state, negativity, s_from_state
from qutrit_se.channels import lift
from qutrit_se.linalg import hermitian_eigenvalues, partial_transpose
from qutrit_se.states import correlation_matrix, max_entangled, werner

QUTRIT_SIGNS = np.array([1, -1, 1, 1, -1, 1, -1, 1.0])


class TestMaxEntangled:
    @pytest.mark.parametrize("d", [2, 3])
    def test_is_rank_one_projector(self, d):
        rho = max_entangled(d)
        assert abs(np.trace(rho) - 1) < 1e-14
        np.testing.assert_allclose(rho @ rho, rho, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_marginals_maximally_mixed(self, d):
        t = max_entangled(d).reshape(d, d, d, d)
        # the reduced states on A (B traced out) and on B (A traced out)
        for reduced in (np.einsum("abcb->ac", t), np.einsum("abad->bd", t)):
            np.testing.assert_allclose(reduced, np.eye(d) / d, atol=1e-14)

    def test_qubit_correlation_matrix(self):
        c = correlation_matrix(max_entangled(2))
        np.testing.assert_allclose(c, np.diag([1.0, -1.0, 1.0]), atol=1e-14)

    def test_qutrit_correlation_matrix(self):
        c = correlation_matrix(max_entangled(3))
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
            t = werner(d, p).reshape(d, d, d, d)
            for reduced in (np.einsum("abcb->ac", t), np.einsum("abad->bd", t)):
                np.testing.assert_allclose(reduced, np.eye(d) / d, atol=1e-12)

    def test_half_mixing_qubit_correlations(self):
        c = correlation_matrix(werner(2, 0.5))
        np.testing.assert_allclose(c, np.diag([0.5, -0.5, 0.5]), atol=1e-14)

    def test_ppt_boundary_eigenvalues(self):
        # partial-transpose minimum: (1-3p)/4 for d=2, (1-4p)/9 for d=3
        for d, p_star in ((2, 1.0 / 3.0), (3, 0.25)):
            eigs = hermitian_eigenvalues(partial_transpose(werner(d, p_star)))
            assert abs(eigs[0]) < 1e-10
        eigs = hermitian_eigenvalues(partial_transpose(werner(3, 1.0)))
        assert abs(eigs[0] + 1.0 / 3.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_has_the_bits_of_each_state(self, d):
        weights = np.r_[0.0, np.random.default_rng(d).uniform(0.0, 1.0, 9), 1.0]
        stack = states._werner(d, weights[:, None, None])
        assert stack.shape == (len(weights), d * d, d * d)
        for member, p in zip(stack, weights):
            assert member.tobytes() == werner(d, float(p)).tobytes()

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
        correlation_matrix(mix),
        alpha * correlation_matrix(rho1) + (1 - alpha) * correlation_matrix(rho2),
        atol=1e-12,
    )


@pytest.mark.parametrize("shape", [(1, 1), (5, 5), (6, 6), (2, 9, 9)],
                         ids=["1x1", "5x5", "6x6", "stack-of-9x9"])
def test_one_two_qudit_shape_rule(shape):
    # d is read off a (d^2, d^2) shape by one rule in linalg: every reader of a
    # two-qudit state, the partial transpose and lift's superoperator give its
    # one message; the partial transpose and lift take stacks, the readers do not
    operands = [correlation_matrix, s_from_state, fidelity_from_state]
    if len(shape) == 2:
        operands += [partial_transpose, negativity, lambda sup: lift(np.eye(4) / 4, sup, 0.5)]
    messages = set()
    for take in operands:
        with pytest.raises(ValueError) as err:
            take(np.ones(shape) / shape[-1])
        messages.add(str(err.value))
    assert messages == {f"expected a two-qudit shape (d^2, d^2) with d >= 2, got {shape}"}
