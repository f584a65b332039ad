"""Bipartite reference states.

Werner states of two d-level systems (any d >= 2; the channels use two
qubits and two qutrits) interpolate between the maximally mixed state and
the maximally entangled one,

    rho_W = (1 - p)/d^2 I + p |Psi><Psi|,   |Psi> = d^{-1/2} sum_i |ii>.

Correlation matrices use the Bloch normalization of this package,
C_ij = c^2 Tr[rho (g_i (x) g_j)] with c the Bloch scale of ``su`` and
c^2 = d/(2(d-1)): C_ij = Tr[rho (sigma_i (x) sigma_j)] for qubits and
C_ij = (3/4) Tr[rho (lambda_i (x) lambda_j)] for qutrits, so the maximally
entangled state gives C = diag(s)/(d-1) with s_i = -1 on the antisymmetric
generators and +1 elsewhere: (1,-1,1) resp. (1,-1,1,1,-1,1,-1,1).
"""

from __future__ import annotations

import numpy as np

from .linalg import _pair_dim
from .su import _check_dim, generator_basis

__all__ = [
    "max_entangled",
    "werner",
    "correlation_matrix",
]


def max_entangled(d: int) -> np.ndarray:
    """Projector onto d^{-1/2} sum_i |ii>, shape (d^2, d^2)."""
    _check_dim(d)
    psi = np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)
    return np.outer(psi, psi.conj())


def _check_weight(p: float) -> None:
    # the one check of a Werner weight, for werner and the closed forms alike
    if not 0.0 <= p <= 1.0:  # NaN fails too
        raise ValueError(f"Werner weight p={p} outside [0, 1]")


def werner(d: int, p: float) -> np.ndarray:
    """Werner state: (1-p)/d^2 identity plus p times the entangled projector."""
    _check_weight(p)
    return _werner(d, p)


def _werner(d: int, p) -> np.ndarray:
    # werner's expression for a checked weight, or a stack of Werner states for
    # an array of weights shaped (..., 1, 1), with the bits of each single state;
    # the projector first, so that an unsupported d fails before d**2 is used
    return p * max_entangled(d) + (1.0 - p) / d**2 * np.eye(d * d, dtype=complex)


def correlation_matrix(rho: np.ndarray) -> np.ndarray:
    """Generator-generator correlation matrix of a two-qudit state (d^2, d^2)."""
    rho = np.asarray(rho, dtype=complex)
    d = _pair_dim(rho.shape)
    g = generator_basis(d).generators
    t = rho.reshape(d, d, d, d)
    # Tr[rho (g_a (x) g_b)] with A as the slow index
    c = np.einsum("ikjl,aji,blk->ab", t, g, g)
    return d / (2 * (d - 1)) * c.real
