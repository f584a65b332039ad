"""Bipartite reference states and their diagnostics.

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

import math
from dataclasses import dataclass

import numpy as np

from .linalg import dagger, hermitian_eigenvalues
from .su import generator_basis

__all__ = [
    "max_entangled",
    "werner",
    "correlation_matrix",
    "ValidationReport",
    "validate_density",
]


def max_entangled(d: int) -> np.ndarray:
    """Projector onto d^{-1/2} sum_i |ii>, shape (d^2, d^2)."""
    generator_basis(d)  # rejects an unsupported d
    psi = np.eye(d, dtype=complex).reshape(d * d) / np.sqrt(d)
    return np.outer(psi, psi.conj())


def werner(d: int, p: float) -> np.ndarray:
    """Werner state: (1-p)/d^2 identity plus p times the entangled projector."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter p={p} outside [0, 1]")
    # the projector first, so that an unsupported d fails before d**2 is used
    return p * max_entangled(d) + (1.0 - p) / d**2 * np.eye(d * d, dtype=complex)


def correlation_matrix(rho: np.ndarray, d: int) -> np.ndarray:
    """Generator-generator correlation matrix of a two-qudit state."""
    g = generator_basis(d).generators
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d * d, d * d):
        raise ValueError(f"expected shape {(d * d, d * d)}, got {rho.shape}")
    t = rho.reshape(d, d, d, d)
    # Tr[rho (g_a (x) g_b)] with A as the slow index
    c = np.einsum("ikjl,aji,blk->ab", t, g, g)
    return d / (2 * (d - 1)) * c.real


@dataclass(frozen=True)
class ValidationReport:
    """Measured density-matrix defects (all NaN for a non-finite entry); never raises."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_defect <= 1e-10
            and self.trace_defect <= 1e-10
            and self.min_eigenvalue >= -1e-10
        )


def validate_density(rho: np.ndarray) -> ValidationReport:
    """Hermiticity, trace and positivity certificate for a candidate state."""
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        return ValidationReport(math.nan, math.nan, math.nan)
    herm = float(np.max(np.abs(rho - dagger(rho))))
    tr = float(abs(np.trace(rho) - 1.0))
    # eigensolve the Hermitian part so the report stays total
    eigs = hermitian_eigenvalues((rho + dagger(rho)) / 2.0)
    return ValidationReport(
        hermiticity_defect=herm, trace_defect=tr, min_eigenvalue=float(eigs[0])
    )
