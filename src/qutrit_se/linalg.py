"""Dense complex linear algebra for small bipartite systems.

Everything here works on plain ``numpy`` arrays (complex128) and is sized for
the matrices this package actually meets: 2x2 ... 9x9. The eigensolver is a
self-contained cyclic Jacobi iteration so that positivity certificates
(partial-transpose spectra, density-matrix validation) do not depend on the
same code paths as the channel constructions they are meant to check.

``hermitian_eigenvalues``, ``partial_transpose``, ``partial_trace`` and
``dagger`` also take stacks (..., n, n) and act on each matrix, so a whole
time grid of states is diagonalised by one Jacobi sweep loop. ``kron`` takes
two matrices (2-D inputs only); ``channels`` builds the Lindblad generator's
superoperator with it.

Index convention for bipartite operators: subsystem A is the slow (outer)
index, i.e. a matrix on A (x) B has row index i*dB + k for A-index i and
B-index k.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NonHermitianError",
    "NoConvergenceError",
    "dagger",
    "kron",
    "hermitian_eigenvalues",
    "partial_transpose",
    "partial_trace",
    "random_density_matrix",
]

HERMITICITY_TOL = 1e-10


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergenceError(RuntimeError):
    """Jacobi sweep limit reached before the off-diagonal norm target."""


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def _square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices with A as the slow (outer) factor.

    Both inputs must be 2-D (raises ValueError otherwise). The result is the
    broadcast product a[i, j] b[k, l] at row i*p + k and column j*q + l for
    b of shape (p, q): the same complex multiplications as numpy's kron, so
    the same bits, without its general n-d bookkeeping.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError(f"kron takes two matrices, got shapes {a.shape} and {b.shape}")
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


def hermitian_eigenvalues(a: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending, by cyclic Jacobi.

    Unitary 2x2 rotations (with the phase of the pivot entry absorbed) are
    applied in row-cyclic order until every off-diagonal magnitude is <= tol.
    A pivot below 1e-300 in magnitude is skipped.

    ``a`` may be one (n, n) matrix, giving shape (n,), or a stack
    (..., n, n), giving (..., n). A stack runs one sweep loop over all its
    members (Golub & Van Loan, Matrix Computations, sec. 8.5): each member
    sees the rotation sequence it would see alone, and a member that has
    converged, or whose pivot is skipped, gets the identity rotation
    (c = 1, s = 0), so its eigenvalues match a call on that member alone.

    Raises
    ------
    NonHermitianError
        if max|a - a^dag| > 1e-10 for any member, or is not finite.
    NoConvergenceError
        if any member misses the target after 100 full sweeps.
    """
    a = _square(a)
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
        defect = np.max(np.abs(a - dagger(a))) if a.size else 0.0
    if not defect <= HERMITICITY_TOL:
        raise NonHermitianError(f"matrix deviates from Hermitian by {defect:.3e}")
    n = a.shape[-1]
    # symmetrize to kill roundoff drift (also copies); one batch axis
    m = ((a + dagger(a)) / 2.0).reshape((math.prod(a.shape[:-2]), n, n))
    diag = np.arange(n)

    for _ in range(100):
        off = np.abs(m)
        off[:, diag, diag] = 0.0
        todo = np.flatnonzero(off.max(axis=(1, 2), initial=0.0) > tol)
        if todo.size == 0:
            break
        m[todo] = _jacobi_sweep(m[todo])
    else:
        raise NoConvergenceError("off-diagonal norm not below tol after 100 sweeps")
    return np.sort(m[:, diag, diag].real, axis=-1).reshape(a.shape[:-1])


def _jacobi_sweep(m: np.ndarray) -> np.ndarray:
    """One row-cyclic sweep of Jacobi rotations over a (B, n, n) stack, in place."""
    n = m.shape[-1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            if not np.count_nonzero(m[:, p, q]):
                continue  # cheap exit for the many zeros of sparse inputs
            # hypot rounds like the scalar |z|; np.abs on complex arrays does not
            r = np.hypot(m[:, p, q].real, m[:, p, q].imag)
            rotate = r >= 1e-300
            r = np.where(rotate, r, 1.0)
            phase = m[:, p, q] / r
            theta = (m[:, q, q].real - m[:, p, p].real) / (2.0 * r)
            sgn = np.where(theta >= 0.0, 1.0, -1.0)
            t = sgn / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = np.where(rotate, t * c, 0.0)[:, None]
            c = np.where(rotate, c, 1.0)[:, None]
            s_phase = s * phase[:, None]
            s_conj = s * np.conj(phase)[:, None]
            # m <- U^dag m U with U[p,p]=c, U[p,q]=s*phase,
            # U[q,p]=-s*conj(phase), U[q,q]=c
            col_p = m[:, :, p].copy()
            col_q = m[:, :, q].copy()
            m[:, :, p] = c * col_p - s_conj * col_q
            m[:, :, q] = s_phase * col_p + c * col_q
            row_p = m[:, p, :].copy()
            row_q = m[:, q, :].copy()
            m[:, p, :] = c * row_p - s_phase * row_q
            m[:, q, :] = s_conj * row_p + c * row_q
            m[:, p, q] = np.where(rotate, 0.0, m[:, p, q])
            m[:, q, p] = np.where(rotate, 0.0, m[:, q, p])
            m[:, p, p] = m[:, p, p].real
            m[:, q, q] = m[:, q, q].real
    return m


def _bipartite_tensor(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    rho = _square(rho)
    if dim_a < 1 or dim_b < 1:
        raise ValueError("subsystem dimensions must be positive")
    if rho.shape[-1] != dim_a * dim_b:
        raise ValueError(
            f"matrix of shape {rho.shape} does not factor as {dim_a}x{dim_b}"
        )
    return rho.reshape(rho.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))


def partial_transpose(
    rho: np.ndarray, dim_a: int, dim_b: int, side: str = "B"
) -> np.ndarray:
    """Transpose one subsystem of a bipartite operator, or of each in a stack.

    The spectrum of the result is independent of ``side``.
    """
    t = _bipartite_tensor(rho, dim_a, dim_b)
    if side == "A":
        t = t.swapaxes(-4, -2)
    elif side == "B":
        t = t.swapaxes(-3, -1)
    else:
        raise ValueError(f"side must be 'A' or 'B', got {side!r}")
    return t.reshape(t.shape[:-4] + (dim_a * dim_b, dim_a * dim_b))


def partial_trace(
    rho: np.ndarray, dim_a: int, dim_b: int, side: str = "B"
) -> np.ndarray:
    """Trace out one subsystem; ``side`` names the subsystem removed."""
    t = _bipartite_tensor(rho, dim_a, dim_b)
    if side == "A":
        return np.trace(t, axis1=-4, axis2=-2)
    if side == "B":
        return np.trace(t, axis1=-3, axis2=-1)
    raise ValueError(f"side must be 'A' or 'B', got {side!r}")


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Ginibre G G^dag)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real
