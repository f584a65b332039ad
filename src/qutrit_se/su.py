"""Generalized Gell-Mann generator algebra and Bloch-vector dictionaries.

A d-level state is written rho = (1/d)(I + b n . g) with b = sqrt(d(d-1)/2)
and n in R^(d^2-1), so that pure states have |n| = 1: rho = (1/2)(I + n . sigma)
for the qubit and rho = (1/3)(I + sqrt(3) n . lambda) for the qutrit. The
inverse map is n_i = (b/(d-1)) Tr(rho g_i).

``generator_basis(d)`` builds the generalized Gell-Mann matrices (Bertlmann &
Krammer, J. Phys. A 41, 235303 (2008)) for any d >= 2 by one order rule: for
each level k = 1, ..., d-1, first the pairs (j, k) with j < k, each as the
symmetric E_jk + E_kj then the antisymmetric -i E_jk + i E_kj, then the
diagonal generator diag(1, ..., 1, -k, 0, ...)/sqrt(k(k+1)/2) with k ones.
So level k's generators start at index k^2 - 1 and its diagonal one sits at
(k+1)^2 - 2. For d = 2 this is (sigma_x, sigma_y, sigma_z), for d = 3 the
usual lambda_1 ... lambda_8 (array index i-1 for label i).

Generators are normalized to Tr(g_i g_j) = 2 delta_ij. Structure constants are
extracted from traces,

    f_ijk = Tr([g_i, g_j] g_k) / (4i),   d_ijk = Tr({g_i, g_j} g_k) / 4,

not hard-coded tables. The symmetric star product carries b/(d-2) so that
pure states (d >= 3) satisfy n * n = n together with |n| = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import NonHermitianError, dagger

__all__ = [
    "GeneratorBasis",
    "generator_basis",
    "structure_constants",
    "bloch_to_density",
    "density_to_bloch",
    "star_product",
    "is_pure_bloch",
    "atom_vars_to_bloch",
]

_REALNESS_TOL = 1e-12


def structure_constants(generators: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Antisymmetric f and symmetric d tensors of an orthonormal basis.

    Requires Tr(g_i g_j) = 2 delta_ij (raises ValueError otherwise); the trace
    formulas then return real tensors, checked to 1e-12.
    """
    g = np.asarray(generators, dtype=complex)
    k = g.shape[0]
    gram = np.einsum("iab,jba->ij", g, g)
    if np.max(np.abs(gram - 2.0 * np.eye(k))) > 1e-10:
        raise ValueError("generator basis is not orthonormal: Tr(g_i g_j) != 2 delta_ij")
    # T[i,j,k] = Tr(g_i g_j g_k)
    t = np.einsum("iab,jbc,kca->ijk", g, g, g)
    f = (t - t.transpose(1, 0, 2)) / 4j
    d = (t + t.transpose(1, 0, 2)) / 4.0
    for name, arr in (("f", f), ("d", d)):
        if np.max(np.abs(arr.imag)) > _REALNESS_TOL:
            raise ValueError(f"structure constants {name} came out non-real")
    return f.real, d.real


@dataclass(frozen=True)
class GeneratorBasis:
    """An orthonormal su(d) generator set with its structure constants.

    ``identity_element`` is the trace-orthogonal completion of the basis,
    sqrt(2/d) I (I for the qubit). ``d`` is identically zero for the qubit.
    """

    dim: int
    generators: np.ndarray
    identity_element: np.ndarray
    f: np.ndarray
    d: np.ndarray

    @property
    def n_generators(self) -> int:
        return self.dim * self.dim - 1

    @property
    def bloch_norm(self) -> float:
        """b = sqrt(d(d-1)/2) in rho = (I + b n . g)/d."""
        return math.sqrt(self.dim * (self.dim - 1) / 2.0)

    @property
    def bloch_scale(self) -> float:
        """b/(d-1), the factor in n_i = bloch_scale Tr(rho g_i)."""
        return self.bloch_norm / (self.dim - 1)

    @cached_property
    def diagonals(self) -> np.ndarray:
        """Lambda: each generator's diagonal as a row, shape (d^2-1, d).

        Real and read-only; the rows of the pair generators are zero.
        """
        return self.generators.diagonal(axis1=1, axis2=2).real

    @cached_property
    def pair_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rows, j, k): every pair generator's index and its levels j < k.

        In basis order, so each pair (j, k) gives two rows, its symmetric
        then its antisymmetric generator. Read-only integer arrays.
        """
        # a pair generator has one entry above the diagonal, at (j, k)
        out = np.nonzero(np.triu(self.generators, 1))
        for arr in out:
            arr.setflags(write=False)
        return out


@lru_cache(maxsize=None)
def generator_basis(dim: int) -> GeneratorBasis:
    """Shared immutable generalized Gell-Mann basis of su(dim), dim >= 2.

    The one place that knows the generator order (see the module docstring)
    and rejects a dimension below 2: every function taking a dimension
    reaches it.
    """
    if dim < 2:
        raise ValueError(f"dimension must be at least 2, got {dim}")
    gens = []
    for k in range(1, dim):
        for j in range(k):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1
            anti = np.zeros((dim, dim), dtype=complex)
            anti[j, k] = -1j
            anti[k, j] = 1j
            gens += [sym, anti]
        diag = [1.0] * k + [-k] + [0.0] * (dim - 1 - k)
        gens.append(np.diag(diag) / math.sqrt(k * (k + 1) / 2))
    g = np.array(gens, dtype=complex)
    ident = np.sqrt(2.0 / dim) * np.eye(dim, dtype=complex)
    f, d = structure_constants(g)
    for arr in (g, ident, f, d):
        arr.setflags(write=False)
    return GeneratorBasis(dim=dim, generators=g, identity_element=ident, f=f, d=d)


def _basis_for_bloch(n: np.ndarray) -> GeneratorBasis:
    dim = math.isqrt(n.size + 1)
    if n.ndim != 1 or dim * dim != n.size + 1:
        raise ValueError(f"Bloch vector must have length d^2 - 1, got shape {n.shape}")
    return generator_basis(dim)


def bloch_to_density(n: np.ndarray) -> np.ndarray:
    """Density matrix of a Bloch vector (length 3 -> qubit, 8 -> qutrit)."""
    n = np.asarray(n, dtype=float)
    basis = _basis_for_bloch(n)
    weighted = np.einsum("i,iab->ab", n, basis.generators)
    return (np.eye(basis.dim, dtype=complex) + basis.bloch_norm * weighted) / basis.dim


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector of a unit-trace Hermitian matrix (2x2 or 3x3)."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    basis = generator_basis(rho.shape[0])
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
        defect = np.max(np.abs(rho - dagger(rho)))
    if not defect <= 1e-10:
        raise NonHermitianError(f"matrix deviates from Hermitian by {defect:.3e}")
    if not abs(np.trace(rho).real - 1.0) <= 1e-10:
        raise ValueError(f"matrix trace {np.trace(rho).real!r} is not 1")
    coeffs = np.einsum("iab,ba->i", basis.generators, rho)
    return basis.bloch_scale * coeffs.real


def star_product(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Symmetric product (n * m)_i = (b/(d-2)) d_ijk n_j m_k, for d >= 3."""
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=float)
    basis = _basis_for_bloch(n)
    if basis.dim < 3 or m.shape != n.shape:
        raise ValueError("star product needs two Bloch vectors of one d >= 3")
    return basis.bloch_norm / (basis.dim - 2) * np.einsum("ijk,j,k->i", basis.d, n, m)


def is_pure_bloch(n: np.ndarray, tol: float = 1e-10) -> bool:
    """Purity test: |n|^2 = 1, and for d >= 3 also n * n = n, within tol."""
    n = np.asarray(n, dtype=float)
    basis = _basis_for_bloch(n)
    if not abs(n @ n - 1.0) <= tol:  # a NaN norm fails too
        return False
    # the qubit's d tensor vanishes, so |n| = 1 is its only condition
    return not basis.d.any() or bool(np.max(np.abs(star_product(n, n) - n)) <= tol)


def atom_vars_to_bloch(
    p2: float, p3: float, d12: complex, d13: complex, d23: complex
) -> np.ndarray:
    """Bloch vector of a three-level state given populations and coherences.

    ``p2``/``p3`` are the two excited-level populations (the ground one is
    1 - p2 - p3); ``dij`` is the (i, j) coherence of the density matrix.
    """
    if p2 < 0 or p3 < 0 or p2 + p3 > 1:
        raise ValueError(f"populations p2={p2}, p3={p3} are not a valid distribution")
    c12, c13, c23 = np.conj(d12), np.conj(d13), np.conj(d23)
    rho = np.array([[1.0 - p2 - p3, d12, d13], [c12, p2, d23], [c13, c23, p3]], dtype=complex)
    return density_to_bloch(rho)
