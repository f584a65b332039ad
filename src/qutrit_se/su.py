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

Generators are normalized to Tr(g_i g_j) = 2 delta_ij. ``structure_constants``
extracts f and d from traces,

    f_ijk = Tr([g_i, g_j] g_k) / (4i),   d_ijk = Tr({g_i, g_j} g_k) / 4,

not hard-coded tables; a basis is its generators and builds d on first read.
The star product carries b/(d-2) so that pure states (d >= 3) satisfy n * n = n with |n| = 1.

The Bloch maps and the star product also take stacks, (..., d, d) or (..., d^2 - 1), as
linalg's stacked functions do: each member gets the bits of a call on it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .linalg import _check_hermitian, _identity

__all__ = [
    "GeneratorBasis",
    "generator_basis",
    "structure_constants",
    "bloch_to_density",
    "density_to_bloch",
    "star_product",
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
    """An orthonormal su(d) generator set; f comes from ``structure_constants``."""

    dim: int
    generators: np.ndarray

    @property
    def n_generators(self) -> int:
        return self.dim * self.dim - 1

    @cached_property  # read on every Bloch-map call: computed once per basis
    def bloch_norm(self) -> float:
        """b = sqrt(d(d-1)/2) in rho = (I + b n . g)/d."""
        return math.sqrt(self.dim * (self.dim - 1) / 2.0)

    @cached_property
    def bloch_scale(self) -> float:
        """b/(d-1), the factor in n_i = bloch_scale Tr(rho g_i)."""
        return self.bloch_norm / (self.dim - 1)

    @cached_property
    def d(self) -> np.ndarray:
        """Read-only d_ijk of ``structure_constants``, built on first read; 0 for the qubit."""
        d = structure_constants(self.generators)[1]
        d.setflags(write=False)
        return d


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
    g.setflags(write=False)
    return GeneratorBasis(dim=dim, generators=g)


def _basis_for_bloch(n: np.ndarray) -> GeneratorBasis:
    dim = math.isqrt(n.shape[-1] + 1) if n.ndim else 0
    if not n.ndim or dim * dim != n.shape[-1] + 1:
        raise ValueError(f"Bloch vector must have length d^2 - 1, got shape {n.shape}")
    return generator_basis(dim)


def bloch_to_density(n: np.ndarray) -> np.ndarray:
    """Density matrix of a Bloch vector of length d^2 - 1, any d >= 2, or of each in a stack.

    A NaN or infinite component raises ValueError.
    """
    n = np.asarray(n, dtype=float)
    basis = _basis_for_bloch(n)
    if not np.isfinite(n).all():
        raise ValueError(f"Bloch vector must be finite, got {float(n[~np.isfinite(n)][0])}")
    rho = basis.bloch_norm * np.einsum("...i,iab->...ab", n, basis.generators)
    rho += _identity(basis.dim)
    rho /= basis.dim
    return rho


def density_to_bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vector, length d^2 - 1, of a trace-1 Hermitian d x d matrix, d >= 2, or a stack's."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim < 2 or rho.shape[-1] != rho.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    basis = generator_basis(rho.shape[-1])
    _check_hermitian(rho, rho.conj().swapaxes(-1, -2))
    trace = rho.trace(axis1=-2, axis2=-1).real
    inside = abs(trace - 1.0) <= 1e-10
    if not all(inside.flat):  # cheaper than .all() on one state's numpy bool
        raise ValueError(f"matrix trace {float(trace[~inside][0])!r} is not 1")
    coeffs = np.einsum("iab,...ba->...i", basis.generators, rho)
    return basis.bloch_scale * coeffs.real


def star_product(n: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Symmetric product (n * m)_i = (b/(d-2)) d_ijk n_j m_k, for d >= 3; n, m may be stacks."""
    n = np.asarray(n, dtype=float)
    m = np.asarray(m, dtype=float)
    basis = _basis_for_bloch(n)
    if basis.dim < 3 or m.shape != n.shape:
        raise ValueError("star product needs two Bloch vectors of one d >= 3")
    return basis.bloch_norm / (basis.dim - 2) * np.einsum("ijk,...j,...k->...i", basis.d, n, m)

