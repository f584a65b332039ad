"""Dense linear algebra for small bipartite systems.

Everything here works on plain ``numpy`` arrays (complex128, or float64 where
a real input keeps its dtype) and is sized for the matrices this package
meets: 2x2 ... 9x9. The eigensolver is a self-contained cyclic Jacobi
iteration so that positivity certificates (partial-transpose spectra) do not
depend on the same code paths as the channel constructions they check.

``hermitian_eigenvalues``, ``partial_transpose`` and ``dagger`` also take
stacks (..., n, n) and act on each matrix, so a whole time grid of states is
diagonalised by one Jacobi sweep loop. That loop runs block by block: the
indices split into the connected components of the nonzero pattern the
stack shares, and each block size is swept as one stacked array. A member
stays active while any of its blocks is, so the eigenvalues are those of
the whole-matrix sweep; a dense matrix is the one-block case. The partial
transpose of a Werner state under emission splits into d blocks of size 1
and d(d-1)/2 of size 2. ``kron`` takes two matrices (2-D inputs only);
``channels`` builds only the decay term of the Lindblad generator with it.

Index convention for bipartite operators: subsystem A is the slow (outer)
index, i.e. a matrix on A (x) B has row index i*dB + k for A-index i and
B-index k.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

__all__ = [
    "NonHermitianError",
    "NoConvergenceError",
    "dagger",
    "kron",
    "hermitian_eigenvalues",
    "partial_transpose",
    "random_density_matrix",
]

HERMITICITY_TOL = 1e-10
JACOBI_TOL = 1e-12  # the off-diagonal magnitude hermitian_eigenvalues sweeps down to
JACOBI_SHIFT_TOL = 1e-15  # the eigenvalue move a rotation left undone may make


class NonHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergenceError(RuntimeError):
    """Jacobi sweep limit reached before the off-diagonal norm target."""


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return np.asarray(a).conj().swapaxes(-1, -2)


def _square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a)
    a = a.astype(np.result_type(a, float), copy=False)  # a real stack stays real
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return a


def _check_hermitian(a: np.ndarray, a_dag: np.ndarray) -> np.ndarray:
    # |a - a_dag| after the one Hermiticity check, for hermitian_eigenvalues and su alike
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails below
        off = np.abs(a - a_dag)
    defect = off.max(initial=0.0)
    if not defect <= HERMITICITY_TOL:
        raise NonHermitianError(f"matrix deviates from Hermitian by {defect:.3e}")
    return off


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


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending, by cyclic Jacobi.

    Unitary 2x2 rotations (with the phase of the pivot entry absorbed) are
    applied in row-cyclic order until every off-diagonal magnitude is <= JACOBI_TOL
    (1e-12) and no rotation left undone could move an eigenvalue by more than
    JACOBI_SHIFT_TOL (1e-15), so a nearly degenerate pair whose off-diagonal
    entry starts below JACOBI_TOL is still rotated (``_active``). A pivot below
    1e-300 in magnitude is skipped. A real symmetric ``a`` is swept in
    float64, with the eigenvalue bits of its complex copy.

    ``a`` may be one (n, n) matrix, giving shape (n,), or a stack
    (..., n, n), giving (..., n). A stack runs one sweep loop over all its
    members (Golub & Van Loan, Matrix Computations, sec. 8.5), in place while
    all are active: a converged member sits out later sweeps and a skipped
    pivot gets the identity rotation (c = 1, s = 0), so each member's
    eigenvalues are bitwise those of a call on that member alone.

    The sweeps run block by block: the indices split into the connected
    components of the nonzero pattern the stack shares (``_blocks``), whose
    gather layout is cached per pattern (``_layout``). The Hermiticity check
    and the symmetrisation read only the blocks' entries, and each block size
    s is swept as one stacked (members, blocks, s, s) array. A member stays
    active while any of its blocks has an off-diagonal entry above that, so
    every rotation of the whole-matrix sweep is made: rotations in different
    blocks touch disjoint rows and columns, which meet only in exact zeros,
    and each eigenvalue keeps its bits (a zero eigenvalue may change sign
    where the input holds a -0.0). A dense matrix is the one-block case.

    Raises
    ------
    NonHermitianError
        if max|a - a^dag| > 1e-10 for any member, or is not finite.
    NoConvergenceError
        if any member misses the target after 100 full sweeps.
    """
    a = _square(a)
    lead, n = a.shape[:-2], a.shape[-1]
    a = a.reshape((math.prod(lead), n, n))  # one batch axis
    pos, mirror, diag, ends, spans = _layout(n, a.any(axis=0).tobytes())
    flat = a.reshape(len(a), n * n)
    m, m_dag = flat[:, pos], flat[:, mirror]
    np.conjugate(m_dag, out=m_dag)
    off = _check_hermitian(m, m_dag)
    # symmetrize to kill roundoff drift
    m += m_dag
    m *= 0.5
    del m_dag  # free the conjugate copy before the sweeps
    # one (members, blocks, s, s) view into m per block size s > 1
    views = [m[:, start:stop].reshape(len(a), -1, size, size) for start, stop, size in spans]

    for _ in range(100):
        todo = _active(m, off, diag, ends)
        if todo.size == 0:
            break
        for view in views:
            if todo.size == len(a):
                _jacobi_sweep(view)  # every member still active: no gather or scatter
            else:
                view[todo] = _jacobi_sweep(view[todo])
    else:
        raise NoConvergenceError("off-diagonal norm not below tol after 100 sweeps")
    eigs = np.empty((len(a), n))
    eigs[:, pos[diag] // (n + 1)] = m[:, diag].real
    return np.sort(eigs, axis=-1).reshape(lead + (n,))


def _active(m: np.ndarray, off: np.ndarray, diag: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The members of the (members, entries) gather ``m`` that need another sweep.

    A member is active while any of its blocks is: while an off-diagonal
    magnitude exceeds JACOBI_TOL, or while one at or below it could still
    move an eigenvalue by more than JACOBI_SHIFT_TOL. Rotating the pair
    (p, q) moves a_pp and a_qq by (sqrt(g^2 + 4|a_pq|^2) - g) / 2, with
    g = |a_pp - a_qq|, which is at most |a_pq|^2 / max(|a_pq|, g): up to
    |a_pq| itself for a degenerate pair. ``off`` is scratch space of m's shape.
    """
    np.abs(m, out=off)
    off[:, diag] = 0.0
    most = off.max(axis=1, initial=0.0)
    active = most > JACOBI_TOL
    # the bound is at most |a_pq|, so only members with an entry above
    # JACOBI_SHIFT_TOL need it: rarely any once a sweep has zeroed every pivot
    rest = np.flatnonzero((most > JACOBI_SHIFT_TOL) & ~active)
    if rest.size:
        small, dia = off[rest], m.real[rest]
        gap = np.abs(dia[:, ends[0]] - dia[:, ends[1]])
        bound = np.maximum(small, gap)
        np.divide(small * small, bound, out=bound, where=bound > 0.0)
        active[rest] = bound.max(axis=1, initial=0.0) > JACOBI_SHIFT_TOL
    return np.flatnonzero(active)


@functools.lru_cache(maxsize=64)
def _layout(n: int, pattern: bytes) -> tuple:
    """Gather layout of the blocks of an (n, n) nonzero pattern, given as bool bytes.

    Returns (pos, mirror, diag, ends, spans): each block's entries i*n + j,
    block after block; their mirrors j*n + i; the places in pos of the
    diagonal entries; a (2, len(pos)) array of the places in pos of each
    entry's (i, i) and (j, j); and the (start, stop, size) of the entries of
    each block size above 1. Cached per pattern, as a time grid of states
    repeats one; the arrays are read-only, as every call with that pattern
    shares them.
    """
    blocks = _blocks(np.frombuffer(pattern, dtype=bool).reshape(1, n, n))
    pos = np.array([i * n + j for block in blocks for i in block for j in block], dtype=int)
    mirror = pos % n * n + pos // n
    diag = np.flatnonzero(pos == mirror)
    place = np.empty(n, dtype=int)
    place[pos[diag] // (n + 1)] = diag
    ends = place[np.stack([pos // n, pos % n])]
    spans, start = [], 0
    for size, same in itertools.groupby(map(len, blocks)):
        stop = start + len(list(same)) * size * size
        if size > 1:
            spans.append((start, stop, size))
        start = stop
    for array in (pos, mirror, diag, ends):
        array.flags.writeable = False
    return pos, mirror, diag, ends, tuple(spans)


def _blocks(a: np.ndarray) -> list:
    """Index blocks of a (B, n, n) stack: the components of its shared nonzero pattern.

    Indices i and j are joined when entry (i, j) or (j, i) is nonzero in some
    member (NaN counts as nonzero). Returns the blocks as ascending lists of
    indices, ordered by size and then by their first index.
    """
    first = list(range(a.shape[-1]))  # the lowest index of each index's block
    for i, j in zip(*map(np.ndarray.tolist, np.nonzero(a.any(axis=0)))):
        if first[i] != first[j]:  # merge the two blocks
            lo, hi = sorted((first[i], first[j]))
            first = [lo if f == hi else f for f in first]
    blocks: dict = {}
    for i, f in enumerate(first):
        blocks.setdefault(f, []).append(i)
    return sorted(blocks.values(), key=len)  # stable: by first index within a size


def _jacobi_sweep(m: np.ndarray) -> np.ndarray:
    """One row-cyclic sweep of Jacobi rotations over a (..., n, n) stack, in place.

    Each rotation computes both new columns from views of the old ones before
    writing either, then both new rows likewise, so it copies nothing; a
    skipped pivot's identity rotation and the zeroed pivot are written by
    masked assignment.
    """
    n = m.shape[-1]
    for p in range(n - 1):
        for q in range(p + 1, n):
            pivot = m[..., p, q]
            # hypot rounds like the scalar |z|; np.abs on complex arrays does not
            r = np.hypot(pivot.real, pivot.imag)
            rotate = r >= 1e-300
            skip = ~rotate
            r[skip] = 1.0
            phase = pivot * (1.0 / r)  # numpy's pivot / r, and real m rotates as complex m
            # a pivot tiny against its diagonal gap overflows theta or theta^2
            # to inf, and t = 1/inf = 0 is the exact limit: no rotation
            with np.errstate(over="ignore"):
                theta = (m[..., q, q].real - m[..., p, p].real) / (2.0 * r)
                sgn = np.where(theta >= 0.0, 1.0, -1.0)
                t = sgn / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            s[skip] = 0.0
            c[skip] = 1.0
            c, s = c[..., None], s[..., None]
            s_phase = s * phase[..., None]
            s_conj = s * np.conj(phase)[..., None]
            # m <- U^dag m U with U[p,p]=c, U[p,q]=s*phase,
            # U[q,p]=-s*conj(phase), U[q,q]=c
            col_p, col_q = m[..., :, p], m[..., :, q]
            new_p = c * col_p - s_conj * col_q
            m[..., :, q] = s_phase * col_p + c * col_q
            m[..., :, p] = new_p
            row_p, row_q = m[..., p, :], m[..., q, :]
            new_p = c * row_p - s_phase * row_q
            m[..., q, :] = s_conj * row_p + c * row_q
            m[..., p, :] = new_p
            pivot[rotate] = 0.0
            m[..., q, p][rotate] = 0.0
            if np.iscomplexobj(m):  # a real stack has no imaginary parts to zero
                m[..., p, p].imag = m[..., q, q].imag = 0.0
    return m


def partial_transpose(rho: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Transpose subsystem B of a bipartite operator, or of each in a stack.

    Transposing A instead gives the full transpose of this result, which has
    the same spectrum.
    """
    rho = _square(rho)
    if dim_a < 1 or dim_b < 1:
        raise ValueError("subsystem dimensions must be positive")
    if rho.shape[-1] != dim_a * dim_b:
        raise ValueError(
            f"matrix of shape {rho.shape} does not factor as {dim_a}x{dim_b}"
        )
    t = rho.reshape(rho.shape[:-2] + (dim_a, dim_b, dim_a, dim_b))
    return t.swapaxes(-3, -1).reshape(rho.shape)


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Ginibre G G^dag)."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real
