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
stack shares, and each block size is swept as one stacked array. The stack
is gathered entry-major, one contiguous row per block entry over all
members, so a rotation's elementwise calls run on contiguous rows. A member
stays active while any of its blocks is, so the eigenvalues are those of
the whole-matrix sweep; a dense matrix is the one-block case. The partial
transpose of a Werner state under emission splits into d blocks of size 1
and d(d-1)/2 of size 2.

``partial_transpose`` takes a two-qudit operator, shape (d^2, d^2) with
d >= 2 read off the shape (``_pair_dim``). Subsystem A is the slow (outer)
index: row i*d + k holds A-index i and B-index k. ``_pt_order`` owns the
transpose's index rule: ``partial_transpose`` is one gather along it, and the
Jacobi core reads rho^T_B in place through it.
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


@functools.lru_cache(maxsize=8)
def _identity(n: int) -> np.ndarray:
    # the float64 identity of size n, built once and read-only, as every caller shares it
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


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
    gather layout is cached per pattern (``_layout``). The gather is
    entry-major, shape (entries, members): each block entry is one contiguous
    row over all members, ordered (i, j, block) within a block size. The
    Hermiticity check and the symmetrisation read only the blocks' entries,
    and each block size s is swept as one stacked (s, s, blocks, members)
    view; the sweep is elementwise, so the layout moves no bit. A member stays
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
    rows = a.reshape(math.prod(lead), n * n)  # one batch axis
    return _eigenvalues(rows, np.arange(n * n)).reshape(lead + (n,))


def _eigenvalues(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    # eigenvalues (members, n) of the matrices with entry e at rows[:, order[e]], e.g. rho^T_B
    n = math.isqrt(rows.shape[1])
    pos, mirror, diag, ends, spans = _layout(n, rows.any(axis=0)[order].tobytes())
    entries = rows.T  # entry-major: row e holds entry e of every member
    m, m_dag = entries[order[pos]], entries[order[mirror]]
    np.conjugate(m_dag, out=m_dag)
    off = _check_hermitian(m, m_dag)
    # symmetrize to kill roundoff drift
    m += m_dag
    m *= 0.5
    del m_dag  # free the conjugate copy before the sweeps
    # one (s, s, blocks, members) view into m per block size s > 1
    views = [m[start:stop].reshape(size, size, -1, len(rows)) for start, stop, size in spans]

    for _ in range(100):
        todo = _active(m, off, diag, ends)
        if todo.size == 0:
            break
        for view in views:
            if todo.size == len(rows):
                _jacobi_sweep(view)  # every member still active: no gather or scatter
            else:
                view[..., todo] = _jacobi_sweep(view[..., todo])
    else:
        raise NoConvergenceError("off-diagonal norm not below tol after 100 sweeps")
    eigs = np.empty((len(rows), n))
    eigs[:, pos[diag] // (n + 1)] = m[diag].real.T
    return np.sort(eigs, axis=-1)


def _active(m: np.ndarray, off: np.ndarray, diag: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The members of the (entries, members) gather ``m`` that need another sweep.

    A member is active while any of its blocks is: while an off-diagonal
    magnitude exceeds JACOBI_TOL, or while one at or below it could still
    move an eigenvalue by more than JACOBI_SHIFT_TOL. Rotating the pair
    (p, q) moves a_pp and a_qq by (sqrt(g^2 + 4|a_pq|^2) - g) / 2, with
    g = |a_pp - a_qq|, which is at most |a_pq|^2 / max(|a_pq|, g): up to
    |a_pq| itself for a degenerate pair. ``off`` is scratch space of m's shape.
    """
    np.abs(m, out=off)
    off[diag] = 0.0
    most = off.max(axis=0, initial=0.0)
    active = most > JACOBI_TOL
    # the bound is at most |a_pq|, so only members with an entry above
    # JACOBI_SHIFT_TOL need it: rarely any once a sweep has zeroed every pivot
    rest = np.flatnonzero((most > JACOBI_SHIFT_TOL) & ~active)
    if rest.size:
        small, dia = off[:, rest], m.real[:, rest]
        gap = np.abs(dia[ends[0]] - dia[ends[1]])
        bound = np.maximum(small, gap)
        np.divide(small * small, bound, out=bound, where=bound > 0.0)
        active[rest] = bound.max(axis=0, initial=0.0) > JACOBI_SHIFT_TOL
    return np.flatnonzero(active)


@functools.lru_cache(maxsize=64)
def _layout(n: int, pattern: bytes) -> tuple:
    """Gather layout of the blocks of an (n, n) nonzero pattern, given as bool bytes.

    Returns (pos, mirror, diag, ends, spans): the blocks' entries i*n + j,
    size after size, and within a size ordered (i, j, block), so that the
    entries of one size are an (s, s, blocks) array; their mirrors j*n + i;
    the places in pos of the diagonal entries; a (2, len(pos)) array of the
    places in pos of each entry's (i, i) and (j, j); and the (start, stop,
    size) of the entries of each block size above 1. Cached per pattern, as a
    time grid of states repeats one; the arrays are read-only, as every call
    with that pattern shares them.
    """
    blocks = _blocks(np.frombuffer(pattern, dtype=bool).reshape(1, n, n))
    groups = [list(same) for _, same in itertools.groupby(blocks, key=len)]
    pos = np.array([block[i] * n + block[j] for same in groups
                    for i, j in itertools.product(range(len(same[0])), repeat=2)
                    for block in same], dtype=int)
    mirror = pos % n * n + pos // n
    diag = np.flatnonzero(pos == mirror)
    place = np.empty(n, dtype=int)
    place[pos[diag] // (n + 1)] = diag
    ends = place[np.stack([pos // n, pos % n])]
    spans, start = [], 0
    for same in groups:
        size = len(same[0])
        stop = start + len(same) * size * size
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
    """One row-cyclic sweep of Jacobi rotations over an (n, n, ...) stack, in place.

    The matrix axes lead, so entry (p, q) of every member is the contiguous
    block ``m[p, q]``, column p is ``m[:, p]`` and row p is ``m[p]``, and a
    rotation's scalars broadcast over rows and columns without a new axis.
    Each rotation computes both new columns from views of the old ones before
    writing either, then both new rows likewise, so it copies nothing; a
    skipped pivot's identity rotation and the zeroed pivot are written by
    masked assignment.
    """
    n = m.shape[0]
    for p in range(n - 1):
        for q in range(p + 1, n):
            pivot = m[p, q]
            # hypot rounds like the scalar |z|; np.abs on complex arrays does not
            r = np.hypot(pivot.real, pivot.imag)
            rotate = r >= 1e-300
            skip = ~rotate
            r[skip] = 1.0
            phase = pivot * (1.0 / r)  # numpy's pivot / r, and real m rotates as complex m
            # a pivot tiny against its diagonal gap overflows theta or theta^2
            # to inf, and t = 1/inf = 0 is the exact limit: no rotation
            with np.errstate(over="ignore"):
                theta = (m[q, q].real - m[p, p].real) / (2.0 * r)
                sgn = np.where(theta >= 0.0, 1.0, -1.0)
                t = sgn / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
            c = 1.0 / np.sqrt(t * t + 1.0)
            s = t * c
            s[skip] = 0.0
            c[skip] = 1.0
            s_phase = s * phase
            s_conj = s * np.conj(phase)
            # m <- U^dag m U with U[p,p]=c, U[p,q]=s*phase,
            # U[q,p]=-s*conj(phase), U[q,q]=c
            col_p, col_q = m[:, p], m[:, q]
            new_p = c * col_p - s_conj * col_q
            m[:, q] = s_phase * col_p + c * col_q
            m[:, p] = new_p
            row_p, row_q = m[p], m[q]
            new_p = c * row_p - s_phase * row_q
            m[q] = s_conj * row_p + c * row_q
            m[p] = new_p
            pivot[rotate] = 0.0
            m[q, p][rotate] = 0.0
            if np.iscomplexobj(m):  # a real stack has no imaginary parts to zero
                m[p, p].imag = m[q, q].imag = 0.0
    return m


def _pair_dim(shape: tuple) -> int:
    # the one shape rule of a two-qudit operator: d of a (d^2, d^2) shape, d >= 2
    d = math.isqrt(shape[-1]) if len(shape) == 2 else 0
    if d < 2 or shape != (d * d, d * d):
        raise ValueError(f"expected a two-qudit shape (d^2, d^2) with d >= 2, got {shape}")
    return d


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose subsystem B of a two-qudit operator, or of each in a stack.

    Transposing A instead gives the full transpose of this result, which has
    the same spectrum.
    """
    rho = _square(rho)
    d = _pair_dim(rho.shape[-2:])
    return np.take(rho.reshape(rho.shape[:-2] + (d**4,)), _pt_order(d), axis=-1).reshape(rho.shape)


@functools.lru_cache(maxsize=8)
def _pt_order(d: int) -> np.ndarray:
    # the one partial-transpose index rule: entry ((i, k), (j, l)) of rho^T_B is
    # flat entry ((i, l), (j, k)) of rho; read-only, as every call shares it
    order = np.arange(d**4).reshape(d, d, d, d).swapaxes(1, 3).ravel()
    order.flags.writeable = False
    return order


def random_density_matrix(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random full-rank density matrix (normalized Ginibre G G^dag)."""
    return _random_density_matrices(dim, 1, rng)[0]


def _random_density_matrices(dim: int, count: int, rng: np.random.Generator) -> np.ndarray:
    # count random_density_matrix calls in turn as one (count, dim, dim) stack, bit
    # for bit: one draw holds each state's real parts, then its imaginary parts
    g = rng.standard_normal((count, 2, dim, dim))
    g = g[:, 0] + 1j * g[:, 1]
    rho = g @ dagger(g)
    return rho / rho.trace(axis1=-2, axis2=-1).real[:, None, None]
