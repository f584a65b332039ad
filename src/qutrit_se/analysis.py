"""Separability indicators for emission channels on Werner states.

Two independent routes are provided for every headline quantity:

* closed-form separability indicators s(t) and fidelities F(t) in the decay
  rates, versus the same quantities measured on an explicitly evolved state;
* closed-form crossing times versus bisection on the indicator;
* the closed-form preservation inequality versus the crossing-time comparison;
* PPT negativity computed from the partial-transpose spectrum, which touches
  none of the closed forms.

The indicator s(t) for a Werner input with weight p starts at s(0) = p and
decays monotonically. While it exceeds 1/(d+1), 1/3 (two qubits) or 1/4 (two
qutrits), it certifies entanglement (de Vicente's correlation-matrix
criterion); once below, it certifies nothing, and the state may still be
entangled. The time at which s falls to 1/(d+1) is the indicator crossing.

``indicator_closed(p, rates, t)`` and ``fidelity_closed(rates, t)`` serve
every d: they take the tuple of the d - 1 arm rates. With h_k = exp(-a_k t/2),
s_d = p/(d^2-1) sum_k h_k (h_k + 2 + 2 sum_{j<k} h_j) and
F_d = (1 + sum_k h_k)^2/d^2, for a scalar t or a whole time grid at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .channels import ChannelParams, _arm_factors, _check_arms, bipartite_channel, se_kraus
from .linalg import hermitian_eigenvalues, partial_transpose
from .states import correlation_matrix, max_entangled, werner
from .su import generator_basis

__all__ = [
    "indicator_closed",
    "s_from_state",
    "fidelity_closed",
    "fidelity_from_state",
    "crossing_time",
    "indicator_crossing",
    "indicator_crossings",
    "qubit_crossing_closed",
    "preservation_inequality",
    "negativity",
    "ppt_threshold",
    "haar_random_states",
    "haar_bloch_vectors",
    "haar_moment_check",
    "SeparabilityReport",
    "separability_report",
]

# Time points per batched negativity step of ``separability_report``: the
# per-call cost of ``bipartite_channel`` and the stacked Jacobi is shared by a
# chunk, and a chunk's (T, 9, 9) temporaries set the peak memory of long grids.
# Sweep (2-core x86-64, numpy 2.4.6; median ms of three reports of 50, 316 and
# 2000 steps, then peak RSS of three such `curves` runs above the import):
# 64: 73 ms, +2.6 MB; 128: 55 ms, +2.7 MB; 256: 47 ms, +3.8 MB; 512: 44 ms,
# +6.1 MB. 512 would buy about 7% more speed with 2.3 MB more memory.
GRID_CHUNK = 256


def _indicator(p: float, h: list):
    # s_d = p/(d^2-1) sum_k h_k (h_k + 2 + 2 sum_{j<k} h_j), d - 1 = len(h)
    total, below = 0.0, 0.0
    for hk in h:
        total = total + hk * (hk + 2.0 + 2.0 * below)
        below = below + hk
    return p / (len(h) * (len(h) + 2)) * total


def _checked_factors(rates, t) -> list:
    # for the public closed forms; bisection calls _arm_factors unchecked
    rates, t = _check_arms(rates, t)
    with np.errstate(over="ignore"):  # a*t = inf is meant: h = exp(-inf) = 0
        return _arm_factors(rates, t)


def indicator_closed(p: float, rates, t):
    """Indicator s_d(t) of a Werner pair of weight p, d = len(rates) + 1; t may be an array."""
    return _indicator(p, _checked_factors(rates, t))


def s_from_state(rho: np.ndarray, d: int) -> float:
    """Separability indicator read off a two-qudit state.

    Sums the magnitudes of the diagonal of the correlation matrix; each is
    1/(d-1) for the maximally entangled state, so a Werner state with
    weight p gives p at t=0.
    """
    return float(np.sum(np.abs(np.diag(correlation_matrix(rho, d)))) / (d + 1))


def fidelity_closed(rates, t):
    """Overlap F_d(t) of the evolved maximally entangled pair with its t = 0 state."""
    h = _checked_factors(rates, t)
    return sum(h, 1.0) ** 2 / (len(h) + 1) ** 2


def fidelity_from_state(rho: np.ndarray, d: int) -> float:
    """<Psi| rho |Psi> against the maximally entangled reference."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d * d, d * d):
        raise ValueError(f"expected shape {(d * d, d * d)}, got {rho.shape}")
    return float(np.trace(max_entangled(d) @ rho).real)


def crossing_time(
    f: Callable[[float], float],
    threshold: float,
    t_hi: Optional[float] = None,
    f_tol: float = 1e-10,
) -> Optional[float]:
    """First time a nonincreasing f(t) reaches ``threshold``, by bisection.

    Returns None when f(0) is already below the threshold. When ``t_hi`` is
    omitted a bracket is found by doubling, and math.inf is returned when f
    stays at or above the threshold up to t = 2^60; an explicit ``t_hi``
    with f(t_hi) still above the threshold raises ValueError. Bisection
    stops once |f - threshold| <= f_tol, and raises ValueError when the
    bracket can no longer be halved in floating point before that.
    """
    f0 = f(0.0)
    if f0 < threshold:
        return None
    if t_hi is None:
        t_hi = 1.0
        while f(t_hi) >= threshold:
            t_hi *= 2.0
            if t_hi > 2.0**60:
                return math.inf
    elif f(t_hi) > threshold:
        raise ValueError(f"f({t_hi}) is still above the threshold; not bracketed")
    lo, hi = 0.0, float(t_hi)
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ValueError(
                f"crossing not resolved in floating point: bracket [{lo!r}, {hi!r}]"
            )
        val = f(mid)
        if abs(val - threshold) <= f_tol:
            return mid
        if val > threshold:
            lo = mid
        else:
            hi = mid


def qubit_crossing_closed(p: float, a1: float = 1.0) -> float:
    """Closed-form qubit crossing time -(2/a1) ln(sqrt(1 + 1/p) - 1).

    Valid for p > 1/3 (below that the state is separable from the start).
    """
    if not 1.0 / 3.0 < p <= 1.0:
        raise ValueError(f"closed form requires 1/3 < p <= 1, got p={p}")
    if a1 <= 0:
        raise ValueError("a1 must be positive")
    alpha = np.sqrt(1.0 + 1.0 / p) - 1.0
    return -2.0 / a1 * np.log(alpha)


def preservation_inequality(p: float, a21: float, a31: float) -> bool:
    """Whether the qutrit pair is still entangled when the qubit pair is not.

    With alpha = sqrt(1 + 1/p) - 1 and u = alpha^(A2/A1) + alpha^(A3/A1),
    tests u (u + 2) / 2 >= 1/p. Defined for 1/3 < p <= 1 only: below that
    alpha >= 1 and the qubit pair is separable from the start.
    """
    if not 1.0 / 3.0 < p <= 1.0:
        raise ValueError(f"inequality requires 1/3 < p <= 1, got p={p}")
    alpha = np.sqrt(1.0 + 1.0 / p) - 1.0
    u = alpha**a21 + alpha**a31
    return bool(0.5 * u * (u + 2.0) >= 1.0 / p)


def negativity(rho: np.ndarray, dim_a: int, dim_b: int) -> float | np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose.

    A float for one state; an array of one value per state for a stack
    (..., n, n), from one stacked Jacobi run.
    """
    eigs = hermitian_eigenvalues(partial_transpose(rho, dim_a, dim_b, side="B"))
    # negate before summing: a PPT state gets +0.0, not -0.0
    neg = np.where(eigs < 0.0, -eigs, 0.0).sum(axis=-1)
    return float(neg) if neg.ndim == 0 else neg


def ppt_threshold(d: int) -> float:
    """Werner weight where the partial-transpose spectrum turns negative.

    Pure bisection on the measured negativity, to a bracket of 1e-6 in p — no
    closed form enters, so this is an independent check of 1/(d+1).
    """

    def entangled(p: float) -> bool:
        return negativity(werner(d, p), d, d) > 1e-9

    lo, hi = 0.0, 1.0
    if not entangled(hi):
        raise ValueError("Werner state at p=1 measured separable; no threshold")
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        if entangled(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def haar_random_states(d: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure states as rows, via normalized complex Gaussians."""
    v = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _conj_times(x: np.ndarray, y: np.ndarray, g: complex) -> tuple:
    """(Re, Im) of conj(x + iy) g, rounded as numpy's complex product.

    A unit entry (+-1, +-i) only copies or negates x and y.
    """
    if g in (1, -1):
        return (x, -y) if g == 1 else (-x, y)
    if g in (1j, -1j):
        return (y, x) if g == 1j else (-y, -x)
    return x * g.real + y * g.imag, x * g.imag - y * g.real


def haar_bloch_vectors(d: int, samples: int, seed: int) -> np.ndarray:
    """Bloch vectors of Haar-random pure states, shape (samples, d^2 - 1).

    n_i = bloch_scale Re(v^dagger g_i v), contracted over the nonzero entries
    of each generator only (2 or 3 for the Pauli and Gell-Mann matrices), in
    real arithmetic on the rows x = Re v and y = Im v: an entry g_ab adds
    pr x_b - pi y_b with (pr, pi) = conj(v_a) g_ab, and a generator's terms
    are summed in row-major (a, b) order. That is the scalar order of the
    dense einsum over all d^2 entries, so the vectors are bitwise the same.

    Layout: a unit scale (the qubit) returns the real part of a complex
    (samples, d^2 - 1) buffer, a strided view; otherwise the scaled vectors
    are C-contiguous. numpy sums the second moments ``n.T @ n`` of the two
    layouts in different orders, and ``haar`` prints them to 17 digits.
    """
    basis = generator_basis(d)
    v = haar_random_states(d, samples, np.random.default_rng(seed))
    x, y = np.ascontiguousarray(v.real.T), np.ascontiguousarray(v.imag.T)
    rows = np.empty((basis.n_generators, samples))
    for row, gen in zip(rows, basis.generators):
        terms = []
        for a, b in zip(*np.nonzero(gen)):
            pr, pi = _conj_times(x[a], y[a], gen[a, b])
            terms.append(pr * x[b] - pi * y[b])
        row[...] = sum(terms[1:], terms[0])
    if basis.bloch_scale == 1.0:
        n = np.empty((samples, basis.n_generators), dtype=complex).real
        n[...] = rows.T
        return n
    return np.multiply(basis.bloch_scale, rows.T, order="C")


def haar_moment_check(d: int, samples: int, seed: int) -> np.ndarray:
    """Second-moment matrix E[n_i n_j] over Haar-random pure states.

    Converges to identity/3 for qubits and identity/8 for qutrits.
    Deterministic for a fixed seed (PCG64).
    """
    n = haar_bloch_vectors(d, samples, seed)
    return n.T @ n / samples


@dataclass(frozen=True)
class SeparabilityReport:
    """Indicator curves and indicator crossings for one parameter point.

    ``rows`` has columns (a1*t, s_qubit, s_qutrit, F_qubit, F_qutrit,
    neg_qubit, neg_qutrit); times and indicator crossings (where s_d falls
    to 1/(d+1)) are in dimensionless a1*t (math.inf for an indicator that
    never reaches its threshold).
    """

    p: float
    params: ChannelParams
    rows: np.ndarray
    t_cross_qubit: Optional[float]
    t_cross_qutrit: Optional[float]
    qutrit_preserves_longer: bool


def check_time_unit(a1: float) -> None:
    """Reject an a1 too small to measure time in units of 1/a1, 0 included.

    A crossing search runs over a1*t up to 2^60 (``crossing_time``'s doubling
    bound) and evaluates the arms at t = (a1*t)/a1. Below about 6.4e-291 that
    t overflows to inf and the crossing would come out wrong, so raise.
    """
    search_max = 2.0**60
    if not (a1 > 0 and math.isfinite(search_max / a1)):
        smallest = search_max / np.finfo(float).max
        raise ValueError(f"a1 must be above about {smallest:.3g}, got {a1!r}")


def indicator_crossing(p: float, params: ChannelParams, d: int) -> Optional[float]:
    """a1*t at which the d-level pair's indicator s_d reaches 1/(d+1).

    None when the pair is separable at t = 0, math.inf when s_d stays above
    the threshold up to a1*t = 2^60 (an undamped arm). Rates must be positive
    and a1 must pass ``check_time_unit``.
    """
    check_time_unit(params.a1)
    rates, a1 = params.rates(d), params.a1
    return crossing_time(
        lambda tau: _indicator(p, _arm_factors(rates, tau / a1)), 1.0 / (d + 1)
    )


def indicator_crossings(p: float, params: ChannelParams) -> tuple:
    """Crossing times of both indicators and the preservation verdict.

    Returns (t_cross_qubit, t_cross_qutrit, qutrit_preserves_longer): the
    ``indicator_crossing`` of each species and whether the qutrit crossing
    is the later one.
    """
    cross_qb = indicator_crossing(p, params, 2)
    cross_qt = indicator_crossing(p, params, 3)
    longer = cross_qt is not None and (cross_qb is None or cross_qt >= cross_qb)
    return cross_qb, cross_qt, longer


def separability_report(
    p: float, params: ChannelParams, t_max: float = 5.0, steps: int = 500
) -> SeparabilityReport:
    """Tabulate both species' indicator curves over a1*t in [0, t_max].

    Closed forms supply s and F for the whole grid at once; the negativity
    columns are measured on Kraus-evolved Werner states, so the two routes
    can disagree only if one of them is wrong. The negativities are computed
    GRID_CHUNK time points at a time: one Kraus stack, one stack of
    superoperators applied to each side of the Werner state as a matrix
    product (``bipartite_channel``) and one stacked Jacobi run per species
    and chunk. The rows do not depend on GRID_CHUNK: every point sees the
    same operations whatever chunk it is in; only time and memory do.
    """
    if params.a1 <= 0 or params.a2 <= 0 or params.a3 <= 0:
        raise ValueError("separability report requires strictly positive rates")
    check_time_unit(params.a1)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"Werner weight p={p} outside [0, 1]")

    taus = np.linspace(0.0, t_max, steps + 1)
    with np.errstate(over="ignore"):  # t = inf is meant: every arm has decayed
        times = taus / params.a1
    rows = np.empty((steps + 1, 7))
    rows[:, 0] = taus
    for i, d in enumerate((2, 3)):
        rows[:, 1 + i] = indicator_closed(p, params.rates(d), times)
        rows[:, 3 + i] = fidelity_closed(params.rates(d), times)
        w = werner(d, p)
        for lo in range(0, steps + 1, GRID_CHUNK):
            chunk = slice(lo, lo + GRID_CHUNK)
            kraus = se_kraus(params.rates(d), times[chunk])
            rho = bipartite_channel(w, kraus, "symmetric", params.q)
            rows[chunk, 5 + i] = negativity(rho, d, d)

    return SeparabilityReport(p, params, rows, *indicator_crossings(p, params))
