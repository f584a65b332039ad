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
criterion); once at or below, it certifies nothing, and the state may still
be entangled. The time at which s falls to 1/(d+1) is the indicator crossing.

``indicator_closed(p, rates, t)`` and ``fidelity_closed(rates, t)`` serve
every d: they take the tuple of the d - 1 arm rates. With h_k = exp(-a_k t/2)
and H = sum_k h_k, s_d = p H (H + 2)/(d^2-1) (the paper's
sum_k h_k (h_k + 2 + 2 sum_{j<k} h_j), expanded) and F_d = (1 + H)^2/d^2,
for a scalar t or a whole time grid at once.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

from .channels import (
    ChannelParams,
    _arm_factors,
    _check_arms,
    _check_rates,
    lift,
    se_kraus,
    superoperator,
)
from .linalg import hermitian_eigenvalues, partial_transpose
from .states import (
    _check_weight,
    _two_qudit_state,
    _werner,
    correlation_matrix,
    max_entangled,
    werner,
)
from .su import generator_basis

__all__ = [
    "indicator_closed",
    "s_from_state",
    "fidelity_closed",
    "fidelity_from_state",
    "crossing_time",
    "indicator_crossing",
    "qutrit_crosses_no_earlier",
    "qubit_crossing_closed",
    "preservation_inequality",
    "negativity",
    "ppt_threshold",
    "haar_random_states",
    "haar_bloch_vectors",
    "haar_moment_check",
    "separability_report",
]

# Time points per batched negativity step of ``separability_report``: a chunk shares
# the per-call cost of ``superoperator``, ``lift`` and the Jacobi run, and its
# (T, 9, 9) float64 temporaries set the peak memory of long grids. 512 real against
# 256 complex (2-core x86-64, numpy 2.4.6; six alternated 25-s pairs of the
# benchmark's `curves`): 113-118 -> 145-159 tasks/s; a 2000-step run peaks 3.3 MB
# RSS above the import (was 3.8) and at 1.74 MB traced (was 1.63).
GRID_CHUNK = 512

# Samples per block of ``haar_bloch_vectors``: a block's imaginary draws,
# normalisation and contraction temporaries stay in cache, and they add to the
# peak memory set by the output. A power of two (see haar_bloch_vectors).
# Sweep (2-core x86-64, numpy 2.4.6, real parts drawn into the output's tail;
# median ms of `haar --seed 7` at the default 200k samples over 12 interleaved
# rounds, then tracemalloc peak of haar_moment_check(3, 200_000, 42)): 1024:
# 96 ms, 13.8 MB; 2048: 83 ms, 13.3 MB; 4096: 74 ms, 13.9 MB; 8192: 74 ms,
# 14.6 MB; 16384: 84 ms, 16.5 MB; 32768: 89 ms, 20.1 MB; one block: 109 ms,
# 49.6 MB. 8192 and 4096 tie: 8192 was faster in 14 of 24 further interleaved
# pairs, medians 67.1 and 67.5 ms.
_HAAR_BLOCK = 8192


def _indicator(p: float, h: list):
    # s_d = p H (H + 2)/(d^2-1) with H = sum_k h_k, d - 1 = len(h)
    arm_sum = sum(h)
    return p / (len(h) * (len(h) + 2)) * (arm_sum * (arm_sum + 2.0))


def _checked_factors(rates, t) -> list:
    # for the public closed forms
    rates, t = _check_arms(rates, t)
    with np.errstate(over="ignore"):  # a*t = inf is meant: h = exp(-inf) = 0
        return _arm_factors(rates, t)


def indicator_closed(p: float, rates, t):
    """Indicator s_d(t) of a Werner pair of weight p, d = len(rates) + 1; t may be an array."""
    _check_weight(p)
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
    return float(np.trace(max_entangled(d) @ _two_qudit_state(rho, d)).real)


def crossing_time(f: Callable, threshold: float) -> Optional[float] | list:
    """First time a nonincreasing f(t) stops being above ``threshold``, by bisection.

    One rule decides every comparison: f(t) > threshold is "still above".
    Returns None when f(0) is not above the threshold. A bracket is found by
    doubling from t = 1, and math.inf is returned when f stays above the
    threshold up to t = 2^60. The bracket [lo, hi], f(lo) above and f(hi)
    not, is halved until hi - lo <= 1e-12 hi, and its midpoint is returned;
    ValueError is raised when the bracket can no longer be halved in
    floating point before that (a crossing below the smallest float).

    Lanes: when f(0.0) is an array, each of its elements is a search of its
    own. f then takes an array of that shape, one time per lane, and returns
    each lane's value at its own time. Every lane runs the rule above in
    lock-step, with its own bracket, doublings and stop, and the result is a
    list of one value per lane in C order: None, math.inf, or the float of
    that lane's single search, bit for bit. In each lane f sees only times
    that the lane's single search asks for, or 0. A lane that can no longer
    be halved raises the single search's ValueError (the first lane to get
    stuck; of several at once, the first in order). The path follows
    np.shape(f(0.0)): a scalar runs the single search, the faster one for
    one search. ``indicator_crossing`` runs lanes for arrays of arm rates.
    """
    f0 = f(0.0)
    if np.shape(f0):
        return _crossing_lanes(f, threshold, np.asarray(f0))
    if not f0 > threshold:
        return None
    lo, hi = 0.0, 1.0
    while f(hi) > threshold:
        hi *= 2.0
        if hi > 2.0**60:
            return math.inf
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ValueError(
                f"crossing not resolved in floating point: bracket [{lo!r}, {hi!r}]"
            )
        if f(mid) > threshold:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _crossing_lanes(f: Callable, threshold: float, f0: np.ndarray) -> list:
    # crossing_time's loops with a mask per lane: `doubling` and `halving` are
    # the lanes still in each loop; a lane out of a loop is evaluated at its lo
    above, lo, hi = f0 > threshold, np.zeros(f0.shape), np.ones(f0.shape)
    doubling, infinite = above.copy(), np.zeros(f0.shape, dtype=bool)
    while doubling.any():
        doubling &= f(np.where(doubling, hi, lo)) > threshold
        hi[doubling] *= 2.0
        infinite |= doubling & (hi > 2.0**60)
        doubling &= ~infinite
    halving = above & ~infinite
    while True:
        halving &= hi - lo > 1e-12 * hi
        if not halving.any():
            break
        mid = 0.5 * (lo + hi)
        stuck = halving & ~((lo < mid) & (mid < hi))
        if stuck.any():
            i = np.flatnonzero(stuck)[0]
            lo_i, hi_i = float(lo.flat[i]), float(hi.flat[i])
            raise ValueError(
                f"crossing not resolved in floating point: bracket [{lo_i!r}, {hi_i!r}]"
            )
        still = f(np.where(halving, mid, lo)) > threshold
        lo = np.where(halving & still, mid, lo)
        hi = np.where(halving & ~still, mid, hi)
    found = np.where(infinite, math.inf, 0.5 * (lo + hi)).ravel().tolist()
    return [t if a else None for a, t in zip(above.ravel().tolist(), found)]


def _qubit_alpha(p: float) -> float:
    # alpha = sqrt(1 + 1/p) - 1 falls below 1 exactly while the qubit pair
    # starts entangled, p > 1/3: the domain of both qubit closed forms
    if not 1.0 / 3.0 < p <= 1.0:
        raise ValueError(f"qubit closed forms require 1/3 < p <= 1, got p={p}")
    return np.sqrt(1.0 + 1.0 / p) - 1.0


def qubit_crossing_closed(p: float) -> float:
    """Closed-form qubit crossing a1*t = -2 ln(sqrt(1 + 1/p) - 1).

    Valid for p > 1/3 (below that the state is separable from the start).
    """
    return -2.0 * np.log(_qubit_alpha(p))


def preservation_inequality(p: float, a21: float, a31: float) -> bool:
    """Whether s_3 is still above 1/4 when s_2 reaches 1/3: an indicator verdict.

    With alpha = sqrt(1 + 1/p) - 1 and u = alpha^(A2/A1) + alpha^(A3/A1),
    tests u (u + 2) / 2 >= 1/p. Defined for 1/3 < p <= 1 only: below that
    alpha >= 1 and the qubit pair is separable from the start. It compares
    indicator crossings, not entanglement lifetimes: at p = 0.5, A2 = A1 and
    A3 = 3 A1 it is false, yet the negativity at q = 0.5 vanishes at a1*t ~
    0.62381 for the qubit pair and ~ 1.76275 for the qutrit pair.
    """
    alpha = _qubit_alpha(p)
    u = alpha**a21 + alpha**a31
    return bool(0.5 * u * (u + 2.0) >= 1.0 / p)


def negativity(rho: np.ndarray, d: int) -> float | np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose of a two-qudit state.

    Both qudits have d levels. A float for one state; an array of one value
    per state for a stack (..., d^2, d^2), from one stacked Jacobi run.
    """
    eigs = hermitian_eigenvalues(partial_transpose(rho, d, d))
    # negate before summing: a PPT state gets +0.0, not -0.0
    neg = np.where(eigs < 0.0, -eigs, 0.0).sum(axis=-1)
    return float(neg) if neg.ndim == 0 else neg


def ppt_threshold(d: int) -> float:
    """Werner weight where the partial-transpose spectrum turns negative.

    Pure bisection on the measured negativity, to a bracket of 1e-6 in p — no
    closed form enters, so this is an independent check of 1/(d+1). The 20
    halvings run in rounds of four: a round measures the bracket's 15
    interior points lo + i (hi - lo)/16, every midpoint its four halvings can
    ask for, with one stacked negativity call, and then halves from that
    table. The points are exact binary fractions, so the result is that of
    halving one point at a time.
    """
    if not negativity(werner(d, 1.0), d) > 1e-9:
        raise ValueError("Werner state at p=1 measured separable; no threshold")
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-6:
        step = (hi - lo) / 16
        weights = lo + step * np.arange(1, 16)
        entangled = negativity(_werner(d, weights[:, None, None]), d) > 1e-9
        below, above = 0, 16  # the bracket in steps from lo
        for _ in range(4):
            mid = (below + above) // 2
            if entangled[mid - 1]:
                above = mid
            else:
                below = mid
        lo, hi = lo + below * step, lo + above * step
    return 0.5 * (lo + hi)


def haar_random_states(d: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure states as rows, via normalized complex Gaussians."""
    v = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def haar_bloch_vectors(d: int, samples: int, seed: int) -> np.ndarray:
    """Bloch vectors of Haar-random pure states, shape (samples, d^2 - 1).

    The draw is that of ``haar_random_states``: all (samples, d) real parts g1,
    into the output buffer's tail, then the imaginary parts g2 per block of
    _HAAR_BLOCK samples, the PCG64 stream order of two whole draws. A block's
    norms r are numpy's complex ones of g1 + i g2, and its rows x = g1^T (1/r)
    and y = g2^T (1/r), in real arithmetic, are bitwise the real and imaginary
    parts of ``haar_random_states``'s v = (g1 + i g2)/r: numpy divides by the
    real-valued complex r as Smith's algorithm does. A power-of-two block
    keeps every element at the same SIMD lane and tail position as in one
    whole-array call, so the vectors do not depend on the block size.

    n_i = b Re(v^dagger g_i v), b = bloch_scale, is contracted by generator
    type (su's basis has symmetric and antisymmetric pairs and real
    diagonals): a symmetric pair (j, k) gives 2b (x_j x_k + y_j y_k), an
    antisymmetric one 2b (x_j y_k - y_j x_k), and a diagonal with weights g_a
    gives b sum_a ((x_a g_a) x_a + (y_a g_a) y_a), summed in level order.
    These are the bits of summing Re(conj(v_a) g_ab v_b) over each
    generator's nonzero entries in row-major order: a pair's two entries give
    equal terms, so their sum is an exact doubling, and a real weight's
    imaginary products are exact zeros.

    Layout: a unit scale (the qubit) returns the real part of a complex
    (samples, d^2 - 1) buffer, a strided view; otherwise the scaled vectors
    are C-contiguous. numpy sums the second moments ``n.T @ n`` of the two
    layouts in different orders, and ``haar`` prints them to 17 digits.
    """
    basis = generator_basis(d)
    rng = np.random.default_rng(seed)
    dtype = complex if basis.bloch_scale == 1.0 else float
    out = np.empty((samples, basis.n_generators), dtype=dtype)
    n, flat = out.real, out.reshape(-1).view(float)
    # real parts fill the last S*d floats; a block copies its own to v and x, then
    # writes rows [0, hi) of n, ending at float hi*k*c (k generators, c = 2 if complex)
    # <= S*(k*c - d) + hi*d, the first unread real part, as hi <= S and k*c >= d
    g1 = rng.standard_normal(out=flat[flat.size - samples * d :].reshape(samples, d))
    v = np.empty((min(samples, _HAAR_BLOCK), d), dtype=complex)
    kinds = []  # per generator: its first nonzero entry (j, k), imaginary or not, its diagonal
    for gen in basis.generators:
        (j, *_), (k, *_) = np.nonzero(gen)
        diagonal = [(a, g.real) for a, g in enumerate(gen.diagonal()) if g]
        kinds.append((j, k, gen[j, k].imag != 0, diagonal))
    for lo in range(0, samples, _HAAR_BLOCK):
        block = slice(lo, lo + _HAAR_BLOCK)
        g2 = rng.standard_normal((len(g1[block]), d))  # the stream order of g1, then all g2
        v = v[: len(g2)]
        v.real, v.imag = g1[block], g2
        inv = 1.0 / np.linalg.norm(v, axis=1)
        x, y = np.multiply(g1[block].T, inv, order="C"), np.multiply(g2.T, inv, order="C")
        for i, (j, k, imaginary, diagonal) in enumerate(kinds):
            if diagonal:
                terms = [(x[a] * g) * x[a] + (y[a] * g) * y[a] for a, g in diagonal]
                s, t = 1.0, sum(terms[1:], terms[0])
            elif imaginary:  # -i E_jk + i E_kj
                s, t = 2.0, x[j] * y[k] - y[j] * x[k]
            else:  # E_jk + E_kj
                s, t = 2.0, x[j] * x[k] + y[j] * y[k]
            # a unit scale multiplies exactly, and 2b t is b (t + t)
            np.multiply(s * basis.bloch_scale, t, out=n[block, i])
    return n


def haar_moment_check(d: int, samples: int, seed: int) -> np.ndarray:
    """Second-moment matrix E[n_i n_j] over Haar-random pure states of any d >= 2.

    Converges to identity/(d^2 - 1). Deterministic for a fixed seed (PCG64).
    """
    if samples < 1:  # the mean over no samples is 0/0
        raise ValueError(f"samples must be >= 1, got {samples}")
    n = haar_bloch_vectors(d, samples, seed)
    return n.T @ n / samples


def check_time_unit(a1: float) -> None:
    """Reject an a1 too small to measure time in units of 1/a1, 0 included.

    The crossing search (up to a1*t = 2^60, ``crossing_time``'s doubling
    bound) and the ``curves`` grid both evaluate the arms at t = (a1*t)/a1.
    Below about 6.4e-291 that t overflows to inf, where every arm reads as
    decayed: a crossing would come out wrong, and at a1 = 5e-324 the grid row
    at a1*t = 1 would read s_qubit = 0, not 0.526980254. So raise.
    """
    search_max = 2.0**60
    if not (a1 > 0 and math.isfinite(search_max / a1)):
        smallest = search_max / np.finfo(float).max
        raise ValueError(f"a1 must be above about {smallest:.3g}, got {a1!r}")


def indicator_crossing(p: float, rates, a1: float = 1.0) -> Optional[float] | list:
    """a1*t at which the indicator s_d of a Werner pair reaches 1/(d+1), d = len(rates) + 1.

    ``rates`` holds the d - 1 arm rates: floats give one search, and arrays
    of one shape one lane search of ``crossing_time``, a list of one
    crossing per position in C order, each with the bits of its single
    search. a1 sets the time unit and must pass ``check_time_unit``. A
    crossing is None when s_d(0) = p is not above 1/(d+1), and math.inf
    when s_d stays above the threshold up to a1*t = 2^60, as an undamped
    (zero-rate) arm can make it.
    """
    _check_weight(p)
    check_time_unit(a1)
    _check_rates(np.ravel(rates).tolist())
    d = len(rates) + 1

    def s(tau):
        t = tau / a1
        # not _arm_factors: its zero-rate branch serves t = inf in the closed
        # forms and Kraus; t stays finite here, and exp(-0.0) = 1.0 at rate 0
        return _indicator(p, [np.exp(-a * t / 2.0) for a in rates])

    with np.errstate(over="ignore"):  # a*t = inf is meant: h = exp(-inf) = 0
        return crossing_time(s, 1.0 / (d + 1))


def qutrit_crosses_no_earlier(cross_qb: Optional[float], cross_qt: Optional[float]) -> bool:
    """Whether the qutrit ``indicator_crossing`` comes no earlier than the qubit one.

    None (no crossing: s certifies nothing from t = 0) is the earliest.
    """
    return cross_qt is not None and (cross_qb is None or cross_qt >= cross_qb)


def separability_report(p: float, params: ChannelParams, t_max: float, steps: int) -> np.ndarray:
    """Both species' indicator curves over a1*t in [0, t_max], as the rows of ``curves``.

    Returns a (steps + 1, 7) array with columns (a1*t, s_qubit, s_qutrit,
    F_qubit, F_qutrit, neg_qubit, neg_qutrit) on an even grid of a1*t.
    Closed forms supply s and F for the whole grid at once; the negativity
    columns are measured on Kraus-evolved Werner states, so the two routes
    can disagree only if one of them is wrong. The negativities are computed
    GRID_CHUNK time points at a time: one Kraus stack, its stack of
    ``superoperator``s, applied to each side of the Werner state as one matrix
    product by ``lift``, and one stacked Jacobi run per species and chunk, in
    float64 on the real parts of the (real) operators and state, with the
    bits of the complex route. The rows do not depend on GRID_CHUNK:
    every point sees the same operations in any chunk; only time and memory do.
    A zero arm rate is an undamped arm; a1 must pass ``check_time_unit``.
    """
    check_time_unit(params.a1)
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    _check_weight(p)  # before the grid is built, which indicator_closed needs first

    rows = np.empty((steps + 1, 7))  # before linspace: numpy rejects a huge shape here
    taus = np.linspace(0.0, t_max, steps + 1)
    with np.errstate(over="ignore"):  # t = inf decays even an arm of finite a*t
        times = taus / params.a1
    rows[:, 0] = taus
    for i, d in enumerate((2, 3)):
        rows[:, 1 + i] = indicator_closed(p, params.rates(d), times)
        rows[:, 3 + i] = fidelity_closed(params.rates(d), times)
        w = werner(d, p).real
        for lo in range(0, steps + 1, GRID_CHUNK):
            chunk = slice(lo, lo + GRID_CHUNK)
            kraus = se_kraus(params.rates(d), times[chunk]).real
            rho = lift(w, superoperator(kraus), params.q)
            rows[chunk, 5 + i] = negativity(rho, d)
    return rows
