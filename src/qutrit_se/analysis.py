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
from collections import deque
from typing import Callable, Optional

import numpy as np

from . import channels
from .channels import ChannelParams, _arm_factors, _check_arms, _check_rates
from .linalg import _eigenvalues, _pair_dim, _pt_order, _square
from .states import (
    _check_weight,
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

# Qutrit time points per batched negativity step of ``separability_report``; each
# species' chunk holds GRID_CHUNK * 3^4 superoperator entries, so the qubit's
# (T, 4, 4) chunk has GRID_CHUNK * 81/16 points and is no larger in bytes. A chunk
# shares per-call costs, and its three float64 workspace rows set the peak memory
# of long grids. 512 real against 256 complex (2-core x86-64, numpy 2.4.6; six
# alternated 25-s pairs of the benchmark's `curves`): 113-118 -> 145-159 tasks/s;
# a 2000-step run peaks 3.0 MB RSS above the import and at 1.90 MB traced.
GRID_CHUNK = 512

# Samples per block of ``haar_bloch_vectors``: a block's imaginary draws,
# normalisation and contraction temporaries stay in cache, and they add to the
# peak memory set by the output. A power of two (see haar_bloch_vectors).
# Sweep (2-core x86-64, numpy 2.4.6; in-process `haar --seed 7` at the default
# 200k samples, medians of 10 alternated pairs against 8192, then the warm
# tracemalloc peaks of haar_moment_check(3, 200_000, 42) and of haar's pair):
# 2048: 36.2 against 28.3 ms, faster in 1, 13.4/13.5 MB; 4096: 30.6 against
# 28.9 ms, faster in 1, 13.8/14.0 MB; 16384: 27.2 against 27.0 ms, faster in 3,
# 16.6/17.3 MB; 32768: 29.8 against 27.7 ms, faster in 1, 20.4/21.7 MB; one
# block: 59.8 against 30.1 ms, faster in 0, 56.0 MB; 8192: 14.7/15.1 MB.
_HAAR_BLOCK = 8192

# crossing_time's rule: give up doubling past t = 2^60, stop halving at 1e-12 relative
_SEARCH_HORIZON = 2.0**60
_SEARCH_RTOL = 1e-12
_UNRESOLVED = "crossing not resolved in floating point: bracket [{!r}, {!r}]"


def _indicator_of_sum(p: float, arms: int) -> Callable:
    # s_d = p H (H + 2)/(d^2-1) as a function of H = sum_k h_k, d - 1 = arms;
    # the weight p/((d-1)(d+1)) is formed once, not at each H
    weight = p / (arms * (arms + 2))
    return lambda arm_sum: weight * (arm_sum * (arm_sum + 2.0))


def _indicator(p: float, h: list):
    return _indicator_of_sum(p, len(h))(sum(h))


def indicator_closed(p: float, rates, t):
    """Indicator s_d(t) of a Werner pair of weight p, d = len(rates) + 1; t may be an array."""
    _check_weight(p)
    return _indicator(p, _arm_factors(*_check_arms(rates, t)))


def s_from_state(rho: np.ndarray) -> float:
    """Separability indicator read off a two-qudit state (d^2, d^2).

    Sums the magnitudes of the diagonal of the (d^2-1)-square correlation
    matrix; each is 1/(d-1) for the maximally entangled state, so a Werner
    state with weight p gives p at t=0.
    """
    c = correlation_matrix(rho)
    return float(np.sum(np.abs(np.diag(c))) / (math.isqrt(len(c) + 1) + 1))


def fidelity_closed(rates, t):
    """Overlap F_d(t) of the evolved maximally entangled pair with its t = 0 state."""
    h = _arm_factors(*_check_arms(rates, t))
    return sum(h, 1.0) ** 2 / (len(h) + 1) ** 2


def fidelity_from_state(rho: np.ndarray) -> float:
    """<Psi| rho |Psi> against the maximally entangled reference, rho (d^2, d^2)."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.trace(max_entangled(_pair_dim(rho.shape)) @ rho).real)


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
    lo, hi, horizon, rtol = 0.0, 1.0, _SEARCH_HORIZON, _SEARCH_RTOL
    while f(hi) > threshold:
        hi *= 2.0
        if hi > horizon:
            return math.inf
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            raise ValueError(_UNRESOLVED.format(lo, hi))
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
        infinite |= doubling & (hi > _SEARCH_HORIZON)
        doubling &= ~infinite
    halving = above & ~infinite
    while True:
        halving &= hi - lo > _SEARCH_RTOL * hi
        if not halving.any():
            break
        mid = 0.5 * (lo + hi)
        stuck = halving & ~((lo < mid) & (mid < hi))
        if stuck.any():
            i = np.flatnonzero(stuck)[0]
            raise ValueError(_UNRESOLVED.format(float(lo.flat[i]), float(hi.flat[i])))
        still = f(np.where(halving, mid, lo)) > threshold
        lo = np.where(halving & still, mid, lo)
        hi = np.where(halving & ~still, mid, hi)
    found = np.where(infinite, math.inf, 0.5 * (lo + hi)).ravel().tolist()
    return [t if a else None for a, t in zip(above.ravel().tolist(), found)]


def _qubit_alpha(p: float) -> float:
    # alpha = sqrt(1 + 1/p) - 1 falls below 1 exactly while the qubit pair starts
    # entangled: both qubit closed forms take a Werner weight with p > 1/3
    _check_weight(p)
    if not 1.0 / 3.0 < p:
        raise ValueError(f"qubit closed forms require 1/3 < p <= 1, got p={p}")
    return np.sqrt(1.0 + 1.0 / p) - 1.0


def qubit_crossing_closed(p: float) -> float:
    """Closed-form qubit crossing a1*t = -2 ln(sqrt(1 + 1/p) - 1).

    Valid for p > 1/3 (below that the state is separable from the start).
    """
    return -2.0 * np.log(_qubit_alpha(p))


def preservation_inequality(p: float, rates, a1: float = 1.0) -> bool:
    """Whether s_d is still above 1/(d+1) when s_2 reaches 1/3: an indicator verdict.

    Takes ``indicator_crossing``'s float inputs under its checks, d = len(rates) + 1.
    With alpha = sqrt(1 + 1/p) - 1, the qubit arm at its crossing, and
    u = sum_k alpha^(a_k/a1), tests u (u + 2)/(d - 1) >= 1/p. Defined for
    1/3 < p <= 1 only: below that alpha >= 1 and the qubit pair is separable
    from the start. It compares indicator crossings, not entanglement
    lifetimes: at p = 0.5, rates (1, 3) and a1 = 1 it is false, yet the
    negativity at q = 0.5 vanishes at a1*t ~ 0.62381 for the qubit pair and
    ~ 1.76275 for the qutrit pair.
    """
    alpha = _qubit_alpha(p)
    rates, a1 = _time_unit(a1, rates, 0.0)  # the verdict measures no time: nothing is scaled
    return _preserves(p, alpha, rates, a1)


def _preserves(p: float, alpha: float, rates, a1: float) -> bool:
    # preservation_inequality of checked inputs, alpha = _qubit_alpha(p). Python
    # floats: an a_k/a1 that overflows is inf, and alpha^inf = 0 with no warning
    u = sum(alpha ** (float(a) / float(a1)) for a in rates)
    return bool(u * (u + 2.0) / len(rates) >= 1.0 / p)


def negativity(rho: np.ndarray) -> float | np.ndarray:
    """Sum of |negative eigenvalues| of the partial transpose of a two-qudit state.

    Each qudit's d levels are read off the shape. A float for one (d^2, d^2)
    state; one value per state for a stack (..., d^2, d^2), by one Jacobi run
    that reads rho^T_B from rho by index, with the bits of a transposed copy.
    """
    rho = _square(rho)
    d, lead = _pair_dim(rho.shape[-2:]), rho.shape[:-2]
    eigs = _eigenvalues(rho.reshape(math.prod(lead), d**4), _pt_order(d)).reshape(lead + (d * d,))
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
    if not negativity(werner(d, 1.0)) > 1e-9:
        raise ValueError("Werner state at p=1 measured separable; no threshold")
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-6:
        step = (hi - lo) / 16
        weights = lo + step * np.arange(1, 16)
        entangled = negativity(_werner(d, weights[:, None, None])) > 1e-9
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


def _level_sum(s: np.ndarray) -> np.ndarray:
    # the sum of the d rows of s, (d, m), with the bits of numpy's add.reduce
    # over a row of d terms: below 8 it adds in turn from 0 (exact), which the
    # level-major sum repeats; from 8 up, numpy's own reduce on the rows
    return sum(s[1:], s[0]) if len(s) < 8 else np.ascontiguousarray(s.T).sum(axis=1)


def _haar_contract(basis, n: np.ndarray, g1: np.ndarray, g2_blocks) -> np.ndarray:
    # haar_bloch_vectors' contraction: rows n[lo : lo + m] from the real parts
    # g1[lo : lo + m] and the imaginary parts g2 (m, d), the next of g2_blocks, per
    # block of _HAAR_BLOCK samples; a block's rows may overwrite only read real parts.
    # Level-major workspaces, each row contiguous: w and its squared moduli cw, then
    # x and y in cw's memory, and the block's k rows, scaled and stored at once
    samples, d = g1.shape
    width = min(samples, _HAAR_BLOCK)
    w, cw = np.empty((2, d, width), dtype=complex)
    rows, scratch = np.empty((basis.n_generators, width)), np.empty((2, width))
    kinds = []  # per generator: its first nonzero entry (j, k), imaginary or not, its diagonal
    for gen in basis.generators:
        (j, *_), (k, *_) = np.nonzero(gen)
        diagonal = [(a, g.real) for a, g in enumerate(gen.diagonal()) if g]
        kinds.append((j, k, gen[j, k].imag != 0, diagonal))
    # a unit scale multiplies exactly, and 2b t is b (t + t)
    scales = np.multiply([1.0 if diagonal else 2.0 for *_, diagonal in kinds], basis.bloch_scale)
    for lo, g2 in zip(range(0, samples, _HAAR_BLOCK), g2_blocks):
        m = len(g2)
        wm, cm, t, (tmp, term) = w[:, :m], cw[:, :m], rows[:, :m], scratch[:, :m]
        wm.real, wm.imag = g1[lo : lo + m].T, g2.T
        # the squared moduli stay the complex conj(w) w: numpy's SIMD complex product
        # rounds the real part through an FMA, so x x + y y in real arithmetic differs
        # (in 3,946 of 24,576 entries of a (3, 8192) block at seed 0); conjugate(out=)
        # then an in-place *= rounds as w.conj() * w
        np.conjugate(wm, out=cm)
        cm *= wm
        inv = 1.0 / np.sqrt(_level_sum(cm.real))
        x, y = cw.reshape(-1).view(float)[: 2 * d * m].reshape(2, d, m)
        np.multiply(wm.real, inv, out=x)
        np.multiply(wm.imag, inv, out=y)
        for row, (j, k, imaginary, diagonal) in zip(t, kinds):
            if diagonal:  # sum_a ((x_a g_a) x_a + (y_a g_a) y_a), in level order
                for i, (a, g) in enumerate(diagonal):
                    part = term if i else row
                    np.multiply(np.multiply(x[a], g, out=part), x[a], out=part)
                    part += np.multiply(np.multiply(y[a], g, out=tmp), y[a], out=tmp)
                    if i:
                        row += part
            elif imaginary:  # -i E_jk + i E_kj: x_j y_k - y_j x_k
                np.multiply(x[j], y[k], out=row)
                row -= np.multiply(y[j], x[k], out=tmp)
            else:  # E_jk + E_kj: x_j x_k + y_j y_k
                np.multiply(x[j], x[k], out=row)
                row += np.multiply(y[j], y[k], out=tmp)
        t *= scales[:, None]
        n[lo : lo + m] = t.T
    return n


def _haar_output(basis, samples: int) -> tuple:
    # the output (samples, k) for k generators, complex if the scale is unit, and
    # its real-part tail, the last samples * d floats; a block copies its own real
    # parts to w, then writes rows [0, hi) of n, ending at float hi*k*c (c = 2 if
    # complex) <= S*(k*c - d) + hi*d, the first unread real part, as hi <= S, k*c >= d
    dtype = complex if basis.bloch_scale == 1.0 else float
    out = np.empty((samples, basis.n_generators), dtype=dtype)
    flat = out.reshape(-1).view(float)
    return out, flat, flat[flat.size - samples * basis.dim :]


def haar_bloch_vectors(d: int, samples: int, seed: int) -> np.ndarray:
    """Bloch vectors of Haar-random pure states, shape (samples, d^2 - 1).

    The draw is that of ``haar_random_states``: all (samples, d) real parts g1,
    into the output buffer's tail, then the imaginary parts g2 per block of
    _HAAR_BLOCK samples, each drawn on the calling thread as its block is
    reached, the PCG64 stream order of two whole draws.

    A block is level-major, a (d, m) complex w = g1^T + i g2^T. Its squared
    norms Re(conj(w) w) are summed over the levels as numpy's add.reduce sums
    a row of d terms (``_level_sum``), so the norms r have the bits of
    ``np.linalg.norm(v, axis=1)`` on the (m, d) rows v. Its rows x = Re(w) (1/r)
    and y = Im(w) (1/r), in real arithmetic, are bitwise the real and imaginary
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
    out, _, reals = _haar_output(basis, samples)
    g1 = rng.standard_normal(out=reals.reshape(samples, d))
    blocks = range(0, samples, _HAAR_BLOCK)
    g2_blocks = (rng.standard_normal(g1[lo : lo + _HAAR_BLOCK].shape) for lo in blocks)
    return _haar_contract(basis, out.real, g1, g2_blocks)


def haar_moment_check(d: int, samples: int, seed: int) -> np.ndarray:
    """Second-moment matrix E[n_i n_j] over Haar-random pure states of any d >= 2.

    Converges to identity/(d^2 - 1). Deterministic for a fixed seed (PCG64).
    """
    if samples < 1:  # the mean over no samples is 0/0
        raise ValueError(f"samples must be >= 1, got {samples}")
    n = haar_bloch_vectors(d, samples, seed)
    return n.T @ n / samples


def _haar_head(stream: np.ndarray, d: int, samples: int) -> np.ndarray:
    # the one prefix rule of a seed's stream: haar_bloch_vectors(d, samples, seed) reads
    # its first 2 samples d normals, real parts (samples, d) then imaginary parts
    return stream[: 2 * samples * d].reshape(2, samples, d)


def _haar_heads(seed: int, draws) -> list:
    # haar_bloch_vectors(d, samples, seed) for each (d, samples) of draws, bit for bit, from
    # one draw of the longest head on this thread; each gets its own output, unlike the pair
    stream = np.random.default_rng(seed).standard_normal(max(2 * s * d for d, s in draws))
    vectors = []
    for d, samples in draws:
        basis = generator_basis(d)
        g1, g2 = _haar_head(stream, d, samples)
        g2_blocks = (g2[lo : lo + _HAAR_BLOCK] for lo in range(0, samples, _HAAR_BLOCK))
        vectors.append(_haar_contract(basis, _haar_output(basis, samples)[0].real, g1, g2_blocks))
    return vectors


def _haar_pair_moments(samples: int, seed: int) -> tuple:
    # haar_moment_check(2, samples // 2, seed) and haar_moment_check(3, samples,
    # seed), bit for bit, from the qutrit's one stream: Generator fills its draws
    # in sequence, so the qubit's whole draw at S // 2 samples is the first 4 (S // 2)
    # of the qutrit's 3S real parts at S samples (_haar_head). Every normal is drawn
    # on the worker, in stream order, while this thread contracts: the qubit's
    # real parts, its imaginary parts one block at a time, all into the head of
    # the qutrit's real parts, then the rest of those real parts, then the
    # qutrit's imaginary blocks, at most two ahead of the block in use. The
    # qubit's rows go to the head of the qutrit's output. The worker runs its
    # submissions first in, first out, so the stream is read in the serial order;
    # a failed draw raises here, the draws still queued are cancelled, and the
    # worker ends with the call. concurrent.futures is imported here, not with
    # the module: it imports logging, several ms per process
    from concurrent.futures import ThreadPoolExecutor

    half = samples // 2  # >= 50: haar takes --samples >= 100
    qubit, qutrit = generator_basis(2), generator_basis(3)
    rng = np.random.default_rng(seed)
    out, flat, reals = _haar_output(qutrit, samples)
    g1, g2 = _haar_head(reals, 2, half)
    # the qubit's rows, strided as the .real of a complex (S // 2, 3) buffer, in
    # the first 6 (S // 2) <= 3S floats of out: below the real parts at 5S
    n = flat[: 6 * half].reshape(half, 3, 2)[..., 0]
    shapes = [(min(_HAAR_BLOCK, samples - lo), 3) for lo in range(0, samples, _HAAR_BLOCK)]
    with ThreadPoolExecutor(1) as worker:

        def draw(*args, **kwargs):
            return worker.submit(rng.standard_normal, *args, **kwargs)

        def imaginary():  # the qutrit's blocks in turn; taking one submits the one two past it
            for shape in shapes[2:]:
                block = ahead.popleft().result()
                ahead.append(draw(shape))
                yield block
            while ahead:
                yield ahead.popleft().result()

        try:
            real = draw(out=g1)
            pieces = [draw(out=g2[lo : lo + _HAAR_BLOCK]) for lo in range(0, half, _HAAR_BLOCK)]
            rest = draw(out=reals[4 * half :])
            ahead = deque(draw(shape) for shape in shapes[:2])
            n = _haar_contract(qubit, n, real.result(), (piece.result() for piece in pieces))
            qubit_moments = n.T @ n / half  # before the qutrit's rows reach the head
            rest.result()
            n = _haar_contract(qutrit, out, reals.reshape(samples, 3), imaginary())
        except BaseException:
            worker.shutdown(cancel_futures=True)
            raise
    return qubit_moments, n.T @ n / samples


def _time_unit(a1: float, rates, horizon: float) -> tuple:
    # the a1 rule and the arm-rate rule, then (rates, a1) times the least 2^s, s >= 0,
    # for which t = horizon/a1 is finite: exact, so each a (a1 t)/a1 keeps its bits. A
    # rate clamped to the largest float decays at every a1 t > 0: t >= (a1 t) max/(2 horizon)
    if not a1 > 0:  # NaN fails too; a numpy scalar prints as a plain float, on numpy 1 and 2
        raise ValueError(f"a1 must be above 0, got {float(a1)}")
    _check_rates(np.ravel(rates).tolist())
    s, horizon = 0, float(horizon)
    while not math.isfinite(horizon / math.ldexp(a1, s)):
        s += 1
    if not s:  # the inputs as given: Python floats stay Python floats
        return rates, a1
    cap = math.ldexp(np.finfo(float).max, -s)  # clamped before scaling: nothing overflows
    return tuple(np.ldexp(np.minimum(a, cap), s) for a in rates), math.ldexp(a1, s)


def indicator_crossing(p: float, rates, a1: float = 1.0) -> Optional[float] | list:
    """a1*t at which the indicator s_d of a Werner pair reaches 1/(d+1), d = len(rates) + 1.

    ``rates`` holds the d - 1 arm rates: floats give one search, and arrays
    of one shape one lane search of ``crossing_time``, a list of one
    crossing per position in C order, each with the bits of its single
    search. Any a1 > 0 sets the time unit, by an exact power-of-two rescale. A
    crossing is None when s_d(0) = p is not above 1/(d+1), and math.inf
    when s_d stays above the threshold up to a1*t = 2^60, as an undamped
    (zero-rate) arm can make it. Floats and lanes share one f: the weight
    of s_d is formed once per search, and an evaluation is the d - 1
    ``np.exp`` of the arms plus the s_d arithmetic of ``indicator_closed``.
    """
    _check_weight(p)
    rates, a1 = _time_unit(a1, rates, _SEARCH_HORIZON)
    d, s_of_sum = len(rates) + 1, _indicator_of_sum(p, len(rates))
    # Python floats (a rescaled a1 makes the rates numpy scalars): each h is taken as
    # a Python float, whose arithmetic has the bits of numpy scalars' and costs less
    plain = type(a1) is float and all(type(a) is float for a in rates)
    exp, h = np.exp, (float if plain else lambda x: x)

    def s(tau):
        # not _arm_factors, whose errstate was once entered on every evaluation: a
        # search ran 2.4-2.7x slower so (2-core x86-64, numpy 2.4.6, p = 0.7, unit
        # rates: qubit 54 -> 131 us, qutrit 60 -> 159 us); it is entered here once
        # per search. A test pins the bits to it (t < inf: exp(-0.0) = 1). The running
        # sum from 0 in arm order has the bits of Python's sum.
        t, arm_sum = tau / a1, 0
        for a in rates:
            arm_sum = arm_sum + h(exp(-a * t / 2.0))
        return s_of_sum(arm_sum)

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
    in chunks of GRID_CHUNK * 3^4 superoperator entries, GRID_CHUNK qutrit or
    GRID_CHUNK * 81/16 qubit time points: one Kraus stack, its stack of
    superoperators, applied to each side of the Werner state as one matrix
    product, and one stacked Jacobi run per species and chunk, in float64 on
    the real parts of the (real) operators and state, with the bits of the
    complex route. The cores of ``superoperator`` and ``lift`` build every
    chunk in one workspace per call, with the bits of the public calls. The
    rows do not depend on the chunk size: every point sees the same operations
    in any chunk; only time and memory do.
    A zero arm rate is an undamped arm; any a1 > 0 is a time unit, as in the search.
    """
    if steps < 2:
        raise ValueError("steps must be >= 2")
    if not 0 < t_max < math.inf:
        raise ValueError(f"t_max must be positive and finite, got {t_max}")
    (a1, a2, a3), unit = _time_unit(params.a1, (params.a1, params.a2, params.a3), t_max)
    _check_weight(p)  # before the grid is built, which indicator_closed needs first

    rows = np.empty((steps + 1, 7))  # before linspace: numpy rejects a huge shape here
    taus = np.linspace(0.0, t_max, steps + 1)
    times = taus / unit
    rows[:, 0] = taus
    work = np.empty((3, min(steps + 1, GRID_CHUNK) * 3**4))  # each chunk's S, states, scratch
    for i, rates in enumerate(((a1,), (a2, a3))):
        rows[:, 1 + i] = indicator_closed(p, rates, times)  # checks rates and times once
        rows[:, 3 + i] = fidelity_closed(rates, times)
        d = len(rates) + 1
        w = werner(d, p).real
        points = GRID_CHUNK * 3**4 // d**4  # the qutrit chunk's superoperator entries, d^4 a point
        for lo in range(0, steps + 1, points):
            chunk = slice(lo, lo + points)
            kraus = channels._kraus_operators(rates, times[chunk]).real
            sup, rho, scratch = (row[: kraus.shape[1] * d**4].reshape(-1, d**4) for row in work)
            channels._lift(w, channels._superoperator(kraus, sup), params.q, rho, scratch)
            rows[chunk, 5 + i] = negativity(rho.reshape(-1, d * d, d * d))
    return rows
