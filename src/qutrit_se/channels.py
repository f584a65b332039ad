"""Spontaneous-emission channels for a qubit and a V-configuration qutrit.

Both are V systems: one ground level 0 and d - 1 excited levels (arms)
m = 1, ..., d - 1 that each decay to it at rate a_m. The qutrit has two arms
with Einstein coefficients A2 and A3; the qubit is the one-arm case with rate
A1. Every route below is built from the tuple of arm rates, so one code
path serves any number of arms: ``se_kraus(rates, t)`` takes it directly,
and ``ChannelParams.rates`` gives the qubit's (a1,) and the qutrit's
(a2, a3). The Bloch-vector route also reads the generalized Gell-Mann basis,
whose order only ``su`` knows. The channel is provided in three independent
forms that the test suite cross-checks against each other:

* an affine map n -> D(t) n + T(t) on the Bloch vector, in closed form per
  generator type: a pair generator of levels (j, k) is damped by h_j h_k
  (h_0 = 1), and the diagonal generators mix through the population
  transfer matrix (for the qutrit the single off-diagonal entry D[2, 7]);
  the shift T(t) drives every state toward the ground state, the unique
  fixed point at t -> infinity; its rate-independent index data comes from
  ``GeneratorBasis.diagonals`` and ``GeneratorBasis.pair_rows``;
* an operator-sum (Kraus) form: K0 = diag(1, h_1, ..., h_n) and
  K_m = w_m |0><m| with h_m = exp(-a_m t/2) and w_m = sqrt(1 - h_m^2),
  in the level basis;
* a Lindblad master equation with jump operators sqrt(a_m) |0><m|,
  integrated with fixed-step RK4, applied as a power of the d^2 x d^2 step
  matrix of the jump operators (Havel, quant-ph/0201127), whose generator
  is built with ``linalg.kron``; the step matrix and its squares are cached
  read-only per (arm rates, step size h), in a bounded cache.

Bipartite use: ``bipartite_channel`` lifts a local channel to two qudits,
either one-sided or as the mixture q (channel on A) + (1-q) (channel on B).
It builds the channel's d^2 x d^2 superoperator sum_k K_k (x) conj(K_k) on
the row-major vec, the convention of ``lindblad_evolve`` (Havel, J. Math.
Phys. 44, 534 (2003)), with the time axis innermost and the k terms added in
place in operator order, and applies it to one side of the state as a single
matrix product.

Time grids: ``se_kraus(rates, times)`` builds the Kraus operators at many
times at once, from the same expressions as at a single time, and
``bipartite_channel`` then returns one state per time.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import dagger, kron
from .su import generator_basis

__all__ = [
    "ChannelParams",
    "AffineBlochMap",
    "KrausChannel",
    "se_affine_map",
    "se_kraus",
    "se_kraus_qutrit",
    "apply_kraus",
    "lindblad_jump_ops",
    "lindblad_evolve",
    "bipartite_channel",
]

# (arm rates, step size, rungs) keys of RK4 squaring ladders kept by _rk4_ladder
RK4_LADDER_CACHE = 128


@dataclass(frozen=True)
class ChannelParams:
    """Decay rates, elapsed time and the two-sided mixing weight q."""

    a1: float = 1.0
    a2: float = 1.0
    a3: float = 1.0
    t: float = 0.0
    q: float = 0.5

    def __post_init__(self) -> None:
        for name in ("a1", "a2", "a3", "t"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("mixing weight q must lie in [0, 1]")

    def rates(self, dim: int) -> tuple:
        """Arm decay rates of the dim-level system: (a1,) for 2, (a2, a3) for 3."""
        if dim not in (2, 3):
            raise ValueError(f"arm rates exist for dim 2 and 3 only, got {dim}")
        return (self.a1,) if dim == 2 else (self.a2, self.a3)

    @property
    def a21(self) -> float:
        return self.a2 / self.a1

    @property
    def a31(self) -> float:
        return self.a3 / self.a1

    def with_time(self, t: float) -> "ChannelParams":
        return dataclasses.replace(self, t=t)


@dataclass(frozen=True)
class AffineBlochMap:
    """Bloch-space action n -> damping @ n + shift at a fixed time."""

    damping: np.ndarray
    shift: np.ndarray
    t: float

    def apply(self, n: np.ndarray) -> np.ndarray:
        return self.damping @ np.asarray(n, dtype=float) + self.shift


@dataclass(frozen=True)
class KrausChannel:
    """Operator-sum form sum_k K_k rho K_k^dag on a dim-level system.

    Each operator has shape (dim, dim), or (T, dim, dim) for a channel
    tabulated at the T times in ``t`` (see ``se_kraus``).
    """

    dim: int
    operators: tuple
    t: float

    def completeness_defect(self) -> float:
        acc = sum(dagger(k) @ k for k in self.operators)
        return float(np.max(np.abs(acc - np.eye(self.dim))))


def se_affine_map(params: ChannelParams) -> AffineBlochMap:
    """Qutrit emission channel as an affine map on R^8."""
    return _affine_map(params.rates(3), params.t)


def _affine_map(rates: tuple, t: float) -> AffineBlochMap:
    # Closed form per generator type. A pair generator of levels (j, k) is
    # damped by h_j h_k, with h_0 = 1. The diagonal generators carry the
    # populations, which move by the transfer matrix P = I + sum_m g_m
    # (e_0 - e_m) e_m^T: arm m moves the share g_m = 1 - h_m^2 of level m to
    # level 0. With Lambda holding every generator's diagonal as a row (zero
    # for pair generators), Lambda Lambda^T = 2I and Lambda 1 = 0 on the
    # diagonal generators, so their block (1/2) Lambda P Lambda^T is
    # I + (1/2) sum_m u_m (Lambda e_m)^T with u_m = g_m Lambda (e_0 - e_m),
    # and the shift is (b/(d-1))/d sum_m u_m. A diagonal generator of a
    # level above m weighs levels 0 and m alike, so u_m is exactly zero
    # there and the block is upper triangular.
    basis = generator_basis(len(rates) + 1)
    h = np.exp(-np.array((0.0, *rates)) * t / 2.0)
    lam = basis.diagonals
    moved = (lam[:, :1] - lam) * (1.0 - h * h)
    damping = np.eye(basis.n_generators) + 0.5 * moved @ lam.T
    pairs, js, ks = basis.pair_rows
    damping[pairs, pairs] = h[js] * h[ks]
    shift = basis.bloch_scale / basis.dim * moved.sum(axis=1)
    return AffineBlochMap(damping=damping, shift=shift, t=t)


def _arm_factors(rates: tuple, t) -> list:
    # h_m = exp(-a_m t/2); an undamped arm keeps h = 1, even at t = inf where a*t is nan
    return [np.exp(-a * t / 2.0) if a else np.ones_like(t, dtype=float) for a in rates]


def _check_arms(rates, t) -> tuple:
    # one or more finite rates >= 0 as floats, and times >= 0 (inf included)
    rates, times = tuple(float(a) for a in rates), np.asarray(t, dtype=float)
    if not rates or not all(math.isfinite(a) and a >= 0 for a in rates):
        raise ValueError(f"arm rates must be one or more finite numbers >= 0, got {rates}")
    if not (times >= 0).all():
        raise ValueError(f"times must be >= 0, got {times[~(times >= 0)][0]}")
    return rates, float(times) if times.ndim == 0 else times


def _kraus_operators(rates: tuple, t) -> tuple:
    # the operators of se_kraus in the level basis, for checked rates and t
    dim = len(rates) + 1
    ops = np.zeros((dim, *np.shape(t), dim, dim), dtype=complex)
    ops[0, ..., 0, 0] = 1.0
    with np.errstate(over="ignore"):  # a*t = inf is meant: h = exp(-inf) = 0
        for m, h in enumerate(_arm_factors(rates, t), 1):
            ops[0, ..., m, m] = h
            ops[m, ..., 0, m] = np.sqrt(1.0 - h * h)
    return tuple(ops)


def se_kraus(rates, t) -> KrausChannel:
    """Emission channel of the d-level system with d - 1 = len(rates) arms.

    A scalar t gives d operators of shape (d, d), an array of T times (T, d, d)
    stacks. Rates must be finite and >= 0 and times >= 0 (t = inf is the fully
    decayed limit), else ValueError.
    """
    rates, t = _check_arms(rates, t)
    return KrausChannel(dim=len(rates) + 1, operators=_kraus_operators(rates, t), t=t)


def se_kraus_qutrit(params: ChannelParams) -> KrausChannel:
    """Qutrit emission channel at params.t, whose rates ChannelParams checked."""
    return KrausChannel(dim=3, operators=_kraus_operators(params.rates(3), params.t), t=params.t)


def apply_kraus(rho: np.ndarray, channel: KrausChannel) -> np.ndarray:
    """sum_k K_k rho K_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.dim, channel.dim):
        raise ValueError(
            f"state shape {rho.shape} does not match channel dimension {channel.dim}"
        )
    return sum(k @ rho @ dagger(k) for k in channel.operators)


def lindblad_jump_ops(rates) -> tuple:
    """Jump operators sqrt(a_m) |0><m| of the emission generator, one per arm."""
    rates, _ = _check_arms(rates, 0.0)
    ops = np.zeros((len(rates), len(rates) + 1, len(rates) + 1), dtype=complex)
    for m, a in enumerate(rates, 1):
        ops[m - 1, 0, m] = np.sqrt(a)
    return tuple(ops)


def lindblad_evolve(rho0: np.ndarray, params: ChannelParams, steps: int) -> np.ndarray:
    """Integrate the master equation with classical RK4, h = t/steps.

    drho/dt = sum_k ( L_k rho L_k^dag - (1/2){L_k^dag L_k, rho} )

    The dimension d comes from ``rho0`` and the arm rates from
    ``params.rates(d)``. The right-hand side is linear, so one RK4 step is
    exactly the d^2 x d^2 matrix P = I + hS + (hS)^2/2 + (hS)^3/6 + (hS)^4/24
    on the row-major vec, where vec(A X B) = (A kron B^T) vec(X) and S is
    built with ``linalg.kron`` from the jump operators alone (Havel, J. Math.
    Phys. 44, 534 (2003)); the result is P^steps rho0. P and its squares
    P^2, P^4, ... are cached read-only per (arm rates, h), in a bounded LRU
    cache, and multiplied in ``np.linalg.matrix_power``'s order, so a
    repeated (rates, h), as in piecewise integration, rebuilds nothing and
    gives the bits of the uncached power.
    """
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square state, got shape {rho.shape}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return _rk4_power(rho, params.rates(rho.shape[0]), params.t, steps)


def _rk4_power(rho: np.ndarray, rates: tuple, t: float, steps: int) -> np.ndarray:
    # P^steps from the cached squares P^(2^k), multiplied in the order of
    # np.linalg.matrix_power: its n = 3 shortcut (P P) P, else the squares of
    # the set bits of n, lowest first
    h = t / steps
    steps = operator.index(steps)
    ladder = _rk4_ladder(rates, h, steps.bit_length())
    if steps == 3:
        power = ladder[1] @ ladder[0]
    else:
        power = None
        for bit, square in enumerate(ladder):
            if steps >> bit & 1:
                power = square if power is None else power @ square
    dim = len(rates) + 1
    return (power @ rho.reshape(-1)).reshape(dim, dim)


@functools.lru_cache(maxsize=RK4_LADDER_CACHE)
def _rk4_ladder(rates: tuple, h: float, rungs: int) -> tuple:
    # (P, P^2, P^4, ..., P^(2^(rungs-1))) for the RK4 step matrix P of step
    # h, each read-only: a shorter cached ladder plus squarings. Every 64th
    # ladder starts from the one 64 rungs down (from P for the first), so a
    # cold build recurses at most 64 + rungs/64 deep for any step count.
    below = rungs - 1 if rungs % 64 else rungs - 64
    ladder = list(_rk4_ladder(rates, h, below)) if below else [_rk4_step(rates, h)]
    while len(ladder) < rungs:
        top = ladder[-1] @ ladder[-1]
        top.flags.writeable = False
        ladder.append(top)
    return tuple(ladder)


def _rk4_step(rates: tuple, h: float) -> np.ndarray:
    dim = len(rates) + 1
    jumps = lindblad_jump_ops(rates)
    gsum = sum(dagger(l) @ l for l in jumps)
    eye = np.eye(dim)
    gen = sum(kron(l, l.conj()) for l in jumps) - 0.5 * (
        kron(gsum, eye) + kron(eye, gsum.T)
    )
    hs = h * gen
    eye = np.eye(dim * dim)
    step = eye + hs @ (eye + hs @ (eye / 2 + hs @ (eye / 6 + hs / 24)))
    step.flags.writeable = False
    return step


def bipartite_channel(
    rho: np.ndarray, channel: KrausChannel, mode: str = "symmetric", q: float = 0.5
) -> np.ndarray:
    """Act with a local channel on a two-qudit state.

    mode 'A' or 'B' applies the channel to that subsystem only; 'symmetric'
    returns the mixture q.(on A) + (1-q).(on B). A channel tabulated at T
    times (see ``se_kraus``) gives the T states, shape (T, d^2, d^2).
    The superoperator S = sum_k K_k (x) conj(K_k), shape (..., d^2, d^2) with
    rows (a, z) and columns (x, y), is built once per call: each K_k product
    loops over the times innermost, and the k terms are added in place in
    operator order. Side A is then one matrix product S M_A over all times at
    once, with M_A[(x, y), (b, c)] = rho[(x, b), (y, c)], read back with axes
    (a, b), (z, c) as the q-mix or the copy writes it; side B is the same with
    rho's B indices.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = channel.dim
    n = dim * dim
    if rho.shape != (n, n):
        raise ValueError(f"state shape {rho.shape} does not match two systems of dimension {dim}")
    if not 0.0 <= q <= 1.0:
        raise ValueError("mixing weight q must lie in [0, 1]")
    if mode not in ("A", "B", "symmetric"):
        raise ValueError(f"mode must be 'A', 'B' or 'symmetric', got {mode!r}")
    ops = np.stack(channel.operators)  # (k, ..., d, d)
    lead = ops.shape[1:-2]
    ops = np.moveaxis(ops.reshape(len(ops), -1, dim, dim), 1, -1).copy()  # (k, a, x, t)
    # S[(a, z), (x, y)] = sum_k K_k[a, x] conj(K_k[z, y]), one row per (t, a, z),
    # written through (a, z, x, y, t) views so that t is the inner loop
    sup, term = np.empty((2, ops.shape[-1]) + (dim,) * 4, dtype=ops.dtype)
    for k, (op, op_conj) in enumerate(zip(ops, ops.conj())):
        view = np.moveaxis(term if k else sup, 0, -1)
        np.multiply(op[:, None, :, None], op_conj[None, :, None, :], out=view)
        if k:
            sup += term
    tensor = rho.reshape(dim, dim, dim, dim)  # (a, b, a', b'), A slow
    # rows (x, y) of M are rho's indices on the acted-on side
    lift = {"A": tensor.transpose(0, 2, 1, 3), "B": tensor.transpose(1, 3, 0, 2)}

    def one_sided(side: str) -> np.ndarray:  # S M in term, as a (t, a, b, a', b') view
        np.matmul(sup.reshape(-1, n), lift[side].reshape(n, n), out=term.reshape(-1, n))
        if side == "A":
            return term.swapaxes(-3, -2)  # (a, z, b, c) -> (a, b, z, c)
        return np.moveaxis(term, -2, -4).swapaxes(-2, -1)  # (b, z, a, c) -> (a, b, c, z)

    if mode != "symmetric":
        return one_sided(mode).reshape(lead + rho.shape)
    # the q-mix writes the permuted products; sup is free after the B product
    out = np.multiply(one_sided("A"), q, out=np.empty_like(sup))
    out += np.multiply(one_sided("B"), 1.0 - q, out=sup)
    return out.reshape(lead + rho.shape)
