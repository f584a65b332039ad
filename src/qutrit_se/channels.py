"""Spontaneous-emission channels for a qubit and a V-configuration qutrit.

Both are V systems: one ground level 0 and d - 1 excited levels (arms)
m = 1, ..., d - 1 that each decay to it at rate a_m. The qutrit has two arms
with Einstein coefficients A2 and A3; the qubit is the one-arm case with rate
A1. ``ChannelParams.rates`` maps a dimension to its arm rates, and every
route below is built from that rate tuple and the generalized Gell-Mann
basis of ``su.generator_basis`` (order rule: level k's generators start at
index k^2 - 1 with the pairs (j, k), j < k, symmetric then antisymmetric,
and end with its diagonal generator at (k+1)^2 - 2). The builders work for
any number of arms; the public entry points take d = 2 or 3 through
``ChannelParams.rates``. The channel is provided in three independent forms
that the test suite cross-checks against each other:

* an affine map n -> D(t) n + T(t) on the Bloch vector, in closed form per
  generator type: a pair generator of levels (j, k) is damped by h_j h_k
  (h_0 = 1), and the diagonal generators mix through the population
  transfer matrix (for the qutrit the single off-diagonal entry D[2, 7]);
  the shift T(t) drives every state toward the ground state, the unique
  fixed point at t -> infinity; its rate-independent index data comes from
  ``GeneratorBasis.diagonals`` and ``GeneratorBasis.pair_rows``;
* an operator-sum (Kraus) form: K0 = diag(1, h_1, ..., h_n) and
  K_m = w_m |0><m| with h_m = exp(-a_m t/2) and w_m = sqrt(1 - h_m^2),
  expanded in generators;
* a Lindblad master equation with jump operators sqrt(a_m) |0><m|,
  integrated with fixed-step RK4, applied as a power of the d^2 x d^2 step
  matrix of the jump operators (Havel, quant-ph/0201127), whose generator
  is built with ``linalg.kron``.

Bipartite use: ``bipartite_channel`` lifts a local channel to two qudits,
either one-sided or as the mixture q (channel on A) + (1-q) (channel on B).

Time grids: ``se_kraus_stack`` builds the Kraus operators at many times at
once, from the same expressions as ``se_kraus_qubit``/``se_kraus_qutrit``,
and ``bipartite_channel`` then returns one state per time.
"""

from __future__ import annotations

import dataclasses
import math
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
    "se_kraus_qubit",
    "se_kraus_stack",
    "apply_kraus",
    "lindblad_jump_ops",
    "lindblad_evolve",
    "bipartite_channel",
]


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
    tabulated at the T times in ``t`` (see ``se_kraus_stack``).
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


def _kraus_operators(rates: tuple, t) -> tuple:
    # Emission Kraus operators of the len(rates)-arm system at time t: a
    # scalar t gives (d, d) operators, t of shape (T, 1, 1) gives (T, d, d)
    # stacks. Arm m adds to K0 the diagonal generator of level m, whose
    # coefficient has the norm 2 sqrt(m(m+1)/2), and builds K_m from the
    # generators of the pair (0, m).
    dim = len(rates) + 1
    g = generator_basis(dim).generators
    upper = 1.0  # K0's diagonal summed over the levels before arm m
    diag, jumps = [], []
    for m, a in enumerate(rates, 1):
        h = np.exp(-a * t / 2.0)
        w = np.sqrt(np.maximum(0.0, 1.0 - h * h))
        norm = 2.0 * math.sqrt(m * (m + 1) / 2.0)
        diag.append((upper - m * h) / norm * g[(m + 1) ** 2 - 2])
        jumps.append(w / 2.0 * g[m * m - 1] + 0.5j * w * g[m * m])
        upper = upper + h
    k0 = sum(diag, upper / dim * np.eye(dim, dtype=complex))
    return (k0, *jumps)


def se_kraus(dim: int, params: ChannelParams) -> KrausChannel:
    """Emission channel of the dim-level system at params.t (dim operators)."""
    ops = _kraus_operators(params.rates(dim), params.t)
    return KrausChannel(dim=dim, operators=ops, t=params.t)


def se_kraus_qutrit(params: ChannelParams) -> KrausChannel:
    """Qutrit emission channel in operator-sum form (three operators)."""
    return se_kraus(3, params)


def se_kraus_qubit(params: ChannelParams) -> KrausChannel:
    """Qubit emission channel in operator-sum form (two operators)."""
    return se_kraus(2, params)


def se_kraus_stack(dim: int, params: ChannelParams, times) -> KrausChannel:
    """Qubit (dim 2) or qutrit (dim 3) emission channel at each of ``times``.

    The rates come from ``params`` (its ``t`` is ignored). Each operator has
    shape (T, dim, dim) for T times, and equals the one ``se_kraus_qubit`` or
    ``se_kraus_qutrit`` builds at that time.
    """
    times = np.asarray(times, dtype=float).reshape(-1)
    with np.errstate(over="ignore"):  # a*t = inf is meant: h = exp(-inf) = 0
        ops = _kraus_operators(params.rates(dim), times[:, None, None])
    return KrausChannel(dim=dim, operators=ops, t=times)


def apply_kraus(rho: np.ndarray, channel: KrausChannel) -> np.ndarray:
    """sum_k K_k rho K_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.dim, channel.dim):
        raise ValueError(
            f"state shape {rho.shape} does not match channel dimension {channel.dim}"
        )
    return sum(k @ rho @ dagger(k) for k in channel.operators)


def lindblad_jump_ops(*rates) -> tuple:
    """Jump operators sqrt(a_m) |0><m| of the emission generator, one per arm."""
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
    Phys. 44, 534 (2003)); the result is P^steps rho0.
    """
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square state, got shape {rho.shape}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    return _rk4_power(rho, params.rates(rho.shape[0]), params.t, steps)


def _rk4_power(rho: np.ndarray, rates: tuple, t: float, steps: int) -> np.ndarray:
    dim = len(rates) + 1
    jumps = lindblad_jump_ops(*rates)
    gsum = sum(dagger(l) @ l for l in jumps)
    eye = np.eye(dim)
    gen = sum(kron(l, l.conj()) for l in jumps) - 0.5 * (
        kron(gsum, eye) + kron(eye, gsum.T)
    )
    hs = (t / steps) * gen
    eye = np.eye(dim * dim)
    step = eye + hs @ (eye + hs @ (eye / 2 + hs @ (eye / 6 + hs / 24)))
    return (np.linalg.matrix_power(step, steps) @ rho.reshape(-1)).reshape(dim, dim)


def bipartite_channel(
    rho: np.ndarray, channel: KrausChannel, mode: str = "symmetric", q: float = 0.5
) -> np.ndarray:
    """Act with a local channel on a two-qudit state.

    mode 'A' or 'B' applies the channel to that subsystem only; 'symmetric'
    returns the mixture q.(on A) + (1-q).(on B). A channel tabulated at T
    times (see ``se_kraus_stack``) gives the T states, shape (T, d^2, d^2).
    Each side is one contraction of the (d, d, d, d) tensor of ``rho`` with
    the (T, k, d, d) Kraus stack.
    """
    rho = np.asarray(rho, dtype=complex)
    dim = channel.dim
    if rho.shape != (dim * dim, dim * dim):
        raise ValueError(
            f"state shape {rho.shape} does not match two systems of dimension {dim}"
        )
    if not 0.0 <= q <= 1.0:
        raise ValueError("mixing weight q must lie in [0, 1]")
    ops = np.stack(channel.operators, axis=-3)
    tensor = rho.reshape(dim, dim, dim, dim)  # (a, b, a', b'), A slow
    # K (x) I contracts with the A indices, I (x) K with the B indices
    specs = {"A": "...kax,xbyc,...kzy->...abzc", "B": "...kbx,axcy,...kzy->...abcz"}

    def one_sided(side: str) -> np.ndarray:
        out = np.einsum(specs[side], ops, tensor, ops.conj(), optimize=True)
        return out.reshape(out.shape[:-4] + rho.shape)

    if mode == "A":
        return one_sided("A")
    if mode == "B":
        return one_sided("B")
    if mode == "symmetric":
        return q * one_sided("A") + (1.0 - q) * one_sided("B")
    raise ValueError(f"mode must be 'A', 'B' or 'symmetric', got {mode!r}")
