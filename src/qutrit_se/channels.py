"""Spontaneous-emission channels for a qubit and a V-configuration qutrit.

Both are V systems: one ground level and d - 1 excited levels (arms) that
each decay to it. The qutrit has two arms with Einstein coefficients A2 and
A3; the qubit is the one-arm case with rate A1. ``ChannelParams.rates`` maps
a dimension to its arm rates, and that tuple is all that tells the two
species apart. The qutrit channel is provided in three independent forms
that the test suite cross-checks against each other:

* an affine map n -> D(t) n + T(t) on the 8-dimensional Bloch vector,
* an operator-sum (Kraus) form built from generator combinations,
* a Lindblad master equation integrated with fixed-step RK4, applied as a power
  of the 9x9 step matrix of the jump operators (Havel, quant-ph/0201127).

In the Bloch form D(t) is diagonal except for a single entry coupling the two
diagonal generator directions (array element D[2, 7]), and the shift T(t)
drives every initial state toward the ground state, which is the unique fixed
point at t -> infinity.

Bipartite use: ``bipartite_channel`` lifts a local channel to two qudits,
either one-sided or as the mixture q (channel on A) + (1-q) (channel on B).

Kraus form: K0 = diag(1, h_1, ..., h_n) and K_m = w_m |0><m| for the n arms,
with h_m = exp(-a_m t/2) and w_m = sqrt(1 - h_m^2), expanded in generators;
the qubit and the qutrit are built by the same code from their rate tuples.

Time grids: ``se_kraus_stack`` builds the Kraus operators at many times at
once, from the same expressions as ``se_kraus_qubit``/``se_kraus_qutrit``,
and ``bipartite_channel`` then returns one state per time.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .linalg import dagger
from .su import generator_basis

__all__ = [
    "ChannelParams",
    "AffineBlochMap",
    "KrausChannel",
    "se_affine_map",
    "qutrit_kraus_coefficients",
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
        generator_basis(dim)  # rejects an unsupported dim
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
    e2 = np.exp(-params.a2 * params.t)
    e3 = np.exp(-params.a3 * params.t)
    h2 = np.exp(-params.a2 * params.t / 2.0)
    h3 = np.exp(-params.a3 * params.t / 2.0)
    h23 = np.exp(-(params.a2 + params.a3) * params.t / 2.0)
    s3 = np.sqrt(3.0)

    d = np.diag([h2, h2, e2, h3, h3, h23, h23, e3])
    d[2, 7] = (e3 - e2) / s3
    shift = np.zeros(8)
    shift[2] = (3.0 - e3 - 2.0 * e2) / (2.0 * s3)
    shift[7] = (1.0 - e3) / 2.0
    return AffineBlochMap(damping=d, shift=shift, t=params.t)


def qutrit_kraus_coefficients(a2: float, a3: float, t) -> dict:
    """Generator-expansion coefficients of the three qutrit Kraus operators.

    ``t`` may be an array; each coefficient then has its shape.
    """
    return _kraus_coefficients((a2, a3), t)


# Per arm m = 1, 2 (Gell-Mann labelling): key and 0-based generator of the term
# it adds to K0, that coefficient's norm 2 sqrt(m(m+1)/2), and keys and
# generators of K_m. Key "k<op><g>": generator g (1-based, 0 = I) in K_op.
_ARMS = (
    ("k03", 2, 2.0, "k11", 0, "k12", 1),
    ("k08", 7, 2.0 * math.sqrt(3.0), "k24", 3, "k25", 4),
)


def _kraus_coefficients(rates: tuple, t) -> dict:
    k = {}
    upper = 1.0  # K0's diagonal summed over the levels before arm m
    for m, (a, (diag, _, norm, x, _, y, _)) in enumerate(zip(rates, _ARMS), 1):
        h = np.exp(-a * t / 2.0)
        w = np.sqrt(np.maximum(0.0, 1.0 - h * h))
        k[diag] = (upper - m * h) / norm
        k[x] = w / 2.0
        k[y] = 0.5j * w
        upper = upper + h
    k["k00"] = upper / (len(rates) + 1)
    return k


def _kraus_operators(dim: int, params: ChannelParams, t) -> tuple:
    # Emission Kraus operators at time t: a scalar t gives (dim, dim)
    # operators, t of shape (T, 1, 1) gives (T, dim, dim) stacks.
    rates = params.rates(dim)
    g = generator_basis(dim).generators
    if len(rates) == 2:  # by its public name, so that a patched table is used
        k = qutrit_kraus_coefficients(*rates, t)
    else:
        k = _kraus_coefficients(rates, t)
    k0 = k["k00"] * np.eye(dim, dtype=complex)
    jumps = []
    for diag, gd, _, x, gx, y, gy in _ARMS[: len(rates)]:
        k0 = k0 + k[diag] * g[gd]
        jumps.append(k[x] * g[gx] + k[y] * g[gy])
    return (k0, *jumps)


def se_kraus(dim: int, params: ChannelParams) -> KrausChannel:
    """Emission channel of the dim-level system at params.t (dim operators)."""
    ops = _kraus_operators(dim, params, params.t)
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
    ops = _kraus_operators(dim, params, times[:, None, None])
    return KrausChannel(dim=dim, operators=ops, t=times)


def apply_kraus(rho: np.ndarray, channel: KrausChannel) -> np.ndarray:
    """sum_k K_k rho K_k^dag."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (channel.dim, channel.dim):
        raise ValueError(
            f"state shape {rho.shape} does not match channel dimension {channel.dim}"
        )
    return sum(k @ rho @ dagger(k) for k in channel.operators)


def lindblad_jump_ops(a2: float, a3: float) -> tuple:
    """Jump operators of the qutrit emission generator."""
    g = generator_basis(3).generators
    l1 = (np.sqrt(a2) / 2.0) * (g[0] + 1j * g[1])
    l2 = (np.sqrt(a3) / 2.0) * (g[3] + 1j * g[4])
    return (l1, l2)


def lindblad_evolve(rho0: np.ndarray, params: ChannelParams, steps: int) -> np.ndarray:
    """Integrate the qutrit master equation with classical RK4, h = t/steps.

    drho/dt = sum_k ( L_k rho L_k^dag - (1/2){L_k^dag L_k, rho} )

    The right-hand side is linear, so one RK4 step is exactly the 9x9 matrix
    P = I + hS + (hS)^2/2 + (hS)^3/6 + (hS)^4/24 on the row-major vec, where
    vec(A X B) = (A kron B^T) vec(X) and S is built from the jump operators
    alone (Havel, J. Math. Phys. 44, 534 (2003)); the result is P^steps rho0.
    """
    rho = np.asarray(rho0, dtype=complex)
    if rho.shape != (3, 3):
        raise ValueError(f"expected a 3x3 state, got shape {rho.shape}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    jumps = lindblad_jump_ops(params.a2, params.a3)
    gsum = sum(dagger(l) @ l for l in jumps)
    gen = sum(np.kron(l, l.conj()) for l in jumps) - 0.5 * (
        np.kron(gsum, np.eye(3)) + np.kron(np.eye(3), gsum.T)
    )
    hs = (params.t / steps) * gen
    eye = np.eye(9)
    step = eye + hs @ (eye + hs @ (eye / 2 + hs @ (eye / 6 + hs / 24)))
    return (np.linalg.matrix_power(step, steps) @ rho.reshape(9)).reshape(3, 3)


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
