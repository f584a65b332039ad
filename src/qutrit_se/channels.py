"""Spontaneous-emission channels for a qubit and a V-configuration qutrit.

Both are V systems: one ground level 0 and d - 1 excited levels (arms)
m = 1, ..., d - 1 that each decay to it at rate a_m. The qutrit has two arms
with Einstein coefficients A2 and A3; the qubit is the one-arm case with rate
A1. Every route below is built from the tuple of arm rates, so one code
path serves any number of arms: ``se_kraus(rates, t)`` takes it directly,
and ``ChannelParams.rates`` gives the qubit's (a1,) and the qutrit's
(a2, a3). One owner, ``_arm_factors``, gives every route and ``analysis``'s
closed forms each arm's h_m = exp(-a_m t/2): 0 once a*t overflows, 1 for an
undamped arm at any t, inf included. The Bloch-vector route also reads the
generalized Gell-Mann basis, whose order only ``su`` knows. The channel is
provided in three independent forms that the test suite cross-checks:

* an affine map n -> D(t) n + T(t) on the Bloch vector, in closed form per
  generator type: a pair generator of levels (j, k) is damped by h_j h_k
  (h_0 = 1), and the diagonal generators mix through the population
  transfer matrix (for the qutrit the single off-diagonal entry D[2, 7]);
  the shift T(t) drives every state toward the ground state, the unique
  fixed point at t -> infinity; its rate-independent data (the generators'
  diagonals and pair rows) is built once per d, read-only;
* an operator-sum (Kraus) form: K0 = diag(1, h_1, ..., h_n) and
  K_m = w_m |0><m| with w_m = sqrt(1 - h_m^2), in the level basis, held as
  one complex operator array indexed by k first, shape (d, d, d);
* a Lindblad master equation with jump operators sqrt(a_m) |0><m|,
  integrated with fixed-step RK4, applied as a power of the d^2 x d^2 step
  matrix of the jump operators (Havel, quant-ph/0201127), whose generator
  takes its jump term sum_m L_m (x) L_m from one einsum over them, not from
  the Kraus route's ``superoperator``, and its decay term as the diagonal of
  sum_m L_m^dag L_m, within RK4's stability bound on h; the
  emission generator is real, so the step matrix, its squares and their
  products are float64 and only the returned state is complex128; the
  squares are cached read-only per (arm rates, step size h), at half the
  bytes of complex ones.

Bipartite use: ``superoperator`` builds S = sum_k K_k (x) conj(K_k) on the
row-major vec, the convention of ``lindblad_evolve``, and ``lift`` applies
it to two qudits as q (S on A) + (1-q) (S on B); both sides is two lifts.
Both write through private cores, which ``separability_report`` hands one workspace.

Time grids: ``se_kraus(rates, times)`` builds the operator array at T times
at once, shape (d, T, d, d), from the same expressions as at a single time;
``apply_kraus`` and ``lift`` of its ``superoperator`` give one state per time.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .linalg import _identity, _pair_dim, dagger
from .su import generator_basis

__all__ = [
    "ChannelParams",
    "AffineBlochMap",
    "se_affine_map",
    "se_kraus",
    "se_kraus_qutrit",
    "apply_kraus",
    "completeness_defect",
    "lindblad_jump_ops",
    "lindblad_evolve",
    "superoperator",
    "lift",
]

# (arm rates, step size, rungs) keys of RK4 squaring ladders kept by _rk4_ladder
RK4_LADDER_CACHE = 128


@dataclass(frozen=True)
class ChannelParams:
    """Decay rates, the elapsed time t >= 0 (inf the decayed limit; RK4 needs it
    finite) and the two-sided mixing weight q."""

    a1: float = 1.0
    a2: float = 1.0
    a3: float = 1.0
    t: float = 0.0
    q: float = 0.5

    def __post_init__(self) -> None:
        _check_rates((self.a1, self.a2, self.a3))
        _check_time(self.t)
        _check_mixing(self.q)

    def rates(self, dim: int) -> tuple:
        """Arm decay rates of the dim-level system: (a1,) for 2, (a2, a3) for 3."""
        if dim not in (2, 3):
            raise ValueError(f"arm rates exist for dim 2 and 3 only, got {dim}")
        return (self.a1,) if dim == 2 else (self.a2, self.a3)

    def with_time(self, t: float) -> "ChannelParams":
        # the rates and q were checked when self was made, so t alone is
        _check_time(t)
        moved = object.__new__(ChannelParams)
        moved.__dict__.update(self.__dict__, t=t)
        return moved


@dataclass(frozen=True)
class AffineBlochMap:
    """Bloch-space action n -> damping @ n + shift at a fixed time, on a vector or a stack."""

    damping: np.ndarray
    shift: np.ndarray

    def apply(self, n: np.ndarray) -> np.ndarray:
        return (self.damping @ np.asarray(n, dtype=float)[..., None])[..., 0] + self.shift


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
    toward, lam_t, eye, pairs, js, ks, shift_scale = _affine_layout(len(rates) + 1)
    h = np.array([1.0, *_arm_factors(rates, t)])
    moved = toward * (1.0 - h * h)
    damping = 0.5 * moved @ lam_t
    damping += eye
    damping[pairs, pairs] = h[js] * h[ks]
    return AffineBlochMap(damping=damping, shift=shift_scale * np.add.reduce(moved, axis=1))


@functools.lru_cache(maxsize=8)
def _affine_layout(dim: int) -> tuple:
    # the rate-independent data of _affine_map, read-only as every call shares
    # it: Lambda[:, :1] - Lambda, Lambda^T, the identity, the pair rows (rows,
    # j, k) in basis order (each pair's symmetric then antisymmetric
    # generator) and the shift factor (b/(d-1))/d
    basis = generator_basis(dim)
    lam = basis.generators.diagonal(axis1=1, axis2=2).real
    # a pair generator has one entry above the diagonal, at (j, k)
    pair_rows = np.nonzero(np.triu(basis.generators, 1))
    arrays = (lam[:, :1] - lam, lam.T, np.eye(basis.n_generators), *pair_rows)
    for arr in arrays:
        arr.flags.writeable = False
    return arrays + (basis.bloch_scale / dim,)


def _arm_factors(rates: tuple, t) -> list:
    # h_m = exp(-a_m t/2); an undamped arm keeps h = 1, even at t = inf where a*t is nan.
    # An a*t that overflows is meant, h = exp(-inf) = 0: Python floats overflow to inf
    # silently, numpy operands (np.float64, a float subclass, too) warn outside the errstate
    if type(t) is float and all(type(a) is float for a in rates):
        return _arm_exponentials(rates, t)
    with np.errstate(over="ignore"):
        return _arm_exponentials(rates, t)


def _arm_exponentials(rates: tuple, t) -> list:
    return [np.exp(-a * t / 2.0) if a else np.ones_like(t, dtype=float) for a in rates]


def _check_rates(rates) -> tuple:
    # the one arm-rate rule, for ChannelParams and the rate-tuple builders alike
    rates = tuple(map(float, rates))
    bad = [a for a in rates if not (math.isfinite(a) and a >= 0)] if rates else [rates]
    if bad:  # name the first bad rate, or () when there are none
        raise ValueError(f"arm rates must be one or more finite numbers >= 0, got {bad[0]}")
    return rates


def _check_mixing(q: float) -> None:
    # the one rule of the two-sided mixing weight, for ChannelParams and lift
    if not 0.0 <= q <= 1.0:  # NaN fails too
        raise ValueError("mixing weight q must lie in [0, 1]")


# the one time rule: t >= 0, inf the decayed limit (NaN fails too)
_NEGATIVE_TIME = "times must be >= 0, got {}"


def _check_time(t) -> None:
    # the scalar form of _check_arms's time rule, for ChannelParams and with_time
    if not t >= 0:
        raise ValueError(_NEGATIVE_TIME.format(float(t)))


def _check_arms(rates, t) -> tuple:
    # checked rates, and times >= 0 (inf included) as a float array
    rates, times = _check_rates(rates), np.asarray(t, dtype=float)
    if not (times >= 0).all():
        raise ValueError(_NEGATIVE_TIME.format(float(times[~(times >= 0)][0])))
    return rates, times


def _kraus_operators(rates: tuple, t) -> np.ndarray:
    # the operator array of se_kraus in the level basis, for checked rates and t
    dim = len(rates) + 1
    ops = np.zeros((dim, *np.shape(t), dim, dim), dtype=complex)
    ops[0, ..., 0, 0] = 1.0
    for m, h in enumerate(_arm_factors(rates, t), 1):
        ops[0, ..., m, m] = h
        ops[m, ..., 0, m] = np.sqrt(1.0 - h * h)
    return ops


def se_kraus(rates, t) -> np.ndarray:
    """Emission channel of the d-level system with d - 1 = len(rates) arms.

    Returns the Kraus operators K_0, ..., K_(d-1) as one complex array,
    indexed by k first: shape (d, d, d) for a scalar t, and (d, T, d, d) for
    an array of T times. Rates must be finite and >= 0 and times >= 0
    (t = inf is the fully decayed limit), else ValueError.
    """
    rates, t = _check_arms(rates, t)
    return _kraus_operators(rates, t)


def se_kraus_qutrit(params: ChannelParams) -> np.ndarray:
    """Qutrit operator array (3, 3, 3) at params.t, whose rates and t ChannelParams checked."""
    return _kraus_operators(params.rates(3), params.t)


def completeness_defect(kraus: np.ndarray) -> float:
    """max |sum_k K_k^dag K_k - I| of an operator array, at one time or over a grid."""
    acc = (dagger(kraus) @ kraus).sum(axis=0)
    return float(np.max(np.abs(acc - np.eye(np.shape(kraus)[-1]))))


def apply_kraus(rho: np.ndarray, kraus: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k^dag for a (d, d) state; a grid array (d, T, d, d) gives T states."""
    rho, kraus = np.asarray(rho, dtype=complex), np.asarray(kraus)
    if rho.shape != kraus.shape[-2:]:
        raise ValueError(f"state shape {rho.shape} does not match operators {kraus.shape}")
    return np.add.reduce(kraus @ rho @ dagger(kraus), axis=0)


def lindblad_jump_ops(rates) -> np.ndarray:
    """Jump operators sqrt(a_m) |0><m|, one per arm, as one (d - 1, d, d) complex array."""
    return _jump_operators(_check_rates(rates), complex)


def _jump_operators(rates: tuple, dtype) -> np.ndarray:
    # lindblad_jump_ops of checked rates, in dtype
    ops = np.zeros((len(rates), len(rates) + 1, len(rates) + 1), dtype=dtype)
    for m, a in enumerate(rates, 1):
        ops[m - 1, 0, m] = np.sqrt(a)
    return ops


def lindblad_evolve(rho0: np.ndarray, params: ChannelParams, steps: int) -> np.ndarray:
    """Integrate the master equation with classical RK4, h = t/steps, for a finite t.

    drho/dt = sum_k ( L_k rho L_k^dag - (1/2){L_k^dag L_k, rho} )

    The dimension d comes from ``rho0`` and the arm rates from
    ``params.rates(d)``. The right-hand side is linear, so one RK4 step is
    exactly the d^2 x d^2 matrix P = I + hS + (hS)^2/2 + (hS)^3/6 + (hS)^4/24
    on the row-major vec, where vec(A X B) = (A kron B^T) vec(X) and S is
    built from the jump operators alone (Havel, J. Math. Phys. 44, 534
    (2003)), its decay term the diagonal -(g_i + g_j)/2 at (i, j) for
    sum_k L_k^dag L_k = diag(g); the result is P^steps rho0. S is upper
    triangular with those eigenvalues, so RK4 is stable while h * max(rates)
    <= 2.78529356340528, where 1 + z + z^2/2 + z^3/6 + z^4/24 returns to 1
    on the negative axis; past it, ValueError. The bound keeps the state
    bounded, not accurate: at a2 = a3 = 1 from |1><1|, 10 steps to t = 27
    (h * a = 2.7) leave an excited population of 0.275, where the Kraus
    route gives 1.9e-12; ``validate`` steps at h * a = 1e-3.

    The jump operators are real, so S, P and every power of P are float64;
    only the last product P^steps vec(rho0) is complex, and the result is
    complex128. P and its squares P^2, P^4, ... are cached read-only per
    (arm rates, h), in a bounded LRU cache, at half the bytes of complex
    matrices, and multiplied in ``np.linalg.matrix_power``'s order, so a
    repeated (rates, h), as in piecewise integration, rebuilds nothing and
    gives the bits of the uncached power.
    """
    rho = np.asarray(rho0, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square state, got shape {rho.shape}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if not math.isfinite(params.t):  # h = t/steps; ChannelParams took t >= 0
        raise ValueError(f"RK4 needs a finite t, got {params.t}")
    return _rk4_power(rho, params.rates(rho.shape[0]), params.t, steps)


def _rk4_stability_bound() -> float:
    # -z at the real root of z^3 + 4z^2 + 12z + 24 (its slope 3z^2 + 8z + 12 > 0), where
    # RK4's amplification returns to 1, bisected down to adjacent floats
    lo, hi = -3.0, -2.0  # the cubic is -3 and 8 there
    while (mid := (lo + hi) / 2) not in (lo, hi):
        lo, hi = (mid, hi) if ((mid + 4.0) * mid + 12.0) * mid + 24.0 < 0 else (lo, mid)
    return -hi


_RK4_BOUND = _rk4_stability_bound()  # 2.7852935634052813, the float just below the root


def _rk4_power(rho: np.ndarray, rates: tuple, t: float, steps: int) -> np.ndarray:
    # P^steps from the cached squares P^(2^k), multiplied in the order of
    # np.linalg.matrix_power: its n = 3 shortcut (P P) P, else the squares of
    # the set bits of n, lowest first
    h = t / steps
    if h * max(rates) > _RK4_BOUND:
        raise ValueError(f"RK4 is unstable: h * max(rates) = {h * max(rates):g} > {_RK4_BOUND:g}")
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
    jumps = _jump_operators(rates, float)  # real operators, so P and its powers are float64
    n = jumps.shape[-1] ** 2
    # the jump term sum_m L_m (x) L_m on the row-major vec; each L_m^dag L_m is a_m |m><m|,
    # so -(1/2){G, rho} is diagonal: -(g_i + g_j)/2 at (i, j). An entry of either sum has
    # one nonzero product at most, so no summation order can round it
    gen = np.einsum("kax,kzy->azxy", jumps, jumps).reshape(n, n)
    g = (jumps * jumps).sum(axis=(0, 1))
    gen.ravel()[:: n + 1] -= 0.5 * (g[:, None] + g[None, :]).ravel()
    hs = h * gen
    eye = _identity(n)
    step = eye + hs @ (eye + hs @ (eye / 2 + hs @ (eye / 6 + hs / 24)))
    step.flags.writeable = False
    return step


def superoperator(ops: np.ndarray) -> np.ndarray:
    """S = sum_k A_k (x) conj(A_k) on the row-major vec, for an operator array.

    ``ops`` is (k, d, d), or (k, T, d, d) on a grid of T times; S is (d^2, d^2)
    or (T, d^2, d^2) with rows (a, z) and columns (x, y), float64 for real
    operators, else complex128. Only the products A_k[a, x] conj(A_k[z, y]) of
    entries nonzero at some time (11 of 81 for qutrit emission) are added, in
    place into a zeroed S in operator order; within one k their targets differ.
    """
    ops = np.asarray(ops, dtype=np.result_type(np.asarray(ops), float))  # real stays real
    lead, n = ops.shape[1:-2], ops.shape[-1] ** 2
    sup = np.empty((math.prod(lead), n * n), dtype=ops.dtype)  # one row per t
    return _superoperator(ops, sup).reshape(lead + (n, n))


def _superoperator(ops: np.ndarray, out: np.ndarray) -> np.ndarray:
    # superoperator's S of an operator array of its dtype, written into out (T, d^4)
    dim = ops.shape[-1]
    ops = ops.reshape(len(ops), -1, dim * dim)  # (k, t, (a, x))
    out.fill(0.0)
    for k, cols, target in _scatter_layout(dim, ops.any(axis=1).tobytes()):
        entries = ops[k][:, cols]
        products = entries[:, :, None] * entries[:, None, :].conj()
        out[:, target] += products.reshape(len(entries), len(cols) ** 2)
    return out


@functools.lru_cache(maxsize=64)
def _scatter_layout(dim: int, pattern: bytes) -> tuple:
    # per nonzero operator k of a (k, d^2) bool pattern: k, its entries (a, x) nonzero at
    # some time and the distinct flat targets ((a, z), (x, y)) of their products, read-only
    place = np.arange(dim**4).reshape((dim,) * 4).transpose(0, 2, 1, 3).reshape(dim * dim, -1)
    layout = []
    for k, nonzero in enumerate(np.frombuffer(pattern, dtype=bool).reshape(-1, dim * dim)):
        cols = np.flatnonzero(nonzero)
        if cols.size:
            target = place[np.ix_(cols, cols)].ravel()
            cols.flags.writeable = target.flags.writeable = False
            layout.append((k, cols, target))
    return tuple(layout)


def lift(rho: np.ndarray, sup: np.ndarray, q: float) -> np.ndarray:
    """q.(S on A) + (1-q).(S on B) for one two-qudit state rho, (d^2, d^2).

    ``sup`` is one ``superoperator`` (d^2, d^2), giving one state, or a stack
    (T, d^2, d^2), giving T states; float64 when both are real, else
    complex128. q = 1 acts on A only and q = 0 on B only, so S on both sides
    is ``lift(lift(rho, S, 1.0), S, 0.0)``. Side A is one product S M_A over
    all times, with M_A[(x, y), (b, c)] = rho[(x, b), (y, c)]; side B is the
    same over rho's B indices. Side A's product is gathered into B's layout,
    both are scaled in place and added there (addition commutes, so the bits
    are those of the output layout), and one gather gives ((a, b), (z, c)).
    """
    dtype = np.result_type(np.asarray(rho), np.asarray(sup), float)  # real stays real
    rho, sup = np.asarray(rho, dtype=dtype), np.asarray(sup, dtype=dtype)
    dim, n = _pair_dim(sup.shape[-2:]), sup.shape[-1]
    if rho.shape != (n, n):
        raise ValueError(f"state shape {rho.shape} does not match superoperator "
                         f"{sup.shape} of dimension {dim}")
    _check_mixing(q)
    out, scratch = np.empty((2, sup.size // (n * n), n * n), dtype=dtype)
    return _lift(rho, sup, q, out, scratch).reshape(sup.shape[:-2] + rho.shape)


def _lift(rho: np.ndarray, sup: np.ndarray, q: float,
          out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    # lift of a checked rho (d^2, d^2) by sup, T superoperators of its dtype,
    # written into out (T, d^4) by way of scratch of the same shape
    dim, n = math.isqrt(len(rho)), len(rho)
    tensor = rho.reshape(dim, dim, dim, dim)  # (a, b, a', b'), A slow
    # the rows (x, y) of M are rho's indices on the acted-on side
    m_a, m_b = tensor.transpose(0, 2, 1, 3), tensor.transpose(1, 3, 0, 2)
    a_to_b, b_to_out = _mix_gathers(dim)
    np.matmul(sup.reshape(-1, n), m_a.reshape(n, n), out=out.reshape(-1, n))
    # mode="clip" lets take write into out without buffering a copy
    np.take(out, a_to_b, axis=1, out=scratch, mode="clip")  # side A in side B's layout
    scratch *= q
    np.matmul(sup.reshape(-1, n), m_b.reshape(n, n), out=out.reshape(-1, n))
    out *= 1.0 - q
    scratch += out
    return np.take(scratch, b_to_out, axis=1, out=out, mode="clip")


@functools.lru_cache(maxsize=8)
def _mix_gathers(dim: int) -> tuple:
    # flat positions, in the rows of S M, of side B's layout (b, c, a, z) in
    # side A's product (a, z, b, c), and of the output entries ((a, b), (z, c))
    # in side B's layout; read-only, as they are shared by every call
    pos = np.arange(dim**4).reshape((dim,) * 4)
    gathers = pos.transpose(2, 3, 0, 1).ravel(), pos.transpose(2, 0, 3, 1).ravel()
    for gather in gathers:
        gather.flags.writeable = False
    return gathers
