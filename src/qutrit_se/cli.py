"""Command-line front end.

Commands
--------
curves      CSV indicator curves (s, fidelity, negativity) over a1*t
threshold   indicator crossings and the preservation verdict for one parameter set
compare     qubit-vs-qutrit verdict grid over the rate ratios (A2/A1, A3/A1)
haar        second-moment report for Haar-random pure states
validate    self-check suite with measured defects; exit 1 on any failure

All times are reported in the dimensionless combination a1*t. CSV numbers
carry at most 9 significant digits with '.' as the decimal separator and LF
line endings; reports are key=value lines. Exit codes: 0 success, 1 failed
validation, 2 bad usage or an input that cannot be answered (an unwritable
--output path, a report too large for memory, a crossing below the smallest
float); output is written only once the report is complete. Each input is
checked by the library function that the command calls; this module adds
only two rules of its own, --samples >= 100 and --seed >= 0.
"""

from __future__ import annotations

import argparse
import functools
import io
import sys

import numpy as np

from . import analysis, channels, states, su
from .channels import ChannelParams
from .linalg import _random_density_matrices

__all__ = ["main"]

_GENERATOR_NAME = "PCG64"
_SPECIES = ((2, "qubit"), (3, "qutrit"))


def _fmt(x: float, digits: int = 9) -> str:
    return format(float(x), f".{digits}g")


def _checked_seed(seed: int) -> int:
    # numpy rejects a negative seed too, but without naming the option
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return seed


# Decimal exponents e that _render_rows certifies: |x| * 10^(8 - e) then takes
# at most two exact powers of ten (10^0..10^22 are floats), so with two
# roundings y lies within 2.3e-7 of the exact product while y < 1e9
_EXP_LO, _EXP_HI = -36, 30
_N_EXP = _EXP_HI - _EXP_LO + 1
_ZERO, _EXACT = _N_EXP * 9, _N_EXP * 9 + 1  # layouts after the 9 per exponent


@functools.cache
def _csv_tables():
    """Constant tables of ``_render_rows``, built on first use (about 120 KB).

    A value is laid out in 32 bytes, as four 8-byte words: the sign at 0, "0.000"
    at 1-5, digit j of the 9 at 6 + 2j with a point after it (the point after the
    last is an "e"), the exponent's sign and two digits at 24-26, a "?" at 27
    and the separator at 28. A layout masks the bytes one value keeps (0xff)
    and clears the others: one per (exponent, significant digits), one for
    zero, and one for the "?" that stands in for a value of the exact path.
    """
    exps = np.arange(_EXP_LO, _EXP_HI + 1)
    e = exps[:, None, None]
    n = np.arange(1, 10)[:, None]  # significant digits
    b = np.arange(32)
    digit = np.where((b >= 6) & (b <= 22) & (b % 2 == 0), (b - 6) // 2, 9)
    fixed = (-4 <= e) & (e <= 8)  # %.9g's fixed form
    point = np.where(fixed, e, 0)  # the digit the point follows: ddd.ddd, d.ddde+XY
    keep = digit < np.maximum(n, np.where(fixed, e + 1, 0))  # every integer digit kept
    keep = keep | (b == 7 + 2 * point) & (n > point + 1) & (point >= 0)
    keep = keep | fixed & (e < 0) & (b >= 1) & (b <= 1 - e)  # 0.000ddd
    keep = keep | ~fixed & (b >= 23) & (b <= 26)  # e-XY
    keep = np.concatenate([keep.reshape(-1, 32), np.zeros((2, 32), bool)])
    keep[_ZERO, 1] = keep[_EXACT, 27] = True
    keep[:, 28] = True

    lead = np.tile(np.frombuffer(b"\x000.000\x00.", np.uint8), (10, 1))  # the sign's byte, "0.000"
    lead[:, 6] = np.arange(10) + ord("0")  # digit 0
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T  # of 0000..9999
    quad = np.full((10_000, 8), ord("."), np.uint8)  # digits 1-4 or 5-8, each with its point
    quad[:, 0::2] = digits + ord("0")
    tail = np.zeros((_N_EXP, 8), np.uint8)
    tail[:, 0] = np.where(exps < 0, ord("-"), ord("+"))
    tail[:, 1:3] = np.abs(exps)[:, None] // np.array([10, 1]) % 10 + ord("0")
    tail[:, 3:5] = ord("?"), ord(",")

    # significant digits of m = lead * 10^8 + hi * 10^4 + lo: the larger of
    # sig[0][hi] = 1 + hi's digits up to its last nonzero one and sig[1][lo] =
    # 5 + lo's (0 for lo = 0)
    last = ((digits != 0) * np.arange(1, 5, dtype=np.int8)).max(axis=1)
    sig = np.stack([1 + last, np.where(last > 0, 5 + last, 0)]).astype(np.int8)

    p10 = np.array([float(10**j) for j in range(23)])
    k = 8 - exps  # y = |x| * m1 * m2 / dv: one or two exact products, or one exact quotient
    scale = p10[np.clip(k, 0, 22)], p10[np.clip(k - 22, 0, 22)], p10[np.clip(-k, 0, 22)]
    masks = (keep * np.uint8(0xFF)).view(np.uint64)  # (layouts, 4) words
    return masks, [w.view(np.uint64)[:, 0] for w in (lead, quad, tail)], sig, scale


def _exact(values: np.ndarray) -> list:
    """The "%.9g" text of each value the kernel of ``_render_rows`` cannot certify."""
    return ["%.9g" % x for x in values.tolist()]


def _value_words(v: np.ndarray):
    """Each value's 32 bytes (see ``_csv_tables``) as four masked uint64 words,
    and the positions of the values left to ``_exact``.

    With e the decimal exponent of |x| and y = |x| * 10^(8 - e) (at most two
    roundings, so within 2.3e-7 of the exact product), %.9g prints the digits
    of m = rint(y) wherever 1e8 <= y, m < 1e9 and |y - m| < 1/2 - 1e-6: the
    exact product then rounds to the same m, and if e was one too large (y at
    1e8 from below), its 9-digit rounding carries up to the same 1e8 * 10^(e-8).
    np.log10 only proposes e and one step corrects it; the test above, not
    log10, certifies. Non-finite values, values outside 10^_EXP_LO..10^(_EXP_HI+1)
    and those near a half-unit are left to ``_exact``.
    """
    masks, (lead_w, quad_w, tail_w), sig, (m1, m2, dv) = _csv_tables()
    a = np.abs(v)
    with np.errstate(divide="ignore", invalid="ignore"):  # log10(0), and y - m at inf
        e = np.fmin(np.fmax(np.floor(np.log10(a)), _EXP_LO), _EXP_HI).astype(np.intp) - _EXP_LO
        y = a * m1.take(e) * m2.take(e) / dv.take(e)
        under, over = y < 1e8, y >= 1e9
        miss = np.flatnonzero(under | over)
        if len(miss):
            e[miss] = np.clip(e[miss] + np.where(over[miss], 1, -1), 0, _N_EXP - 1)
            y[miss] = a[miss] * m1.take(e[miss]) * m2.take(e[miss]) / dv.take(e[miss])
        m = np.rint(y)
        certified = (np.abs(y - m) < 0.5 - 1e-6) & (y >= 1e8) & (m < 1e9)
    m = np.where(certified, m, 1e8).astype(np.intp)
    lead = m // 100_000_000
    rest = m - lead * 100_000_000
    hi = rest // 10_000
    lo = rest - hi * 10_000
    layout = e * 9 + np.maximum(sig[0].take(hi), sig[1].take(lo)) - 1
    zero = v == 0
    layout[zero] = _ZERO
    exact = np.flatnonzero(~(certified | zero))
    layout[exact] = _EXACT

    words = np.empty((len(v), 4), np.uint64)
    words[:, 0] = lead_w.take(lead)
    words[:, 1] = quad_w.take(hi)
    words[:, 2] = quad_w.take(lo)
    words[:, 3] = tail_w.take(e)
    words.view(np.uint8)[:, 23] = ord("e")  # over the last point: one quad table serves both words
    words &= masks.take(layout, axis=0)
    return words, exact


def _render_rows(rows: np.ndarray) -> str:
    """The rows as "%.9g" values joined by "," and ended by "\\n", byte for byte.

    Each value's masked bytes, from ``_value_words``, with its sign and
    separator; one ``bytes.translate`` drops the cleared ones, and each value
    the kernel cannot certify is formatted by ``_exact`` in its place.
    """
    v, cols = rows.ravel(), rows.shape[1]
    words, exact = _value_words(v)
    text = words.view(np.uint8)
    text[cols - 1 :: cols, 28] = ord("\n")
    text[np.signbit(v), 0] = ord("-")
    text[exact, 0] = 0  # the exact text brings its own sign
    out = text.tobytes().translate(None, b"\0").decode("ascii")
    if len(exact):  # each exact value in place of its "?"
        parts = out.split("?")
        out = "".join([s for pair in zip(parts, _exact(v[exact])) for s in pair] + parts[-1:])
    return out


def run_curves(args: argparse.Namespace, out) -> int:
    params = ChannelParams(a1=args.a1, a2=args.a2, a3=args.a3, q=args.q)
    rows = analysis.separability_report(args.p, params, t_max=args.t_max, steps=args.steps)
    out.write("t,s_qubit,s_qutrit,F_qubit,F_qutrit,neg_qubit,neg_qutrit\n")
    # a block of rows at a time, not the whole table, so the kernel's
    # temporaries stay one block's whatever the grid length
    for lo in range(0, len(rows), analysis.GRID_CHUNK):
        out.write(_render_rows(rows[lo : lo + analysis.GRID_CHUNK]))
    return 0


def run_threshold(args: argparse.Namespace, out) -> int:
    params = ChannelParams(a1=args.a1, a2=args.a2, a3=args.a3)
    t_qb = analysis.indicator_crossing(args.p, params.rates(2), params.a1)
    t_qt = analysis.indicator_crossing(args.p, params.rates(3), params.a1)
    # crossings that are not times print as words ("inf" would parse as one)
    words = {None: "separable_at_t0", np.inf: "beyond_2^60"}

    out.write(f"p={_fmt(args.p)}\n")
    a21, a31 = params.a2 / params.a1, params.a3 / params.a1
    out.write(f"a21={_fmt(a21)}\n")
    out.write(f"a31={_fmt(a31)}\n")
    out.write(f"t_cross_qubit={words.get(t_qb) or _fmt(t_qb)}\n")
    out.write(f"t_cross_qutrit={words.get(t_qt) or _fmt(t_qt)}\n")
    if args.p > 1.0 / 3.0:
        closed = analysis.qubit_crossing_closed(args.p)
        verdict = analysis.preservation_inequality(args.p, params.rates(3), params.a1)
        out.write(f"t_qubit_closed={_fmt(closed)}\n")
        out.write(f"preservation_inequality={str(verdict).lower()}\n")
    else:
        # both are defined only while the qubit pair starts entangled
        out.write("t_qubit_closed=separable_at_t0\n")
        out.write("preservation_inequality=undefined\n")
    longer = analysis.qutrit_crosses_no_earlier(t_qb, t_qt)
    out.write(f"qutrit_preserves_longer={str(longer).lower()}\n")
    return 0


def run_compare(args: argparse.Namespace, out) -> int:
    grid = np.linspace(0.2, 5.0, 10)
    a21s, a31s = np.repeat(grid, len(grid)), np.tile(grid, len(grid))  # rows a21, then a31
    # p checked once (the weight, then 1/3 < p <= 1) before any search; the fixed
    # grid's rates once, by the lane search: each cell's verdict from the unchecked core
    alpha = analysis._qubit_alpha(args.p)
    verdicts = [analysis._preserves(args.p, alpha, a, 1.0) for a in zip(a21s, a31s)]
    t_qb = analysis.indicator_crossing(args.p, (1.0,))
    t_qts = analysis.indicator_crossing(args.p, (a21s, a31s))
    out.write("a21,a31,t_qubit,t_qutrit,inequality,agree\n")
    cells = []  # one % call for the table: "%.9g" formats as _fmt does, inf included
    for a21, a31, verdict, t_qt in zip(a21s.tolist(), a31s.tolist(), verdicts, t_qts):
        agree = verdict == analysis.qutrit_crosses_no_earlier(t_qb, t_qt)
        cells += (a21, a31, t_qb, t_qt, str(verdict).lower(), str(agree).lower())
    out.write("%.9g,%.9g,%.9g,%.9g,%s,%s\n" * len(verdicts) % tuple(cells))
    return 0


def run_haar(args: argparse.Namespace, out) -> int:
    if args.samples < 100:
        raise ValueError("samples must be >= 100")
    seed = _checked_seed(args.seed)
    out.write(f"generator={_GENERATOR_NAME}\n")
    out.write(f"seed={seed}\n")
    # the qubit at half the samples, both from one stream (one haar_moment_check each, bit for bit)
    moments = analysis._haar_pair_moments(args.samples, seed)
    for (d, name), samples, m in zip(_SPECIES, (args.samples // 2, args.samples), moments):
        target, quantum = 1.0 / (d * d - 1), 1.0 / (d - 1)
        diag_dev = np.max(np.abs(np.diag(m) - target))
        off_dev = np.max(np.abs(m - np.diag(np.diag(m))))
        ratio = np.mean(np.diag(m)) / quantum
        out.write(f"{name}_samples={samples}\n")
        out.write(f"{name}_mean_diag={_fmt(np.mean(np.diag(m)), 17)}\n")
        out.write(f"{name}_max_diag_dev={_fmt(diag_dev, 17)}\n")
        out.write(f"{name}_max_offdiag_dev={_fmt(off_dev, 17)}\n")
        out.write(f"{name}_classical_quantum_ratio={_fmt(ratio, 17)}\n")
    return 0


def _validate_checks(seed: int):
    """Yield (name, measured_defect, tolerance) for every self-check."""
    rng = np.random.default_rng(seed)
    rate_pairs = ((1.0, 1.0), (2.0, 1.0), (0.5, 3.0))
    times = (0.0, 0.1, 1.0, 10.0)

    for d, name in _SPECIES:
        kraus = (channels.se_kraus(rates[: d - 1], times) for rates in rate_pairs)
        yield f"kraus_completeness_{name}", max(map(channels.completeness_defect, kraus)), 1e-12

    # states are checked as stacks, each member with the bits of its own calls
    par = ChannelParams(a2=1.0, a3=0.7)
    rhos = _random_density_matrices(3, 5, rng)
    n0 = su.density_to_bloch(rhos)
    defect = 0.0
    for t in (0.3, 1.0, 2.5):
        at = par.with_time(t)
        kraus = channels.se_kraus_qutrit(at)
        via_kraus = np.array([channels.apply_kraus(rho, kraus) for rho in rhos])
        via_affine = su.bloch_to_density(channels.se_affine_map(at).apply(n0))
        defect = max(defect, float(np.max(np.abs(via_kraus - via_affine))))
    yield "kraus_vs_affine", defect, 1e-10

    defect = 0.0
    at = par.with_time(0.7)
    for rho in _random_density_matrices(3, 2, rng):
        via_kraus = channels.apply_kraus(rho, channels.se_kraus_qutrit(at))
        via_ode = channels.lindblad_evolve(rho, at, steps=700)
        defect = max(defect, float(np.max(np.abs(via_kraus - via_ode))))
    yield "kraus_vs_lindblad", defect, 1e-6

    defect = 0.0
    for d in (2, 3):
        rhos = _random_density_matrices(d, 20, rng)
        back = su.bloch_to_density(su.density_to_bloch(rhos))
        defect = max(defect, float(np.max(np.abs(back - rhos))))
    yield "bloch_round_trip", defect, 1e-12

    # the pure states and both moment checks read heads of one normal stream
    pure, *moment_draws = analysis._haar_heads(seed, ((3, 200), (2, 20_000), (3, 20_000)))
    norms = (pure[:, None, :] @ pure[:, :, None])[:, 0, 0]  # n @ n's bits, unlike an einsum's
    # of the pure-state conditions |n| = 1 and n * n = n; np.max, not max: a NaN fails
    defects = [0.0, np.max(np.abs(norms - 1.0)), np.max(np.abs(su.star_product(pure, pure) - pure))]
    yield "pure_state_conditions", float(np.max(defects)), 1e-10

    for d, name in _SPECIES:
        yield f"ppt_threshold_{name}", abs(analysis.ppt_threshold(d) - 1.0 / (d + 1)), 1e-4
    for (d, name), n in zip(_SPECIES, moment_draws):
        m = n.T @ n / len(n)  # haar_moment_check(d, 20_000, seed)
        defect = float(np.max(np.abs(m - np.eye(d * d - 1) / (d * d - 1))))
        yield f"haar_moments_{name}", defect, 0.02

    par = ChannelParams(a2=1.3, a3=0.4)
    m_a = channels.se_affine_map(par.with_time(0.6))
    m_b = channels.se_affine_map(par.with_time(1.1))
    m_ab = channels.se_affine_map(par.with_time(1.7))
    defect = max(
        float(np.max(np.abs(m_b.damping @ m_a.damping - m_ab.damping))),
        float(np.max(np.abs(m_b.damping @ m_a.shift + m_b.shift - m_ab.shift))),
    )
    yield "affine_semigroup", defect, 1e-12

    at = ChannelParams(t=1.0)
    sup = channels.superoperator(channels.se_kraus_qutrit(at))
    rho3 = channels.lift(states.werner(3, 1.0), sup, 0.5)
    closed = analysis.fidelity_closed(at.rates(3), at.t)
    defect = abs(analysis.fidelity_from_state(rho3) - closed)
    yield "fidelity_closed_vs_state", defect, 1e-10

    t_closed = analysis.qubit_crossing_closed(1.0)
    t_bisect = analysis.indicator_crossing(1.0, (1.0,))
    yield "qubit_crossing_closed_vs_bisection", abs(t_closed - t_bisect), 1e-11


def run_validate(args: argparse.Namespace, out) -> int:
    failed = 0
    total = 0
    for name, defect, tol in _validate_checks(_checked_seed(args.seed)):
        ok = defect <= tol
        failed += 0 if ok else 1
        total += 1
        out.write(
            f"check={name} defect={format(defect, '.3e')} "
            f"tol={format(tol, '.0e')} pass={str(ok).lower()}\n"
        )
    out.write(f"result={'pass' if failed == 0 else 'fail'} checks={total} failed={failed}\n")
    return 0 if failed == 0 else 1


# Every command, in help order: command -> (runner, help, ((flag, type, default,
# help), ...)). build_parser makes argparse's parser from it, _parse_args reads plain
# argv with it and main dispatches through it; each dest is argparse's (--t-max -> t_max).
_RATES = (
    ("--a1", float, 1.0, "qubit decay rate"),
    ("--a2", float, 1.0, "first qutrit decay rate"),
    ("--a3", float, 1.0, "second qutrit decay rate"),
)
_P = ("--p", float, 1.0, "Werner weight")
_SEED = ("--seed", int, 42, "RNG seed")
_OUTPUT = ("--output", str, None, "write to file instead of stdout")
_COMMANDS = {
    "curves": (
        run_curves,
        "indicator-curve CSV over a1*t",
        (
            *_RATES,
            _P,
            ("--q", float, 0.5, "two-sided mixing weight"),
            ("--t-max", float, 5.0, "max a1*t"),
            ("--steps", int, 500, "grid intervals"),
            _OUTPUT,
        ),
    ),
    "threshold": (run_threshold, "crossing times and preservation verdict", (*_RATES, _P, _OUTPUT)),
    "compare": (run_compare, "verdict grid over (a2/a1, a3/a1)", (_P, _OUTPUT)),
    "haar": (
        run_haar,
        "Haar second-moment report",
        (("--samples", int, 200_000, "qutrit sample count"), _SEED, _OUTPUT),
    ),
    "validate": (run_validate, "run the self-check suite", (_SEED, _OUTPUT)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Parser built once per process and shared by every ``main`` call: do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="qutrit-se",
        description="Spontaneous-emission channel curves, thresholds and self-checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary, options) in _COMMANDS.items():
        sp = sub.add_parser(command, help=summary)
        for flag, convert, default, text in options:
            sp.add_argument(flag, type=convert, default=default, help=text)
    return parser


def _parse_args(parser: argparse.ArgumentParser, argv: list) -> argparse.Namespace:
    # A command followed by pairs of its own exact flag and a value that does
    # not start with "-" and that the flag's type accepts: argparse would store
    # each converted value over the command's defaults (a repeated flag keeps
    # its last), and so does this, without argparse's general parse. Every
    # other argv takes that parse: help, --name=value, abbreviations, negative
    # or rejected values, junk, unknown commands and usage errors.
    spec = _COMMANDS.get(argv[0]) if len(argv) % 2 else None
    if spec is not None:
        args = argparse.Namespace(command=argv[0])
        options, values = {}, vars(args)  # values are the namespace's attributes
        for flag, convert, default, _ in spec[2]:
            dest = flag[2:].replace("-", "_")
            options[flag] = dest, convert
            values[dest] = default
        for flag, value in zip(argv[1::2], argv[2::2]):
            if flag not in options or value.startswith("-"):
                break
            dest, convert = options[flag]
            try:
                values[dest] = convert(value)
            except ValueError:
                break
        else:
            return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(build_parser(), sys.argv[1:] if argv is None else list(argv))
    report = io.StringIO()
    try:
        code = _COMMANDS[args.command][0](args, report)
        if args.output is None:
            sys.stdout.write(report.getvalue())
        else:
            with open(args.output, "w", newline="") as fh:
                fh.write(report.getvalue())
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
