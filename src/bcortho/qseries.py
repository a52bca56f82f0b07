"""q-analysis kernel.

q-shifted factorials (finite, infinite, real exponent), ratios of
infinite ones, Jacobi theta values and the quasi-constant Psi_t from
them. All functions assume a fixed base 0 < q < 1.

(a;q)_inf and (a;q)_tau have one block kernel each, qpoch_infinite_arr
and qpoch_real_arr, over arguments of any shape; qpoch_infinite and
qpoch_real are one-element calls, and callers pass all their arguments in
one call, since each keeps its own truncation, pole guard and rounding.
So every closed form of the families makes one kernel call
(qpoch_ratios, qpoch_theta_values with psi_of_thetas, or the array
kernel itself) and multiplies the values in the order of its product: bit
for bit the product of one-argument calls.

Real exponents tau never enter through complex powers: a factorial
(a;q)_tau = (a;q)_inf / (a*t;q)_inf, with t = q^tau supplied by the
caller, is the product of the factor ratios (1 - a q^j) / (1 - a t q^j),
so only multiplications by t occur in inner loops.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import (
    DomainViolation,
    PoleAtDenominator,
    PoleInDenominator,
    PoleInProduct,
    ZeroArgument,
    ZeroProduct,
)

# Truncation scale for infinite products: once |a| q^j drops below
# EPS_TRUNC the remaining tail changes the product by a relative amount
# below |a| q^j / (1 - q), i.e. by at most a few ulps.
EPS_TRUNC = 2.0 ** -53

# Guard distance for denominator factors.
POLE_GUARD = 1e-13

# Element count of the largest (factors x arguments) block of the kernel.
BLOCK = 1 << 12


def check_q(q: float) -> float:
    """Validate the base, returning it unchanged."""
    if not (isinstance(q, (int, float)) and 0.0 < q < 1.0):
        raise DomainViolation(f"base q must be real in (0,1), got {q!r}")
    return float(q)


def qpoch_finite(a: complex, q: float, k: int,
                 require_nonzero: bool = False) -> complex:
    """Finite q-shifted factorial (a;q)_k = prod_{i=0}^{k-1} (1 - a q^i)
    of a scalar a, or at every entry of an array a (left unmodified).

    With require_nonzero, for a scalar a, ZeroProduct is raised when a
    single factor is within the pole guard, as in qpoch_infinite."""
    if k < 0:
        raise DomainViolation(f"finite exponent must be >= 0, got {k}")
    prod: complex = 1.0
    aq = a
    for _ in range(k):
        f = 1.0 - aq
        if require_nonzero and abs(f) < POLE_GUARD:
            raise ZeroProduct(f"(a;q)_k vanishes: factor 1 - {aq} ~ 0")
        prod *= f
        aq = aq * q
    return prod


def qpoch_infinite(a: complex, q: float,
                   require_nonzero: bool = False) -> complex:
    """Infinite q-shifted factorial (a;q)_inf of one argument: a
    one-element call of qpoch_infinite_arr."""
    return qpoch_infinite_arr(a, q, require_nonzero).item()


def qpoch_infinite_arr(a: np.ndarray, q: float,
                       require_nonzero=False) -> np.ndarray:
    """(a;q)_inf = prod_{j>=0} (1 - a q^j) at every entry of an array of
    any shape. Where require_nonzero (a bool, or bools broadcastable to a)
    holds, ZeroProduct names an argument with a factor within the pole
    guard (a = q^{-m}, m >= 0), instead of returning a value near zero."""
    return _qpoch_blocks(a, q, None, require_nonzero)


def qpoch_real(a: complex, q: float, t: float) -> complex:
    """q-shifted factorial with real exponent (a;q)_tau, t = q^tau, of one
    argument: a one-element call of qpoch_real_arr."""
    return qpoch_real_arr(a, q, t).item()


def qpoch_real_arr(a: np.ndarray, q: float, t: float) -> np.ndarray:
    """(a;q)_tau with t = q^tau at every entry of an array of any shape:
    the product of the factor ratios (1 - a q^j) / (1 - a t q^j), so that
    |a| >> 1 cannot overflow where the two products would. Only the
    companion value t is used; tau itself never enters. PoleAtDenominator
    names the argument if a factor 1 - a t q^j vanishes."""
    if not t > 0:
        raise DomainViolation(f"companion value t must be positive, got {t}")
    return _qpoch_blocks(a, q, t, True)


def _qpoch_blocks(a, q: float, t: float | None, guard) -> np.ndarray:
    """The kernel: (a;q)_inf for t None, else (a;q)_tau with t = q^tau.

    Factor j of an argument is taken while |a| max(1, t) q^j >= EPS_TRUNC,
    with q^j formed by repeated multiplication. A step multiplies a block
    of rows j by arguments (at most BLOCK elements, or one row) down its
    rows, the running products in its first row: numpy does that one row
    at a time unless the block has one column, so a lone argument is
    doubled. Where guard (as require_nonzero) holds, a taken factor
    1 - a q^j, or denominator 1 - a t q^j, below POLE_GUARD raises."""
    a = np.asarray(a)
    dtype = complex if a.dtype.kind == "c" else float
    x = a.astype(dtype).ravel()
    mask = None
    if not isinstance(guard, bool):
        mask = (np.zeros(a.shape, bool) | np.asarray(guard, bool)).ravel()
        guard = bool(mask.any())
    if x.size == 1:
        x, mask = np.concatenate((x, x)), None
    mag = np.abs(x) * (1.0 if t is None else max(1.0, t))
    top = float(np.maximum.reduce(mag)) if x.size else 0.0
    # a NaN argument makes top NaN
    if not math.isfinite(top):
        raise DomainViolation("q-shifted factorial of a non-finite argument")
    if not top >= EPS_TRUNC:
        return np.ones(a.shape, dtype)
    low = float(np.minimum.reduce(mag))
    # |guarded factor| >= | |a g q^j| - 1 |, with |a g q^j| ~ mag g
    g = 1.0 if t is None else min(1.0, t)
    # q^j for every j the largest argument takes: the estimate n is off
    # by one at most, where top q^n rounds across EPS_TRUNC
    n = int(math.log(EPS_TRUNC / top) / math.log(q)) + 1
    Q = _powers(q, 64 * (n // 64 + 1))
    n += int(top * Q[n] >= EPS_TRUNC) - int(top * Q[n - 1] < EPS_TRUNC)
    rows = max(1, BLOCK // x.size)
    run: complex | np.ndarray = 1.0
    for j in range(0, n, rows):
        qj = Q[j:min(n, j + rows), None]
        blk = np.empty((len(qj) + 1, x.size), dtype)
        blk[0] = run
        f = np.multiply(x, qj, out=blk[1:])
        checked = f if t is None else 1.0 - f * t
        np.subtract(1.0, f, out=f)
        q_lo = qj[-1, 0]
        dead = mag * qj < EPS_TRUNC if low * q_lo < EPS_TRUNC else None
        if guard and low * q_lo * g <= 2.0 and top * qj[0, 0] * g >= 0.5:
            near = np.abs(checked) < POLE_GUARD
            if near.any() and dead is not None:
                near &= ~dead
            if near.any() and mask is not None:
                near &= mask
            if near.any():
                x0 = x[np.argwhere(near)[0, 1]]
                raise (ZeroProduct if t is None else PoleAtDenominator)(
                    f"a guarded factor vanishes at a = {x0}, q = {q}"
                    + ("" if t is None else f", t = {t}"))
        if t is not None:
            f /= checked
        if dead is not None:
            np.putmask(f, dead, 1.0)
        run = np.multiply.reduce(blk, axis=0)
    return run[:a.size].reshape(a.shape)


@functools.lru_cache(maxsize=16)
def _powers(q: float, n: int) -> np.ndarray:
    """q^j for j < n, each the previous times q; read-only."""
    Q = np.multiply.accumulate(np.r_[1.0, np.full(n - 1, q)])
    Q.flags.writeable = False
    return Q


def qpoch_infinite_values(
        args: Sequence[complex], q: float,
        errors: Sequence[Callable[[ZeroProduct], Exception] | None]
) -> List[complex]:
    """(a;q)_inf at every a of args, from one kernel call. errors[k] is
    None where a_k is unguarded, else the function that turns the
    ZeroProduct of a vanishing factor of a_k into the caller's error. The
    error raised is that of the first guarded argument, in order, with a
    vanishing factor: the one that a qpoch_infinite call per argument, in
    that order, would raise."""
    try:
        return qpoch_infinite_arr(
            args, q, [err is not None for err in errors]).tolist()
    except ZeroProduct:
        for a, err in zip(args, errors):
            if err is not None:
                try:
                    qpoch_infinite(a, q, require_nonzero=True)
                except ZeroProduct as exc:
                    raise err(exc) from exc
        raise


def _in_denominator(exc: ZeroProduct) -> PoleInProduct:
    return PoleInProduct(f"in a denominator: {exc}")


def _ratio(num: Iterable[complex], den: Iterable[complex]) -> complex:
    """1.0 times every value of num, then divided by every value of den,
    in order. A den value of 0, a product that underflowed, raises
    PoleInProduct."""
    val: complex = 1.0
    for v in num:
        val *= v
    for v in den:
        if v == 0:
            raise PoleInProduct("a denominator product underflowed to 0")
        val /= v
    return val


def qpoch_ratios(ratios: Iterable[Tuple[Iterable[complex],
                                        Iterable[complex]]],
                 q: float) -> List[complex]:
    """The product of (x;q)_inf over num divided by the same over den,
    for every (num, den) of ratios, from one kernel call; each value is
    multiplied and divided in argument order, as separate qpoch_infinite
    calls would be. Each denominator factor 1 - x q^j is tested against
    the pole guard on its own, so a tiny but nonzero product is accepted;
    a vanishing one raises PoleInProduct, as the first of those calls to
    meet one would."""
    sides = [(list(num), list(den)) for num, den in ratios]
    vals = iter(qpoch_infinite_values(
        [x for num, den in sides for x in num + den], q,
        [e for num, den in sides
         for e in [None] * len(num) + [_in_denominator] * len(den)]))
    return [_ratio([next(vals) for _ in num], [next(vals) for _ in den])
            for num, den in sides]


def qpoch_theta_values(args: Sequence[complex], xs: Sequence[complex],
                       q: float) -> Tuple[List[complex], List[complex]]:
    """(a;q)_inf at every a of args and the Jacobi theta function
    theta(x) = (q;q)_inf (x;q)_inf (q/x;q)_inf at every x of xs, from one
    kernel call."""
    if any(x == 0 for x in xs):
        raise ZeroArgument("theta is undefined at x = 0")
    m, k = len(args), len(xs)
    f = qpoch_infinite_arr([*args, q, *xs, *(q / x for x in xs)],
                           q).tolist()
    return f[:m], [f[m] * f[m + 1 + i] * f[m + 1 + k + i] for i in range(k)]


def psi_of_thetas(x: float, q: float, t: float, num: complex,
                  den: complex) -> float:
    """The quasi-constant Psi_t(x) = |x|^{2 tau - 1} theta(t x) /
    theta(q x / t), invariant under x -> q x, of a real nonzero x, from
    its two theta values num = theta(t x) and den = theta(q x / t), so
    that a caller can fetch those of many x with its other factors in one
    kernel call (qpoch_theta_values)."""
    tau = math.log(t) / math.log(q)
    if abs(den) < POLE_GUARD:
        raise PoleInDenominator(f"theta(q x / t) ~ 0 at x={x}, t={t}")
    power = math.exp((2.0 * tau - 1.0) * math.log(abs(x)))
    val = power * num / den
    return val.real if isinstance(val, complex) else val

