"""Scalar q-analysis kernel.

q-shifted factorials (finite, infinite, real exponent), the Jacobi theta
function, the q-gamma function and the quasi-constant Psi_t. All functions
assume a fixed base 0 < q < 1.

Real exponents tau never enter through complex powers: a factorial
(a;q)_tau = (a;q)_inf / (a*t;q)_inf, with t = q^tau supplied by the
caller, is the product of the factor ratios (1 - a q^j) / (1 - a t q^j),
so only multiplications by t occur in inner loops.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from .errors import (
    DomainViolation,
    PoleAtDenominator,
    PoleAtNonpositiveInteger,
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


def check_q(q: float) -> float:
    """Validate the base, returning it unchanged."""
    if not (isinstance(q, (int, float)) and 0.0 < q < 1.0):
        raise DomainViolation(f"base q must be real in (0,1), got {q!r}")
    return float(q)


def qpoch_finite(a: complex, q: float, k: int,
                 require_nonzero: bool = False) -> complex:
    """Finite q-shifted factorial (a;q)_k = prod_{i=0}^{k-1} (1 - a q^i).

    With require_nonzero, ZeroProduct is raised when a single factor is
    within the pole guard, as in qpoch_infinite."""
    if k < 0:
        raise DomainViolation(f"finite exponent must be >= 0, got {k}")
    prod: complex = 1.0
    aq = a
    for _ in range(k):
        f = 1.0 - aq
        if require_nonzero and abs(f) < POLE_GUARD:
            raise ZeroProduct(f"(a;q)_k vanishes: factor 1 - {aq} ~ 0")
        prod *= f
        aq *= q
    return prod


def qpoch_infinite(a: complex, q: float,
                   require_nonzero: bool = False) -> complex:
    """Infinite q-shifted factorial (a;q)_inf = prod_{j>=0} (1 - a q^j).

    The product is truncated at the first j with |a| q^j < EPS_TRUNC; the
    discarded tail changes the value by a relative amount of that order.

    Parameters
    ----------
    require_nonzero : bool
        When True, raise ZeroProduct if a factor vanishes to within the
        pole guard (a = q^{-m} for some m >= 0), instead of returning a
        value that is exactly or nearly zero.
    """
    prod: complex = 1.0
    aq = a
    mag = abs(a)
    while mag >= EPS_TRUNC:
        f = 1.0 - aq
        if require_nonzero and abs(f) < POLE_GUARD:
            raise ZeroProduct(f"(a;q)_inf vanishes: factor 1 - {aq} ~ 0")
        prod *= f
        aq *= q
        mag *= q
    return prod


def qpoch_infinite_arr(a: np.ndarray, q: float,
                       require_nonzero: bool = False) -> np.ndarray:
    """Vectorized (a;q)_inf over an ndarray of arguments.

    Truncates once q^j * max|a| falls below EPS_TRUNC. Zeros come out as
    zeros unless require_nonzero is set: then ZeroProduct is raised when a
    single factor 1 - a q^j is within the pole guard, as in qpoch_infinite.
    """
    a = np.asarray(a)
    prod = np.ones_like(a, dtype=complex if np.iscomplexobj(a) else float)
    aq = a.copy().astype(prod.dtype)
    absa = np.abs(a)
    mag = float(absa.max()) if a.size else 0.0
    low = float(absa.min()) if a.size else 0.0
    while mag >= EPS_TRUNC:
        f = 1.0 - aq
        # |1 - a q^j| >= | |a q^j| - 1 |: a factor can vanish only while
        # some |a q^j|, between low and mag, is close to 1
        if (require_nonzero and low <= 2.0 and mag >= 0.5
                and np.min(np.abs(f)) < POLE_GUARD):
            raise ZeroProduct("(a;q)_inf vanishes: a factor 1 - a q^j ~ 0")
        prod *= f
        aq *= q
        mag *= q
        low *= q
    return prod


def qpoch_real(a: complex, q: float, t: float) -> complex:
    """q-shifted factorial with real exponent: (a;q)_tau with t = q^tau,
    the product of the factor ratios (1 - a q^j) / (1 - a t q^j). Only the
    companion value t is used; tau itself never enters."""
    if not t > 0:
        raise DomainViolation(f"companion value t must be positive, got {t}")
    prod: complex = 1.0
    aq = a
    mag = abs(a) * max(1.0, t)
    while mag >= EPS_TRUNC:
        den = 1.0 - aq * t
        if abs(den) < POLE_GUARD:
            raise PoleAtDenominator(f"(a t;q)_inf vanishes for a={a}, t={t}")
        prod *= (1.0 - aq) / den
        aq *= q
        mag *= q
    return prod


def qpoch_real_arr(a: np.ndarray, q: float, t: float) -> np.ndarray:
    """Vectorized qpoch_real over an ndarray, with its per-factor guard:
    PoleAtDenominator if any factor 1 - a t q^j vanishes.

    Multiplies the factor ratios (1 - a q^j) / (1 - a t q^j), so that
    |a| >> 1 cannot overflow where the two products would."""
    if not t > 0:
        raise DomainViolation(f"companion value t must be positive, got {t}")
    a = np.asarray(a)
    prod = np.ones_like(a, dtype=complex if np.iscomplexobj(a) else float)
    aq = a.astype(prod.dtype)
    absa = np.abs(a)
    mag = float(absa.max(initial=0.0)) * max(1.0, t)
    hi = float(absa.max(initial=0.0)) * t
    low = float(absa.min()) * t if a.size else 0.0
    while mag >= EPS_TRUNC:
        den = 1.0 - aq * t
        # |1 - a t q^j| >= | |a t q^j| - 1 |: a factor can vanish only
        # while some |a t q^j|, between low and hi, is close to 1
        if low <= 2.0 and hi >= 0.5 and np.min(np.abs(den)) < POLE_GUARD:
            raise PoleAtDenominator(f"(a t;q)_inf vanishes for t={t}")
        prod *= (1.0 - aq) / den
        aq *= q
        mag *= q
        hi *= q
        low *= q
    return prod


def qpoch_ratio(num: Iterable[complex], den: Iterable[complex],
                q: float) -> complex:
    """Product of (x;q)_inf over num divided by the same over den.

    Each denominator factor 1 - x q^j is tested against the pole guard on
    its own, so a tiny but nonzero product is accepted; a vanishing one
    raises PoleInProduct."""
    val: complex = 1.0
    for x in num:
        val *= qpoch_infinite(x, q)
    for x in den:
        try:
            val /= qpoch_infinite(x, q, require_nonzero=True)
        except ZeroProduct as exc:
            raise PoleInProduct(
                f"(x;q)_inf vanishes in denominator, x={x}") from exc
    return val


def theta_jacobi(x: complex, q: float) -> complex:
    """Jacobi theta function theta(x) = (q;q)_inf (x;q)_inf (q/x;q)_inf."""
    if x == 0:
        raise ZeroArgument("theta is undefined at x = 0")
    return (qpoch_infinite(q, q)
            * qpoch_infinite(x, q)
            * qpoch_infinite(q / x, q))


def qgamma(u: float, q: float, qu: complex | None = None) -> float:
    """q-gamma function Gamma_q(u) = (q;q)_inf (1-q)^{1-u} / (q^u;q)_inf.

    Parameters
    ----------
    qu : optional
        The value q^u, supplied by the caller when it has an exact
        product form; computed once via q**u otherwise.
    """
    if u <= 0 and abs(u - round(u)) < 1e-12:
        raise PoleAtNonpositiveInteger(f"Gamma_q pole at u = {u}")
    if qu is None:
        qu = q ** u
    den = qpoch_infinite(qu, q, require_nonzero=True)
    val = qpoch_infinite(q, q) * (1.0 - q) ** (1.0 - u) / den
    return val.real if isinstance(val, complex) else val


def psi_t(x: float, q: float, t: float) -> float:
    """Quasi-constant Psi_t(x) = |x|^{2 tau - 1} theta(t x) / theta(q x / t).

    Invariant under x -> q x. Defined for real nonzero x.
    """
    if x == 0:
        raise ZeroArgument("Psi_t is undefined at x = 0")
    tau = math.log(t) / math.log(q)
    num = theta_jacobi(t * x, q)
    den = theta_jacobi(q * x / t, q)
    if abs(den) < POLE_GUARD:
        raise PoleInDenominator(f"theta(q x / t) ~ 0 at x={x}, t={t}")
    power = math.exp((2.0 * tau - 1.0) * math.log(abs(x)))
    val = power * num / den
    return val.real if isinstance(val, complex) else val


def qpoch_finite_arr(a: np.ndarray, q: float, k: int) -> np.ndarray:
    """Vectorized finite q-shifted factorial over an ndarray."""
    a = np.asarray(a)
    prod = np.ones_like(a, dtype=complex if np.iscomplexobj(a) else float)
    aq = a.copy().astype(prod.dtype)
    for _ in range(k):
        prod *= 1.0 - aq
        aq *= q
    return prod

