"""Monic multivariable Askey-Wilson polynomials and their closed-form norms.

P_lambda is the unique W-invariant Laurent polynomial that is monic in
m_lambda, supported on {mu <= lambda}, and an eigenfunction of the BC-type
q-difference operator. It is built by back-substitution on the triangular
operator matrix. The quadratic norms N(lambda) = 2^n n! N+ N- and the
constant term <1,1> are evaluated as products of infinite q-shifted
factorials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .bcpoly import LaurentPolynomial, monomial_w, partition
from .errors import (
    EigenvalueCollision,
    PoleInPrefactor,
    PoleInProduct,
    ZeroProduct,
)
from .koornwinder import eigenvalue_E, op_matrix
from .params import AWParams
from .qseries import qpoch_infinite

SEPARATION = 1e-8


@dataclass(frozen=True)
class AWPolynomial:
    """Monic eigenpolynomial: coefficients c_{lambda,mu} over mu <= lambda."""

    degree: Tuple[int, ...]
    coeffs: Dict[Tuple[int, ...], complex]
    params: AWParams

    def to_laurent(self) -> LaurentPolynomial:
        out = LaurentPolynomial(len(self.degree))
        for mu, c in self.coeffs.items():
            out = out + monomial_w(mu).scale(c)
        return out


def aw_polynomial(lam: Sequence[int], p: AWParams, seed: int = 0) -> AWPolynomial:
    """Construct the monic Askey-Wilson polynomial of degree lambda.

    Solves (M - E_lambda I) c = 0 with c_lambda = 1 by back-substitution
    along the graded-lex order; raises EigenvalueCollision when two
    eigenvalues are too close to separate."""
    lam = partition(lam)
    m = op_matrix(lam, p, seed=seed)
    mus = m.index
    N = len(mus)
    e_lam = eigenvalue_E(lam, p)
    evs = [eigenvalue_E(mu, p) for mu in mus]
    coeffs: Dict[Tuple[int, ...], complex] = {lam: 1.0}
    cvec = [0.0 + 0.0j] * N
    cvec[N - 1] = 1.0
    for k in range(N - 2, -1, -1):
        gap = e_lam - evs[k]
        if abs(gap) <= SEPARATION * max(1.0, abs(e_lam)):
            raise EigenvalueCollision(
                f"E({lam}) collides with E({mus[k]}): gap {abs(gap):.3g}")
        s = sum(cvec[r] * m.entries[r, k] for r in range(k + 1, N))
        cvec[k] = s / gap
        coeffs[mus[k]] = cvec[k]
    return AWPolynomial(lam, coeffs, p)


def _poch_ratio(num, den, q):
    """Product of (x;q)_inf over num divided by the same over den."""
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


def aw_norm_plus(lam: Sequence[int], p: AWParams) -> complex:
    """The factor N+ of the closed-form quadratic norm."""
    lam = partition(lam)
    n, q, t, T = p.n, p.q, p.t, p.T
    t0, t1, t2, t3 = p.tvec
    val: complex = 1.0
    for i in range(1, n + 1):
        li = lam[i - 1]
        val *= _poch_ratio(
            [q ** (2 * li - 1) * t ** (2 * (n - i)) * T],
            [q ** (li - 1) * t ** (n - i) * T,
             q ** li * t ** (n - i) * t0 * t1,
             q ** li * t ** (n - i) * t0 * t2,
             q ** li * t ** (n - i) * t0 * t3], q)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            lj, lk = lam[j - 1], lam[k - 1]
            val *= _poch_ratio(
                [q ** (lj + lk - 1) * t ** (2 * n - j - k) * T,
                 q ** (lj - lk) * t ** (k - j)],
                [q ** (lj + lk - 1) * t ** (2 * n - j - k + 1) * T,
                 q ** (lj - lk) * t ** (k - j + 1)], q)
    return val


def aw_norm_minus(lam: Sequence[int], p: AWParams) -> complex:
    """The factor N- of the closed-form quadratic norm."""
    lam = partition(lam)
    n, q, t, T = p.n, p.q, p.t, p.T
    _t0, t1, t2, t3 = p.tvec
    val: complex = 1.0
    for i in range(1, n + 1):
        li = lam[i - 1]
        val *= _poch_ratio(
            [q ** (2 * li) * t ** (2 * (n - i)) * T],
            [q ** (li + 1) * t ** (n - i),
             q ** li * t ** (n - i) * t1 * t2,
             q ** li * t ** (n - i) * t1 * t3,
             q ** li * t ** (n - i) * t2 * t3], q)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            lj, lk = lam[j - 1], lam[k - 1]
            val *= _poch_ratio(
                [q ** (lj + lk) * t ** (2 * n - j - k) * T,
                 q ** (lj - lk + 1) * t ** (k - j)],
                [q ** (lj + lk) * t ** (2 * n - j - k - 1) * T,
                 q ** (lj - lk + 1) * t ** (k - j - 1)], q)
    return val


def aw_norm(lam: Sequence[int], p: AWParams) -> complex:
    """Closed-form quadratic norm N(lambda) = 2^n n! N+ N-."""
    return (2 ** p.n * math.factorial(p.n)
            * aw_norm_plus(lam, p) * aw_norm_minus(lam, p))


def gustafson_constant(p: AWParams) -> complex:
    """Closed-form constant term <1,1> of the torus measure."""
    n, q, t, T = p.n, p.q, p.t, p.T
    tv = p.tvec
    val: complex = 2 ** n * math.factorial(n)
    for i in range(1, n + 1):
        num = [t, t ** (2 * n - i - 1) * T]
        den = [q, t ** (n - i + 1)]
        for j in range(4):
            for k in range(j + 1, 4):
                den.append(t ** (n - i) * tv[j] * tv[k])
        val *= _poch_ratio(num, den, q)
    return val


class _CQ:
    """Complex number over exact rationals; floats convert losslessly.

    The terminating 4phi3 sum below cancels catastrophically in floating
    point (terms up to ~1e4 sum to ~1e-2 already at degree 6), so the
    oracle does its arithmetic exactly and rounds once at the end.
    """

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def of(cls, z: complex) -> "_CQ":
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, o):
        return _CQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _CQ(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _CQ(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError
        return _CQ((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)

    def to_complex(self) -> complex:
        return complex(self.re, self.im)


def aw1_oracle(lam: int, z: complex, p: AWParams) -> complex:
    """One-variable closed form: monic Askey-Wilson polynomial of degree
    lambda as a terminating 4phi3 sum with its monic prefactor.

    Summed in exact rational arithmetic; accurate to one rounding."""
    if p.n != 1:
        raise PoleInPrefactor("oracle requires n = 1")
    one = _CQ(1)
    q = _CQ.of(p.q)
    tv = [_CQ.of(x) for x in p.tvec]
    T = tv[0] * tv[1] * tv[2] * tv[3]
    zq = _CQ.of(z)
    qpow = [one]
    for _ in range(2 * lam + 2):
        qpow.append(qpow[-1] * q)
    q_lam_m1_T = (T * qpow[lam - 1]) if lam >= 1 else (T / q)

    def pochf(a: _CQ, k: int) -> _CQ:
        v = one
        for i in range(k):
            v = v * (one - a * qpow[i])
        return v

    t0_pow = one
    for _ in range(lam):
        t0_pow = t0_pow * tv[0]
    try:
        pref = (pochf(tv[0] * tv[1], lam) * pochf(tv[0] * tv[2], lam)
                * pochf(tv[0] * tv[3], lam)) / (
            t0_pow * pochf(q_lam_m1_T, lam))
    except ZeroDivisionError as exc:
        raise PoleInPrefactor("vanishing prefactor denominator") from exc
    # terminating series: (q^{-lambda};q)_m kills all m > lambda
    a = [one / qpow[lam], q_lam_m1_T, tv[0] * zq, tv[0] / zq]
    b = [tv[0] * tv[1], tv[0] * tv[2], tv[0] * tv[3], q]
    total = _CQ(0)
    term = one
    for m in range(lam + 1):
        total = total + term
        fac = q
        for ai in a:
            fac = fac * (one - ai * qpow[m])
        for bi in b:
            try:
                fac = fac / (one - bi * qpow[m])
            except ZeroDivisionError as exc:
                raise PoleInPrefactor(
                    f"series denominator factor vanishes") from exc
        term = term * fac
    return (pref * total).to_complex()


def renorm_constant(lam: Sequence[int], p: AWParams) -> complex:
    """Renormalization c(lambda) = (N+(0)/N+(lambda)) prod (t0 t^{n-j})^{lambda_j}."""
    lam = partition(lam)
    n_plus = aw_norm_plus(lam, p)
    if abs(n_plus) < 1e-300:
        raise PoleInProduct("N+(lambda) vanishes")
    val = aw_norm_plus((0,) * p.n, p) / n_plus
    for j in range(1, p.n + 1):
        val *= (p.t0 * p.t ** (p.n - j)) ** lam[j - 1]
    return val
