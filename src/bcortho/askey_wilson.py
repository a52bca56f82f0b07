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
from fractions import Fraction
from typing import Callable, Dict, List, Sequence, Tuple

from .bcpoly import (
    OrthogonalPolynomial,
    monomial_w,
    partition,
    partitions_dominated_by,
)
from .errors import (
    EigenvalueCollision,
    PoleInPrefactor,
    PoleInProduct,
)
from .koornwinder import eigenvalue_E, op_matrix
from .params import AWParams
from .qseries import qpoch_ratio

SEPARATION = 1e-8


def aw_polynomial(lam: Sequence[int], p: AWParams,
                  seed: int = 0) -> OrthogonalPolynomial:
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
    return OrthogonalPolynomial(lam, coeffs, monomial_w)


def aw_polynomials(top: Sequence[int], p: AWParams, seed: int = 0
                   ) -> Dict[Tuple[int, ...], OrthogonalPolynomial]:
    """The monic Askey-Wilson polynomials P_mu for every mu <= top, in
    graded-lex order, each from its own operator matrix, as aw_polynomial
    builds it."""
    return {mu: aw_polynomial(mu, p, seed=seed)
            for mu in partitions_dominated_by(top)}


def limit_scan(target: OrthogonalPolynomial,
               deformation: Callable[[float], AWParams],
               rescale: Callable[[float], float], q: float, kmax: int,
               seed: int) -> List[Tuple[int, float, float]]:
    """Table of (k, eps_k, max coefficient deviation) along eps_k = q^(k+1)
    for a limit transition from the Askey-Wilson family to target.

    At each eps the Askey-Wilson polynomial of target's degree lambda is
    built at the parameters deformation(eps); its coefficient of the
    monomial of degree mu, times rescale(eps)^(|lambda| - |mu|), is compared
    with target's."""
    lam = target.degree
    rows: List[Tuple[int, float, float]] = []
    for k in range(kmax + 1):
        eps = q * q ** k
        aw = aw_polynomial(lam, deformation(eps), seed=seed)
        r = rescale(eps)
        dev = 0.0
        for mu in partitions_dominated_by(lam):
            scaled = aw.coeffs.get(mu, 0.0) * r ** (sum(lam) - sum(mu))
            want = target.coeffs.get(mu, 0.0)
            dev = max(dev, abs(scaled - want))
        rows.append((k, eps, dev))
    return rows


def aw_norm_plus(lam: Sequence[int], p: AWParams) -> complex:
    """The factor N+ of the closed-form quadratic norm."""
    lam = partition(lam)
    n, q, t, T = p.n, p.q, p.t, p.T
    t0, t1, t2, t3 = p.tvec
    val: complex = 1.0
    for i in range(1, n + 1):
        li = lam[i - 1]
        val *= qpoch_ratio(
            [q ** (2 * li - 1) * t ** (2 * (n - i)) * T],
            [q ** (li - 1) * t ** (n - i) * T,
             q ** li * t ** (n - i) * t0 * t1,
             q ** li * t ** (n - i) * t0 * t2,
             q ** li * t ** (n - i) * t0 * t3], q)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            lj, lk = lam[j - 1], lam[k - 1]
            val *= qpoch_ratio(
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
        val *= qpoch_ratio(
            [q ** (2 * li) * t ** (2 * (n - i)) * T],
            [q ** (li + 1) * t ** (n - i),
             q ** li * t ** (n - i) * t1 * t2,
             q ** li * t ** (n - i) * t1 * t3,
             q ** li * t ** (n - i) * t2 * t3], q)
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            lj, lk = lam[j - 1], lam[k - 1]
            val *= qpoch_ratio(
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
        val *= qpoch_ratio(num, den, q)
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
