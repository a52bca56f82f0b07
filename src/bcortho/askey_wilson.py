"""Monic multivariable Askey-Wilson polynomials and their closed-form norms.

P_lambda is the unique W-invariant Laurent polynomial that is monic in
m_lambda, supported on {mu <= lambda}, and an eigenfunction of the BC-type
q-difference operator. aw_polynomials builds every P_mu, mu <= top, by
back-substitution on the one triangular operator matrix of top, which
has no random input. The quadratic norms N(lambda) = 2^n n! N+ N- and the
constant term <1,1> are evaluated as products of infinite q-shifted
factorials.

The little and big q-Jacobi families are limits of this family along a
deformation eps -> 0 of its parameters. Each limit is one Limit record,
and two scans along eps_k = q^(k+1) test it: limit_scan on the
polynomial coefficients and measure_scan on the partially discrete
pairing. Each scan evaluates only the steps k it is given.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .bcpoly import (
    LaurentPolynomial,
    monomial_s,
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
from .measures import partial_bilinear
from .params import AWParams
from .qseries import qpoch_infinite, qpoch_ratio

SEPARATION = 1e-8


def aw_polynomials(top: Sequence[int], p: AWParams
                   ) -> Dict[Tuple[int, ...], LaurentPolynomial]:
    """The monic Askey-Wilson polynomials P_mu for every mu <= top, in
    graded-lex order, all from the one operator matrix of top.

    For each mu, solves (M - E_mu I) c = 0 with c_mu = 1 by
    back-substitution on the rows and columns of the partitions <= mu,
    and returns sum_nu c_nu m_nu, built at once from the disjoint W-orbits
    of the nu; raises EigenvalueCollision when E_mu is too close to some
    E_nu, nu < mu, to separate."""
    m = op_matrix(top, p)
    pos = {mu: k for k, mu in enumerate(m.index)}
    out: Dict[Tuple[int, ...], LaurentPolynomial] = {}
    for lam in m.index:
        mus = partitions_dominated_by(lam)
        e_lam = eigenvalue_E(lam, p)
        coeffs: Dict[Tuple[int, ...], complex] = {lam: 1.0}
        for k in range(len(mus) - 2, -1, -1):
            gap = e_lam - eigenvalue_E(mus[k], p)
            if abs(gap) <= SEPARATION * max(1.0, abs(e_lam)):
                raise EigenvalueCollision(
                    f"E({lam}) collides with E({mus[k]}): gap {abs(gap):.3g}")
            col = pos[mus[k]]
            coeffs[mus[k]] = sum(coeffs[nu] * m.entries[pos[nu], col]
                                 for nu in mus[k + 1:]) / gap
        out[lam] = LaurentPolynomial(p.n, {
            e: c for nu, c in coeffs.items() for e in monomial_w(nu).terms})
    return out


@dataclass(frozen=True)
class Limit:
    """A limit transition eps -> 0 from the Askey-Wilson family to a
    family of Jackson type with parameters params (n and q among them).

    deformation(eps) gives the Askey-Wilson parameters. The coefficient of
    m_mu in P_lambda, times rescale(eps)^(|lambda| - |mu|), tends to the
    target's coefficient; prefactor(eps) rescale(eps)^(|lambda| + |mu|)
    times the partially discrete pairing of m_lambda and m_mu tends to
    2^n n! (q;q)_inf^(-2n) (1-q)^(-n) times the target pairing of the
    S-monomials. polynomials(top) and pair are the target family's;
    measure_kmax caps the step k at which the CLI's measure check reads
    the pairing."""

    params: object
    deformation: Callable[[float], AWParams]
    rescale: Callable[[float], float]
    prefactor: Callable[[float], float]
    polynomials: Callable[[Tuple[int, ...]],
                          Dict[Tuple[int, ...], LaurentPolynomial]]
    pair: Callable[[LaurentPolynomial, LaurentPolynomial], float]
    measure_kmax: int


def limit_scan(limit: Limit, lam: Sequence[int], ks: Iterable[int]
               ) -> List[Tuple[int, float, float]]:
    """Table of (k, eps_k, max coefficient deviation) for each k in ks,
    eps_k = q^(k+1): at each eps the Askey-Wilson polynomial P_lambda at
    the deformed parameters, rescaled, against the target polynomial of
    degree lambda."""
    lam = partition(lam)
    target = limit.polynomials(lam)[lam]
    q = limit.params.q
    rows: List[Tuple[int, float, float]] = []
    for k in ks:
        eps = q * q ** k
        aw = aw_polynomials(lam, limit.deformation(eps))[lam]
        r = limit.rescale(eps)
        dev = 0.0
        for mu in partitions_dominated_by(lam):
            scaled = aw.coefficient(mu) * r ** (sum(lam) - sum(mu))
            want = target.coefficient(mu)
            dev = max(dev, abs(scaled - want))
        rows.append((k, eps, dev))
    return rows


def measure_scan(limit: Limit, lam: Sequence[int], mu: Sequence[int],
                 ks: Iterable[int], M: int
                 ) -> List[Tuple[int, float, float]]:
    """Table of (k, eps_k, relative deviation) for each k in ks,
    eps_k = q^(k+1): the renormalized partially discrete pairing of the
    W-monomials of degrees lambda and mu (M grid points per axis) against
    its limit, the target pairing of the S-monomials times the constant
    of Limit."""
    lam = partition(lam)
    mu = partition(mu)
    n, q = limit.params.n, limit.params.q
    want = (2 ** n * math.factorial(n)
            * qpoch_infinite(q, q).real ** (-2 * n) * (1 - q) ** (-n)
            * limit.pair(monomial_s(lam), monomial_s(mu)))
    f = monomial_w(lam)
    g = monomial_w(mu)
    rows: List[Tuple[int, float, float]] = []
    for k in ks:
        eps = q * q ** k
        pair = partial_bilinear(f, g, limit.deformation(eps), M).value
        got = (limit.prefactor(eps)
               * limit.rescale(eps) ** (sum(lam) + sum(mu)) * pair)
        rows.append((k, eps, abs(got - want) / max(1.0, abs(want))))
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
