"""Multivariable q-Racah polynomials: finite discrete orthogonality.

Under the truncation t3 = t^{1-n} t0^{-1} q^{-N} the discrete chain of the
partially discrete measure collapses to the finite set
{rho q^nu : 0 <= nu_1 <= ... <= nu_n <= N}, rho_i = t0 t^{i-1}, and the
Askey-Wilson polynomials of degree lambda with lambda_1 <= N become the
multivariable q-Racah polynomials. This module provides the rewritten
discrete weight Delta^qR, the proportionality constant K_r relating it to
the residue-product weight Delta^(d), the finite bilinear form, the
polynomials (qracah_polynomials: bcpoly.orthogonalize in the m basis for
that form) and the closed-form quadratic norms.

The bilinear form reuses a per-parameter table of the support nodes and
their weights, kept for the CACHE_SIZE most recently used parameter sets;
its terms are still added node by node, in support order.

The closed-form norm N(lambda) / (2^n n! K_n) is a ratio in which single
factors vanish or diverge at the truncated parameters, so it is evaluated
by cancelling q-shifted factorials symbolically (as monomials in
q, t, t0, t1, t2 with t3 eliminated) before any numerics.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Dict, List, Sequence, Tuple

from .bcpoly import (
    LaurentPolynomial,
    OrthogonalPolynomial,
    ascending_index,
    monomial_w,
    orthogonalize,
    partition,
)
from .errors import (
    DomainViolation,
    FormMismatch,
    PoleInWeight,
    UncancelledPole,
)
from .params import CACHE_SIZE, AWParams
from .qseries import (POLE_GUARD, qpoch_finite, qpoch_infinite, qpoch_ratio,
                      qpoch_real)

FORM_TOL = 1e-10

Key = Tuple[int, int, int, int, int]  # exponents of (q, t, t0, t1, t2)


@dataclass(frozen=True)
class QRacahParams:
    """Truncated parameter set (t0, t1, t2, t^{1-n} t0^{-1} q^{-N})."""

    n: int
    q: float
    t: float
    t0: complex
    t1: complex
    t2: complex
    N: int

    def __post_init__(self):
        if self.N < 0:
            raise DomainViolation(f"N must be nonnegative, got {self.N}")
        if self.t0 == 0:
            raise DomainViolation("t0 must be nonzero")
        # remaining validation is delegated to AWParams
        self.aw  # noqa: B018

    @property
    def t3(self) -> complex:
        return self.t ** (1 - self.n) / self.t0 * self.q ** (-self.N)

    @property
    def aw(self) -> AWParams:
        return AWParams(self.n, self.q, self.t,
                        self.t0, self.t1, self.t2, self.t3)


def _rho(p, i: int) -> complex:
    return p.t0 * p.t ** (i - 1)


def weight_qR(nu: Sequence[int], p) -> complex:
    """Rewritten discrete weight Delta^qR at the node rho q^nu.

    nu is a weakly increasing chain label; p carries (q, t, t0..t3) as an
    AWParams or QRacahParams-compatible object."""
    nu = ascending_index(nu)
    q, t = p.q, p.t
    tv = (p.t0, p.t1, p.t2, p.t3)
    T = tv[0] * tv[1] * tv[2] * tv[3]
    val: complex = 1.0
    for i, li in enumerate(nu, start=1):
        rho = _rho(p, i)
        num = qpoch_finite(q * rho ** 2, q, 2 * li)
        den = (qpoch_finite(rho ** 2, q, 2 * li)
               * (T / q * t ** (2 * i - 2)) ** li)
        for tj in tv:
            num *= qpoch_finite(tj * rho, q, li)
            den *= qpoch_finite(q * rho / tj, q, li)
        if abs(den) < POLE_GUARD * max(1.0, abs(num)):
            raise PoleInWeight(f"Delta^qR denominator vanishes at i={i}")
        val *= num / den
    r = len(nu)
    for k in range(1, r + 1):
        for l in range(k + 1, r + 1):
            rk, rl = _rho(p, k), _rho(p, l)
            lk, ll = nu[k - 1], nu[l - 1]
            num = (qpoch_finite(q * rk * rl, q, lk + ll)
                   * qpoch_finite(t * rk * rl, q, lk + ll)
                   * qpoch_finite(q * rl / rk, q, ll - lk)
                   * qpoch_finite(t * rl / rk, q, ll - lk))
            den = (qpoch_finite(q * rk * rl / t, q, lk + ll)
                   * qpoch_finite(rk * rl, q, lk + ll)
                   * qpoch_finite(q * rl / (t * rk), q, ll - lk)
                   * qpoch_finite(rl / rk, q, ll - lk))
            if abs(den) < POLE_GUARD * max(1.0, abs(num)):
                raise PoleInWeight("Delta^qR pair denominator vanishes")
            val *= num / den
    return val


def kr_constant(r: int, p) -> complex:
    """Proportionality constant K_r with Delta^(d) = K_r Delta^qR.

    Evaluates the closed-form product through qpoch_ratio, which tests
    each denominator factor on its own (PoleInProduct), and the defining
    residue-product form, and raises FormMismatch if the two disagree."""
    q, t = p.q, p.t
    tv = (p.t0, p.t1, p.t2, p.t3)
    closed: complex = 1.0
    for i in range(1, r + 1):
        rho = _rho(p, i)
        closed *= qpoch_ratio(
            [rho ** -2, t, p.t0 ** -2 * t ** (2 - i - r)],
            [q] + [x for tk in tv[1:] for x in (rho * tk, tk / rho)]
            + [t ** i, p.t0 ** -2 * t ** (2 - 2 * i)], q)
    resid: complex = 1.0
    for i in range(1, r + 1):
        rho = _rho(p, i)
        num = qpoch_infinite(rho ** -2, q)
        den = qpoch_infinite(q, q)
        for tk in tv[1:]:
            den *= qpoch_infinite(rho * tk, q)
            den *= qpoch_infinite(tk / rho, q)
        resid *= num / den
    for k in range(1, r + 1):
        for l in range(k + 1, r + 1):
            rk, rl = _rho(p, k), _rho(p, l)
            resid *= qpoch_real(rl / rk, q, t)
            resid *= qpoch_real(1.0 / (rk * rl), q, t)
    scale = max(abs(closed), abs(resid), 1e-300)
    if abs(closed - resid) > FORM_TOL * scale:
        raise FormMismatch(
            f"K_{r} forms disagree: {closed} vs {resid}")
    return closed


def support_qR(qp: QRacahParams) -> List[Tuple[int, ...]]:
    """All chain labels of the finite support, weakly increasing with the
    top entry at most N, in lexicographic order."""
    return [tuple(c) for c in combinations_with_replacement(
        range(qp.N + 1), qp.n)]


def bilinear_qR(f: LaurentPolynomial, g: LaurentPolynomial,
                qp: QRacahParams) -> complex:
    """Finite discrete bilinear form sum_nu f g Delta^qR at rho q^nu.

    The terms are added node by node in support order. Another order
    leaves the polynomials as orthogonal, by the cosine
    |<P_a,P_b>| / sqrt(N_a N_b) (6e-14 either way at the suite defaults),
    but moves the CLI orthogonality metric, which divides by <1,1>
    rather than by the norms, that reach 5e3 times <1,1>: one dot
    product over eval_points of the table read 4.4e-11 instead of
    4.8e-12 there, and 6.9e-10 instead of 5.6e-10 at N = 3."""
    total: complex = 0.0
    for z, w in _node_table(qp):
        total += f.eval(z) * g.eval(z) * w
    return total


@functools.lru_cache(maxsize=CACHE_SIZE)
def _node_table(qp: QRacahParams) -> Tuple[Tuple[Tuple[complex, ...],
                                                 complex], ...]:
    """(node rho q^nu, Delta^qR) over the finite support, in order."""
    p = qp.aw
    return tuple(
        (tuple(_rho(p, i) * p.q ** nu[i - 1] for i in range(1, qp.n + 1)),
         weight_qR(nu, p))
        for nu in support_qR(qp))


def summation_qR(qp: QRacahParams) -> complex:
    """Closed form of the constant term <1,1>_qR."""
    q, t, N, n = qp.q, qp.t, qp.N, qp.n
    t0, t1, t2 = qp.t0, qp.t1, qp.t2
    val: complex = 1.0
    for i in range(1, n + 1):
        num = (qpoch_finite(q * t0 ** 2 * t ** (2 * n - i - 1), q, N)
               * qpoch_finite(q / (t1 * t2) * t ** (i - n), q, N))
        den = (qpoch_finite(q * t0 / t1 * t ** (n - i), q, N)
               * qpoch_finite(q * t0 / t2 * t ** (n - i), q, N))
        if abs(den) < POLE_GUARD * max(1.0, abs(num)):
            raise PoleInWeight("summation denominator vanishes")
        val *= num / den
    return val


# ---------------------------------------------------------------------------
# closed-form norms via symbolic cancellation

def _kadd(a: Key, b: Key) -> Key:
    return tuple(x + y for x, y in zip(a, b))


def _kmul(a: Key, c: int) -> Key:
    return tuple(c * x for x in a)


_Q: Key = (1, 0, 0, 0, 0)
_T: Key = (0, 1, 0, 0, 0)
_T0: Key = (0, 0, 1, 0, 0)
_T1: Key = (0, 0, 0, 1, 0)
_T2: Key = (0, 0, 0, 0, 1)


def _t3_key(qp: QRacahParams) -> Key:
    return (-qp.N, 1 - qp.n, -1, 0, 0)


def _norm_ratio_keys(lam: Tuple[int, ...],
                     qp: QRacahParams) -> Tuple[List[Key], List[Key]]:
    """Numerator and denominator argument monomials of the q-Racah norm
    N(lambda) / (2^n n! K_n), with t3 eliminated by the truncation."""
    n = qp.n
    T3 = _t3_key(qp)
    Tbig = _kadd(_kadd(_T0, _T1), _kadd(_T2, T3))
    num: List[Key] = []
    den: List[Key] = []

    def base(a: int, b: int) -> Key:
        return _kadd(_kmul(_Q, a), _kmul(_T, b))

    # factor N+
    for i in range(1, n + 1):
        li = lam[i - 1]
        num.append(_kadd(base(2 * li - 1, 2 * (n - i)), Tbig))
        den.append(_kadd(base(li - 1, n - i), Tbig))
        den.append(_kadd(base(li, n - i), _kadd(_T0, _T1)))
        den.append(_kadd(base(li, n - i), _kadd(_T0, _T2)))
        den.append(_kadd(base(li, n - i), _kadd(_T0, T3)))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            lj, lk = lam[j - 1], lam[k - 1]
            num.append(_kadd(base(lj + lk - 1, 2 * n - j - k), Tbig))
            num.append(base(lj - lk, k - j))
            den.append(_kadd(base(lj + lk - 1, 2 * n - j - k + 1), Tbig))
            den.append(base(lj - lk, k - j + 1))
    # factor N-
    for i in range(1, n + 1):
        li = lam[i - 1]
        num.append(_kadd(base(2 * li, 2 * (n - i)), Tbig))
        den.append(base(li + 1, n - i))
        den.append(_kadd(base(li, n - i), _kadd(_T1, _T2)))
        den.append(_kadd(base(li, n - i), _kadd(_T1, T3)))
        den.append(_kadd(base(li, n - i), _kadd(_T2, T3)))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            lj, lk = lam[j - 1], lam[k - 1]
            num.append(_kadd(base(lj + lk, 2 * n - j - k), Tbig))
            num.append(base(lj - lk + 1, k - j))
            den.append(_kadd(base(lj + lk, 2 * n - j - k - 1), Tbig))
            den.append(base(lj - lk + 1, k - j - 1))
    # dividing by K_n swaps its numerator and denominator
    for i in range(1, n + 1):
        rho_i = _kadd(_T0, _kmul(_T, i - 1))
        den.append(_kmul(rho_i, -2))
        den.append(_T)
        den.append(_kadd(_kmul(_T0, -2), _kmul(_T, 2 - i - n)))
        num.append(_Q)
        for tk in (_T1, _T2, T3):
            num.append(_kadd(rho_i, tk))
            num.append(_kadd(_kmul(rho_i, -1), tk))
        num.append(_kmul(_T, i))
        num.append(_kadd(_kmul(_T0, -2), _kmul(_T, 2 - 2 * i)))
    return num, den


def _key_value(key: Key, qp: QRacahParams) -> complex:
    a, b, c, d, e = key
    return (qp.q ** a * qp.t ** b * complex(qp.t0) ** c
            * complex(qp.t1) ** d * complex(qp.t2) ** e)


def _eval_cancelled_ratio(num: List[Key], den: List[Key],
                          qp: QRacahParams) -> complex:
    """Evaluate prod (x;q)_inf over num / same over den after grouping by
    the t-part and converting q-shift differences to finite products."""
    q = qp.q
    groups: Dict[Tuple[int, int, int, int], Dict[str, List[int]]] = {}
    for side, keys in (("num", num), ("den", den)):
        for key in keys:
            tpart = key[1:]
            groups.setdefault(tpart, {"num": [], "den": []})[side].append(
                key[0])
    val: complex = 1.0
    for tpart, sides in groups.items():
        ns = sorted(sides["num"])
        ds = sorted(sides["den"])
        # identical keys cancel exactly
        i = j = 0
        ns2: List[int] = []
        ds2: List[int] = []
        while i < len(ns) and j < len(ds):
            if ns[i] == ds[j]:
                i += 1
                j += 1
            elif ns[i] < ds[j]:
                ns2.append(ns[i])
                i += 1
            else:
                ds2.append(ds[j])
                j += 1
        ns2.extend(ns[i:])
        ds2.extend(ds[j:])
        npair = min(len(ns2), len(ds2))
        for a, b in zip(ns2[:npair], ds2[:npair]):
            x = _key_value((min(a, b),) + tpart, qp)
            fin = qpoch_finite(x, q, abs(b - a))
            if a <= b:
                val *= fin
            else:
                if abs(fin) < POLE_GUARD:
                    raise UncancelledPole(
                        f"finite factor vanishes in denominator at {tpart}")
                val /= fin
        for a in ns2[npair:]:
            val *= qpoch_infinite(_key_value((a,) + tpart, qp), q)
        for b in ds2[npair:]:
            d = qpoch_infinite(_key_value((b,) + tpart, qp), q)
            if abs(d) < POLE_GUARD:
                raise UncancelledPole(
                    f"infinite factor vanishes in denominator at {tpart}")
            val /= d
    return val


def norm_qR(lam: Sequence[int], qp: QRacahParams) -> complex:
    """Closed-form quadratic norm of the q-Racah polynomial of degree
    lambda, for lambda with lambda_1 <= N."""
    lam = partition(lam)
    if len(lam) != qp.n:
        raise DomainViolation("partition length must equal n")
    if lam and lam[0] > qp.N:
        raise DomainViolation(f"lambda_1 = {lam[0]} exceeds N = {qp.N}")
    num, den = _norm_ratio_keys(lam, qp)
    return _eval_cancelled_ratio(num, den, qp)


def qracah_polynomials(top: Sequence[int], qp: QRacahParams
                       ) -> Dict[Tuple[int, ...], OrthogonalPolynomial]:
    """The q-Racah polynomials of degree mu <= top, for top_1 <= N: monic
    in the monomial m_mu and orthogonal to every m_nu with nu below mu.

    Built by bcpoly.orthogonalize against the exact finite bilinear form,
    which keeps the orthogonality defects at the level of the rounding
    noise of the discrete sums; the result coincides with the
    eigenpolynomial of the difference operator at the truncated
    parameters."""
    top = partition(top)
    if top and top[0] > qp.N:
        raise DomainViolation(f"lambda_1 = {top[0]} exceeds N = {qp.N}")
    return orthogonalize(top, qp.n, monomial_w,
                         lambda f, g: bilinear_qR(f, g, qp))
