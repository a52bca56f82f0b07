"""Monic multivariable Askey-Wilson polynomials and their closed-form norms.

P_lambda is the unique W-invariant Laurent polynomial that is monic in
m_lambda, supported on {mu <= lambda}, and an eigenfunction of the BC-type
q-difference operator. aw_polynomials builds every P_mu, mu <= top, by
back-substitution on the one triangular operator matrix of top, which
has no random input. The quadratic norms N(lambda) = 2^n n! N+ N- and the
constant term <1,1> are evaluated as products of ratios of infinite
q-shifted factorials, each closed form from one kernel call
(qseries.qpoch_ratios) and bit for bit the product of one qpoch_ratio
per factor group. The factor groups of N+ and N- are stated once, as
exponent keys of q, t and t0..t3 (_norm_keys): aw_norm evaluates them
and qracah.norm_qR cancels them at the truncated parameters. family
gives the family record (bcpoly.Family) on the one measure of
measures.measure, the torus part plus the residue chains, which
measures.partial_bilinear and partial_gram pair on.

The little and big q-Jacobi families are limits of this family along a
deformation eps -> 0 of its parameters. Each limit is one Limit record,
holding its target family, and two scans along eps_k = q^(k+1) test it:
limit_scan on the polynomial coefficients and measure_scan on the
partially discrete pairing. Each scan evaluates only the steps k it is
given. Along one limit only the t_i move, so limit_scan reads every
step's operator matrix from one pass of D (koornwinder.op_matrices) and
back-substitutes each on its own (_back_substitute), the code that
aw_polynomials runs on its batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from .bcpoly import (
    Family,
    LaurentPolynomial,
    _w_sum,
    dominance_leq,
    monomial_s,
    monomial_w,
    partition,
    partitions_dominated_by,
)
from .errors import (
    DomainViolation,
    EigenvalueCollision,
    PoleInPrefactor,
    ZeroCoordinate,
)
from .koornwinder import (TriangularOpMatrix, eigenvalue_E, op_matrices,
                          op_matrix)
from .measures import measure, partial_bilinear, partial_gram
from .params import AWParams
from .qseries import qpoch_infinite, qpoch_ratios

SEPARATION = 1e-8


def aw_polynomials(top: Sequence[int], p: AWParams
                   ) -> Dict[Tuple[int, ...], LaurentPolynomial]:
    """The monic Askey-Wilson polynomials P_mu for every mu <= top, in
    graded-lex order, all from the one operator matrix of top
    (_back_substitute on op_matrix, the batch of one of the pass that
    limit_scan makes for all its steps)."""
    return _back_substitute(op_matrix(top, p), p)


def _back_substitute(m: TriangularOpMatrix, p: AWParams
                     ) -> Dict[Tuple[int, ...], LaurentPolynomial]:
    """P_mu for every mu of the index of the operator matrix m of D at p:
    solves (M - E_mu I) c = 0 with c_mu = 1 by back-substitution on the
    rows and columns of the partitions <= mu, and returns
    sum_nu c_nu m_nu, built at once from the disjoint W-orbits of the nu;
    raises EigenvalueCollision when E_mu is too close to some E_nu,
    nu < mu, to separate."""
    pos = {mu: k for k, mu in enumerate(m.index)}
    energy = {mu: eigenvalue_E(mu, p) for mu in m.index}
    out: Dict[Tuple[int, ...], LaurentPolynomial] = {}
    for lam in m.index:
        mus = [nu for nu in m.index if dominance_leq(nu, lam)]
        e_lam = energy[lam]
        coeffs: Dict[Tuple[int, ...], complex] = {lam: 1.0}
        for k in range(len(mus) - 2, -1, -1):
            gap = e_lam - energy[mus[k]]
            if abs(gap) <= SEPARATION * max(1.0, abs(e_lam)):
                raise EigenvalueCollision(
                    f"E({lam}) collides with E({mus[k]}): gap {abs(gap):.3g}")
            col = pos[mus[k]]
            coeffs[mus[k]] = sum(coeffs[nu] * m.entries[pos[nu], col]
                                 for nu in mus[k + 1:]) / gap
        out[lam] = _w_sum(p.n, coeffs)
    return out


@dataclass(frozen=True)
class Limit:
    """A limit transition eps -> 0 from the Askey-Wilson family to target,
    a family of Jackson type (its params hold n and q).

    deformation(eps) gives the Askey-Wilson parameters. The coefficient of
    m_mu in P_lambda, times rescale(eps)^(|lambda| - |mu|), tends to the
    target's coefficient; prefactor(eps) rescale(eps)^(|lambda| + |mu|)
    times the partially discrete pairing of m_lambda and m_mu tends to
    2^n n! (q;q)_inf^(-2n) (1-q)^(-n) times the target pairing of the
    S-monomials. measure_kmax caps the step k at which the CLI's measure
    check reads the pairing."""

    target: Family
    deformation: Callable[[float], AWParams]
    rescale: Callable[[float], float]
    prefactor: Callable[[float], float]
    measure_kmax: int


def limit_scan(limit: Limit, lam: Sequence[int], ks: Iterable[int]
               ) -> List[Tuple[int, float, float]]:
    """Table of (k, eps_k, max coefficient deviation) for each k in ks,
    eps_k = q^(k+1): at each eps the Askey-Wilson polynomial P_lambda at
    the deformed parameters, rescaled, against the target polynomial of
    degree lambda.

    The deformed parameter sets of all steps share n and q, so one pass
    of D (koornwinder.op_matrices) gives every step's operator matrix,
    and each step back-substitutes on its own: bit for bit a loop of
    aw_polynomials over the steps. Errors come as that loop raises them,
    the first step's first: a deformation that fails at step k is
    raised once the steps before it are done."""
    lam = partition(lam)
    target = limit.target.polynomials(lam)[lam]
    q = limit.target.params.q
    steps: List[Tuple[int, float, AWParams]] = []
    failed = None
    for k in ks:
        eps = q * q ** k
        try:
            steps.append((k, eps, limit.deformation(eps)))
        except Exception as exc:  # raised after the steps before it
            failed = exc
            break
    rows: List[Tuple[int, float, float]] = []
    matrices = op_matrices(lam, [p for _k, _eps, p in steps])
    for (k, eps, p), m in zip(steps, matrices):
        aw = _back_substitute(m, p)[lam]
        r = limit.rescale(eps)
        dev = 0.0
        for mu in partitions_dominated_by(lam):
            scaled = aw.coefficient(mu) * r ** (sum(lam) - sum(mu))
            want = target.coefficient(mu)
            dev = max(dev, abs(scaled - want))
        rows.append((k, eps, dev))
    if failed is not None:
        raise failed
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
    n, q = limit.target.params.n, limit.target.params.q
    want = (2 ** n * math.factorial(n)
            * qpoch_infinite(q, q).real ** (-2 * n) * (1 - q) ** (-n)
            * limit.target.pair(monomial_s(lam), monomial_s(mu)))
    f = monomial_w(lam)
    g = monomial_w(mu)
    rows: List[Tuple[int, float, float]] = []
    for k in ks:
        eps = q * q ** k
        pair = family(limit.deformation(eps), M).pair(f, g)
        got = (limit.prefactor(eps)
               * limit.rescale(eps) ** (sum(lam) + sum(mu)) * pair)
        rows.append((k, eps, abs(got - want) / max(1.0, abs(want))))
    return rows


def _norm_keys(lam: Tuple[int, ...], n: int) -> list:
    """The (num, den) arguments of the q-shifted factorial ratios whose
    products are N+ (first half) and N- (second half), each half in the
    order its factors multiply: one ratio per i, then one per j < k. An
    argument is a key (a, b, c0, c1, c2, c3), standing for
    q^a t^b t0^c0 t1^c1 t2^c2 t3^c3."""
    T, none = (1, 1, 1, 1), (0, 0, 0, 0)
    ratios = []
    for s, pairs in ((0, ((1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 1))),
                     (1, ((0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)))):
        for i in range(1, n + 1):
            li = lam[i - 1]
            first = (li - 1, n - i) + T if s == 0 else (li + 1, n - i) + none
            ratios.append(([(2 * li - 1 + s, 2 * (n - i)) + T],
                           [first] + [(li, n - i) + c for c in pairs]))
        # the t-exponents of the denominators step up in N+, down in N-
        d = 1 - 2 * s
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                lj, lk = lam[j - 1], lam[k - 1]
                ratios.append(
                    ([(lj + lk - 1 + s, 2 * n - j - k) + T,
                      (lj - lk + s, k - j) + none],
                     [(lj + lk - 1 + s, 2 * n - j - k + d) + T,
                      (lj - lk + s, k - j + d) + none]))
    return ratios


def aw_norm(lam: Sequence[int], p: AWParams) -> complex:
    """Closed-form quadratic norm N(lambda) = 2^n n! N+ N-, from one
    kernel call; N+ and N- multiply their ratios in order. A key of
    _norm_keys is q^a t^b times p.T if it holds all four t_i, else times
    each t_i it holds, in turn."""
    q, t, T, tv = p.q, p.t, p.T, p.tvec

    def value(key: Tuple[int, ...]) -> complex:
        x = q ** key[0] * t ** key[1]
        return x * T if all(key[2:]) else math.prod(compress(tv, key[2:]),
                                                    start=x)

    ratios = qpoch_ratios([(list(map(value, num)), list(map(value, den)))
                           for num, den in _norm_keys(partition(lam), p.n)],
                          q)
    half = len(ratios) // 2
    plus = math.prod(ratios[:half], start=1.0)
    minus = math.prod(ratios[half:], start=1.0)
    return 2 ** p.n * math.factorial(p.n) * plus * minus


def gustafson_constant(p: AWParams) -> complex:
    """Closed-form constant term <1,1> of the torus measure: one ratio
    per i, from one kernel call."""
    n, q, t, T = p.n, p.q, p.t, p.T
    tv = p.tvec
    ratios = []
    for i in range(1, n + 1):
        den = [q, t ** (n - i + 1)]
        for j in range(4):
            for k in range(j + 1, 4):
                den.append(t ** (n - i) * tv[j] * tv[k])
        ratios.append(([t, t ** (2 * n - i - 1) * T], den))
    return math.prod(qpoch_ratios(ratios, q),
                     start=2 ** n * math.factorial(n))


def family(p: AWParams, M: int) -> Family:
    """The Askey-Wilson family record (bcpoly.Family) on the measure
    measures.measure(p, M), M grid points per axis, which
    measures.partial_bilinear and partial_gram pair on; the polynomials
    read no table."""
    return Family.on_tables(
        p, lambda: measure(p, M),
        lambda f, g, tables: partial_bilinear(f, g, tables, p, M),
        lambda polys, tables: partial_gram(polys, tables, p, M),
        lambda top, _tables: aw_polynomials(top, p),
        lambda lam: aw_norm(lam, p), lambda: gustafson_constant(p))


# Exact arithmetic of the one-variable oracle. Every input is a binary
# float, so every sum and product it forms is a Gaussian integer over a
# power of two: a triple (re, im, k) standing for (re + i im) / 2^k.
# No gcd is taken; the one division is made at the end.

_ONE = (1, 0, 0)


def _exact(x: complex) -> Tuple[int, int, int]:
    """The binary float x as an exact triple (re, im, k), k >= 0;
    DomainViolation for a non-finite x."""
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise DomainViolation(f"oracle input {x!r} is not finite")
    (a, da), (b, db) = x.real.as_integer_ratio(), x.imag.as_integer_ratio()
    ka, kb = da.bit_length() - 1, db.bit_length() - 1
    if ka < kb:
        return a << (kb - ka), b, kb
    return a, b << (ka - kb), ka


def _add(x, y):
    (a, b, k), (c, d, l) = x, y
    if k >= l:
        return a + (c << (k - l)), b + (d << (k - l)), k
    return (a << (l - k)) + c, (b << (l - k)) + d, l


def _mul(x, y):
    (a, b, k), (c, d, l) = x, y
    return a * c - b * d, a * d + b * c, k + l


def _sub(x, y):
    c, d, l = y
    return _add(x, (-c, -d, l))


def _prod(xs):
    out = _ONE
    for x in xs:
        out = _mul(out, x)
    return out


def _quotient(num, den) -> complex:
    """num / den rounded once: the real and imaginary parts are ratios of
    integers, and int / int is correctly rounded."""
    (a, b, k), (c, d, l) = num, den
    norm = c * c + d * d
    re, im = a * c + b * d, b * c - a * d
    if l >= k:
        return complex((re << (l - k)) / norm, (im << (l - k)) / norm)
    norm <<= k - l
    return complex(re / norm, im / norm)


def aw1_oracle(lam: int, z: complex, p: AWParams) -> complex:
    """One-variable closed form: monic Askey-Wilson polynomial of degree
    lambda as a terminating 4phi3 sum with its monic prefactor.

    The sum cancels catastrophically in floating point (terms up to ~1e4
    sum to ~1e-2 already at degree 6), so it is formed exactly, from the
    binary floats q, t_i and z, as one numerator and one denominator,
    and rounded once: bit-identical to the sum in exact rationals.
    PoleInPrefactor for a denominator factor that vanishes exactly,
    ZeroCoordinate at z = 0, DomainViolation for lambda < 0 or a
    non-finite input."""
    if p.n != 1:
        raise PoleInPrefactor("oracle requires n = 1")
    if lam < 0:
        raise DomainViolation(f"degree must be >= 0, got {lam}")
    if z == 0:
        raise ZeroCoordinate("oracle evaluated at z = 0")
    zq = _exact(z)
    q = _exact(p.q)
    t0, t1, t2, t3 = (_exact(x) for x in p.tvec)
    qpow = [_ONE]
    for _ in range(lam):
        qpow.append(_mul(qpow[-1], q))
    b = [_mul(t0, t1), _mul(t0, t2), _mul(t0, t3)]
    # q^(lambda-1) T, needed only for lambda >= 1
    qT = _prod([t0, t1, t2, t3, qpow[lam - 1]]) if lam else None
    t0z = _mul(t0, zq)
    # prefactor (t0 t1, t0 t2, t0 t3; q)_lambda / (t0^lambda (q^(lambda-1)
    # T; q)_lambda), and the series 1 + sum_m prod_{j<m} num_j / den_j by
    # Horner's rule: S <- 1 + (num_m / den_m) S, from m = lambda - 1 down
    pref_num = _prod(_sub(_ONE, _mul(bi, qpow[j]))
                     for j in range(lam) for bi in b)
    pref_den = _prod([t0] * lam + [_sub(_ONE, _mul(qT, qpow[j]))
                                   for j in range(lam)])
    if pref_den[:2] == (0, 0):
        raise PoleInPrefactor("vanishing prefactor denominator")
    s_num = s_den = _ONE
    for m in range(lam - 1, -1, -1):
        qm = qpow[m]
        den = [_sub(_ONE, _mul(bi, qm)) for bi in b]
        den.append(_sub(_ONE, qpow[m + 1]))
        if any(f[:2] == (0, 0) for f in den):
            raise PoleInPrefactor("series denominator factor vanishes")
        num = _prod([q, _sub(qpow[lam], qm),
                     _sub(_ONE, _mul(qT, qm)), _sub(_ONE, _mul(t0z, qm)),
                     _sub(zq, _mul(t0, qm))])
        scaled = _mul(_prod(den + [qpow[lam], zq]), s_den)
        s_num, s_den = _add(scaled, _mul(num, s_num)), scaled
    return _quotient(_mul(pref_num, s_num), _mul(pref_den, s_den))
