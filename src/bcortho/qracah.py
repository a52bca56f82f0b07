"""Multivariable q-Racah polynomials: finite discrete orthogonality.

Under the truncation t3 = t^{1-n} t0^{-1} q^{-N} the discrete chain of the
partially discrete measure collapses to the finite set
{rho q^nu : 0 <= nu_1 <= ... <= nu_n <= N}, rho_i = t0 t^{i-1}, and the
Askey-Wilson polynomials of degree lambda with lambda_1 <= N become the
multivariable q-Racah polynomials. This module provides the rewritten
discrete weight Delta^qR, the proportionality constant K_r relating it to
the residue-product weight Delta^(d), the finite bilinear form
(bilinear_qR), the polynomials (qracah_polynomials: bcpoly.orthogonalize
in the m basis for that form), the closed-form quadratic norms, and the
family record (family).

The record's node table (bcpoly.Family.on_tables) is a
bcpoly.PointTable, like each part of the little and big q-Jacobi tables,
of the support labels (bcpoly._chain_labels: one chain of length n,
entries at most N) and their weights Delta^qR, one label at a time. A
pairing is bcpoly.pair on it: each polynomial is evaluated once per
table, as a vector kept on the polynomial (LaurentPolynomial.node_values),
and the terms f g w are added one by one in support order. The
denominators of the weights and of the summation are tested factor by
factor, so a tiny product of nonzero factors is a value, not a pole.

The closed-form norm N(lambda) / (2^n n! K_n) is a ratio in which single
factors vanish or diverge at the truncated parameters, so it is evaluated
by cancelling q-shifted factorials symbolically (as monomials in
q, t, t0, t1, t2 with t3 eliminated) before any numerics. Its factors
are those of the Askey-Wilson N+ and N- (askey_wilson._norm_keys), then
those of 1/K_n.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .bcpoly import (
    Family,
    LaurentPolynomial,
    PointTable,
    _chain_labels,
    ascending_index,
    gram,
    monomial_w,
    orthogonalize,
    pair,
    partition,
)
from .errors import (
    DomainViolation,
    FormMismatch,
    PoleInWeight,
    UncancelledPole,
    ZeroProduct,
)
from .params import AWParams
from .qseries import (POLE_GUARD, qpoch_finite, qpoch_infinite_arr,
                      qpoch_ratios, qpoch_real_arr)

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


def _den_qpoch(a: complex, q: float, k: int, what: str) -> complex:
    """(a;q)_k as a denominator factor: PoleInWeight if one of its factors
    1 - a q^j vanishes, each tested on its own as qpoch_ratio does, so a
    tiny but nonzero product is accepted."""
    try:
        return qpoch_finite(a, q, k, require_nonzero=True)
    except ZeroProduct as exc:
        raise PoleInWeight(f"{what}: ({a};q)_{k} vanishes") from exc


def weight_qR(nu: Sequence[int], p) -> complex:
    """Rewritten discrete weight Delta^qR at the node rho q^nu.

    nu is a weakly increasing chain label; p carries (q, t, t0..t3) as an
    AWParams or QRacahParams-compatible object. PoleInWeight if a factor
    of a denominator vanishes."""
    nu = ascending_index(nu)
    q, t = p.q, p.t
    tv = (p.t0, p.t1, p.t2, p.t3)
    T = tv[0] * tv[1] * tv[2] * tv[3]
    val: complex = 1.0
    for i, li in enumerate(nu, start=1):
        rho = _rho(p, i)
        what = f"Delta^qR denominator at i={i}"
        num = qpoch_finite(q * rho ** 2, q, 2 * li)
        power = (T / q * t ** (2 * i - 2)) ** li
        if power == 0:
            raise PoleInWeight(f"{what}: (T t^(2i-2) / q)^{li} vanishes")
        den = _den_qpoch(rho ** 2, q, 2 * li, what) * power
        for tj in tv:
            num *= qpoch_finite(tj * rho, q, li)
            den *= _den_qpoch(q * rho / tj, q, li, what)
        val *= num / den
    r = len(nu)
    for k in range(1, r + 1):
        for l in range(k + 1, r + 1):
            rk, rl = _rho(p, k), _rho(p, l)
            lk, ll = nu[k - 1], nu[l - 1]
            what = f"Delta^qR pair denominator at ({k}, {l})"
            num = (qpoch_finite(q * rk * rl, q, lk + ll)
                   * qpoch_finite(t * rk * rl, q, lk + ll)
                   * qpoch_finite(q * rl / rk, q, ll - lk)
                   * qpoch_finite(t * rl / rk, q, ll - lk))
            den = (_den_qpoch(q * rk * rl / t, q, lk + ll, what)
                   * _den_qpoch(rk * rl, q, lk + ll, what)
                   * _den_qpoch(q * rl / (t * rk), q, ll - lk, what)
                   * _den_qpoch(rl / rk, q, ll - lk, what))
            val *= num / den
    return val


def kr_constant(r: int, p) -> complex:
    """Proportionality constant K_r with Delta^(d) = K_r Delta^qR.

    Evaluates the closed-form product through qpoch_ratio, which tests
    each denominator factor on its own (PoleInProduct), and the defining
    residue-product form, and raises FormMismatch if the two disagree."""
    q, t = p.q, p.t
    tv = (p.t0, p.t1, p.t2, p.t3)
    rhos = [_rho(p, i) for i in range(1, r + 1)]
    # per i the closed-form ratio, then (rho^-2;q)_inf over (q;q)_inf
    # and the six (rho t_k, t_k/rho;q)_inf of the residue product
    ratios = qpoch_ratios(
        [([rho ** -2, t, p.t0 ** -2 * t ** (2 - i - r)],
          [q] + [x for tk in tv[1:] for x in (rho * tk, tk / rho)]
          + [t ** i, p.t0 ** -2 * t ** (2 - 2 * i)])
         for i, rho in enumerate(rhos, start=1)]
        + [([rho ** -2], [q] + [x for tk in tv[1:]
                                for x in (rho * tk, tk / rho)])
           for rho in rhos], q)
    pairs = [(rhos[k], rhos[l]) for k in range(r) for l in range(k + 1, r)]
    closed = math.prod(ratios[:r])
    resid = math.prod(ratios[r:] + qpoch_real_arr(
        [x for rk, rl in pairs for x in (rl / rk, 1.0 / (rk * rl))],
        q, t).tolist())
    scale = max(abs(closed), abs(resid), 1e-300)
    if abs(closed - resid) > FORM_TOL * scale:
        raise FormMismatch(
            f"K_{r} forms disagree: {closed} vs {resid}")
    return closed


def support_qR(qp: QRacahParams) -> List[Tuple[int, ...]]:
    """All chain labels of the finite support, weakly increasing with the
    top entry at most N, in lexicographic order (bcpoly._chain_labels)."""
    return [tuple(c) for c in _chain_labels(
        (qp.n,), [qp.N + 1] * qp.n, qp.n * qp.N).T.tolist()]


def bilinear_qR(f: LaurentPolynomial, g: LaurentPolynomial,
                tables: Iterable[PointTable]) -> complex:
    """Finite discrete bilinear form sum_nu f g Delta^qR at rho q^nu: pair
    on the family's node table, its terms added in support order."""
    return pair(f, g, tables)


def _node_table(qp: QRacahParams) -> PointTable:
    """The nodes rho q^nu over the finite support in order, row i - 1 of z
    holding rho_i q^v for v = 0..N, and their weights Delta^qR
    (complex)."""
    p = qp.aw
    support = support_qR(qp)
    z = np.array([[_rho(p, i) * p.q ** v for v in range(qp.N + 1)]
                  for i in range(1, qp.n + 1)])
    return PointTable(z, np.array(support).T, np.array(
        [weight_qR(nu, p) for nu in support], dtype=complex))


def summation_qR(qp: QRacahParams) -> complex:
    """Closed form of the constant term <1,1>_qR; PoleInWeight if a factor
    of a denominator vanishes."""
    q, t, N, n = qp.q, qp.t, qp.N, qp.n
    t0, t1, t2 = qp.t0, qp.t1, qp.t2
    what = "summation denominator"
    val: complex = 1.0
    for i in range(1, n + 1):
        num = (qpoch_finite(q * t0 ** 2 * t ** (2 * n - i - 1), q, N)
               * qpoch_finite(q / (t1 * t2) * t ** (i - n), q, N))
        den = (_den_qpoch(q * t0 / t1 * t ** (n - i), q, N, what)
               * _den_qpoch(q * t0 / t2 * t ** (n - i), q, N, what))
        val *= num / den
    return val


# ---------------------------------------------------------------------------
# closed-form norms via symbolic cancellation

def _norm_ratio_keys(lam: Tuple[int, ...],
                     qp: QRacahParams) -> Tuple[List[Key], List[Key]]:
    """Numerator and denominator argument monomials of the q-Racah norm
    N(lambda) / (2^n n! K_n), with t3 eliminated by the truncation: the
    Askey-Wilson keys of N+ and N- (askey_wilson._norm_keys) in order,
    then those of 1/K_n."""
    # askey_wilson imports measures, which imports this module
    from .askey_wilson import _norm_keys

    n, N = qp.n, qp.N

    def key(a: int = 0, b: int = 0, c0: int = 0, c1: int = 0, c2: int = 0,
            c3: int = 0) -> Key:
        # q^a t^b t0^c0 t1^c1 t2^c2 t3^c3 at t3 = q^-N t^(1-n) t0^-1
        return (a - N * c3, b + (1 - n) * c3, c0 - c3, c1, c2)

    num: List[Key] = []
    den: List[Key] = []
    for rnum, rden in _norm_keys(lam, n):
        num += [key(*x) for x in rnum]
        den += [key(*x) for x in rden]
    # dividing by K_n swaps its numerator and denominator; rho_i = t0 t^(i-1)
    for i in range(1, n + 1):
        den.append(key(0, 2 - 2 * i, -2))
        den.append(key(0, 1))
        den.append(key(0, 2 - i - n, -2))
        num.append(key(1))
        for tk in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
            num.append(key(0, i - 1, 1, *tk))
            num.append(key(0, 1 - i, -1, *tk))
        num.append(key(0, i))
        num.append(key(0, 2 - 2 * i, -2))
    return num, den


def _key_value(key: Key, qp: QRacahParams) -> complex:
    a, b, c, d, e = key
    return (qp.q ** a * qp.t ** b * complex(qp.t0) ** c
            * complex(qp.t1) ** d * complex(qp.t2) ** e)


def _eval_cancelled_ratio(num: List[Key], den: List[Key],
                          qp: QRacahParams) -> complex:
    """Evaluate prod (x;q)_inf over num / same over den after grouping by
    the t-part and converting q-shift differences to finite products; the
    infinite factors left uncancelled, if any, come from one kernel call,
    and every factor multiplies or divides in group order."""
    q = qp.q
    # identical keys cancel exactly; the groups keep the order in which
    # their t-parts first appear among all the keys
    ns, ds = Counter(num), Counter(den)
    groups: Dict[Tuple[int, int, int, int], Dict[str, List[int]]] = {
        key[1:]: {"num": [], "den": []} for key in num + den}
    for side, keys in (("num", ns - ds), ("den", ds - ns)):
        for key in keys.elements():
            groups[key[1:]][side].append(key[0])
    # per group: its t-part, its (num, den) shift pairs, and the counts of
    # its uncancelled infinite factors, whose arguments go to args
    plan = []
    args: List[complex] = []
    for tpart, sides in groups.items():
        ns2, ds2 = sorted(sides["num"]), sorted(sides["den"])
        npair = min(len(ns2), len(ds2))
        plan.append((tpart, list(zip(ns2[:npair], ds2[:npair])),
                     len(ns2) - npair, len(ds2) - npair))
        args += [_key_value((a,) + tpart, qp)
                 for a in ns2[npair:] + ds2[npair:]]
    inf = iter(qpoch_infinite_arr(args, q).tolist() if args else ())
    val: complex = 1.0
    for tpart, shifts, n_num, n_den in plan:
        for a, b in shifts:
            x = _key_value((min(a, b),) + tpart, qp)
            fin = qpoch_finite(x, q, abs(b - a))
            if a <= b:
                val *= fin
            else:
                if abs(fin) < POLE_GUARD:
                    raise UncancelledPole(
                        f"finite factor vanishes in denominator at {tpart}")
                val /= fin
        for _ in range(n_num):
            val *= next(inf)
        for _ in range(n_den):
            d = next(inf)
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


def qracah_polynomials(top: Sequence[int], qp: QRacahParams,
                       tables: Iterable[PointTable]
                       ) -> Dict[Tuple[int, ...], LaurentPolynomial]:
    """The q-Racah polynomials of degree mu <= top, for top_1 <= N: monic
    in the monomial m_mu and orthogonal to every m_nu with nu below mu.

    Built by bcpoly.orthogonalize against the exact finite bilinear form
    on the family's node table, which keeps the orthogonality defects at
    the level of the rounding noise of the discrete sums; the result
    coincides with the eigenpolynomial of the difference operator at the
    truncated parameters."""
    top = partition(top)
    if top and top[0] > qp.N:
        raise DomainViolation(f"lambda_1 = {top[0]} exceeds N = {qp.N}")
    return orthogonalize(top, qp.n, monomial_w, tables)


def family(qp: QRacahParams) -> Family:
    """The q-Racah family record (bcpoly.Family) on its node table."""
    return Family.on_tables(
        qp, lambda: [_node_table(qp)], bilinear_qR, gram,
        lambda top, tables: qracah_polynomials(top, qp, tables),
        lambda lam: norm_qR(lam, qp), lambda: summation_qR(qp))
