"""Multivariable big q-Jacobi polynomials.

The big q-Jacobi family is orthogonal on the two-sided discrete set
built from the chains of c t^{i-1} (positive side) and -d t^{i-1}
(negative side), with a weighted Jackson integral whose weights c_{B,j}
balance the two sides so that the measure behaves continuously where a
chain coordinate crosses zero. The family arises from the Askey-Wilson
polynomials with two parameters sent to infinity through
t_B(eps) = (eps^{-1}(qc/d)^{1/2}, -eps^{-1}(qd/c)^{1/2},
eps a (qd/c)^{1/2}, -eps b (qc/d)^{1/2}).

Provided here: the weight and the split-weights c_{B,j} in both their
defining product form and an independent theta-product form (checked
against each other), the bilinear form, the polynomials
(big_polynomials: bcpoly.orthogonalize in the mtilde basis for that
form), closed-form norms, the q-Selberg constant term together with its
two-sided t = q^k evaluation, the asymptotic matching of the
split-weights, the family record (family), and the record of the limit
transition (big_limit). The closed forms keep complex products whole, so
they hold on the conjugate branch as well, and each fetches all its
q-shifted factorials and thetas in one kernel call.

Pairings reuse a per-parameter node table (little._jackson_table, one
bcpoly.PointTable per split j), kept for the CACHE_SIZE most recently used
parameter sets; a pairing is bcpoly.pair on the parts, as for the little
form. weight_big stays as the scalar reference for the table's
weights.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .askey_wilson import Limit
from .bcpoly import (
    Family,
    LaurentPolynomial,
    PointTable,
    gram,
    monomial_s,
    orthogonalize,
    pair,
    partition,
)
from .errors import (
    DomainViolation,
    NonFiniteWeight,
    PoleInTheta,
    SlowConvergence,
    ZeroProduct,
)
from .little import _jackson_table, _nqj_args, delta_qJ
from .params import CACHE_SIZE, AWParams
from .qseries import (
    POLE_GUARD,
    _in_denominator,
    _ratio,
    psi_of_thetas,
    qpoch_finite,
    qpoch_infinite_arr,
    qpoch_infinite_values,
    qpoch_ratios,
    qpoch_theta_values,
)

# agreement of the two forms of the split-weights (c-weight-dual-form)
FORM_TOL = 1e-9
# askey_evans_lhs sums the Jackson nodes c q^m and -d q^m with
# q^m >= NODE_CUTOFF, for at most MAX_NODES values of m.
NODE_CUTOFF = 1e-13
MAX_NODES = 400


@dataclass(frozen=True)
class BigParams:
    """Parameters (q, t, a, b, c, d) with c, d > 0 and either the real
    branch a in (-c/dq, 1/q), b in (-d/cq, 1/q) or the conjugate branch
    a = c u, b = -d conj(u) with u nonreal."""

    n: int
    q: float
    t: float
    a: complex
    b: complex
    c: float
    d: float

    def __post_init__(self):
        from .qseries import check_q
        check_q(self.q)
        if not 0.0 < self.t < 1.0:
            raise DomainViolation(f"t must be in (0,1), got {self.t}")
        if not 1 <= self.n:
            raise DomainViolation(f"n must be >= 1, got {self.n}")
        if not (self.c > 0 and self.d > 0):
            raise DomainViolation("c and d must be positive")
        a, b = complex(self.a), complex(self.b)
        if abs(a.imag) < 1e-14 and abs(b.imag) < 1e-14:
            ar, br = a.real, b.real
            if not -self.c / (self.d * self.q) < ar < 1.0 / self.q:
                raise DomainViolation(f"a = {ar} outside (-c/dq, 1/q)")
            if not -self.d / (self.c * self.q) < br < 1.0 / self.q:
                raise DomainViolation(f"b = {br} outside (-d/cq, 1/q)")
        else:
            u = a / self.c
            if abs(u.imag) < 1e-14:
                raise DomainViolation("conjugate branch requires nonreal u")
            if abs(b + self.d * u.conjugate()) > 1e-12 * max(1.0, abs(b)):
                raise DomainViolation(
                    "conjugate branch requires a = c u, b = -d conj(u)")

    @property
    def tau(self) -> float:
        return math.log(self.t) / math.log(self.q)


def support_point(j: int, nu: Sequence[int], nup: Sequence[int],
                  bp: BigParams) -> Tuple[float, ...]:
    """Node (rho_B q^nu, sigma_B q^nu') with rho_{B,i} = c t^{i-1} and
    sigma_{B,i} = -d t^{i-1}; len(nu) = j, len(nup) = n - j."""
    if len(nu) != j or len(nup) != bp.n - j:
        raise DomainViolation("chain labels have wrong lengths")
    pos = tuple(bp.c * bp.t ** (i - 1) * bp.q ** nu[i - 1]
                for i in range(1, j + 1))
    neg = tuple(-bp.d * bp.t ** (i - 1) * bp.q ** nup[i - 1]
                for i in range(1, bp.n - j + 1))
    return pos + neg


def weight_big(z: Sequence[float], bp: BigParams) -> float:
    """Weight Delta^B(z) = prod_i v_B(z_i) * delta_qJ(z)."""
    q, c, d = bp.q, bp.c, bp.d
    # per x: (q x/c, -q x/d;q)_inf over the guarded (q a x/c, -q b x/d;q)
    try:
        f = iter(qpoch_infinite_arr(
            [y for x in z for y in (q * x / c, -q * x / d,
                                    q * bp.a * x / c, -q * bp.b * x / d)],
            q, [False, False, True, True] * len(z)).tolist())
    except ZeroProduct as exc:
        raise DomainViolation(f"v_B denominator vanishes: {exc}") from exc
    val = 1.0
    for _ in z:
        num = next(f) * next(f)
        den = next(f) * next(f)
        val *= (num / den).real
    return val * delta_qJ(z, q, bp.t)


def _theta_den(th: complex, where: str) -> complex:
    """A theta value th read as a denominator factor: raises PoleInTheta
    when this factor on its own is below the pole guard."""
    if abs(th) < POLE_GUARD:
        raise PoleInTheta(f"theta factor vanishes in {where}")
    return th


def c_weights(bp: BigParams) -> List[float]:
    """Split-weights (c_{B,0}, ..., c_{B,n}) of the two-sided Jackson
    integral, from the theta-product closed form (c_weights_defining is
    the independent defining form)."""
    n, q, t, c, d = bp.n, bp.q, bp.t, bp.c, bp.d
    tau = bp.tau
    # (q;q)_inf, theta(-t^e c/d), e = 1-n..n, and theta(-t^e d/c),
    # e = 1-n..0, from one kernel call
    es = range(1 - n, n + 1)
    (qq,), th = qpoch_theta_values(
        [q], [-t ** e * c / d for e in es]
        + [-t ** e * d / c for e in range(1 - n, 1)], q)
    qq = qq.real
    cd, dc = dict(zip(es, th)), dict(zip(range(1 - n, 1), th[2 * n:]))
    out: List[float] = []
    for j in range(n + 1):
        val = qq ** n
        for i in range(1, j + 1):
            den = (_theta_den(dc[1 - i], "c_{B,j}")
                   * _theta_den(cd[i], "c_{B,j}"))
            val *= (cd[i + j - n] / den).real
        for i in range(1, n - j + 1):
            val /= _theta_den(cd[1 - i], "c_{B,j}").real
        val *= q ** (-2.0 * tau * tau * (
            (n - j) * math.comb(j, 2) + math.comb(j, 3)
            + math.comb(n - j, 3)))
        val *= t ** (-math.comb(j, 2) - math.comb(n - j, 2))
        val *= c ** (-2.0 * tau * (j * (n - j) + math.comb(j, 2)) - j)
        val *= d ** (-2.0 * tau * math.comb(n - j, 2) + j - n)
        out.append(float(val))
    return out


def c_weights_defining(bp: BigParams) -> List[float]:
    """The split-weights from their defining form: a base constant c_B
    times the products d_{B,j} of the quasi-constant Psi_t, with
    (q;q)_inf, the thetas of c_B and those of every Psi_t from one kernel
    call."""
    n, q, t, c, d = bp.n, bp.q, bp.t, bp.c, bp.d
    tau = bp.tau
    # d_{B,j} multiplies Psi_t(x_km) over k <= j, for k < m in this order
    pairs = [(k, m) for k in range(1, n) for m in range(k + 1, n + 1)]
    xs = [-t ** (n - m - k + 1) * d / c for k, m in pairs]
    (qq,), th = qpoch_theta_values(
        [q], [-t ** (1 - i) * c / d for i in range(1, n + 1)]
        + [y for x in xs for y in (t * x, q * x / t)], q)
    base = qq.real ** n * q ** (-2.0 * tau * tau * math.comb(n, 3))
    base *= d ** (-2.0 * tau * math.comb(n, 2) - n)
    base *= t ** (-math.comb(n, 2))
    for i in range(n):
        base /= _theta_den(th[i], "c_B").real
    psi = [psi_of_thetas(x, q, t, th[n + 2 * r], th[n + 2 * r + 1])
           for r, x in enumerate(xs)]
    out: List[float] = []
    for j in range(n + 1):
        dB = 1.0
        for (k, _m), v in zip(pairs, psi):
            if k <= j:
                dB *= v
        out.append(float(base * dB))
    return out


def bilinear_big(f: LaurentPolynomial, g: LaurentPolynomial,
                 bp: BigParams) -> float:
    """<f,g>_B: the c-weighted Jackson integral of f g Delta^B over the
    two-sided chain set: pair on the node table."""
    return pair(f, g, _node_table(bp))


@functools.lru_cache(maxsize=CACHE_SIZE)
def _node_table(bp: BigParams) -> List[PointTable]:
    """The nodes (rho_B q^nu, sigma_B q^nu') and weights
    (1-q)^n c_{B,j} Delta^B(z) |prod z|, as weight_big computes them,
    vectorized (little._jackson_table); one part per j = 0..n."""
    n = bp.n
    const = (1.0 - bp.q) ** n * np.array(c_weights(bp))

    def parts(S: int):
        z, a = _axis_factors(bp, S)
        rows = [np.r_[0:j, n:2 * n - j] for j in range(n + 1)]
        return [((j, n - j), z[r], a[r], const[j]) for j, r in enumerate(rows)]

    return _jackson_table(parts, n, bp.q, bp.t, "big q-Jacobi multisum")


def _axis_factors(bp: BigParams, S: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (2n, S+1) arrays of node coordinates and one-axis factors
    v_B(z) |z|, for nu = 0..S: row i holds z = c t^i q^nu (position i of
    the positive chain), row n + i holds z = -d t^i q^nu."""
    q = bp.q
    base = bp.t ** np.arange(bp.n)[:, None] * q ** np.arange(S + 1.0)
    z = np.concatenate([bp.c * base, -bp.d * base])
    # (q z/c, -q z/d;q)_inf over the guarded (q a z/c, -q b z/d;q)_inf
    try:
        f = qpoch_infinite_arr(
            np.stack([q * z / bp.c, -q * z / bp.d, q * bp.a * z / bp.c,
                      -q * bp.b * z / bp.d]),
            q, np.array([False, False, True, True])[:, None, None])
    except ZeroProduct as exc:
        raise DomainViolation(f"v_B denominator vanishes: {exc}") from exc
    num, den = f[0] * f[1], f[2] * f[3]
    return z, (num / den).real * np.abs(z)


def big_polynomials(top: Sequence[int], bp: BigParams
                    ) -> Dict[Tuple[int, ...], LaurentPolynomial]:
    """P^B_mu = mtilde_mu + sum_{nu < mu} c_nu mtilde_nu, orthogonal to
    every mtilde_nu with nu < mu, for every mu <= top."""
    return orthogonalize(top, bp.n, monomial_s, _node_table(bp))


def norm_big(lam: Sequence[int], bp: BigParams) -> float:
    """Closed-form quadratic norm N^B(lambda): nqj_product times one
    factor per i, all infinite q-shifted factorials from one kernel
    call."""
    lam = partition(lam)
    if len(lam) != bp.n:
        raise DomainViolation("partition length must equal n")
    n, q, t, c, d = bp.n, bp.q, bp.t, bp.c, bp.d
    a, b = bp.a, bp.b
    num, den = _nqj_args(lam, n, q, t, a, b)
    poles = [x for i in range(1, n + 1) for x in (
        -q ** (lam[i - 1] + 1) * b * t ** (n - i) * c / d,
        -q ** (lam[i - 1] + 1) * a * t ** (n - i) * d / c)]
    vals = qpoch_infinite_values(
        [q] + den + num + poles, q,
        [None] * (1 + len(den)) + [_in_denominator] * len(num)
        + [_norm_pole] * len(poles))
    k = 1 + len(den)
    ratio = _ratio(vals[1:k], vals[k:k + len(num)])
    val = (c * d) ** sum(lam) * (
        (1.0 - q) ** n * vals[0].real ** (2 * n) * ratio)
    pole = iter(vals[k + len(num):])
    for i in range(1, n + 1):
        li = lam[i - 1]
        val *= q ** math.comb(li, 2) * (t ** (n - i)) ** li
        val /= next(pole) * next(pole)
    val = complex(val)
    return float(val.real)


def _norm_pole(exc: ZeroProduct) -> DomainViolation:
    return DomainViolation("norm denominator factor vanishes")


def selberg_big(bp: BigParams) -> float:
    """Closed-form constant term <1,1>_B."""
    n, q, t, c, d = bp.n, bp.q, bp.t, bp.c, bp.d
    a, b = bp.a, bp.b
    num: List[complex] = []
    den: List[complex] = []
    for j in range(1, n + 1):
        num += [q * a * t ** (j - 1), q * b * t ** (j - 1), t ** j,
                -q * a * t ** (j - 1) * d / c, -q * b * t ** (j - 1) * c / d]
        den += [q * q * a * b * t ** (n + j - 2), t]
    qq, ratio = qpoch_ratios([([q], []), (den, num)], q)
    val = (1.0 - q) ** n * qq.real ** n * ratio
    return float(complex(val).real)


def _natural_k(p) -> int:
    """The integer k with t = q^k, k >= 1; DomainViolation otherwise."""
    k = round(math.log(p.t) / math.log(p.q))
    if k < 1 or abs(p.t - p.q ** k) > 1e-12:
        raise DomainViolation(f"t={p.t} is not an exact positive power of q")
    return int(k)


def askey_evans_lhs(bp: BigParams) -> float:
    """Two-sided iterated Jackson integral of the t = q^k Selberg
    integrand over [-d, c]^n, by direct summation.

    The integrand is a product of one factor per axis and one per pair of
    axes, so the sum over all n-tuples of one-axis nodes is one
    contraction of the node vector with the pair matrix."""
    k = _natural_k(bp)
    n, q = bp.n, bp.q
    nodes = 0
    while q ** nodes >= NODE_CUTOFF:
        if nodes == MAX_NODES:
            raise SlowConvergence("Jackson node list did not terminate")
        nodes += 1
    # one axis: nodes c q^m and -d q^m (rows 0 and n), weight v_B(x) |x|
    z, a = _axis_factors(bp, nodes - 1)
    x = np.concatenate([z[0], z[n]])
    axis = np.concatenate([a[0], a[n]])
    # pair[i, j] = x_i^{2k} (q^{1-k} x_j / x_i; q)_{2k}
    pair = (x[:, None] ** (2 * k)
            * qpoch_finite(q ** (1 - k) * x[None, :] / x[:, None], q,
                               2 * k))
    letters = "abcdefghijklmnopqrstuvwxyz"[:n]
    operands = [axis] * n
    subscripts = list(letters)
    for i in range(n):
        for j in range(i + 1, n):
            operands.append(pair)
            subscripts.append(letters[i] + letters[j])
    total = np.einsum(",".join(subscripts) + "->", *operands)
    return (1.0 - q) ** n * float(total)


def askey_evans_rhs(bp: BigParams) -> float:
    """Closed form of the two-sided t = q^k Selberg integral: its infinite
    q-shifted factorials from one kernel call, multiplied and divided in
    the order of the product over i."""
    k = _natural_k(bp)
    n, q, t, c, d = bp.n, bp.q, bp.t, bp.c, bp.d
    a, b = bp.a, bp.b
    # (q, -d/c, -c/d;q)_inf, then per i the gamma ratio's numerator and
    # its two guarded denominators (gamma arguments alpha+1+(i-1)k etc.,
    # expanded so the q-powers are exact products), and the two guarded
    # denominators of the c, d factor
    args = [q, -d / c, -c / d]
    errors = [None] * 3
    for i in range(1, n + 1):
        ti = t ** (i - 1)
        args += [q * q * a * b * t ** (n + i - 2), q * a * ti, q * b * ti,
                 -q * a * ti * d / c, -q * b * ti * c / d]
        errors += [None, _in_denominator, _in_denominator,
                   _selberg_pole, _selberg_pole]
    f = qpoch_infinite_values(args, q, errors)
    qq = f[0].real
    val = q ** (k * k * math.comb(n, 3)
                - math.comb(k, 2) * math.comb(n, 2))
    cd_pair = (f[1] * f[2]).real
    for i in range(1, n + 1):
        num, den_a, den_b, pole_a, pole_b = f[5 * i - 2:5 * i + 3]
        val *= (1.0 - q) ** (1 + (n - i) * k) * qq * _ratio(
            [num], [den_a, den_b])
        val *= (qpoch_finite(q, q, i * k)
                / qpoch_finite(q, q, k)) * (1.0 - q) ** (k - i * k)
        val *= cd_pair * (c * d) ** (1 + (i - 1) * k) / (c + d)
        val /= pole_a * pole_b
    return float(complex(val).real)


def _selberg_pole(exc: ZeroProduct) -> DomainViolation:
    return DomainViolation("Selberg denominator factor vanishes")


def selberg_big_qk(bp: BigParams) -> float:
    """Value of the two-sided t = q^k Selberg integral obtained from the
    general constant term <1,1>_B by translation.

    At t = q^k all split-weights equal c_B, and the bilinear form differs
    from the bare iterated integral by c_B together with the ratio of
    Gamma_q(ik)/Gamma_q(k) to Gamma_q(ik+1)/Gamma_q(k+1) factors, so the
    integral equals <1,1>_B / (c_B prod_i (1-q^k)/(1-q^{ik}))."""
    k = _natural_k(bp)
    n, q = bp.n, bp.q
    const = c_weights(bp)[0]
    for i in range(1, n + 1):
        const *= (1.0 - q ** k) / (1.0 - q ** (i * k))
    return selberg_big(bp) / const


def asymptotic_ratio(j: int, lam: Sequence[int], mu: Sequence[int],
                     bp: BigParams, L: int) -> float:
    """Ratio of c_{B,j} Delta^B at z+(L) to c_{B,j-1} Delta^B at z-(L):
    the two ways a chain coordinate can vanish. Tends to 1 as L grows.
    NonFiniteWeight when either weight is not finite."""
    if not 1 <= j <= bp.n:
        raise DomainViolation(f"j must be in 1..n, got {j}")
    if len(lam) != j - 1 or len(mu) != bp.n - j:
        raise DomainViolation("chain labels have wrong lengths")
    cw = c_weights(bp)
    zp = support_point(j, tuple(lam) + (L,), tuple(mu), bp)
    zm = support_point(j - 1, tuple(lam), tuple(mu) + (L,), bp)
    num = cw[j] * weight_big(zp, bp)
    den = cw[j - 1] * weight_big(zm, bp)
    if not (math.isfinite(num) and math.isfinite(den)):
        raise NonFiniteWeight(f"split weights {num}, {den} at L = {L}")
    if abs(den) < 1e-300:
        raise DomainViolation("vanishing comparison weight")
    return num / den


def family(bp: BigParams) -> Family:
    """The big q-Jacobi family record (bcpoly.Family)."""
    return Family(bp, lambda f, g: bilinear_big(f, g, bp),
                  lambda polys: gram(polys, _node_table(bp)),
                  lambda top: big_polynomials(top, bp),
                  lambda lam: norm_big(lam, bp),
                  lambda: selberg_big(bp))


# ---------------------------------------------------------------------------
# limit transition from the Askey-Wilson family

def aw_params_big(eps: float, bp: BigParams) -> AWParams:
    """Askey-Wilson parameters t_B(eps) realizing the big q-Jacobi limit."""
    if eps <= 0:
        raise DomainViolation("eps must be positive")
    a, b = complex(bp.a), complex(bp.b)
    if a == 0 or b == 0:
        raise DomainViolation("the deformation requires a, b != 0")
    q, c, d = bp.q, bp.c, bp.d
    rcd = math.sqrt(q * c / d)
    rdc = math.sqrt(q * d / c)
    return AWParams(bp.n, q, bp.t, rcd / eps, -rdc / eps,
                    eps * a * rdc, -eps * b * rcd)


def big_limit(bp: BigParams) -> Limit:
    """The limit to the big q-Jacobi family (family) along t_B(eps):
    rescale eps (cd/q)^(1/2), measure prefactor
    prod_i (-q t^(i-1)/eps^2; q)_inf, measure scan up to k = 11.
    DomainViolation if the deformation refuses bp (a or b = 0)."""
    q, t = bp.q, bp.t
    scale = math.sqrt(bp.c * bp.d / q)
    aw_params_big(q, bp)

    def prefactor(eps: float) -> float:
        args = [-q * t ** (i - 1) / (eps * eps) for i in range(1, bp.n + 1)]
        return math.prod(qpoch_infinite_arr(args, q).tolist(), start=1.0)

    return Limit(family(bp), lambda eps: aw_params_big(eps, bp),
                 lambda eps: eps * scale, prefactor, 11)
