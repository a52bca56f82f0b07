"""Reference forms that the vectorized code of bcortho must reproduce.

eval_points_loop is LaurentPolynomial.eval_points as a loop over the
terms, the form the slab evaluator replaced, and pair_loop is
bcpoly.pair as a loop over the nodes, the form of the old q-Racah
pairing; both keep their rounding bit for bit, because the orthogonality
metric of the discrete families reads it. op_matrix_loop is
koornwinder.op_matrix with one apply_D and one FFT per monomial, and
aw_polynomials_loop the back-substitution on it with every W-orbit and
eigenvalue formed anew per use; the Askey-Wilson reports read their
rounding bit for bit. orthogonalize_loop is bcpoly.orthogonalize with a
new polynomial per projection step, paired through a pair callable, and
residue_split_loop the CLI's residue-split value with every one of its
20 labels weighed, and its K_r formed, on its own: the CLI reproduces
its value, and its errors, exactly. norm_ratio_keys_tuples is the
q-Racah norm key builder as tuple arithmetic. The weights below are the
scalar forms of the densities that the node tables build as arrays, one
point or label at a time.
"""

import math
import random
from typing import Dict, Sequence, Tuple

import numpy as np

from bcortho.askey_wilson import SEPARATION, aw_norm_plus
from bcortho.bcpoly import (LaurentPolynomial, monomial_w, partition,
                            partitions_dominated_by)
from bcortho.errors import (BcorthoError, DiagonalMismatch,
                            DomainViolation, EigenvalueCollision, NearPole,
                            PoleInProduct, SingularGram, ZeroProduct)
from bcortho.koornwinder import (TriangularOpMatrix, _nodes, apply_D,
                                 eigenvalue_E)
from bcortho.little import LittleParams, delta_qJ, support_point
from bcortho.measures import multi_discrete_weight
from bcortho.params import AWParams
from bcortho.qracah import kr_constant, weight_qR
from bcortho.qseries import POLE_GUARD, qpoch_infinite, qpoch_real


def eval_points_loop(f, Z: np.ndarray) -> np.ndarray:
    """f at every row of the (m, nvars) array Z: the terms c z^e added one
    at a time in sorted exponent order, each product c z_1^e_1 ... z_n^e_n
    formed left to right, with one power vector per (axis, exponent)."""
    Z = np.asarray(Z)
    real = (not np.iscomplexobj(Z)
            and all(c.imag == 0 for c in f.terms.values()))
    cols = [Z[:, i] for i in range(f.nvars)]
    cache: Dict[Tuple[int, int], np.ndarray] = {}
    total = np.zeros(len(Z), dtype=float if real else complex)
    for e in sorted(f.terms):
        term = f.terms[e].real if real else f.terms[e]
        for i, ei in enumerate(e):
            if (i, ei) not in cache:
                cache[i, ei] = cols[i] ** ei
            term = term * cache[i, ei]
        total += term
    return total


def pair_loop(f, g, tables) -> complex:
    """sum f g w over the nodes of every table in turn: the terms f g w
    of each table formed as arrays, then added one by one to a running
    total in node order."""
    total = 0.0
    for table in tables:
        F, G = (np.ravel(h.node_values(table)) for h in (f, g))
        for term in (F * G * table.weights).tolist():
            total += term
    return total


def orthogonalize_loop(top: Sequence[int], n: int, basis,
                       pair) -> Dict[Tuple[int, ...], LaurentPolynomial]:
    """The monic polynomials P_mu, mu <= top, orthogonal for
    pair(f, g): Gram-Schmidt with one re-orthogonalization pass, each
    projection c = pair(poly, P_nu) / N_nu making a new polynomial
    poly + P_nu.scale(-c), evaluated anew by the next pairing."""
    top = partition(top)
    if len(top) != n:
        raise DomainViolation(f"partition {top} must have length {n}")
    built: Dict[Tuple[int, ...], LaurentPolynomial] = {}
    norms: Dict[Tuple[int, ...], complex] = {}
    for mu in partitions_dominated_by(top):
        m_mu = poly = basis(mu)
        lower = partitions_dominated_by(mu)[:-1]
        for _ in range(2):
            for nu in lower:
                c = pair(poly, built[nu]) / norms[nu]
                poly = poly + built[nu].scale(-c)
        norm = pair(poly, poly)
        if abs(norm) <= POLE_GUARD * abs(pair(m_mu, m_mu)):
            raise SingularGram(f"vanishing quadratic norm at {mu}")
        built[mu] = poly
        norms[mu] = norm
    return built


def residue_split_loop(qp, seed: int) -> float:
    """The CLI's q-Racah residue-split value as a loop over its 20 random
    labels, each weighed, and its K_r formed, on its own; NaN where a
    BcorthoError is raised."""
    rng = random.Random(seed)
    pg = AWParams(qp.n, qp.q, qp.t, 1.1, -0.5, 0.35, 0.45)
    worst = 0.0
    try:
        for _ in range(20):
            r = rng.choice(range(1, qp.n + 1))
            nu = tuple(sorted(rng.randrange(5) for _ in range(r)))
            lhs = multi_discrete_weight(nu, pg, 0)
            rhs = kr_constant(r, pg) * weight_qR(nu, pg)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    except BcorthoError:
        return math.nan
    return worst


def op_matrix_loop(lam: Sequence[int], p: AWParams) -> TriangularOpMatrix:
    """The matrix of D on {m_mu : mu <= lambda}: one apply_D on the nodes
    and one FFT per monomial, each monomial evaluated once more for the
    noise floor of the diagonal check."""
    lam = partition(lam)
    mus = partitions_dominated_by(lam)
    monomials = [monomial_w(mu) for mu in mus]
    n = p.n
    K = 2 * lam[0] + 1
    Z, base = _nodes(n, K)
    bins = tuple(np.array(mus).T % K)
    scale = K ** n * np.prod(base ** np.array(mus), axis=1)
    entries = np.array(
        [np.fft.fftn(apply_D(m, Z, p).reshape((K,) * n))[bins] / scale
         for m in monomials])
    tmax = max(abs(ti) for ti in p.tvec)
    mmax = max(float(np.max(np.abs(m.eval_points(Z)))) for m in monomials)
    noise = 1e-12 * max(1.0, tmax * tmax) * mmax
    for k, mu in enumerate(mus):
        ek = eigenvalue_E(mu, p)
        if abs(entries[k, k] - ek) > 1e-8 * max(1.0, abs(ek)) + noise:
            raise DiagonalMismatch(
                f"diagonal at {mu}: got {entries[k, k]}, closed form {ek}")
    return TriangularOpMatrix(tuple(mus), entries)


def aw_polynomials_loop(top: Sequence[int], p: AWParams
                        ) -> Dict[Tuple[int, ...], LaurentPolynomial]:
    """askey_wilson.aw_polynomials on op_matrix_loop, with the partitions
    below each mu enumerated, each eigenvalue formed and each W-orbit
    built anew wherever it is used."""
    m = op_matrix_loop(top, p)
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


def norm_ratio_keys_tuples(lam: Sequence[int], n: int, N: int):
    """The numerator and denominator keys (exponents of q, t, t0, t1, t2)
    of the q-Racah norm, built by tuple arithmetic with t3 as the key
    (-N, 1 - n, -1, 0, 0)."""
    def add(*keys):
        return tuple(map(sum, zip(*keys)))

    def mul(a, c):
        return tuple(c * x for x in a)

    Q, T, T0, T1, T2 = (tuple(int(i == j) for j in range(5))
                        for i in range(5))
    T3 = (-N, 1 - n, -1, 0, 0)
    Tbig = add(T0, T1, T2, T3)
    num, den = [], []

    def base(a, b):
        return add(mul(Q, a), mul(T, b))

    for i in range(1, n + 1):
        li = lam[i - 1]
        num.append(add(base(2 * li - 1, 2 * (n - i)), Tbig))
        den.append(add(base(li - 1, n - i), Tbig))
        den.append(add(base(li, n - i), T0, T1))
        den.append(add(base(li, n - i), T0, T2))
        den.append(add(base(li, n - i), T0, T3))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            lj, lk = lam[j - 1], lam[k - 1]
            num.append(add(base(lj + lk - 1, 2 * n - j - k), Tbig))
            num.append(base(lj - lk, k - j))
            den.append(add(base(lj + lk - 1, 2 * n - j - k + 1), Tbig))
            den.append(base(lj - lk, k - j + 1))
    for i in range(1, n + 1):
        li = lam[i - 1]
        num.append(add(base(2 * li, 2 * (n - i)), Tbig))
        den.append(base(li + 1, n - i))
        den.append(add(base(li, n - i), T1, T2))
        den.append(add(base(li, n - i), T1, T3))
        den.append(add(base(li, n - i), T2, T3))
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            lj, lk = lam[j - 1], lam[k - 1]
            num.append(add(base(lj + lk, 2 * n - j - k), Tbig))
            num.append(base(lj - lk + 1, k - j))
            den.append(add(base(lj + lk, 2 * n - j - k - 1), Tbig))
            den.append(base(lj - lk + 1, k - j - 1))
    for i in range(1, n + 1):
        rho_i = add(T0, mul(T, i - 1))
        den.append(mul(rho_i, -2))
        den.append(T)
        den.append(add(mul(T0, -2), mul(T, 2 - i - n)))
        num.append(Q)
        for tk in (T1, T2, T3):
            num.append(add(rho_i, tk))
            num.append(add(mul(rho_i, -1), tk))
        num.append(mul(T, i))
        num.append(add(mul(T0, -2), mul(T, 2 - 2 * i)))
    return num, den


def _wc_scalar(x: complex, p: AWParams) -> complex:
    num = qpoch_infinite(x * x, p.q) * qpoch_infinite(1.0 / (x * x), p.q)
    den: complex = 1.0
    for ti in p.tvec:
        for arg in (ti * x, ti / x):
            f = qpoch_infinite(arg, p.q)
            if abs(f) < POLE_GUARD:
                raise NearPole(f"w_c denominator factor near zero at {arg}")
            den *= f
    return num / den


def weight_continuous(z: Sequence[complex], p: AWParams) -> complex:
    """Density Delta(z) = prod_j w_c(z_j) * prod_{i<j} (4 cross factors;q)_tau."""
    val: complex = 1.0
    for x in z:
        val *= _wc_scalar(x, p)
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            zi, zj = z[i], z[j]
            for arg in (zi * zj, zj / zi, zi / zj, 1.0 / (zi * zj)):
                val *= qpoch_real(arg, p.q, p.t)
    return val


def interaction_c(omega: Sequence[complex], z: Sequence[complex],
                  p: AWParams) -> complex:
    """Discrete-continuous interaction delta_c(omega; z)."""
    val: complex = 1.0
    for w in omega:
        for x in z:
            for arg in (w * x, w / x, x / w, 1.0 / (w * x)):
                val *= qpoch_real(arg, p.q, p.t)
    return val


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


def little_weight_at_point(z: Sequence[float], lp: LittleParams) -> float:
    """Weight Delta^L at the point z."""
    n, q, t = lp.n, lp.q, lp.t
    tau, alpha = lp.tau, lp.alpha
    val = (q ** (-2.0 * tau * tau * math.comb(n, 3))
           * t ** (-(alpha + 1.0) * math.comb(n, 2)))
    for x in z:
        try:
            den = qpoch_infinite(q * lp.b * x, q, require_nonzero=True)
        except ZeroProduct as exc:
            raise DomainViolation(f"(qbx;q)_inf vanishes at x={x}") from exc
        val *= qpoch_infinite(q * x, q) / den * x ** alpha
    return float(val * delta_qJ(z, q, t))


def weight_little(nu: Sequence[int], lp: LittleParams) -> float:
    """Weight Delta^L at the node rho_L q^nu."""
    return little_weight_at_point(support_point(nu, lp), lp)
