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
its value, and its errors, exactly. limit_scan_loop is
askey_wilson.limit_scan with one pass of D per step, and
jackson_table_ladder little._jackson_table with one whole build per rung
of its shell ladder; the program gives their tables, and raises their
errors, exactly. norm_ratio_keys_tuples is the q-Racah norm key builder
as tuple arithmetic. The weights below are the
scalar forms of the densities that the node tables build as arrays, one
point or label at a time; axis_wc_complex and interaction_c_rows_complex
are the complex array forms of w_c and of the delta_c rows, which the
measures keep for parameters that are not conjugation-closed and replace
by real ones for the others. label_weights_stacked is the label weight
product on the stacked axis factors, which bcpoly._label_weights now
gathers one axis at a time, bit for bit. labelled_partial is the
partially discrete form summed label by label, as it was before each
split of F(r) became one node table: each label's coefficients in the
chamber variables (tail_coefficients), evaluated on the chamber table
and paired there (labelled_pairings). natural_t_bilinear is the
partially discrete form rewritten for t = q^k, with independent chains
per coordinate and finite-product interactions. Both are references that
measures.partial_bilinear is compared against.

apply_D, qpoch_ratio, theta_jacobi and psi_t are one-argument forms of
koornwinder._apply_D_rows (for one parameter set, each phi_j^{+-} formed
on its own by phi_plus and phi_minus), qseries.qpoch_ratios,
qpoch_theta_values and psi_of_thetas; qgamma (with its error PoleAtNonpositiveInteger),
substitute_prefix and the little q-Jacobi support_point are references
that no program path runs, and table_nodes gathers the node coordinates
of a PointTable.

The *_loop closed forms at the end (aw_norm_loop, gustafson_loop,
c_weights_defining_loop, askey_evans_rhs_loop, the limit prefactor loops,
eval_cancelled_ratio_loop, and the little and big q-Jacobi norms and
constant terms) make one kernel call per factor group, as the closed
forms did before each fetched all its q-shifted factorials in one call;
the closed forms equal them bit for bit, and raise the same typed error
first.
"""

import itertools
import math
import random
from typing import Dict, Sequence, Tuple

import numpy as np

from bcortho.askey_wilson import SEPARATION, aw_polynomials
from bcortho.bcpoly import (LaurentPolynomial, PointTable, _chain_labels,
                            _label_weights, ascending_index, monomial_w,
                            pair, partition, partitions_dominated_by)
from bcortho.big import BigParams, _natural_k, _theta_den
from bcortho.errors import (BcorthoError, DiagonalMismatch,
                            DomainViolation, EigenvalueCollision,
                            LengthMismatch, NearPole, PoleInProduct,
                            SingularGram, SlowConvergence, UncancelledPole,
                            ZeroArgument, ZeroCoordinate, ZeroProduct)
from bcortho.koornwinder import (TriangularOpMatrix, _guard, _nodes,
                                 eigenvalue_E)
from bcortho.little import (MAX_SHELLS, LittleParams, _nqj_args,
                            _pair_factors, delta_qJ)
from bcortho import measures
from bcortho.measures import multi_discrete_weight, wd_residue_weight
from bcortho.params import AWParams
from bcortho.qracah import QRacahParams, _key_value, kr_constant, weight_qR
from bcortho.qseries import (EPS_TRUNC, POLE_GUARD, psi_of_thetas,
                             qpoch_finite, qpoch_infinite, qpoch_infinite_arr,
                             qpoch_ratios, qpoch_real, qpoch_real_arr,
                             qpoch_theta_values)


def phi_plus(j: int, Z: np.ndarray, p: AWParams) -> np.ndarray:
    """Coefficient function phi_j^+ of the forward q-shift in D at every
    row of the (m, n) point array Z.

    The axis index j is 0-based. Raises NearPole when any denominator
    factor is within guard distance of zero.
    """
    Z = np.asarray(Z, dtype=complex)
    zj = Z[:, j]
    num = np.ones(len(Z), dtype=complex)
    for ti in p.tvec:
        num = num * (1.0 - ti * zj)
    val = num / (_guard(1.0 - zj * zj) * _guard(1.0 - p.q * zj * zj))
    for l in range(Z.shape[1]):
        if l == j:
            continue
        zl = Z[:, l]
        val = val * ((1.0 - p.t * zl * zj) * (1.0 - p.t * zj / zl))
        val = val / (_guard(1.0 - zl * zj) * _guard(1.0 - zj / zl))
    return val


def phi_minus(j: int, Z: np.ndarray, p: AWParams) -> np.ndarray:
    """phi_j^-(z) = phi_j^+(z^{-1}) with all coordinates inverted."""
    return phi_plus(j, 1.0 / np.asarray(Z, dtype=complex), p)


def apply_D(f, Z: np.ndarray, p: AWParams) -> np.ndarray:
    """D f at every row of the (m, n) point array Z for one parameter
    set: f evaluated on Z and its 2n shifted copies stacked, and
    phi_j^+ (f(q z) - f(z)) then phi_j^- (f(z/q) - f(z)) added from zero
    for j = 0..n-1, each phi formed on its own."""
    Z = np.asarray(Z, dtype=complex)
    grids = np.array([Z] * (2 * p.n + 1))
    for j in range(p.n):
        grids[2 * j + 1:2 * j + 3, :, j] = p.q * Z[:, j], Z[:, j] / p.q
    vals = f.eval_points(grids.reshape(-1, Z.shape[1])).reshape(
        len(grids), -1)
    total = np.zeros(len(Z), dtype=complex)
    for j in range(p.n):
        total += phi_plus(j, Z, p) * (vals[2 * j + 1] - vals[0])
        total += phi_minus(j, Z, p) * (vals[2 * j + 2] - vals[0])
    return total


def qpoch_ratio(num, den, q: float) -> complex:
    """The product of (x;q)_inf over num divided by the same over den:
    qseries.qpoch_ratios of one ratio."""
    return qpoch_ratios([(num, den)], q)[0]


def theta_jacobi(x: complex, q: float) -> complex:
    """The Jacobi theta function (q;q)_inf (x;q)_inf (q/x;q)_inf:
    qseries.qpoch_theta_values at one x."""
    return qpoch_theta_values([], [x], q)[1][0]


def psi_t(x: float, q: float, t: float) -> float:
    """The quasi-constant Psi_t(x) = |x|^{2 tau - 1} theta(t x) /
    theta(q x / t) of a real nonzero x: qseries.psi_of_thetas on its two
    theta values."""
    if x == 0:
        raise ZeroArgument("Psi_t is undefined at x = 0")
    return psi_of_thetas(x, q, t, *qpoch_theta_values(
        [], [t * x, q * x / t], q)[1])


class PoleAtNonpositiveInteger(BcorthoError):
    """The q-gamma function was called at a nonpositive integer."""


def qgamma(u: float, q: float, qu: complex | None = None) -> float:
    """The q-gamma function Gamma_q(u) = (q;q)_inf (1-q)^{1-u} /
    (q^u;q)_inf, from one kernel call; qu is q^u, supplied when it has an
    exact product form and computed as q**u otherwise."""
    if u <= 0 and abs(u - round(u)) < 1e-12:
        raise PoleAtNonpositiveInteger(f"Gamma_q pole at u = {u}")
    if qu is None:
        qu = q ** u
    qq, den = qpoch_infinite_arr([q, qu], q, [False, True]).tolist()
    val = qq * (1.0 - q) ** (1.0 - u) / den
    return val.real if isinstance(val, complex) else val


def substitute_prefix(f, values: Sequence[complex]) -> LaurentPolynomial:
    """The Laurent polynomial f with its first len(values) variables fixed
    at the given nonzero values, in the remaining variables."""
    r = len(values)
    if r > f.nvars:
        raise LengthMismatch("more values than variables")
    if any(v == 0 for v in values):
        raise ZeroCoordinate("substituted value is zero")
    t: Dict[Tuple[int, ...], complex] = {}
    for e, c in f.terms.items():
        for v, ei in zip(values, e[:r]):
            c = c * v ** ei
        tail = e[r:]
        t[tail] = t.get(tail, 0.0) + c
    return LaurentPolynomial(f.nvars - r, t)


def support_point(nu: Sequence[int], lp: LittleParams) -> Tuple[float, ...]:
    """The little q-Jacobi node rho_L q^nu, rho_{L,i} = t^{i-1}."""
    nu = ascending_index(nu)
    return tuple(lp.t ** (i - 1) * lp.q ** nu[i - 1]
                 for i in range(1, lp.n + 1))


def table_nodes(table) -> np.ndarray:
    """The (nodes, nvars) array of the coordinates of a PointTable."""
    return np.array([zi.take(nui) for zi, nui in zip(table.z, table.nu)]).T


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


def jackson_table_ladder(parts, n: int, q: float, t: float,
                         what: str) -> list:
    """little._jackson_table as a ladder of whole builds: S starts at 32
    and doubles, up to MAX_SHELLS, each rung building the parts, labels
    and weights anew, until S >= n and each of the last four shells
    |nu| = s carries at most EPS_TRUNC of the table's sum of |w|;
    SlowConvergence if S = MAX_SHELLS does not settle. Build errors
    (NonFiniteWeight) come from the first rung that meets one."""
    S = 32
    while True:
        table, mass = [], np.zeros(S + 1)
        for chains, z, a, const in parts(S):
            nu = _chain_labels(chains, [S + 1] * n, S)
            w = _label_weights(nu, const, a, _pair_factors(z, chains, q, t),
                               what)
            mass += np.bincount(nu.sum(axis=0), np.abs(w), minlength=S + 1)
            table.append(PointTable(z, nu, w))
        if S >= n and np.all(mass[-4:] <= EPS_TRUNC * mass.sum()):
            return table
        if S == MAX_SHELLS:
            raise SlowConvergence(f"{what} did not settle within "
                                  f"{MAX_SHELLS} shells")
        S = min(2 * S, MAX_SHELLS)


def limit_scan_loop(limit, lam: Sequence[int], ks) -> list:
    """askey_wilson.limit_scan as a loop over the steps: at each step the
    deformed parameters and their polynomials (aw_polynomials, one pass
    of D per step), so an error comes from the first step that meets
    it."""
    lam = partition(lam)
    target = limit.target.polynomials(lam)[lam]
    q = limit.target.params.q
    rows = []
    for k in ks:
        eps = q * q ** k
        aw = aw_polynomials(lam, limit.deformation(eps))[lam]
        r = limit.rescale(eps)
        dev = 0.0
        for mu in partitions_dominated_by(lam):
            scaled = aw.coefficient(mu) * r ** (sum(lam) - sum(mu))
            dev = max(dev, abs(scaled - target.coefficient(mu)))
        rows.append((k, eps, dev))
    return rows


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


def axis_wc_complex(zvals: np.ndarray, p: AWParams) -> np.ndarray:
    """w_c(z) for every z of zvals in complex arithmetic, for any
    parameters: one kernel call on the numerator's two arguments stacked
    and one on the denominator's eight. measures._axis_wc forms it so,
    bit for bit, for parameters that are not conjugation-closed, and its
    real density for the others."""
    num = qpoch_infinite_arr(np.stack([zvals ** 2, zvals ** -2]), p.q)
    try:
        den = qpoch_infinite_arr(np.stack([
            x for ti in p.tvec for x in (ti * zvals, ti / zvals)]), p.q,
            require_nonzero=True)
    except ZeroProduct as exc:
        raise NearPole("w_c pole on the quadrature grid") from exc
    return num[0] * num[1] / np.prod(den, axis=0)


def interaction_c_rows_complex(ws: np.ndarray, xs: np.ndarray,
                               p: AWParams) -> np.ndarray:
    """delta_c((w,); (x,)) for every w of ws (rows) and x of xs from one
    kernel call on its four arguments stacked, for any chain and points:
    the form of measures._interaction_c_rows everywhere but on a real
    chain against the circle."""
    w, x = ws[:, None], xs[None, :]
    f = qpoch_real_arr(np.stack([w * x, w / x, x / w, 1.0 / (w * x)]),
                       p.q, p.t)
    return f[0] * f[1] * f[2] * f[3]


def chamber_slabs(p: AWParams, n_axes: int, M: int,
                  axis_wc=measures._axis_wc
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """The chamber table of measures._Chamber as (nodes, weights), built as
    it was before the build went one leading index at a time: the nodes
    enumerated as chain labels, k_i = i + nu_i for nu ascending, and the
    weights formed in slabs of 2^15 nodes by flat-index gathers of the
    pair table, then the product of the axis factors w_c = axis_wc(z, p),
    in the dtype of w_c."""
    slab = 2 ** 15
    top = (M - 1) // 2
    nodes = _chain_labels(
        (n_axes,), [top - n_axes + 1] * n_axes, n_axes * top
    ) + np.arange(1, n_axes + 1, dtype=np.int16)[:, None]
    wc = axis_wc(measures._grid_axes(M)[:M // 2 + 1], p)
    P = measures._pair_table(p, M) if n_axes > 1 else None
    const = 2 ** n_axes * math.factorial(n_axes) / M ** n_axes
    weights = np.empty(nodes.shape[1], dtype=wc.dtype)
    for lo in range(0, len(weights), slab):
        nu = nodes[:, lo:lo + slab]
        weights[lo:lo + slab] = _label_weights(
            nu, const, [], lambda i, j: P, "chamber") * np.prod(wc[nu],
                                                                 axis=0)
    return nodes, weights


def label_weights_stacked(nu: np.ndarray, const, axis, pair) -> np.ndarray:
    """bcpoly._label_weights as it was before it gathered one axis at a
    time: const times the product down the stacked (axes, labels) array
    of the gathered axis factors, then each pair matrix read at its flat
    indices, from an intp copy of the labels."""
    idx = nu.astype(np.intp)
    w = const * np.prod([a[lab] for a, lab in zip(axis, idx)], axis=0)
    for i, j in itertools.combinations(range(len(idx)), 2):
        m = pair(i, j)
        w = w * m.ravel()[idx[i] * m.shape[1] + idx[j]]
    return w


def tail_coefficients(f, omega: np.ndarray) -> Dict[Tuple[int, ...],
                                                     np.ndarray]:
    """f(omega_l, z) = sum_mu A[mu][l] m_mu(z) in the variables past the
    first r = omega.shape[1], one entry per label (row of omega). For
    W-invariant f the coefficient of m_mu is read off the terms whose
    tail is the dominant mu."""
    r = omega.shape[1]
    out: Dict[Tuple[int, ...], np.ndarray] = {}
    for e, c in sorted(f.terms.items()):
        tail = e[r:]
        if tail and (tail[-1] < 0 or any(a < b for a, b in zip(tail,
                                                               tail[1:]))):
            continue
        term = np.full(len(omega), c)
        for i, h in enumerate(e[:r]):
            term = term * omega[:, i] ** h
        out[tail] = out[tail] + term if tail in out else term
    return out


def labelled_values(table, coeffs, labels: int) -> np.ndarray:
    """sum_mu coeffs[mu] m_mu at every node of a chamber table, one row
    per label: (labels, nodes), or (labels, 1) for a constant; real and
    imaginary parts summed apart, as the chamber table's at_nodes does."""
    parts = [np.zeros((labels, 1)), np.zeros((labels, 1))]
    for mu in sorted(coeffs):
        S = table.orbit_sum(mu) if any(mu) else np.ones(1)
        for i, c in enumerate((coeffs[mu].real, coeffs[mu].imag)):
            parts[i] = parts[i] + c[:, None] * S
    return parts[0] + 1j * parts[1] if parts[1].any() else parts[0]


def labelled_pairings(f, g, p: AWParams, M: int, omega: np.ndarray,
                      row: np.ndarray | None = None) -> np.ndarray:
    """Per label (row of omega, the values of the first r variables): the
    M-point pairing of f(omega, z) g(omega, z) prod_j row(z_j) over the
    other n - r variables, row a (labels, chamber axis) array or None
    for ones; f(omega) g(omega) for r = n. f and g are put in a canonical
    order first, so that the result is exactly symmetric in them."""
    if (sorted((lam, c.real, c.imag) for lam, c in g.w_coefficients().items())
            < sorted((lam, c.real, c.imag)
                     for lam, c in f.w_coefficients().items())):
        f, g = g, f
    labels, r = omega.shape
    F, G = (tail_coefficients(h, omega) for h in (f, g))
    if r == p.n:
        return F.get((), np.zeros(labels)) * G.get((), np.zeros(labels))
    table = measures._Chamber(p, p.n - r, M)
    fg = (labelled_values(table, F, labels)
          * labelled_values(table, G, labels))
    if row is not None:
        fg = fg * np.prod([row[:, kj] for kj in table.nodes], axis=0)
    return np.sum(fg * table.weights, axis=1)


def labelled_partial(f, g, p: AWParams, M: int) -> Tuple[complex, float]:
    """measures.partial_bilinear label by label, as (value, mass): the
    torus pairing plus, per split of F(r), 2^r n! / (n - r)! times the sum
    over its labels of the label's weight times its labelled_pairings
    value. mass is |torus term| plus the summed magnitudes of the label
    contributions: the scale of a comparison, since orthogonal pairs
    cancel far below the rounding noise of the single contributions."""
    total = complex(pair(f, g, [measures._Chamber(p, p.n, M)]))
    mass = abs(total)
    for _l, nu, z, w, row in measures._split_labels(p, M):
        comb = 2 ** len(nu) * math.perm(p.n, len(nu))
        omega = np.array([zi[k] for zi, k in zip(z, nu)]).T
        contrib = w * labelled_pairings(f, g, p, M, omega, row)
        total += comb * complex(np.sum(contrib))
        mass += comb * float(np.sum(np.abs(contrib)))
    return total, mass


def natural_t_bilinear(f, g, p: AWParams, M: int) -> complex:
    """The t = q^k rewrite of measures.partial_bilinear: independent
    discrete chains per coordinate, all interactions carried by the
    Laurent-polynomial factor delta(z;q^k); the picks of one choice of
    chains are paired in one batch. The chain factors are finite
    products; the torus axes use the chamber table of the M-point grid,
    (x;q)_tau = (x;q)_k at t = q^k."""
    k = _natural_k(p)
    n, q = p.n, p.q
    large = measures._large_params(p)
    chains = {}
    for i in large:
        e = p.tvec[i]
        chains[i] = [(e * q ** m,
                      wd_residue_weight(m, e, *measures._others(p, i), q))
                     for m in range(measures._chain_ends(p, i)[0])]
    measures._check_grid(f, g, p, M)
    x = measures._grid_axes(M)[None, :M // 2 + 1]

    def pair_fin(a, b):
        out = 1.0
        for arg in (a * b, b / a, a / b, 1.0 / (a * b)):
            out = out * qpoch_finite(arg, q, k)
        return out

    total: complex = 0.0
    for r in range(n + 1):
        comb = 2 ** r * math.comb(n, r)
        for es in itertools.product(large, repeat=r):
            picks = list(itertools.product(*[chains[e] for e in es]))
            omega = np.array([[zv for zv, _w in pk] for pk in picks],
                             dtype=complex).reshape(len(picks), r)
            wdisc = np.array([math.prod(w for _zv, w in pk) * math.prod(
                pair_fin(a, b) for a, b in itertools.combinations(pt, 2))
                for pk, pt in zip(picks, omega)], dtype=complex)
            keep = wdisc != 0
            omega, wdisc = omega[keep], wdisc[keep]
            if not len(wdisc):
                continue
            row = None
            if r < n:
                row = np.ones((len(omega), x.shape[1]), dtype=complex)
                for w in omega.T[:, :, None]:
                    for arg in (w * x, w / x, x / w, 1.0 / (w * x)):
                        row *= qpoch_finite(arg, q, k)
            vals = labelled_pairings(f, g, p, M, omega, row)
            total += comb * complex(np.sum(wdisc * vals))
    return total


def renorm_constant(lam: Sequence[int], p: AWParams) -> complex:
    """Renormalization c(lambda) = (N+(0)/N+(lambda)) prod (t0 t^{n-j})^{lambda_j}."""
    lam = partition(lam)
    n_plus = aw_norm_plus_loop(lam, p)
    if abs(n_plus) < 1e-300:
        raise PoleInProduct("N+(lambda) vanishes")
    val = aw_norm_plus_loop((0,) * p.n, p) / n_plus
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


def aw_norm_plus_loop(lam: Sequence[int], p: AWParams) -> complex:
    """The factor N+ of the closed-form quadratic norm, one qpoch_ratio
    per factor group."""
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


def aw_norm_minus_loop(lam: Sequence[int], p: AWParams) -> complex:
    """The factor N- of the closed-form quadratic norm, one qpoch_ratio
    per factor group."""
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


def aw_norm_loop(lam: Sequence[int], p: AWParams) -> complex:
    """N(lambda) = 2^n n! N+ N-."""
    return (2 ** p.n * math.factorial(p.n)
            * aw_norm_plus_loop(lam, p) * aw_norm_minus_loop(lam, p))


def gustafson_loop(p: AWParams) -> complex:
    """The torus constant term <1,1>, one qpoch_ratio per i."""
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


def c_weights_defining_loop(bp: BigParams) -> list:
    """The big q-Jacobi split-weights c_B d_{B,j}, with one theta_jacobi
    per factor of c_B and one psi_t per factor of each d_{B,j}."""
    n, q, t, c, d = bp.n, bp.q, bp.t, bp.c, bp.d
    tau = bp.tau
    qq = qpoch_infinite(q, q).real
    base = qq ** n * q ** (-2.0 * tau * tau * math.comb(n, 3))
    base *= d ** (-2.0 * tau * math.comb(n, 2) - n)
    base *= t ** (-math.comb(n, 2))
    for i in range(1, n + 1):
        base /= _theta_den(theta_jacobi(-t ** (1 - i) * c / d, q),
                           "c_B").real
    out = []
    for j in range(n + 1):
        dB = 1.0
        for k in range(1, n):
            for m in range(k + 1, n + 1):
                if k <= j:
                    dB *= psi_t(-t ** (n - m - k + 1) * d / c, q, t)
        out.append(float(base * dB))
    return out


def askey_evans_rhs_loop(bp: BigParams) -> float:
    """The two-sided t = q^k Selberg closed form, one kernel call per
    factor group."""
    k = _natural_k(bp)
    n, q, t, c, d = bp.n, bp.q, bp.t, bp.c, bp.d
    a, b = bp.a, bp.b
    qq = qpoch_infinite(q, q).real
    val = q ** (k * k * math.comb(n, 3)
                - math.comb(k, 2) * math.comb(n, 2))
    cd_pair = (qpoch_infinite(-d / c, q) * qpoch_infinite(-c / d, q)).real
    for i in range(1, n + 1):
        num = [q * a * t ** (i - 1), q * b * t ** (i - 1)]
        den = [q * q * a * b * t ** (n + i - 2)]
        val *= (1.0 - q) ** (1 + (n - i) * k) * qq * qpoch_ratio(den, num, q)
        val *= (qpoch_finite(q, q, i * k)
                / qpoch_finite(q, q, k)) * (1.0 - q) ** (k - i * k)
        val *= cd_pair * (c * d) ** (1 + (i - 1) * k) / (c + d)
        try:
            den2 = (qpoch_infinite(-q * a * t ** (i - 1) * d / c, q,
                                   require_nonzero=True)
                    * qpoch_infinite(-q * b * t ** (i - 1) * c / d, q,
                                     require_nonzero=True))
        except ZeroProduct as exc:
            raise DomainViolation(
                "Selberg denominator factor vanishes") from exc
        val /= den2
    return float(complex(val).real)


def little_prefactor_loop(lp: LittleParams, eps: float) -> float:
    """prod_i (-q t^(i-1)/eps, -q a t^(i-1)/eps; q)_inf, one factor per
    kernel call."""
    q, t = lp.q, lp.t
    pref = 1.0
    for i in range(1, lp.n + 1):
        pref *= qpoch_infinite(-q * t ** (i - 1) / eps, q).real
        pref *= qpoch_infinite(-q * lp.a * t ** (i - 1) / eps, q).real
    return pref


def big_prefactor_loop(bp: BigParams, eps: float) -> float:
    """prod_i (-q t^(i-1)/eps^2; q)_inf, one factor per kernel call."""
    q, t = bp.q, bp.t
    pref = 1.0
    for i in range(1, bp.n + 1):
        pref *= qpoch_infinite(-q * t ** (i - 1) / (eps * eps), q).real
    return pref


def eval_cancelled_ratio_loop(num, den, qp: QRacahParams) -> complex:
    """The cancelled q-Racah product ratio, each uncancelled infinite
    factor from its own kernel call."""
    q = qp.q
    groups: Dict[Tuple[int, int, int, int], Dict[str, list]] = {}
    for side, keys in (("num", num), ("den", den)):
        for key in keys:
            tpart = key[1:]
            groups.setdefault(tpart, {"num": [], "den": []})[side].append(
                key[0])
    val: complex = 1.0
    for tpart, sides in groups.items():
        ns = sorted(sides["num"])
        ds = sorted(sides["den"])
        i = j = 0
        ns2, ds2 = [], []
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


def nqj_product_loop(lam, n, q, t, a, b) -> complex:
    """little.nqj_product with (q;q)_inf and the ratio from two kernel
    calls."""
    num, den = _nqj_args(lam, n, q, t, a, b)
    qq = qpoch_infinite(q, q).real
    return (1.0 - q) ** n * qq ** (2 * n) * qpoch_ratio(den, num, q)


def selberg_little_loop(lp: LittleParams) -> float:
    """The little q-Jacobi constant term <1,1>_L from two kernel calls."""
    n, q, t, a, b = lp.n, lp.q, lp.t, lp.a, lp.b
    num, den = [], []
    for j in range(1, n + 1):
        num += [q * a * t ** (j - 1), q * b * t ** (j - 1), t ** j]
        den += [q * q * a * b * t ** (n + j - 2), t]
    qq = qpoch_infinite(q, q).real
    return (1.0 - q) ** n * qq ** n * qpoch_ratio(den, num, q)


def norm_big_loop(lam: Sequence[int], bp: BigParams) -> float:
    """The big q-Jacobi norm: nqj_product_loop, then one kernel call per
    i for its two guarded factors."""
    lam = partition(lam)
    n, q, t, c, d = bp.n, bp.q, bp.t, bp.c, bp.d
    a, b = bp.a, bp.b
    val = (c * d) ** sum(lam) * nqj_product_loop(lam, n, q, t, a, b)
    for i in range(1, n + 1):
        li = lam[i - 1]
        val *= q ** math.comb(li, 2) * (t ** (n - i)) ** li
        try:
            pb, pa = qpoch_infinite_arr(np.array(
                [-q ** (li + 1) * b * t ** (n - i) * c / d,
                 -q ** (li + 1) * a * t ** (n - i) * d / c]), q,
                require_nonzero=True).tolist()
        except ZeroProduct as exc:
            raise DomainViolation("norm denominator factor vanishes") from exc
        val /= pb * pa
    val = complex(val)
    return float(val.real)


def selberg_big_loop(bp: BigParams) -> float:
    """The big q-Jacobi constant term <1,1>_B from two kernel calls."""
    n, q, t, c, d = bp.n, bp.q, bp.t, bp.c, bp.d
    a, b = bp.a, bp.b
    num, den = [], []
    for j in range(1, n + 1):
        num += [q * a * t ** (j - 1), q * b * t ** (j - 1), t ** j,
                -q * a * t ** (j - 1) * d / c, -q * b * t ** (j - 1) * c / d]
        den += [q * q * a * b * t ** (n + j - 2), t]
    qq = qpoch_infinite(q, q).real
    val = (1.0 - q) ** n * qq ** n * qpoch_ratio(den, num, q)
    return float(complex(val).real)
