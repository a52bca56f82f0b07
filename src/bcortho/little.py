"""Multivariable little q-Jacobi polynomials.

The little q-Jacobi family lives on the infinite discrete set
{(q^{nu_1}, t q^{nu_2}, ..., t^{n-1} q^{nu_n}) : 0 <= nu_1 <= ... <= nu_n}
and arises from the Askey-Wilson family with one parameter sent to
infinity through t_L(eps) = (eps^{-1} q^{1/2}, -a q^{1/2}, eps b q^{1/2},
-q^{1/2}). This module provides the family record (family): the
Jackson-multisum bilinear form, the polynomials (bcpoly.orthogonalize in
the mtilde basis for that form, monic and orthogonal to every
dominance-lower monomial), the closed-form norms and q-Selberg constant
term; and the record of the limit transition (little_limit).

The record's node table (bcpoly.Family.on_tables) is one
bcpoly.PointTable per part of the chain set, the labels nu with
|nu| <= S and their weights (bcpoly's label layer), computed with the
array kernel (_jackson_table, shared with the big q-Jacobi form); the
pair factors of a part take one kernel call over the differences
nu_j - nu_i, the only thing their argument q z_j / (t z_i) depends on.
S climbs a ladder of doubling shell counts until the last shells are
negligible against the table's own mass, so masses far below 1, as at
q near 1, keep full relative precision; a table whose one-axis factors
predict that 32 shells do not settle is built at 64 at once, and the
32-shell rung read off that build. A pairing is bcpoly.pair on the
parts: the node values of f and g, kept on each polynomial
(LaurentPolynomial.node_values), times the weights, summed in node
order.

Closed forms are stated with the q-gamma function of arguments involving
alpha = log_q a and beta = log_q b; they are evaluated here through
ratios of infinite q-shifted factorials whose arguments are the exact
products q^u (for instance q^{lambda_i+1} t^{n-i} a b), so they remain
valid for b <= 0 where beta is undefined. Each closed form takes its
factorials, (q;q)_inf among them, from one qseries.qpoch_ratios call,
which guards each denominator factor on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .askey_wilson import Limit
from .bcpoly import (
    Family,
    PointTable,
    _chain_labels,
    _label_weights,
    gram,
    monomial_s,
    orthogonalize,
    pair,
    partition,
)
from .errors import (
    BcorthoError,
    DomainViolation,
    SlowConvergence,
    ZeroProduct,
)
from .params import AWParams
from .qseries import (
    EPS_TRUNC,
    qpoch_infinite_arr,
    qpoch_ratios,
    qpoch_real,
    qpoch_real_arr,
)

# A Jackson node table holds the labels of |nu| <= S for S <= MAX_SHELLS.
MAX_SHELLS = 400


@dataclass(frozen=True)
class LittleParams:
    """Parameters (q, t, a, b) with 0 < a < 1/q and b < 1/q."""

    n: int
    q: float
    t: float
    a: float
    b: float

    def __post_init__(self):
        from .qseries import check_q
        check_q(self.q)
        if not 0.0 < self.t < 1.0:
            raise DomainViolation(f"t must be in (0,1), got {self.t}")
        if not 1 <= self.n:
            raise DomainViolation(f"n must be >= 1, got {self.n}")
        if not 0.0 < self.a < 1.0 / self.q:
            raise DomainViolation(f"a must be in (0, 1/q), got {self.a}")
        if not self.b < 1.0 / self.q:
            raise DomainViolation(f"b must be < 1/q, got {self.b}")

    @property
    def alpha(self) -> float:
        return math.log(self.a) / math.log(self.q)

    @property
    def tau(self) -> float:
        return math.log(self.t) / math.log(self.q)


def _node_table(lp: LittleParams) -> List[PointTable]:
    """The node table of <f,g>_L, the Jackson multisum of f g Delta^L:
    the nodes rho_L q^nu and weights (1-q)^n Delta^L(z) prod z,
    vectorized (_jackson_table)."""
    n, q, t = lp.n, lp.q, lp.t
    const = (q ** (-2.0 * lp.tau * lp.tau * math.comb(n, 3))
             * t ** (-(lp.alpha + 1.0) * math.comb(n, 2)) * (1.0 - q) ** n)

    def parts(S: int):
        # one chain; axis i: z = t^i q^nu, a = (qz;q)_inf/(qbz;q)_inf z^alpha z
        z = t ** np.arange(n)[:, None] * q ** np.arange(S + 1.0)
        try:
            f = qpoch_infinite_arr(np.stack([q * z, q * lp.b * z]), q,
                                   np.array([False, True])[:, None, None])
        except ZeroProduct as exc:
            raise DomainViolation(f"(qbx;q)_inf vanishes: {exc}") from exc
        a = f[0] / f[1] * z ** lp.alpha * z
        return [((n,), z, a, const)]

    return _jackson_table(parts, n, q, t, "Jackson multisum")


def _jackson_table(parts: Callable[[int], list], n: int, q: float, t: float,
                   what: str) -> List[PointTable]:
    """Node table of a Jackson multisum over chains, one PointTable per
    part of the chain set: node r of a part is z[i, nu[i, r]] (i < n),
    with weight w[r].

    parts(S) lists the parts, each as (chains, z, a, const): the chain
    lengths in axis order, the (n, S+1) arrays of the node coordinates
    z_i(nu) and one-axis factors a_i(nu), and a constant. A part's labels
    nu are those that ascend within each chain and have |nu| <= S; their
    weights are const prod_i a_i(nu_i) prod_{i<j} delta_qJ(z_i, z_j).

    S starts at 32 and doubles, up to MAX_SHELLS, until S >= n and each
    of the last four shells |nu| = s carries at most EPS_TRUNC of the
    table's sum of |w|; SlowConvergence if S = MAX_SHELLS does not
    settle. NonFiniteWeight (bcpoly._label_weights) names the first
    label whose weight is not finite.

    When the one-axis factors predict that 32 shells do not settle
    (_settles_late), the first build is made at 64 shells and the rule
    is applied to its labels |nu| <= 32 before all of them: those are,
    in lexicographic order and with z[:, :33], bit for bit the table a
    build at 32 gives (_rung_table), so the rung and every table are
    those of a build per rung, and a guess too high costs one 64-shell
    build. A 64-shell build that meets a typed error or a floating-point
    overflow, division by zero or invalid operation (which a build at
    32 may never reach) gives way to the build at 32, so every error
    comes from the first rung that meets it."""
    first, built = parts(32), None
    if _settles_late(first):
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                built = _build(parts(64), 64, n, q, t, what)
        except (BcorthoError, FloatingPointError):
            pass
    S = 32
    while True:
        if built is None or len(built[1]) < S + 1:
            built = _build(first if S == 32 else parts(S), S, n, q, t, what)
        table, mass = built
        if S >= n and np.all(mass[S - 3:S + 1]
                             <= EPS_TRUNC * mass[:S + 1].sum()):
            return [_rung_table(part, S) for part in table]
        if S == MAX_SHELLS:
            raise SlowConvergence(f"{what} did not settle within "
                                  f"{MAX_SHELLS} shells")
        S = min(2 * S, MAX_SHELLS)


def _settles_late(first: list) -> bool:
    """Whether a Jackson table of the parts first = parts(32) is
    predicted to need more than 32 shells: 32 - 3 < log(EPS_TRUNC) / r,
    r < 0 the slowest mean log-decay per shell of any one-axis factor
    over the last eight shells of first. False if some factor does not
    decay there."""
    with np.errstate(all="ignore"):
        rates = np.concatenate([np.log(np.abs(a[:, -1]) / np.abs(a[:, -9]))
                                for _chains, _z, a, _const in first]) / 8
    rates = rates[~np.isnan(rates)]
    if not rates.size or not np.max(rates) < 0:
        return False
    return 3 + math.log(EPS_TRUNC) / np.max(rates) > 32


def _build(parts: list, S: int, n: int, q: float, t: float,
           what: str) -> tuple:
    """The PointTables of parts = parts(S), the labels |nu| <= S of a
    part in lexicographic order (bcpoly._chain_labels) weighed by
    bcpoly._label_weights, and the table's sum of |w| per shell
    s = 0..S."""
    table, mass = [], np.zeros(S + 1)
    for chains, z, a, const in parts:
        nu = _chain_labels(chains, [S + 1] * n, S)
        w = _label_weights(nu, const, a, _pair_factors(z, chains, q, t),
                           what)
        mass += np.bincount(nu.sum(axis=0), np.abs(w), minlength=S + 1)
        table.append(PointTable(z, nu, w))
    return table, mass


def _rung_table(part: PointTable, S: int) -> PointTable:
    """The labels |nu| <= S of a part of _build: all of them when it was
    built at S."""
    if part.z.shape[1] == S + 1:
        return part
    keep = part.nu.sum(axis=0) <= S
    return PointTable(part.z[:, :S + 1], part.nu[:, keep],
                      part.weights[keep])


def _pair_factors(z: np.ndarray, chains: Sequence[int], q: float,
                  t: float) -> Callable[[int, int], np.ndarray]:
    """pair(i, j), i < j: the (S+1, S+1) matrix of delta_qJ(z[i, u],
    z[j, v]) on the index pairs a label can hold: u + v <= S, and u <= v
    within one chain (of the given lengths, in axis order). NaN
    elsewhere: outside the chain order a denominator factor may vanish.

    Every row of z is geometric, z[i, u] = z[i, 0] q^u, so the argument
    q z_j / (t z_i) of the factor (.;q)_{2 tau - 1} depends only on
    d = v - u: one kernel call takes every pair's differences, d = 0..S
    within a chain and -S..S across chains."""
    S = z.shape[1] - 1
    tau = math.log(t) / math.log(q)
    chain = np.repeat(np.arange(len(chains)), chains)
    I, J = np.triu_indices(len(z), 1)
    d = np.arange(-S, S + 1)
    up, e = d >= 0, np.abs(d)
    # the argument at (u, v) = (0, d) for d >= 0 and (-d, 0) for d < 0
    arg = (q * np.where(up, z[J][:, e], z[J][:, :1])
           / (t * np.where(up, z[I][:, :1], z[I][:, e])))
    skip = (chain[I] == chain[J])[:, None] & ~up
    F = qpoch_real_arr(np.where(skip, 0.0, arg), q, t * t / q).real
    # a row of F per pair, NaN at d < 0 within a chain, and a last NaN
    # read wherever u + v > S
    F = np.concatenate([np.where(skip, np.nan, F),
                        np.full((len(F), 1), np.nan)], axis=1)
    k = np.arange(S + 1)
    at = np.where(k[:, None] + k > S, 2 * S + 1, k - k[:, None] + S)
    row = {(i, j): r for r, (i, j) in enumerate(zip(I.tolist(), J.tolist()))}

    def pair(i: int, j: int) -> np.ndarray:
        zi = z[i][:, None]
        return (np.abs(zi - z[j]) * np.abs(zi) ** (2.0 * tau - 1.0)
                * F[row[i, j]][at])

    return pair


def delta_qJ(z: Sequence[float], q: float, t: float) -> float:
    """Interaction factor of the Jackson-type measures:
    prod_{i<j} |z_i - z_j| |z_i|^{2 tau - 1} (q z_j / (t z_i); q)_{2 tau - 1}
    with t = q^tau."""
    tau = math.log(t) / math.log(q)
    t2q = t * t / q
    val = 1.0
    for i in range(len(z)):
        for j in range(i + 1, len(z)):
            val *= abs(z[i] - z[j]) * abs(z[i]) ** (2.0 * tau - 1.0)
            val *= qpoch_real(q * z[j] / (t * z[i]), q, t2q).real
    return val


def nqj_product(lam: Sequence[int], n: int, q: float, t: float,
                a: complex, b: complex) -> complex:
    """The product N+_qJ(lambda) N-_qJ(lambda) of q-gamma factors shared
    by the little and big q-Jacobi norms; real for real a and b, complex
    on the big q-Jacobi conjugate branch. (q;q)_inf and the ratio come
    from one kernel call.

    The q-gamma ratios are expanded so that every q^u is an exact product
    of q-powers with a and b; the net power of (1-q) is n and the net
    power of (q;q)_inf is 2n, independent of the parameters."""
    num, den = _nqj_args(lam, n, q, t, a, b)
    qq, ratio = qpoch_ratios([([q], []), (den, num)], q)
    return (1.0 - q) ** n * qq.real ** (2 * n) * ratio


def _nqj_args(lam: Sequence[int], n: int, q: float, t: float,
              a: complex, b: complex) -> Tuple[List[complex], List[complex]]:
    """The gamma-numerator and gamma-denominator arguments q^u of
    nqj_product, whose ratio is (den;q)_inf / (num;q)_inf."""
    num: List[float] = []   # gamma-numerator arguments q^u
    den: List[float] = []
    for i in range(1, n + 1):
        li = lam[i - 1]
        tni = t ** (n - i)
        num += [q ** (li + 1) * tni * a * b, q ** (li + 1) * tni * a]
        den += [q ** (2 * li + 1) * tni * tni * a * b]
        num += [q ** (li + 1) * tni, q ** (li + 1) * tni * b]
        den += [q ** (2 * li + 2) * tni * tni * a * b]
    for j in range(1, n + 1):
        for k in range(j + 1, n + 1):
            lj, lk = lam[j - 1], lam[k - 1]
            num += [q ** (lj + lk + 1) * t ** (2 * n - j - k + 1) * a * b,
                    q ** (lj - lk) * t ** (k - j + 1)]
            den += [q ** (lj + lk + 1) * t ** (2 * n - j - k) * a * b,
                    q ** (lj - lk) * t ** (k - j)]
            num += [q ** (lj + lk + 2) * t ** (2 * n - j - k - 1) * a * b,
                    q ** (lj - lk + 1) * t ** (k - j - 1)]
            den += [q ** (lj + lk + 2) * t ** (2 * n - j - k) * a * b,
                    q ** (lj - lk + 1) * t ** (k - j)]
    return num, den


def norm_little(lam: Sequence[int], lp: LittleParams) -> float:
    """Closed-form quadratic norm N^L(lambda)."""
    lam = partition(lam)
    if len(lam) != lp.n:
        raise DomainViolation("partition length must equal n")
    n, q, t, a = lp.n, lp.q, lp.t, lp.a
    val = nqj_product(lam, n, q, t, a, lp.b)
    for i in range(1, n + 1):
        li = lam[i - 1]
        val *= (q ** li * a * t ** (2 * (n - i))) ** li
    return val


def selberg_little(lp: LittleParams) -> float:
    """Closed-form constant term <1,1>_L (the q-Selberg integral of
    Jackson type)."""
    n, q, t, a, b = lp.n, lp.q, lp.t, lp.a, lp.b
    num: List[float] = []
    den: List[float] = []
    for j in range(1, n + 1):
        num += [q * a * t ** (j - 1), q * b * t ** (j - 1), t ** j]
        den += [q * q * a * b * t ** (n + j - 2), t]
    qq, ratio = qpoch_ratios([([q], []), (den, num)], q)
    return (1.0 - q) ** n * qq.real ** n * ratio


def family(lp: LittleParams) -> Family:
    """The little q-Jacobi family record (bcpoly.Family) on its node
    table: <f,g>_L is bcpoly.pair on it, and the polynomials
    P^L_mu = mtilde_mu + sum_{nu < mu} c_nu mtilde_nu, orthogonal to
    every mtilde_nu with nu < mu, come from bcpoly.orthogonalize."""
    return Family.on_tables(
        lp, lambda: _node_table(lp), pair, gram,
        lambda top, tables: orthogonalize(top, lp.n, monomial_s, tables),
        lambda lam: norm_little(lam, lp), lambda: selberg_little(lp))


# ---------------------------------------------------------------------------
# limit transition from the Askey-Wilson family

def aw_params_little(eps: float, lp: LittleParams) -> AWParams:
    """Askey-Wilson parameters t_L(eps) realizing the little q-Jacobi
    limit; requires b != 0 so all four parameters stay nonzero."""
    if eps <= 0:
        raise DomainViolation("eps must be positive")
    if lp.b == 0:
        raise DomainViolation("the deformation requires b != 0")
    rq = math.sqrt(lp.q)
    return AWParams(lp.n, lp.q, lp.t, rq / eps, -lp.a * rq,
                    eps * lp.b * rq, -rq)


def little_limit(lp: LittleParams) -> Limit:
    """The limit to the little q-Jacobi family (family) along t_L(eps):
    rescale eps q^(-1/2), measure prefactor
    prod_i (-q t^(i-1)/eps, -q a t^(i-1)/eps; q)_inf, measure scan up to
    k = 12. DomainViolation if the deformation refuses lp (b = 0)."""
    q, t = lp.q, lp.t
    rq = math.sqrt(q)
    aw_params_little(q, lp)

    def prefactor(eps: float) -> float:
        args = [x for i in range(1, lp.n + 1)
                for x in (-q * t ** (i - 1) / eps,
                          -q * lp.a * t ** (i - 1) / eps)]
        return math.prod(qpoch_infinite_arr(args, q).tolist(), start=1.0)

    return Limit(family(lp), lambda eps: aw_params_little(eps, lp),
                 lambda eps: eps / rq, prefactor, 12)
