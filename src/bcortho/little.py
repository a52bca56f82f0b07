"""Multivariable little q-Jacobi polynomials.

The little q-Jacobi family lives on the infinite discrete set
{(q^{nu_1}, t q^{nu_2}, ..., t^{n-1} q^{nu_n}) : 0 <= nu_1 <= ... <= nu_n}
and arises from the Askey-Wilson family with one parameter sent to
infinity through t_L(eps) = (eps^{-1} q^{1/2}, -a q^{1/2}, eps b q^{1/2},
-q^{1/2}). This module provides the Jackson-multisum bilinear form, the
polynomials (little_polynomials: bcpoly.orthogonalize in the mtilde basis
for that form, monic and orthogonal to every dominance-lower monomial),
the closed-form norms and q-Selberg constant term, and numeric scans of
the limit transition.

Pairings reuse a per-parameter node table, kept for the CACHE_SIZE most
recently used parameter sets: for each shell, the nodes and their weights
Delta^L(z) prod z, computed once with the array kernel. A pairing is then
one weighted dot product per shell. The shell loop and its stopping rule
(_sum_shells) are shared with jackson_multisum and the big q-Jacobi form.
A table refuses a measure whose own mass sum stops while its shells
still grow, as it does for masses far below 1 at q near 1.

Closed forms are stated with the q-gamma function of arguments involving
alpha = log_q a and beta = log_q b; they are evaluated here through
ratios of infinite q-shifted factorials whose arguments are the exact
products q^u (for instance q^{lambda_i+1} t^{n-i} a b), so they remain
valid for b <= 0 where beta is undefined. The ratios go through
qseries.qpoch_ratio, which guards each denominator factor on its own.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .askey_wilson import limit_scan
from .bcpoly import (
    LaurentPolynomial,
    OrthogonalPolynomial,
    ascending_index,
    monomial_s,
    monomial_w,
    orthogonalize,
    partition,
)
from .errors import DomainViolation, SlowConvergence, ZeroProduct
from .params import CACHE_SIZE, AWParams
from .qseries import (
    qpoch_infinite,
    qpoch_infinite_arr,
    qpoch_ratio,
    qpoch_real,
    qpoch_real_arr,
)

# Stopping rule of every Jackson multisum: a shell is negligible once
# |shell| <= SHELL_TOL max(1, |total|); at most MAX_SHELLS shells are summed.
SHELL_TOL = 1e-13
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


def support_point(nu: Sequence[int], lp: LittleParams) -> Tuple[float, ...]:
    """The node rho_L q^nu with rho_{L,i} = t^{i-1}."""
    nu = ascending_index(nu)
    return tuple(lp.t ** (i - 1) * lp.q ** nu[i - 1]
                 for i in range(1, lp.n + 1))


def weight_little(nu: Sequence[int], lp: LittleParams) -> float:
    """Weight Delta^L at the node rho_L q^nu."""
    return _weight_at_point(support_point(nu, lp), lp)


def _ascending_with_sum(n: int, s: int) -> Iterator[Tuple[int, ...]]:
    """Weakly increasing nonnegative n-tuples with total s."""

    def rec(prefix: List[int], lo: int, rem: int):
        if len(prefix) == n - 1:
            if rem >= lo:
                yield tuple(prefix) + (rem,)
            return
        slots = n - 1 - len(prefix)
        for v in range(lo, rem // (slots + 1) + 1):
            yield from rec(prefix + [v], v, rem - v)

    if n == 0:
        if s == 0:
            yield ()
    elif n == 1:
        yield (s,)
    else:
        yield from rec([], 0, s)


def _sum_shells(shell_value: Callable[[int], float], n: int, q: float,
                what: str, refuse_growth: bool = False) -> float:
    """(1-q)^n times the sum of shell_value(s) over the shells s = 0, 1, ...

    Stops once four consecutive shells are negligible,
    |shell| <= SHELL_TOL max(1, |total|), and s >= n; raises
    SlowConvergence after MAX_SHELLS shells. This is the one stopping rule
    of every Jackson multisum in the package. With refuse_growth, a stop
    at a shell larger than every earlier one raises SlowConvergence too:
    the sum was cut before its shells began to decay."""
    total = 0.0
    peak = 0.0
    quiet = 0
    for s in range(MAX_SHELLS):
        shell = shell_value(s)
        total += shell
        if abs(shell) <= SHELL_TOL * max(1.0, abs(total)):
            quiet += 1
            if quiet >= 4 and s >= n:
                if refuse_growth and abs(shell) > peak:
                    raise SlowConvergence(
                        f"{what} stopped at shell {s} while its shells "
                        f"still grow")
                return (1.0 - q) ** n * total
        else:
            quiet = 0
        peak = max(peak, abs(shell))
    raise SlowConvergence(
        f"{what} did not settle within {MAX_SHELLS} shells")


def jackson_multisum(f, lp: LittleParams) -> float:
    """Jackson integral of f over the chain set <rho_L>_n:
    (1-q)^n sum_nu f(rho_L q^nu) prod_i rho_{L,i} q^{nu_i}.

    The sum runs over shells of constant |nu| until several consecutive
    shells are negligible; raises SlowConvergence at the shell cap."""

    def shell(s: int) -> float:
        val = 0.0
        for nu in _ascending_with_sum(lp.n, s):
            z = support_point(nu, lp)
            val += f(z) * math.prod(z)
        return val

    return _sum_shells(shell, lp.n, lp.q, "Jackson multisum")


class _ShellTable:
    """Node arrays of one discrete measure in n variables with base q, one
    (Z, w) pair per shell: Z holds the shell's nodes as rows and w their
    weights, Jackson factor included. Shells are built on first use by
    build(s); what names the multisum in SlowConvergence messages.

    Before its first pairing the table sums the measure's own mass and
    refuses the measure (SlowConvergence on every pairing) if that sum
    stops while its shells still grow. For a mass far below 1 every shell
    passes the stopping rule's absolute test: at q = 0.99 a little
    q-Jacobi mass of 2.5e-94 would stop at 9.2e-111, and checks against
    the closed forms would pass on the absolute error."""

    def __init__(self, build: Callable[[int], Tuple[np.ndarray, np.ndarray]],
                 n: int, q: float, what: str):
        self._build = build
        self._shells: List[Tuple[np.ndarray, np.ndarray]] = []
        self.n, self.q, self.what = n, q, what
        self._mass_summed = False

    def shell(self, s: int) -> Tuple[np.ndarray, np.ndarray]:
        while len(self._shells) <= s:
            self._shells.append(self._build(len(self._shells)))
        return self._shells[s]

    def pair(self, f: LaurentPolynomial, g: LaurentPolynomial) -> float:
        """Jackson multisum of Re(f g) against the table's weights."""
        if not self._mass_summed:
            _sum_shells(lambda s: float(np.sum(self.shell(s)[1])), self.n,
                        self.q, f"{self.what} of the mass",
                        refuse_growth=True)
            self._mass_summed = True

        def shell_sum(s: int) -> float:
            Z, w = self.shell(s)
            return float(np.dot((f.eval_points(Z) * g.eval_points(Z)).real,
                                w))

        return _sum_shells(shell_sum, self.n, self.q, self.what)


def bilinear_little(f: LaurentPolynomial, g: LaurentPolynomial,
                    lp: LittleParams) -> float:
    """<f,g>_L: Jackson multisum of f g Delta^L."""
    return _node_table(lp).pair(f, g)


@functools.lru_cache(maxsize=CACHE_SIZE)
def _node_table(lp: LittleParams) -> _ShellTable:
    return _ShellTable(lambda s: _little_shell(lp, s), lp.n, lp.q,
                       "Jackson multisum")


def _little_shell(lp: LittleParams, s: int) -> Tuple[np.ndarray, np.ndarray]:
    """Nodes of shell |nu| = s and their weights Delta^L(z) prod z, as
    _weight_at_point computes them, vectorized over the shell."""
    n, q, t = lp.n, lp.q, lp.t
    tau, alpha = lp.tau, lp.alpha
    Z = np.array([support_point(nu, lp) for nu in _ascending_with_sum(n, s)])
    try:
        den = qpoch_infinite_arr(q * lp.b * Z, q, require_nonzero=True)
    except ZeroProduct as exc:
        x = Z.flat[np.argmin(np.abs(qpoch_infinite_arr(q * lp.b * Z, q)))]
        raise DomainViolation(f"(qbx;q)_inf vanishes at x={x}") from exc
    val = (q ** (-2.0 * tau * tau * math.comb(n, 3))
           * t ** (-(alpha + 1.0) * math.comb(n, 2)))
    val = val * np.prod(qpoch_infinite_arr(q * Z, q) / den * Z ** alpha,
                        axis=1)
    return Z, val * _delta_qJ_rows(Z, q, t) * np.prod(Z, axis=1)


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


def _delta_qJ_rows(Z: np.ndarray, q: float, t: float) -> np.ndarray:
    """delta_qJ at every row of Z, with qpoch_real's per-factor guard."""
    tau = math.log(t) / math.log(q)
    t2q = t * t / q
    val = np.ones(len(Z))
    for i in range(Z.shape[1]):
        for j in range(i + 1, Z.shape[1]):
            zi, zj = Z[:, i], Z[:, j]
            val *= np.abs(zi - zj) * np.abs(zi) ** (2.0 * tau - 1.0)
            val *= qpoch_real_arr(q * zj / (t * zi), q, t2q).real
    return val


def _weight_at_point(z: Sequence[float], lp: LittleParams) -> float:
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


def little_polynomials(top: Sequence[int], lp: LittleParams
                       ) -> Dict[Tuple[int, ...], OrthogonalPolynomial]:
    """P^L_mu = mtilde_mu + sum_{nu < mu} c_nu mtilde_nu, orthogonal to
    every mtilde_nu with nu < mu, for every mu <= top."""
    return orthogonalize(top, lp.n, monomial_s,
                         lambda f, g: bilinear_little(f, g, lp))


def nqj_product(lam: Sequence[int], n: int, q: float, t: float,
                a: complex, b: complex) -> complex:
    """The product N+_qJ(lambda) N-_qJ(lambda) of q-gamma factors shared
    by the little and big q-Jacobi norms; real for real a and b, complex
    on the big q-Jacobi conjugate branch.

    The q-gamma ratios are expanded so that every q^u is an exact product
    of q-powers with a and b; the net power of (1-q) is n and the net
    power of (q;q)_inf is 2n, independent of the parameters."""
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
    qq = qpoch_infinite(q, q).real
    return (1.0 - q) ** n * qq ** (2 * n) * qpoch_ratio(den, num, q)


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
    qq = qpoch_infinite(q, q).real
    return (1.0 - q) ** n * qq ** n * qpoch_ratio(den, num, q)


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


def limit_scan_little(lam: Sequence[int], lp: LittleParams, kmax: int
                      ) -> List[Tuple[int, float, float]]:
    """Table of (k, eps_k, max coefficient deviation) for the limit of
    rescaled Askey-Wilson coefficients to little q-Jacobi coefficients,
    along eps_k = q^(k+1) (askey_wilson.limit_scan)."""
    lam = partition(lam)
    rq = math.sqrt(lp.q)
    return limit_scan(little_polynomials(lam, lp)[lam],
                      lambda eps: aw_params_little(eps, lp),
                      lambda eps: eps / rq, lp.q, kmax)


def measure_constant_little(lam: Sequence[int], mu: Sequence[int],
                            lp: LittleParams, kmax: int, M: int = 64,
                            depth: int = 128) -> List[Tuple[int, float, float]]:
    """Table of (k, eps_k, relative deviation) for the limit of the
    renormalized partially discrete pairing of W-monomials to the
    Jackson pairing of S-monomials, along eps_k = q^(k+1)."""
    from .measures import partial_bilinear

    lam = partition(lam)
    mu = partition(mu)
    n, q, t = lp.n, lp.q, lp.t
    rq = math.sqrt(q)
    want = (2 ** n * math.factorial(n)
            * qpoch_infinite(q, q).real ** (-2 * n) * (1 - q) ** (-n)
            * bilinear_little(monomial_s(lam), monomial_s(mu), lp))
    f = monomial_w(lam)
    g = monomial_w(mu)
    rows: List[Tuple[int, float, float]] = []
    for k in range(kmax + 1):
        eps = q * q ** k
        p = aw_params_little(eps, lp)
        pair = partial_bilinear(f, g, p, M, depth=depth).value
        pref = 1.0
        for i in range(1, n + 1):
            pref *= qpoch_infinite(-q * t ** (i - 1) / eps, q).real
            pref *= qpoch_infinite(-q * lp.a * t ** (i - 1) / eps, q).real
        got = pref * (eps / rq) ** (sum(lam) + sum(mu)) * pair
        rows.append((k, eps, abs(got - want) / max(1.0, abs(want))))
    return rows
