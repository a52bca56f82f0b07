"""Askey-Wilson-side orthogonality measures.

Continuous torus measure with density Delta = prod w_c(z_j) * delta(z;t),
residue-derived discrete weights (w_d, Delta^(d), delta_d, delta_c), the
discrete support sets D_i(r) and F(r), the partially discrete bilinear
form that mixes (n-r)-torus integration with r-point discrete chains, and
its rewrite for natural deformation parameter t = q^k.

Torus integrals use the uniform tensor trapezoid rule on angles, which is
spectrally accurate for these analytic periodic integrands. Every torus
pairing is <f,g> = sum_{a,b} f_a g_b L(a + b) for the moment functional
L(e) = mean of z^e * Delta over the M^n grid. A moment table holds L(e)
for every e in [-D, D]^n, and the same means H(e) over the even-index
subgrid, whose distance to the pairing is its error estimate; it is one
truncated DFT of the weight grid, contracted one axis at a time with the
Vandermonde matrix z_k^(j-D), and D is the largest exponent of the
pairing's product.

A measure is kept as its distinct factors, never as its M^n grid: per
(params, M, k) the axis vector w_c(z) and the M x M pair table, from
which the moment tables form Delta one slab of the leading axis at a
time (the largest temporary is one slab: about 2^20 points, or 16
leading-axis points where M^(n-1) is larger). The factors and the
moment tables, per (params, axes, M, k, D), are cached for the
CACHE_SIZE most recently used of each. The partially discrete forms
carry a per-point interaction factor on every axis, which is folded
into the Vandermonde matrix instead of into the grid.

The discrete part of the partially discrete form is tabulated once per
call: every support point of F(r) with its weight and, for r < n, its
delta_c row over the grid axis. Within that table the w_d prefactor of
each chain start tau0 and Delta^(d) of each label nu are computed once,
and all delta_c rows are evaluated in one batch. The table is not
cached: each measure is paired once.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .bcpoly import PRUNE, LaurentPolynomial
from .errors import (
    DomainViolation,
    LengthMismatch,
    NearPole,
    NonPositiveWeight,
    PoleInWeight,
    ZeroProduct,
)
from .params import CACHE_SIZE, AWParams
from .qseries import (
    qpoch_finite,
    qpoch_finite_arr,
    qpoch_infinite,
    qpoch_infinite_arr,
    qpoch_real,
)

POLE_GUARD = 1e-12
TORUS_GUARD = 1e-9


@dataclass(frozen=True)
class MeasureReport:
    """Result of a bilinear-form evaluation."""

    value: complex
    abs_error_estimate: float
    quadrature_points_per_axis: int
    discrete_points_used: int
    truncation_depth: int


@dataclass(frozen=True)
class DiscreteSupportPoint:
    """One point of F(r): two ascending chains, one per large parameter.

    nu labels the chain of parameter index i_param (length l), nu_prime
    the chain of j_param (length m), l + m = r. omega_i/omega_j hold the
    actual support values t_param * t^{p-1} * q^{nu_p}.
    """

    i_param: int
    j_param: int
    nu: Tuple[int, ...]
    nu_prime: Tuple[int, ...]
    omega_i: Tuple[complex, ...]
    omega_j: Tuple[complex, ...]

    @property
    def omega(self) -> Tuple[complex, ...]:
        return self.omega_i + self.omega_j

    @property
    def r(self) -> int:
        return len(self.nu) + len(self.nu_prime)


# ---------------------------------------------------------------------------
# continuous weight

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


# ---------------------------------------------------------------------------
# torus quadrature grids

def _grid_axes(M: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(M) / M
    return np.exp(1j * ang)


def _pair_table(zvals: np.ndarray, p: AWParams, k: int | None) -> np.ndarray:
    """M x M table of the interaction factor for one pair of axes.

    k = None uses the real exponent tau (ratio of infinite products);
    integer k uses the finite Pochhammer of length k (t = q^k).

    The arguments are the M^2 rounded products z_a z_b, z_b / z_a, ...,
    although on the grid each is an M-th root of unity with only M
    distinct values. Evaluating the M roots once and indexing them, with
    the factors multiplied in the same order, makes the aw --lmax 4 Gram
    errors 3-5x worse at seeds 1-3 (norms 2.2-3.0e-13 -> 1.2-1.4e-12,
    orthogonality 0.8-1.1e-13 -> 2.8-3.0e-13): the pairings' cancellation
    relies on the rounding that the products carry. So the M^2 arguments
    stay, at the cost of M^2 products per argument kind, which is large
    at q near 1 (about 3,600 factors each at q = 0.99)."""
    za = zvals[:, None]
    zb = zvals[None, :]
    out = np.ones((len(zvals), len(zvals)), dtype=complex)
    for arg in (za * zb, zb / za, za / zb, 1.0 / (za * zb)):
        if k is None:
            out *= qpoch_infinite_arr(arg, p.q)
            out /= qpoch_infinite_arr(arg * p.t, p.q)
        else:
            out *= qpoch_finite_arr(arg, p.q, k)
    return out


def _axis_wc(zvals: np.ndarray, p: AWParams) -> np.ndarray:
    num = (qpoch_infinite_arr(zvals ** 2, p.q)
           * qpoch_infinite_arr(zvals ** -2, p.q))
    den = np.ones_like(num)
    try:
        for ti in p.tvec:
            den *= qpoch_infinite_arr(ti * zvals, p.q, require_nonzero=True)
            den *= qpoch_infinite_arr(ti / zvals, p.q, require_nonzero=True)
    except ZeroProduct as exc:
        raise NearPole("w_c pole on the quadrature grid") from exc
    return num / den


@functools.lru_cache(maxsize=CACHE_SIZE)
def _factors(p: AWParams, M: int, k: int | None) -> tuple:
    """Cached distinct factors of the Delta grid: (z-axis values, the axis
    vector w_c(z), the M x M pair table or None when p.n = 1). Every grid
    of the measure, on any number of axes up to p.n, is their product."""
    zvals = _grid_axes(M)
    wc = _axis_wc(zvals, p)
    return zvals, wc, _pair_table(zvals, p, k) if p.n > 1 else None


def _weight_slab(factors: tuple, n_axes: int, lo: int, hi: int) -> np.ndarray:
    """Rows lo:hi of the leading axis of the Delta grid over n_axes axes,
    each point multiplied up in the same order on every path: the axis
    factors axis by axis, then the pair factors pair by pair."""
    zvals, wc, pair = factors
    M = len(zvals)
    slab = wc[lo:hi].copy().reshape((-1,) + (1,) * (n_axes - 1))
    for ax in range(1, n_axes):
        sh = [1] * n_axes
        sh[ax] = M
        slab = slab * wc.reshape(sh)
    for a in range(n_axes - 1):
        rows = pair[lo:hi] if a == 0 else pair
        for b in range(a + 1, n_axes):
            sh = [1] * n_axes
            sh[a], sh[b] = len(rows), M
            slab *= rows.reshape(sh)
    return slab


def _weight_grid(p: AWParams, n_axes: int, M: int,
                 k: int | None = None) -> tuple:
    """(z-axis values, Delta grid over the M^n_axes tensor grid). Not on
    the pairing path, which never forms the whole grid; kept as the
    oracle the moment tables are tested against."""
    factors = _factors(p, M, k)
    return factors[0], _weight_slab(factors, n_axes, 0, M)


def _check_torus_clearance(p: AWParams) -> None:
    """Reject parameters with a pole chain within guard distance of the
    unit circle (the measure-zero exclusion t_i t^j q^s on T)."""
    for ti in p.tvec:
        for j in range(-1, p.n):
            m = abs(ti) * p.t ** j
            if m == 0:
                continue
            # |t_i t^j q^s| = 1 for real s; check nearest integer s
            s = math.log(m) / math.log(p.q)
            for sr in (math.floor(s), math.ceil(s)):
                if abs(m * p.q ** sr - 1.0) < TORUS_GUARD:
                    raise NearPole(
                        f"parameter chain value t_i t^{j} q^{sr} on torus")


def _vandermonde(zvals: np.ndarray, D: int) -> np.ndarray:
    """M x (2D+1) matrix V[k, j] = z_k^(j-D), read off the grid's own
    roots of unity z_k = exp(2 pi i k / M)."""
    M = len(zvals)
    return zvals[np.outer(np.arange(M), np.arange(-D, D + 1)) % M]


# grid points per slab of _grid_moments (16 MiB of complex values); a
# slab spans a multiple of 16 leading-axis points, which is two
# contraction blocks of the grid and one of its even-index subgrid
_SLAB_POINTS = 2 ** 20


def _contract(G: np.ndarray, A: np.ndarray, acc=0):
    """acc plus G contracted on its last axis with A, as rows: summed in
    blocks of 8 grid points and then block by block. One long BLAS dot
    product per moment rounds several times worse, and the pairings
    amplify that by their cancellation."""
    rows = G.reshape(-1, G.shape[-1])
    for i in range(0, len(A), 8):
        acc = acc + rows[:, i:i + 8] @ A[i:i + 8]
    return acc


def _grid_moments(factors: tuple, n_axes: int, V: np.ndarray) -> tuple:
    """(L, H): L[e + D] = mean of Delta * prod_j V[k_j, e_j + D] over the
    M^n_axes tensor grid for every e in [-D, D]^n_axes, and H the same
    over the even-index subgrid. The grid is formed one slab of about
    _SLAB_POINTS points, and at least 16 leading-axis points, at a time:
    each slab's trailing axes are contracted one at a time, last axis
    first, and its leading axis is added into the running sums last,
    block after block in grid order."""
    M = len(factors[0])
    C = V.shape[1]
    step = max(16, _SLAB_POINTS // M ** (n_axes - 1) // 16 * 16)
    even = (slice(None, None, 2),) * n_axes
    sums = [0, 0]
    for lo in range(0, M, step):
        slab = _weight_slab(factors, n_axes, lo, lo + step)
        for s, (G, A, lead) in enumerate((
                (slab, V, V[lo:lo + step]),
                (slab[even], V[::2], V[lo:lo + step:2]))):
            for _ in range(n_axes - 1):
                G = np.moveaxis(_contract(G, A).reshape(G.shape[:-1] + (C,)),
                                -1, 0)
            # G is now (e_2, ..., e_n, leading points of this slab)
            sums[s] = _contract(G, lead, sums[s])
        del slab  # freed before the next slab is formed
    L, H = (np.moveaxis(acc.reshape((C,) * n_axes), -1, 0) / size
            for acc, size in zip(sums, (M ** n_axes, ((M + 1) // 2) ** n_axes)))
    return L, H


@functools.lru_cache(maxsize=CACHE_SIZE)
def _moment_table(p: AWParams, n_axes: int, M: int, k: int | None,
                  D: int) -> tuple:
    """Cached (L, H) moment tables of the Delta grid up to degree D."""
    factors = _factors(p, M, k)
    return _grid_moments(factors, n_axes, _vandermonde(factors[0], D))


class _Pairing:
    """The terms of f and g, in a canonical order of the two so that a
    pairing is exactly symmetric under swapping them, ready to be
    contracted against moment tables."""

    def __init__(self, f: LaurentPolynomial, g: LaurentPolynomial):
        if f.nvars != g.nvars:
            raise LengthMismatch("variable count mismatch")
        terms = [sorted(h.terms.items()) for h in (f, g)]
        keys = [([e for e, _ in t], [(c.real, c.imag) for _, c in t])
                for t in terms]
        if keys[1] < keys[0]:
            f, g, terms = g, f, terms[::-1]
        self.f, self.g, self.nvars = f, g, f.nvars
        self.cf, self.cg = (np.array([c for _, c in t], dtype=complex)
                            for t in terms)
        ef, eg = (np.array([e for e, _ in t], dtype=int).reshape(
            len(t), self.nvars) for t in terms)
        # exponent of every product term: (terms_f, terms_g, nvars)
        self.sums = ef[:, None] + eg
        self.D = int(np.abs(self.sums).max(initial=0))

    def degree(self) -> int:
        """Largest total degree among the terms that f * g keeps: an
        exponent whose coefficient sum cancels to |c| <= PRUNE does not
        count. The sum runs in the order LaurentPolynomial.__mul__ uses."""
        sums = self.sums.reshape(-1, self.nvars)
        deg = np.abs(sums).sum(axis=1)
        for d in np.unique(deg)[::-1]:
            for e in set(map(tuple, sums[deg == d].tolist())):
                c: complex = 0.0
                for e1, c1 in self.f.terms.items():
                    c2 = self.g.terms.get(tuple(a - b for a, b in zip(e, e1)))
                    if c2 is not None:
                        c = c + c1 * c2
                if abs(c) > PRUNE:
                    return int(d)
        return 0

    def against(self, p: AWParams, n_axes: int, M: int, k: int | None,
                axis_factor: np.ndarray | None = None) -> tuple[complex, float]:
        """(sum_{a,b} f_a g_b L(a + b), |that - the same against H|) for
        the Delta grid times axis_factor(z_j) on every axis. The factor is
        folded into the Vandermonde matrix; without one the cached table
        is used."""
        if axis_factor is None:
            L, H = _moment_table(p, n_axes, M, k, self.D)
        else:
            factors = _factors(p, M, k)
            L, H = _grid_moments(factors, n_axes, _vandermonde(
                factors[0], self.D) * axis_factor[:, None])
        idx = tuple(np.moveaxis(self.sums + self.D, -1, 0))
        value = complex(self.cf @ L[idx] @ self.cg)
        return value, abs(value - complex(self.cf @ H[idx] @ self.cg))


def torus_bilinear(f: LaurentPolynomial, g: LaurentPolynomial, p: AWParams,
                   M: int) -> MeasureReport:
    """<f,g> over the n-torus with density Delta, via the M-point uniform
    tensor grid per axis."""
    pair = _Pairing(f, g)
    deg = pair.degree()
    if M < 2 * deg + 8:
        raise DomainViolation(f"M={M} too small for degree {deg}")
    _check_torus_clearance(p)
    if pair.nvars != p.n:
        raise LengthMismatch("grid has wrong number of axes")
    value, err = pair.against(p, p.n, M, None)
    return MeasureReport(value, err, M, 0, 0)


# ---------------------------------------------------------------------------
# discrete weights

def _wd_prefactor(tau0: complex, tau1: complex, tau2: complex,
                  tau3: complex, q: float) -> complex:
    """The part of w_d(tau0 q^i; tau0) that does not depend on i:
    (tau0^-2;q)_inf / (q, tau0 tk, tk / tau0;q)_inf over k = 1, 2, 3."""
    if abs(1.0 - tau0 * tau0) < POLE_GUARD:
        raise PoleInWeight("1 - tau0^2 vanishes")
    num = qpoch_infinite(tau0 ** -2, q)
    try:
        den: complex = qpoch_infinite(q, q, require_nonzero=True)
        for tk in (tau1, tau2, tau3):
            den *= qpoch_infinite(tau0 * tk, q, require_nonzero=True)
            den *= qpoch_infinite(tk / tau0, q, require_nonzero=True)
    except ZeroProduct as exc:
        raise PoleInWeight("vanishing denominator in w_d prefactor") from exc
    return num / den


def _wd_from_prefactor(val: complex, i: int, tau0: complex, tau1: complex,
                       tau2: complex, tau3: complex, q: float) -> complex:
    """w_d(tau0 q^i; tau0) from its prefactor val: the i-dependent factors.
    Each denominator factor 1 - x q^j is tested on its own."""
    num_i = qpoch_finite(tau0 ** 2, q, i)
    den_i = qpoch_finite(q, q, i)
    try:
        for tk in (tau1, tau2, tau3):
            num_i *= qpoch_finite(tau0 * tk, q, i)
            den_i *= qpoch_finite(tau0 * q / tk, q, i, require_nonzero=True)
    except ZeroProduct as exc:
        raise PoleInWeight("vanishing denominator in w_d i-factor") from exc
    val *= num_i / den_i
    val *= (1.0 - tau0 ** 2 * q ** (2 * i)) / (1.0 - tau0 ** 2)
    val *= (q / (tau0 * tau1 * tau2 * tau3)) ** i
    return val


def wd_residue_weight(i: int, tau0: complex, tau1: complex, tau2: complex,
                      tau3: complex, q: float) -> complex:
    """Residue weight w_d(tau0 q^i; tau0): the mass that the pole chain of
    parameter tau0 deposits at tau0 q^i."""
    return _wd_from_prefactor(_wd_prefactor(tau0, tau1, tau2, tau3, q),
                              i, tau0, tau1, tau2, tau3, q)


def _rho(p: AWParams, which: int, j: int) -> complex:
    return p.tvec[which] * p.t ** (j - 1)


def _others(p: AWParams, which: int) -> tuple:
    return tuple(tv for m, tv in enumerate(p.tvec) if m != which)


def delta_d(nu: Sequence[int], p: AWParams, which: int) -> complex:
    """Discrete-discrete interaction factor of one ascending chain."""
    q, t = p.q, p.t
    val: complex = 1.0
    for k in range(1, len(nu) + 1):
        for l in range(k + 1, len(nu) + 1):
            rk, rl = _rho(p, which, k), _rho(p, which, l)
            nk, nl = nu[k - 1], nu[l - 1]
            nk_prev = nu[k - 2] if k >= 2 else 0
            val *= qpoch_real(rl / rk * q ** (nl - nk), q, t)
            val *= qpoch_real(q ** (-nk - nl) / (rk * rl), q, t)
            try:
                d = (qpoch_finite(rk * rl * q ** (nk_prev + nl), q,
                                  nk - nk_prev, require_nonzero=True)
                     * qpoch_finite(rk / rl * q ** (nk_prev - nl), q,
                                    nk - nk_prev, require_nonzero=True))
            except ZeroProduct as exc:
                raise PoleInWeight("vanishing delta_d denominator") from exc
            val /= d
    return val


def multi_discrete_weight(nu: Sequence[int], p: AWParams,
                          which: int = 0) -> complex:
    """Delta^(d) of one ascending chain labelled nu for parameter t_which:
    product of shifted one-variable residue weights times delta_d."""
    o1, o2, o3 = _others(p, which)
    return _label_weight(nu, p, which, lambda i, tau0: wd_residue_weight(
        i, tau0, o1, o2, o3, p.q))


def _label_weight(nu: Sequence[int], p: AWParams, which: int,
                  wd: Callable[[int, complex], complex]) -> complex:
    """Delta^(d)(nu) with w_d(tau0 q^i; tau0) = wd(i, tau0): the chain
    point j contributes the residue weight of its start tau0 = rho_j
    q^nu_(j-1) at its offset nu_j - nu_(j-1)."""
    q = p.q
    val: complex = 1.0
    prev = 0
    for j, nj in enumerate(nu, start=1):
        val *= wd(nj - prev, _rho(p, which, j) * q ** prev)
        prev = nj
    return val * delta_d(nu, p, which)


def interaction_c(omega: Sequence[complex], z: Sequence[complex],
                  p: AWParams) -> complex:
    """Discrete-continuous interaction delta_c(omega; z)."""
    val: complex = 1.0
    for w in omega:
        for x in z:
            for arg in (w * x, w / x, x / w, 1.0 / (w * x)):
                val *= qpoch_real(arg, p.q, p.t)
    return val


def _interaction_c_rows(ws: Sequence[complex], zvals: np.ndarray,
                        p: AWParams) -> np.ndarray:
    """delta_c((w,); z) over one axis of grid values, one row per w,
    evaluated for all rows at once."""
    w = np.asarray(ws, dtype=complex)[:, None]
    out = np.ones((len(ws), len(zvals)), dtype=complex)
    for arg in (w * zvals, w / zvals, zvals / w, 1.0 / (w * zvals)):
        out *= qpoch_infinite_arr(arg, p.q)
        out /= qpoch_infinite_arr(arg * p.t, p.q)
    return out


# ---------------------------------------------------------------------------
# discrete supports

def _large_params(p: AWParams) -> List[int]:
    idx = [i for i, ti in enumerate(p.tvec) if abs(ti) >= 1.0]
    if len(idx) > 2:
        raise DomainViolation("more than two parameters with modulus >= 1")
    return idx


def support_D(i_param: int, r: int, p: AWParams,
              depth: int = 64) -> List[Tuple[int, ...]]:
    """Ascending labels nu of D_i(r): all chains with every support value
    off the closed unit disk. Empty when |t_i| < 1."""
    ti = abs(p.tvec[i_param])
    if ti < 1.0 or r == 0:
        return [()] if r == 0 else []
    out: List[Tuple[int, ...]] = []

    def ok(jpos: int, nj: int) -> bool:
        return ti * p.t ** (jpos - 1) * p.q ** nj > 1.0

    def rec(prefix: List[int]):
        jpos = len(prefix) + 1
        lo = prefix[-1] if prefix else 0
        for nj in range(lo, depth + 1):
            if not ok(jpos, nj):
                break
            prefix.append(nj)
            if len(prefix) == r:
                out.append(tuple(prefix))
            else:
                rec(prefix)
            prefix.pop()

    rec([])
    out.sort()
    return out


def support_F(r: int, p: AWParams, depth: int = 64) -> List[DiscreteSupportPoint]:
    """All points of F(r), enumerated lexicographically in (split, nu, nu')."""
    large = _large_params(p)
    i_param = large[0] if large else 0
    j_param = large[1] if len(large) > 1 else (1 if i_param == 0 else 0)
    out: List[DiscreteSupportPoint] = []
    for l in range(r + 1):
        m = r - l
        for nu in support_D(i_param, l, p, depth):
            for nup in support_D(j_param, m, p, depth):
                wi = tuple(_rho(p, i_param, j) * p.q ** nu[j - 1]
                           for j in range(1, l + 1))
                wj = tuple(_rho(p, j_param, j) * p.q ** nup[j - 1]
                           for j in range(1, m + 1))
                out.append(DiscreteSupportPoint(
                    i_param, j_param, nu, nup, wi, wj))
    return out


# ---------------------------------------------------------------------------
# partially discrete bilinear form

def _chain_table(p: AWParams, M: int, depth: int) -> list:
    """[(r, point, weight, row), ...] over every point of F(r), r = 1..n:
    the point's z-independent weight and, for r < n, its delta_c row over
    the M-point grid axis (None for r = n). Each distinct factor is
    computed once per table: the w_d prefactor per chain start tau0,
    Delta^(d) per label, the four chain-chain delta_c factors per pair of
    support values, and the delta_c rows of every support value in one
    batch."""
    q = p.q
    prefactors: Dict[tuple, complex] = {}
    labels: Dict[tuple, complex] = {}
    cross: Dict[tuple, tuple] = {}

    def wd(which: int, i: int, tau0: complex) -> complex:
        others = _others(p, which)
        if (which, tau0) not in prefactors:
            prefactors[which, tau0] = _wd_prefactor(tau0, *others, q)
        return _wd_from_prefactor(prefactors[which, tau0], i, tau0,
                                  *others, q)

    def label(nu: Tuple[int, ...], which: int) -> complex:
        if (which, nu) not in labels:
            labels[which, nu] = _label_weight(
                nu, p, which, functools.partial(wd, which))
        return labels[which, nu]

    def weight(pt: DiscreteSupportPoint) -> complex:
        # multiplied in the order of multi_discrete_weight and
        # interaction_c
        val = label(pt.nu, pt.i_param) * label(pt.nu_prime, pt.j_param)
        c: complex = 1.0
        for w in pt.omega_i:
            for x in pt.omega_j:
                if (w, x) not in cross:
                    cross[w, x] = tuple(
                        qpoch_real(arg, q, p.t)
                        for arg in (w * x, w / x, x / w, 1.0 / (w * x)))
                for factor in cross[w, x]:
                    c *= factor
        return val * c

    points = [(r, pt) for r in range(1, p.n + 1)
              for pt in support_F(r, p, depth)]
    ws = list(dict.fromkeys(w for r, pt in points if r < p.n
                            for w in pt.omega))
    rows = dict(zip(ws, _interaction_c_rows(ws, _grid_axes(M), p)))
    return [(r, pt, weight(pt),
             np.prod([rows[w] for w in pt.omega], axis=0) if r < p.n
             else None)
            for r, pt in points]


def partial_bilinear(f: LaurentPolynomial, g: LaurentPolynomial, p: AWParams,
                     M: int, depth: int = 64) -> MeasureReport:
    """The partially discrete bilinear form on the positive-measure domain:
    torus term plus discrete-chain corrections over F(r), r = 1..n."""
    n = p.n
    check_positive = p.in_V_AW()
    base = torus_bilinear(f, g, p, M)
    total = base.value
    err = base.abs_error_estimate
    mass = abs(base.value)
    npoints = 0
    for r, pt, w_disc, vec in _chain_table(p, M, depth):
        comb = 2 ** r * math.factorial(n) // math.factorial(n - r)
        fz = f.substitute_prefix(list(pt.omega))
        gz = g.substitute_prefix(list(pt.omega))
        if vec is None:
            contrib = fz.coefficient(()) * gz.coefficient(()) * w_disc
        else:
            val, e = _Pairing(fz, gz).against(p, n - r, M, None, vec)
            contrib = w_disc * val
            err += comb * e * abs(w_disc)
        if check_positive and abs(contrib) > 0:
            if abs(complex(w_disc).imag) > 1e-9 * abs(w_disc):
                raise NonPositiveWeight(
                    f"discrete weight not real at {pt.nu}/{pt.nu_prime}")
        total += comb * contrib
        mass += comb * abs(contrib)
        npoints += 1
    # the realness check is scaled by the summed term magnitudes, not the
    # total: orthogonal pairs cancel to a value far below the rounding
    # noise of the individual contributions
    if check_positive and abs(complex(total).imag) > 1e-9 * max(1e-300, mass):
        raise NonPositiveWeight("bilinear form value has an imaginary part")
    return MeasureReport(total, err, M, npoints, depth)


# ---------------------------------------------------------------------------
# natural deformation parameter t = q^k

def _natural_k(p: AWParams) -> int:
    k = round(math.log(p.t) / math.log(p.q))
    if k < 1 or abs(p.t - p.q ** k) > 1e-12:
        raise DomainViolation(f"t={p.t} is not an exact positive power of q")
    return int(k)


def natural_t_bilinear(f: LaurentPolynomial, g: LaurentPolynomial,
                       p: AWParams, M: int) -> MeasureReport:
    """The t = q^k rewrite of the partially discrete form: independent
    discrete chains per coordinate, all interactions carried by the
    Laurent-polynomial factor delta(z;q^k)."""
    k = _natural_k(p)
    n = p.n
    q = p.q
    large = [i for i, ti in enumerate(p.tvec) if abs(ti) > 1.0]
    _large_params(p)  # domain check
    chains: Dict[int, List[Tuple[complex, complex]]] = {}
    for i in large:
        e = p.tvec[i]
        others = _others(p, i)
        vals = []
        m = 0
        while abs(e) * q ** m > 1.0:
            vals.append((e * q ** m,
                         wd_residue_weight(m, e, *others, q)))
            m += 1
        chains[i] = vals
    _check_torus_clearance(p)
    zvals = _grid_axes(M)

    def pair_fin(a, b):
        out = 1.0
        for arg in (a * b, b / a, a / b, 1.0 / (a * b)):
            out = out * qpoch_finite(arg, q, k)
        return out

    def pair_fin_axis(w):
        out = np.ones(M, dtype=complex)
        for arg in (w * zvals, w / zvals, zvals / w, 1.0 / (w * zvals)):
            out *= qpoch_finite_arr(arg, q, k)
        return out

    total: complex = 0.0
    err = 0.0
    npoints = 0
    for r in range(n + 1):
        comb = 2 ** r * math.comb(n, r)
        ncont = n - r
        for es in iter_product(large, repeat=r):
            chain_lists = [chains[e] for e in es]
            for picks in iter_product(*chain_lists):
                zdisc = [zv for zv, _w in picks]
                wdisc = 1.0
                for _zv, w in picks:
                    wdisc *= w
                for a in range(r):
                    for b in range(a + 1, r):
                        wdisc *= pair_fin(zdisc[a], zdisc[b])
                if abs(wdisc) == 0.0:
                    continue
                npoints += 1
                if ncont == 0:
                    total += comb * wdisc * f.eval(zdisc) * g.eval(zdisc)
                    continue
                vec = (np.prod([pair_fin_axis(zv) for zv in zdisc], axis=0)
                       if zdisc else None)
                val, e = _Pairing(f.substitute_prefix(zdisc),
                                  g.substitute_prefix(zdisc)).against(
                                      p, ncont, M, k, vec)
                total += comb * wdisc * val
                err += comb * abs(wdisc) * e
        if r == 0 and not large:
            break
    return MeasureReport(total, err, M, npoints, 0)
