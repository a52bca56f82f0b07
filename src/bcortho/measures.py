"""Askey-Wilson-side orthogonality measures.

Continuous torus measure with density Delta = prod w_c(z_j) * delta(z;t),
residue-derived discrete weights (w_d, Delta^(d), delta_d, delta_c), the
node tables of the discrete support F(r), the partially discrete bilinear
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

The discrete supports are never truncated: each chain position runs to
the last support value off the closed unit disk (SlowConvergence past
MAX_CHAIN values). The discrete part of the partially discrete form is
one uncached node table per split of F(r), built as the little and big
q-Jacobi tables are: by Delta^(d) = K_r Delta^qR a weight is K_l K_m
times the Delta^qR one-axis and in-chain pair factors, cumulative
products of per-step ratios that neither underflow nor overflow on long
chains, times the cross-chain delta_c factors. The scalar residue forms
stay as the references.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .bcpoly import LaurentPolynomial
from .errors import (
    DomainViolation,
    LengthMismatch,
    NearPole,
    NonFiniteWeight,
    NonPositiveWeight,
    PoleInWeight,
    SlowConvergence,
    ZeroProduct,
)
from .params import CACHE_SIZE, AWParams
from .qseries import (
    qpoch_finite,
    qpoch_finite_arr,
    qpoch_infinite,
    qpoch_infinite_arr,
    qpoch_real,
    qpoch_real_arr,
)
from .qracah import kr_constant

POLE_GUARD = 1e-12
TORUS_GUARD = 1e-9
# a chain position holds at most this many support values
MAX_CHAIN = 256


@dataclass(frozen=True)
class MeasureReport:
    """Result of a bilinear-form evaluation."""

    value: complex
    abs_error_estimate: float
    quadrature_points_per_axis: int
    discrete_points_used: int


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
        """Largest total degree of f * g. It sits on a vertex of the
        product's Newton polytope, whose coefficient is the single product
        f_a g_b and so cannot cancel."""
        return int(np.abs(self.sums).sum(axis=-1).max(initial=0))

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
    return MeasureReport(value, err, M, 0)


# ---------------------------------------------------------------------------
# discrete weights: the scalar residue forms

def wd_residue_weight(i: int, tau0: complex, tau1: complex, tau2: complex,
                      tau3: complex, q: float) -> complex:
    """Residue weight w_d(tau0 q^i; tau0): the mass that the pole chain of
    parameter tau0 deposits at tau0 q^i; each denominator factor is
    tested on its own. A scalar reference: far along a long chain its
    separate i-dependent products underflow to 0 or overflow
    (NonFiniteWeight) where the weight is finite."""
    if abs(1.0 - tau0 * tau0) < POLE_GUARD:
        raise PoleInWeight("1 - tau0^2 vanishes")
    num_i = qpoch_finite(tau0 ** 2, q, i)
    den_i = qpoch_finite(q, q, i)
    try:
        den: complex = qpoch_infinite(q, q, require_nonzero=True)
        for tk in (tau1, tau2, tau3):
            den *= qpoch_infinite(tau0 * tk, q, require_nonzero=True)
            den *= qpoch_infinite(tk / tau0, q, require_nonzero=True)
    except ZeroProduct as exc:
        raise PoleInWeight("vanishing denominator in w_d prefactor") from exc
    val = qpoch_infinite(tau0 ** -2, q) / den
    try:
        for tk in (tau1, tau2, tau3):
            num_i *= qpoch_finite(tau0 * tk, q, i)
            den_i *= qpoch_finite(tau0 * q / tk, q, i, require_nonzero=True)
    except ZeroProduct as exc:
        raise PoleInWeight("vanishing denominator in w_d i-factor") from exc
    val *= num_i / den_i
    val *= (1.0 - tau0 ** 2 * q ** (2 * i)) / (1.0 - tau0 ** 2)
    try:
        val *= (q / (tau0 * tau1 * tau2 * tau3)) ** i
    except OverflowError:
        val = math.nan
    if not cmath.isfinite(val):
        raise NonFiniteWeight(f"w_d overflows at offset {i} of the chain "
                              f"starting at tau0 = {tau0}")
    return val


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
    the chain point j contributes the residue weight of its start
    tau0 = rho_j q^nu_(j-1) at its offset nu_j - nu_(j-1); times delta_d."""
    others = _others(p, which)
    val: complex = 1.0
    prev = 0
    for j, nj in enumerate(nu, start=1):
        val *= wd_residue_weight(nj - prev, _rho(p, which, j) * p.q ** prev,
                                 *others, p.q)
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


def _interaction_c_rows(ws: np.ndarray, xs: np.ndarray,
                        p: AWParams) -> np.ndarray:
    """delta_c((w,); (x,)) for every w of ws (rows) and x of xs."""
    w, x = ws[:, None], xs[None, :]
    out = np.ones((len(ws), len(xs)), dtype=complex)
    for arg in (w * x, w / x, x / w, 1.0 / (w * x)):
        out *= qpoch_real_arr(arg, p.q, p.t)
    return out


# ---------------------------------------------------------------------------
# chain labels and node weights, shared by every discrete measure

def _chain_labels(chains: Sequence[int], ends: Sequence[int],
                  S: int) -> np.ndarray:
    """Every label nu with |nu| <= S and nu_i < ends[i] that ascends
    within each chain (of the given lengths, in axis order), in
    lexicographic order, as the columns of an int16 array: row i holds
    axis i."""
    cols: List[np.ndarray] = []
    total = np.zeros(1, dtype=int)
    starts = [k == 0 for length in chains for k in range(length)]
    for start, end in zip(starts, ends):
        lo = np.zeros(len(total), dtype=int) if start else cols[-1]
        count = np.maximum(np.minimum(S - total, end - 1) - lo + 1, 0)
        rows = np.repeat(np.arange(len(total)), count)
        step = np.arange(len(rows)) - np.repeat(np.cumsum(count) - count,
                                                count)
        cols = [c[rows] for c in cols] + [lo[rows] + step]
        total = total[rows] + cols[-1]
    return np.array(cols, dtype=np.int16)


def _label_weights(nu: np.ndarray, const, axis: Sequence[np.ndarray],
                   pair: Callable[[int, int], np.ndarray]) -> np.ndarray:
    """const prod_i axis[i][nu_i] prod_{i<j} pair(i, j)[nu_i, nu_j] for
    every label (column) of nu, multiplied in that order."""
    w = const * np.prod([a[lab] for a, lab in zip(axis, nu)], axis=0)
    for i in range(len(nu)):
        for j in range(i + 1, len(nu)):
            w = w * pair(i, j)[nu[i], nu[j]]
    return w


# ---------------------------------------------------------------------------
# the partially discrete chain tables

def _large_params(p: AWParams) -> List[int]:
    idx = [i for i, ti in enumerate(p.tvec) if abs(ti) >= 1.0]
    if len(idx) > 2:
        raise DomainViolation("more than two parameters with modulus >= 1")
    return idx


def _chain_ends(p: AWParams, which: int) -> List[int]:
    """Per chain position j = 0..n-1 of t_which, the number of support
    values t_which t^j q^nu off the closed unit disk; SlowConvergence past
    MAX_CHAIN."""
    ti = abs(p.tvec[which])
    ends = []
    for j in range(p.n):
        end = 0
        while ti * p.t ** j * p.q ** end > 1.0:
            end += 1
            if end > MAX_CHAIN:
                raise SlowConvergence(f"the chain of t_{which} holds more "
                                      f"than {MAX_CHAIN} support values")
        ends.append(end)
    return ends


def _step_products(num: Sequence[complex], den: Sequence[complex],
                   scale: complex, q: float, length: int) -> np.ndarray:
    """prod_x (x;q)_s over num / the same over den, times scale^s, for
    s < length, as the cumulative product of the per-step ratios."""
    qs = q ** np.arange(length - 1.0)
    step = np.full(length - 1, scale, dtype=complex)
    for x in num:
        step *= 1.0 - x * qs
    for x in den:
        d = 1.0 - x * qs
        if np.min(np.abs(d), initial=np.inf) < POLE_GUARD:
            raise PoleInWeight(f"(x;q)_s vanishes for x = {x}")
        step /= d
    return np.concatenate([[1.0], np.cumprod(step)])


def _qr_axis(pc: AWParams, k: int, end: int) -> np.ndarray:
    """The one-axis factor of Delta^qR (qracah.weight_qR) at position k of
    the chain of pc.t0, rho = t0 t^k, for nu < end; its
    (q rho^2;q)_2nu / (rho^2;q)_2nu telescopes."""
    q, rho = pc.q, pc.tvec[0] * pc.t ** k
    r2 = rho * rho
    return ((1.0 - r2 * q ** (2.0 * np.arange(end))) / (1.0 - r2)
            * _step_products([tj * rho for tj in pc.tvec],
                             [q * rho / tj for tj in pc.tvec],
                             q / (pc.T * pc.t ** (2 * k)), q, end))


def _qr_pair(pc: AWParams, k: int, l: int, ek: int, el: int) -> np.ndarray:
    """The pair factor of Delta^qR for chain positions k < l of pc.t0 over
    nu_k < ek, nu_l < el: A(nu_k + nu_l) B(nu_l - nu_k) with
    A(s) = (q x, t x;q)_s / (q x / t, x;q)_s at x = rho_k rho_l, B the same
    at x = rho_l / rho_k; NaN where nu_k > nu_l."""
    q, t = pc.q, pc.t
    rk, rl = pc.tvec[0] * t ** k, pc.tvec[0] * t ** l

    def run(x: complex, length: int) -> np.ndarray:
        # (q x;q)_s / (x;q)_s telescopes
        return ((1.0 - x * q ** np.arange(length)) / (1.0 - x)
                * _step_products([t * x], [q * x / t], 1.0, q, length))

    u, v = np.indices((ek, el))
    A, B = run(rk * rl, ek + el - 1), run(rl / rk, el)
    return np.where(v >= u, A[u + v] * B[np.maximum(v - u, 0)], np.nan)


def _discrete_table(p: AWParams, M: int) -> list:
    """One node table per split l + m = r of F(r), r = 1..n, as
    [(l, nu, omega, w, rows), ...]: the labels nu (one column per label,
    nu on the chain of t_i in its first l rows, nu' on that of t_j in
    the other m), their support values omega (one row per label), the
    weights Delta^(d)(nu) Delta^(d)(nu') delta_c(omega; omega') and, for
    r < n, the delta_c rows over the grid axis (None for r = n)."""
    n = p.n
    large = _large_params(p)
    i_param = large[0] if large else 0
    j_param = large[1] if len(large) > 1 else (1 if i_param == 0 else 0)
    zvals = _grid_axes(M)
    # per axis (chain c, position k): support values, one-axis factor and
    # delta_c rows; per pair of axes: the pair factor matrix
    ends, K, values, axis, rows, pairs = {}, {}, {}, {}, {}, {}
    for c in (i_param, j_param):
        ends[c] = _chain_ends(p, c)
        live = [k for k in range(n) if ends[c][k]]
        pc = AWParams(n, p.q, p.t, p.tvec[c], *_others(p, c))
        K[c] = [kr_constant(r, pc) for r in range(len(live) + 1)]
        for k in live:
            values[c, k] = pc.tvec[0] * p.t ** k * p.q ** np.arange(
                ends[c][k])
            axis[c, k] = _qr_axis(pc, k, ends[c][k])
            if k < n - 1:
                rows[c, k] = _interaction_c_rows(values[c, k], zvals, p)
            for l in live[:k]:
                pairs[(c, l), (c, k)] = _qr_pair(pc, l, k, ends[c][l],
                                                 ends[c][k])
    for (c, a), (d, b) in iter_product(values, repeat=2):
        if c == i_param and d == j_param and a + b < n - 1:
            pairs[(c, a), (d, b)] = _interaction_c_rows(values[c, a],
                                                        values[d, b], p)
    table = []
    for r in range(1, n + 1):
        for l in range(r + 1):
            axes = ([(i_param, k) for k in range(l)]
                    + [(j_param, k) for k in range(r - l)])
            if not all(ax in values for ax in axes):
                continue
            nu = _chain_labels((l, r - l), [ends[c][k] for c, k in axes],
                               sum(ends[c][k] for c, k in axes))
            w = _label_weights(nu, K[i_param][l] * K[j_param][r - l],
                               [axis[ax] for ax in axes],
                               lambda a, b: pairs[axes[a], axes[b]])
            bad = np.flatnonzero(~np.isfinite(w))
            if bad.size:
                raise NonFiniteWeight(
                    f"discrete weight {w[bad[0]]} at the label "
                    f"{nu[:, bad[0]].tolist()} of the split ({l}, {r - l})")
            omega = np.array([values[ax][lab] for ax, lab in zip(axes, nu)])
            row = (np.prod([rows[ax][lab] for ax, lab in zip(axes, nu)],
                           axis=0) if r < n else None)
            table.append((l, nu, omega.T, w, row))
    return table


# ---------------------------------------------------------------------------
# partially discrete bilinear form

def partial_bilinear(f: LaurentPolynomial, g: LaurentPolynomial, p: AWParams,
                     M: int) -> MeasureReport:
    """The partially discrete bilinear form on the positive-measure domain:
    torus term plus discrete-chain corrections over F(r), r = 1..n."""
    n = p.n
    check_positive = p.in_V_AW()
    base = torus_bilinear(f, g, p, M)
    total = base.value
    err = base.abs_error_estimate
    mass = abs(base.value)
    npoints = 0
    for _l, nu, omega, weights, rows in _discrete_table(p, M):
        r = len(nu)
        comb = 2 ** r * math.factorial(n) // math.factorial(n - r)
        for k, (pt, w_disc) in enumerate(zip(omega.tolist(),
                                             weights.tolist())):
            fz = f.substitute_prefix(pt)
            gz = g.substitute_prefix(pt)
            if rows is None:
                contrib = fz.coefficient(()) * gz.coefficient(()) * w_disc
            else:
                val, e = _Pairing(fz, gz).against(p, n - r, M, None, rows[k])
                contrib = w_disc * val
                err += comb * e * abs(w_disc)
            if check_positive and abs(contrib) > 0:
                if abs(complex(w_disc).imag) > 1e-9 * abs(w_disc):
                    raise NonPositiveWeight(
                        f"discrete weight not real at {nu[:, k].tolist()}")
            total += comb * contrib
            mass += comb * abs(contrib)
            npoints += 1
    # the realness check is scaled by the summed term magnitudes, not the
    # total: orthogonal pairs cancel to a value far below the rounding
    # noise of the individual contributions
    if check_positive and abs(complex(total).imag) > 1e-9 * max(1e-300, mass):
        raise NonPositiveWeight("bilinear form value has an imaginary part")
    return MeasureReport(total, err, M, npoints)


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
    large = _large_params(p)
    chains: Dict[int, List[Tuple[complex, complex]]] = {}
    for i in large:
        e = p.tvec[i]
        others = _others(p, i)
        chains[i] = [(e * q ** m, wd_residue_weight(m, e, *others, q))
                     for m in range(_chain_ends(p, i)[0])]
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
    return MeasureReport(total, err, M, npoints)
