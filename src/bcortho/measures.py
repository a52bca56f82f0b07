"""Askey-Wilson-side orthogonality measures.

Continuous torus measure with density Delta = prod w_c(z_j) * delta(z;t),
residue-derived discrete weights (w_d, Delta^(d), delta_d, delta_c), the
discrete support sets D_i(r) and F(r), the partially discrete bilinear
form that mixes (n-r)-torus integration with r-point discrete chains, and
its rewrite for natural deformation parameter t = q^k.

Torus integrals use the uniform tensor trapezoid rule on angles, which is
spectrally accurate for these analytic periodic integrands; weight grids
are vectorized per axis and per pair of axes and cached per (params, M),
for the CACHE_SIZE most recently used grids.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import product as iter_product
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .bcpoly import LaurentPolynomial
from .errors import (
    DomainViolation,
    NearPole,
    NonPositiveWeight,
    PoleInWeight,
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
    integer k uses the finite Pochhammer of length k (t = q^k)."""
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
    for ti in p.tvec:
        den *= qpoch_infinite_arr(ti * zvals, p.q)
        den *= qpoch_infinite_arr(ti / zvals, p.q)
    if np.min(np.abs(den)) < POLE_GUARD:
        raise NearPole("w_c pole on the quadrature grid")
    return num / den


@functools.lru_cache(maxsize=CACHE_SIZE)
def _weight_grid(p: AWParams, n_axes: int, M: int,
                 k: int | None = None) -> tuple:
    """Cached (z-axis values, Delta grid over the M^n_axes tensor grid)."""
    zvals = _grid_axes(M)
    wc = _axis_wc(zvals, p)
    grid = np.ones((M,) * n_axes, dtype=complex)
    for ax in range(n_axes):
        sh = [1] * n_axes
        sh[ax] = M
        grid = grid * wc.reshape(sh)
    if n_axes > 1:
        pair = _pair_table(zvals, p, k)
        for a in range(n_axes):
            for b in range(a + 1, n_axes):
                sh = [1] * n_axes
                sh[a] = M
                sh[b] = M
                grid = grid * pair.reshape(sh)
    return zvals, grid


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


def _grid_mean(G: np.ndarray) -> tuple[complex, float]:
    """Mean of a tensor grid and the |M vs M/2| error estimate obtained
    from the even-index subgrid."""
    value = complex(np.mean(G))
    sub = G[tuple(slice(None, None, 2) for _ in range(G.ndim))]
    half = complex(np.mean(sub))
    return value, abs(value - half)


def _sym_product(f: LaurentPolynomial, g: LaurentPolynomial) -> LaurentPolynomial:
    """f*g with the factor order fixed by a canonical key, so that
    bilinear forms are exactly symmetric under swapping f and g."""
    kf = sorted(f.terms)
    kg = sorted(g.terms)
    return f * g if (kf, f.nvars) <= (kg, g.nvars) else g * f


def torus_bilinear(f: LaurentPolynomial, g: LaurentPolynomial, p: AWParams,
                   M: int) -> MeasureReport:
    """<f,g> over the n-torus with density Delta, via the M-point uniform
    tensor grid per axis."""
    fg_poly = _sym_product(f, g)
    deg = max((sum(abs(x) for x in e) for e in fg_poly.terms), default=0)
    if M < 2 * deg + 8:
        raise DomainViolation(f"M={M} too small for degree {deg}")
    _check_torus_clearance(p)
    zvals, grid = _weight_grid(p, p.n, M)
    fg = fg_poly.eval_grid([zvals] * p.n)
    value, err = _grid_mean(fg * grid)
    return MeasureReport(value, err, M, 0, 0)


# ---------------------------------------------------------------------------
# discrete weights

def wd_residue_weight(i: int, tau0: complex, tau1: complex, tau2: complex,
                      tau3: complex, q: float) -> complex:
    """Residue weight w_d(tau0 q^i; tau0): the mass that the pole chain of
    parameter tau0 deposits at tau0 q^i."""
    if abs(1.0 - tau0 * tau0) < POLE_GUARD:
        raise PoleInWeight("1 - tau0^2 vanishes")
    num = qpoch_infinite(tau0 ** -2, q)
    den: complex = qpoch_infinite(q, q)
    for tk in (tau1, tau2, tau3):
        den *= qpoch_infinite(tau0 * tk, q)
        den *= qpoch_infinite(tk / tau0, q)
    if abs(den) < POLE_GUARD * max(1.0, abs(num)):
        raise PoleInWeight("vanishing denominator in w_d prefactor")
    val = num / den
    num_i = qpoch_finite(tau0 ** 2, q, i)
    den_i = qpoch_finite(q, q, i)
    for tk in (tau1, tau2, tau3):
        num_i *= qpoch_finite(tau0 * tk, q, i)
        d = qpoch_finite(tau0 * q / tk, q, i)
        if abs(d) < POLE_GUARD:
            raise PoleInWeight("vanishing denominator in w_d i-factor")
        den_i *= d
    val *= num_i / den_i
    val *= (1.0 - tau0 ** 2 * q ** (2 * i)) / (1.0 - tau0 ** 2)
    val *= (q / (tau0 * tau1 * tau2 * tau3)) ** i
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
            d = (qpoch_finite(rk * rl * q ** (nk_prev + nl), q, nk - nk_prev)
                 * qpoch_finite(rk / rl * q ** (nk_prev - nl), q,
                                nk - nk_prev))
            if abs(d) < POLE_GUARD:
                raise PoleInWeight("vanishing delta_d denominator")
            val /= d
    return val


def multi_discrete_weight(nu: Sequence[int], p: AWParams,
                          which: int = 0) -> complex:
    """Delta^(d) of one ascending chain labelled nu for parameter t_which:
    product of shifted one-variable residue weights times delta_d."""
    q = p.q
    o1, o2, o3 = _others(p, which)
    val: complex = 1.0
    prev = 0
    for j, nj in enumerate(nu, start=1):
        tau0 = _rho(p, which, j) * q ** prev
        val *= wd_residue_weight(nj - prev, tau0, o1, o2, o3, q)
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


def _interaction_c_axis(w: complex, zvals: np.ndarray, p: AWParams) -> np.ndarray:
    """Vector of delta_c((w,); z) over one axis of grid values."""
    out = np.ones(len(zvals), dtype=complex)
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

def _discrete_point_weight(pt: DiscreteSupportPoint, p: AWParams) -> complex:
    """The z-independent part of Delta_r^AW at a support point: both
    Delta^(d) factors and the chain-chain interaction."""
    val = multi_discrete_weight(pt.nu, p, pt.i_param)
    val *= multi_discrete_weight(pt.nu_prime, p, pt.j_param)
    val *= interaction_c(pt.omega_i, pt.omega_j, p)
    return val


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
    for r in range(1, n + 1):
        comb = 2 ** r * math.factorial(n) // math.factorial(n - r)
        for pt in support_F(r, p, depth):
            w_disc = _discrete_point_weight(pt, p)
            fz = f.substitute_prefix(list(pt.omega))
            gz = g.substitute_prefix(list(pt.omega))
            if r == n:
                contrib = _sym_product(fz, gz).coefficient(()) * w_disc
            else:
                zvals, grid = _weight_grid(p, n - r, M)
                grid = grid.copy()
                for w in pt.omega:
                    vec = _interaction_c_axis(w, zvals, p)
                    for ax in range(n - r):
                        sh = [1] * (n - r)
                        sh[ax] = M
                        grid = grid * vec.reshape(sh)
                fg = _sym_product(fz, gz).eval_grid([zvals] * (n - r))
                val, e = _grid_mean(fg * grid)
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
    wc_vec = _axis_wc(zvals, p)

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

    pair_table = None
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
                grid = np.ones((M,) * ncont, dtype=complex)
                for ax in range(ncont):
                    sh = [1] * ncont
                    sh[ax] = M
                    grid = grid * wc_vec.reshape(sh)
                if ncont > 1:
                    if pair_table is None:
                        pair_table = _pair_table(zvals, p, k)
                    for a in range(ncont):
                        for b in range(a + 1, ncont):
                            sh = [1] * ncont
                            sh[a] = M
                            sh[b] = M
                            grid = grid * pair_table.reshape(sh)
                for zv in zdisc:
                    vec = pair_fin_axis(zv)
                    for ax in range(ncont):
                        sh = [1] * ncont
                        sh[ax] = M
                        grid = grid * vec.reshape(sh)
                fz = f.substitute_prefix(zdisc)
                gz = g.substitute_prefix(zdisc)
                fg = (fz * gz).eval_grid([zvals] * ncont)
                val, e = _grid_mean(fg * grid)
                total += comb * wdisc * val
                err += comb * abs(wdisc) * e
        if r == 0 and not large:
            break
    return MeasureReport(total, err, M, npoints, 0)
