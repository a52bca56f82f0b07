"""Reference forms that the vectorized code of bcortho must reproduce.

eval_points_loop is LaurentPolynomial.eval_points as a loop over the
terms, the form the slab evaluator replaced; the slab evaluator keeps its
rounding bit for bit, because the orthogonality metric of the discrete
families reads it. The weights below are the scalar forms of the densities
that the node tables build as arrays, one point or label at a time.
"""

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from bcortho.askey_wilson import aw_norm_plus
from bcortho.bcpoly import partition
from bcortho.errors import (DomainViolation, NearPole, PoleInProduct,
                            ZeroProduct)
from bcortho.little import LittleParams, delta_qJ, support_point
from bcortho.params import AWParams
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
