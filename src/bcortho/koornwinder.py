"""The second-order q-difference operator of BC type.

Provides the operator D on W-invariant Laurent polynomials, evaluated at
every row of an (m, n) point array, its closed-form eigenvalues E_lambda,
and the triangular coefficient matrix E_{lambda,mu} on the monomial basis.
Since D m_lambda is a Laurent polynomial with exponents in
[-lambda_1, lambda_1] on every axis, its coefficients are read off exactly
(up to rounding) by a discrete Fourier transform of its values on a fixed
product grid of K = 2 lambda_1 + 1 nodes per axis. D is applied in one
place, _apply_D_rows, to a batch of polynomials at once: the
coefficients phi_j^{+-} and the shifted grids are formed once per batch
and each polynomial is evaluated once on all of them. So op_matrix is one
pass of D over every monomial and one FFT, and apply_D is the same pass
on one polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .bcpoly import (
    LaurentPolynomial,
    monomial_w,
    partition,
    partitions_dominated_by,
)
from .errors import DiagonalMismatch, NearPole
from .params import AWParams
from .qseries import POLE_GUARD

# Radius of the node circle on the first three axes; further axes use the
# unit circle. The per-axis phase offsets of _nodes keep z_j^2, z_j z_l
# and z_j / z_l off the positive real axis at every node, so no
# denominator factor of phi vanishes there whatever the radii.
RADII = (0.8, 1.25, 1.4)


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


def _guard(x: np.ndarray) -> np.ndarray:
    small = np.abs(x) < POLE_GUARD
    if np.any(small):
        raise NearPole(
            f"denominator factor {x[small][0]} within guard distance")
    return x


def apply_D(f: LaurentPolynomial, Z: np.ndarray, p: AWParams) -> np.ndarray:
    """Apply D = sum_j phi_j^+ (T_j^+ - Id) + phi_j^- (T_j^- - Id) at every
    row of the (m, n) point array Z, where T_j^{+-} shifts z_j to
    q^{+-1} z_j."""
    return _apply_D_rows([f], Z, p)[1][0]


def _apply_D_rows(fs: Sequence, Z: np.ndarray, p: AWParams) -> tuple:
    """(f(Z), (D f)(Z)) for every f of fs, as two (len(fs), m) arrays.

    Each f is evaluated once, on Z and its 2n shifted copies stacked,
    which eval_points adds point by point as it would each copy alone.
    The D-values of all f are then summed at once, from zero, adding
    phi_j^+ (f(q z) - f(z)) and then phi_j^- (f(z/q) - f(z)) for
    j = 0..n-1."""
    Z = np.asarray(Z, dtype=complex)
    grids = np.array([Z] * (2 * p.n + 1))
    for j in range(p.n):
        grids[2 * j + 1:2 * j + 3, :, j] = p.q * Z[:, j], Z[:, j] / p.q
    flat = grids.reshape(-1, Z.shape[1])
    vals = np.array([f.eval_points(flat).reshape(len(grids), -1) for f in fs])
    fz = vals[:, 0]
    total = np.zeros(fz.shape, dtype=complex)
    for j in range(p.n):
        total += phi_plus(j, Z, p) * (vals[:, 2 * j + 1] - fz)
        total += phi_minus(j, Z, p) * (vals[:, 2 * j + 2] - fz)
    return fz, total


def eigenvalue_E(lam: Sequence[int], p: AWParams) -> complex:
    """Closed-form eigenvalue E_lambda of D on the monic eigenbasis."""
    lam = partition(lam)
    n = p.n
    T = p.T
    total: complex = 0.0
    for j, lj in enumerate(lam, start=1):
        total += (T / p.q) * p.t ** (2 * n - j - 1) * (p.q ** lj - 1.0)
        total += p.t ** (j - 1) * (p.q ** (-lj) - 1.0)
    return total


@dataclass(frozen=True)
class TriangularOpMatrix:
    """Coefficients E_{lambda',mu} of D m_{lambda'} = sum_mu E m_mu.

    index holds the partitions mu <= lambda in graded-lex order; entries
    is the square matrix with rows indexed by lambda' and columns by mu.
    """

    index: Tuple[Tuple[int, ...], ...]
    entries: np.ndarray


def _nodes(n: int, K: int) -> Tuple[np.ndarray, np.ndarray]:
    """The product grid z_j = b_j omega^k (omega = e^{2 pi i / K},
    k = 0..K-1) as a (K^n, n) array in C order, and the axis bases
    b_j = r_j e^{i pi (j + 1) / (K (n + 1))}, r_j from RADII."""
    radii = RADII[:n] + (1.0,) * (n - len(RADII))
    base = np.array([r * np.exp(1j * math.pi * (j + 1) / (K * (n + 1)))
                     for j, r in enumerate(radii)])
    omega = np.exp(2j * math.pi * np.arange(K) / K)
    mesh = np.meshgrid(*(b * omega for b in base), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1), base


def op_matrix(lam: Sequence[int], p: AWParams) -> TriangularOpMatrix:
    """Extract the triangular matrix of D on {m_mu : mu <= lambda}.

    Applies D to every m_{lambda'} in one pass on the K^n nodes of _nodes,
    K = 2 lambda_1 + 1, and reads the coefficient of z^mu, the leading
    term of m_mu, from one n-dimensional FFT of those values over the
    node axes: exponents in [-lambda_1, lambda_1] fall on distinct FFT
    bins. The diagonal is verified against the closed-form eigenvalues.
    """
    lam = partition(lam)
    mus = partitions_dominated_by(lam)
    n = p.n
    K = 2 * lam[0] + 1
    Z, base = _nodes(n, K)
    fz, Df = _apply_D_rows([monomial_w(mu) for mu in mus], Z, p)
    bins = (slice(None),) + tuple(np.array(mus).T % K)
    # coefficient of z^mu = (FFT bin of mu) / (K^n b^mu)
    scale = K ** n * np.prod(base ** np.array(mus), axis=1)
    entries = np.fft.fftn(  # rows lambda', columns mu
        Df.reshape((len(mus),) + (K,) * n), axes=range(1, n + 1))[bins] / scale
    # the intermediate phi values inside apply_D grow like the product of
    # the two largest |t_i| while the result stays bounded, so
    # cancellation leaves absolute noise of that order times machine
    # epsilon; for strongly deformed parameters (|t_i| >> 1) that can
    # exceed a fixed tolerance on the O(1) eigenvalues
    tmax = max(abs(ti) for ti in p.tvec)
    mmax = float(np.max(np.abs(fz)))
    noise = 1e-12 * max(1.0, tmax * tmax) * mmax
    for k, mu in enumerate(mus):
        ek = eigenvalue_E(mu, p)
        if abs(entries[k, k] - ek) > 1e-8 * max(1.0, abs(ek)) + noise:
            raise DiagonalMismatch(
                f"diagonal at {mu}: got {entries[k, k]}, closed form {ek}")
    return TriangularOpMatrix(tuple(mus), entries)
