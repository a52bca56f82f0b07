"""The second-order q-difference operator of BC type.

Provides the operator D on W-invariant Laurent polynomials, evaluated at
every row of an (m, n) point array, its closed-form eigenvalues E_lambda,
and the triangular coefficient matrix E_{lambda,mu} on the monomial basis.
Since D m_lambda is a Laurent polynomial with exponents in
[-lambda_1, lambda_1] on every axis, its coefficients are read off exactly
(up to rounding) by a discrete Fourier transform of its values on a fixed
product grid of K = 2 lambda_1 + 1 nodes per axis. D is applied in one
place, _apply_D_rows, to a batch of polynomials at once and for a list
of parameter sets that share n and q: the shifted grids, and so every
polynomial's values on them, hold no parameter but q, so each polynomial
is evaluated once for all sets, and only the coefficients phi_j^{+-}
(_phi, formed for every j, both signs and every set at once) differ
between sets. So op_matrices is one pass of D over every monomial and
one FFT for all its sets, and op_matrix is its batch of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence, Tuple

import numpy as np

from .bcpoly import monomial_w, partition, partitions_dominated_by
from .errors import DiagonalMismatch, DomainViolation, NearPole
from .params import AWParams
from .qseries import POLE_GUARD

# Radius of the node circle on the first three axes; further axes use the
# unit circle. The per-axis phase offsets of _nodes keep z_j^2, z_j z_l
# and z_j / z_l off the positive real axis at every node, so no
# denominator factor of phi vanishes there whatever the radii.
RADII = (0.8, 1.25, 1.4)


def _phi(Z: np.ndarray, ps: Sequence[AWParams]) -> np.ndarray:
    """The coefficients of D at every row of the (m, n) point array Z for
    every parameter set of ps (which share n and q), as one
    (len(ps), n, 2, m) array: [s, j, 0] is phi_j^+ of ps[s], the
    coefficient of the forward q-shift on axis j (0-based), and
    [s, j, 1] is phi_j^-(z) = phi_j^+(z^{-1}), every coordinate inverted.

    phi_j^+(z) = prod_i (1 - t_i z_j) / ((1 - z_j^2) (1 - q z_j^2))
    prod_{l != j} (1 - t z_l z_j) (1 - t z_j / z_l)
    / ((1 - z_l z_j) (1 - z_j / z_l)), each element formed in that order
    from a 1, the factors over l in increasing l. The denominator factors
    hold no parameter but q: each is formed once for all sets, and
    NearPole names the first within guard distance of zero in the order
    j, sign, factor, row."""
    n, q = ps[0].n, ps[0].q
    Z = np.asarray(Z, dtype=complex)
    X = np.stack([Z.T, 1.0 / Z.T], axis=1)  # X[j, sign]: the axis j
    # per l-factor k, the axis z_l that it reads for each j
    Ls = [X[list(ls)] for ls in zip(*([l for l in range(n) if l != j]
                                      for j in range(n)))]
    den = _guard(np.stack(
        [1.0 - X * X, 1.0 - q * X * X]
        + [f for zl in Ls for f in (1.0 - zl * X, 1.0 - X / zl)], axis=2))
    tv = np.array([p.tvec for p in ps], dtype=complex).T[..., None, None,
                                                         None]
    t = np.array([p.t for p in ps])[:, None, None, None]
    val = np.ones((len(ps),) + X.shape, dtype=complex)
    for ti in tv:
        val = val * (1.0 - ti * X)
    val = val / (den[:, :, 0] * den[:, :, 1])
    for k, zl in enumerate(Ls, start=1):
        val = val * ((1.0 - t * zl * X) * (1.0 - t * X / zl))
        val = val / (den[:, :, 2 * k] * den[:, :, 2 * k + 1])
    return val


def _guard(x: np.ndarray) -> np.ndarray:
    """x, unless an entry is within guard distance of zero: NearPole
    names the first, in C order."""
    small = np.abs(x) < POLE_GUARD
    if np.any(small):
        raise NearPole(
            f"denominator factor {x[small][0]} within guard distance")
    return x


def _apply_D_rows(fs: Sequence, Z: np.ndarray,
                  ps: Sequence[AWParams]) -> tuple:
    """(f(Z), (D f)(Z)) for every f of fs and every parameter set of ps
    (which share n and q), as a (len(fs), m) and a (len(ps), len(fs), m)
    array: D = sum_j phi_j^+ (T_j^+ - Id) + phi_j^- (T_j^- - Id) at every
    row of the (m, n) point array Z, where T_j^{+-} shifts z_j to
    q^{+-1} z_j.

    Each f is evaluated once, on Z and its 2n shifted copies stacked,
    which eval_points adds point by point as it would each copy alone,
    and its differences f(T_j^{+-} z) - f(z) serve every set. The
    D-values of all f and all sets are then summed at once, from zero,
    adding phi_j^+ (f(q z) - f(z)) and then phi_j^- (f(z/q) - f(z)) for
    j = 0..n-1 (_phi)."""
    n, q = ps[0].n, ps[0].q
    Z = np.asarray(Z, dtype=complex)
    grids = np.array([Z] * (2 * n + 1))
    for j in range(n):
        grids[2 * j + 1:2 * j + 3, :, j] = q * Z[:, j], Z[:, j] / q
    flat = grids.reshape(-1, Z.shape[1])
    vals = np.array([f.eval_points(flat).reshape(len(grids), -1) for f in fs])
    fz = vals[:, 0]
    phi = _phi(Z, ps)[..., None, :]  # one row per f
    total = np.zeros((len(ps),) + fz.shape, dtype=complex)
    for j in range(n):
        total += phi[:, j, 0] * (vals[:, 2 * j + 1] - fz)
        total += phi[:, j, 1] * (vals[:, 2 * j + 2] - fz)
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


def op_matrices(lam: Sequence[int], ps: Sequence[AWParams]
                ) -> Iterator[TriangularOpMatrix]:
    """The triangular matrix of D on {m_mu : mu <= lambda} for each
    parameter set of ps, in order; the sets must share n and q
    (DomainViolation otherwise).

    Applies D to every m_{lambda'} for every set in one pass on the K^n
    nodes of _nodes, K = 2 lambda_1 + 1, and reads the coefficient of
    z^mu, the leading term of m_mu, from one FFT of those values over
    the node axes, a leading axis per set and per lambda': exponents in
    [-lambda_1, lambda_1] fall on distinct FFT bins. Each set's matrix is
    bit for bit the one a pass for that set alone gives. The pass runs
    when the first matrix is asked for; each matrix's diagonal is
    verified against the closed-form eigenvalues as it is yielded, so a
    DiagonalMismatch comes with the first set that fails it."""
    lam = partition(lam)
    ps = list(ps)
    if not ps:
        return
    if any((p.n, p.q) != (ps[0].n, ps[0].q) for p in ps):
        raise DomainViolation("the parameter sets of one pass of D must "
                              "share n and q")
    mus = partitions_dominated_by(lam)
    n = ps[0].n
    K = 2 * lam[0] + 1
    Z, base = _nodes(n, K)
    fz, Df = _apply_D_rows([monomial_w(mu) for mu in mus], Z, ps)
    bins = (slice(None), slice(None)) + tuple(np.array(mus).T % K)
    # coefficient of z^mu = (FFT bin of mu) / (K^n b^mu)
    scale = K ** n * np.prod(base ** np.array(mus), axis=1)
    entries = np.fft.fftn(  # sets, rows lambda', columns mu
        Df.reshape((len(ps), len(mus)) + (K,) * n),
        axes=range(2, n + 2))[bins] / scale
    # the intermediate phi values inside _apply_D_rows grow like the
    # product of the two largest |t_i| while the result stays bounded, so
    # cancellation leaves absolute noise of that order times machine
    # epsilon; for strongly deformed parameters (|t_i| >> 1) that can
    # exceed a fixed tolerance on the O(1) eigenvalues
    mmax = float(np.max(np.abs(fz)))
    for p, E in zip(ps, entries):
        tmax = max(abs(ti) for ti in p.tvec)
        noise = 1e-12 * max(1.0, tmax * tmax) * mmax
        for k, mu in enumerate(mus):
            ek = eigenvalue_E(mu, p)
            if abs(E[k, k] - ek) > 1e-8 * max(1.0, abs(ek)) + noise:
                raise DiagonalMismatch(
                    f"diagonal at {mu}: got {E[k, k]}, closed form {ek}")
        yield TriangularOpMatrix(tuple(mus), E)


def op_matrix(lam: Sequence[int], p: AWParams) -> TriangularOpMatrix:
    """The triangular matrix of D on {m_mu : mu <= lambda} at p: the
    batch of one of op_matrices."""
    return next(op_matrices(lam, [p]))
