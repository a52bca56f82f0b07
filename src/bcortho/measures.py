"""The Askey-Wilson orthogonality measure as one list of node tables.

Shifting the contour to the torus picks up the residues of the poles
t_i t^j q^s off the closed unit disk, so the measure is a torus part plus
discrete chains: the chamber table of the torus density
Delta = prod w_c(z_j) * delta(z;t), then one split table of F(r) per
split (none on the open disk), built by measure and held by the family
record (askey_wilson.family, bcpoly.Family.on_tables). partial_bilinear
pairs on that list, one bcpoly.pair per table added table by table, and
partial_gram builds its Gram matrix the same way, one bcpoly.gram per
table.

The torus part is the uniform tensor trapezoid rule on angles, spectrally
accurate for these analytic periodic integrands. Delta, the delta_c
factors and every pair of polynomials paired are invariant under the
hyperoctahedral group W, and so is the grid, and Delta vanishes on the
walls (z_j = +-1, z_i = z_j^(+-1)), so the mean is a sum over the open
chamber 0 < k_1 < ... < k_n < M/2 of grid indices, node k weighted by
Delta(z_k) 2^n n! / M^n. One table per (params, axes, grid) holds
the weights, built one leading index k_1 at a time from w_c(z_k),
k <= M/2, and one real table of the pair factors (_pair_table), and the
nodes, built on first use: a pairing of constants, the constant term,
reads the weights alone.
For conjugation-closed parameters (AWParams.conj_closed) Delta is real on
the torus, and w_c, the weights and the delta_c rows of a real chain are
formed in real arithmetic; other parameters keep the complex forms. On a
table a polynomial is the sum of its W-orbit sums m_lambda, each a sum of
products of per-axis cosine rows, cached per table (a constant stays a
scalar and reads no node); NotWInvariant for any other input. A grid
with M < 2 deg + 8 points per axis, deg the total degree of f g, raises
GridTooCoarse. A pole chain value t_i t^j q^s (j < n, s >= 0) within
TORUS_GUARD of the circle raises NearPole.

The discrete supports are never truncated: each chain position runs to
the last support value off the closed unit disk (SlowConvergence past
MAX_CHAIN values). Split labels come from bcpoly._chain_labels and are
weighed by bcpoly._label_weights, as the little and big q-Jacobi tables
are: by Delta^(d) = K_r Delta^qR a weight is K_l K_m times the Delta^qR
one-axis and in-chain pair factors (cumulative products of per-step
ratios, which neither underflow nor overflow on long chains), times the
cross-chain delta_c factors. Each split is one bcpoly.PointTable:
its labels' points for r = n, and for r < n every label times every node
of the chamber table of the other n - r axes, the label's delta_c rows
multiplied into the node weights at build. The scalar residue forms stay
as the references.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import combinations, permutations
from itertools import product as iter_product
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .bcpoly import (
    LaurentPolynomial,
    PointTable,
    _chain_labels,
    _label_weights,
    gram,
    pair,
)
from .errors import (
    DomainViolation,
    GridTooCoarse,
    LengthMismatch,
    NearPole,
    NonFiniteWeight,
    NonPositiveWeight,
    PoleInWeight,
    SlowConvergence,
    ZeroProduct,
)
from .params import AWParams
from .qseries import (
    POLE_GUARD,
    qpoch_finite,
    qpoch_infinite_arr,
    qpoch_real_arr,
)
from .qracah import kr_constant

TORUS_GUARD = 1e-9
# a chain position holds at most this many support values
MAX_CHAIN = 256


# ---------------------------------------------------------------------------
# torus quadrature: one W-chamber node table per measure

def _grid_axes(M: int) -> np.ndarray:
    ang = 2.0 * np.pi * np.arange(M) / M
    return np.exp(1j * ang)


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real ** 2 + x.imag ** 2


def _axis_wc(zvals: np.ndarray, p: AWParams) -> np.ndarray:
    """w_c(z) for every z of zvals, on the unit circle. For
    conjugation-closed parameters (AWParams.conj_closed) each factor 1/z
    of (z^-2, t_i/z;q)_inf is the conjugate of a factor z of the others,
    so w_c = |(z^2;q)_inf|^2 / prod_i |(t_i z;q)_inf|^2, real: one kernel
    call on those 1 + 4 arguments stacked. Otherwise complex: one call on
    the numerator's two arguments stacked and one on the denominator's
    eight."""
    try:
        if p.conj_closed():
            f = _abs2(qpoch_infinite_arr(
                np.stack([zvals ** 2] + [ti * zvals for ti in p.tvec]), p.q,
                require_nonzero=[[False]] + [[True]] * 4))
            return f[0] / (f[1] * f[2] * f[3] * f[4])
        num = qpoch_infinite_arr(np.stack([zvals ** 2, zvals ** -2]), p.q)
        den = qpoch_infinite_arr(np.stack([
            x for ti in p.tvec for x in (ti * zvals, ti / zvals)]), p.q,
            require_nonzero=True)
    except ZeroProduct as exc:
        raise NearPole("w_c pole on the quadrature grid") from exc
    return num[0] * num[1] / np.prod(den, axis=0)


def _pair_table(p: AWParams, M: int) -> np.ndarray:
    """The four pair factors of two axes at grid indices a, b < M/2, in
    one real number: P[a, b] = |R(w^(a+b))|^2 |R(w^(b-a))|^2 with
    w = e^(2 pi i / M) and R(z) = (z;q)_tau, as R(w^-m) = conj R(w^m) for
    real q and t (a negative index is read modulo M)."""
    roots = _grid_axes(M)
    R2 = np.abs(qpoch_infinite_arr(roots, p.q)
                / qpoch_infinite_arr(roots * p.t, p.q)) ** 2
    k = np.arange((M + 1) // 2)
    return R2[k[:, None] + k] * R2[k - k[:, None]]


def _chamber_nodes(n_axes: int, top: int) -> np.ndarray:
    """The open chamber 0 < k_1 < ... < k_n <= top as int16 columns, in
    lexicographic order: on two axes the strict upper triangle, and on
    each further axis, for each k_1, k_1 over the suffix of the chamber of
    one axis fewer whose first index exceeds k_1."""
    lead = np.arange(1, top + 1, dtype=np.int16)
    if n_axes == 1:
        return lead[None]
    nodes = np.array(np.triu_indices(top, 1), dtype=np.int16) + 1
    for _ in range(n_axes - 2):
        starts = np.searchsorted(nodes[0], lead, "right")
        counts = nodes.shape[1] - starts
        out = np.empty((len(nodes) + 1, np.sum(counts)), dtype=np.int16)
        out[0] = np.repeat(lead, counts)
        lo = 0
        for s, c in zip(starts.tolist(), counts.tolist()):
            out[1:, lo:lo + c] = nodes[:, s:]
            lo += c
        nodes = out
    return nodes


def _lead_weights(tail: np.ndarray, P: np.ndarray, wc: np.ndarray,
                  const: float, top: int) -> np.ndarray:
    """The weights of the chamber nodes of three or more axes, one leading
    index k_1 = 1..top at a time, in the dtype of wc: real for a real
    density (_axis_wc), so each block multiplies reals. tail is the block
    of k_1 = 1 without its first row, the chamber of one axis fewer whose
    first index exceeds 1; it holds the tail of every other block: the
    block of k_1 is k_1 over the suffix of that tail whose first index
    exceeds k_1. The tail's pair and axis factors are gathered once; each
    block reads slices of them and one row P[k_1] per tail axis. The real
    factors may be multiplied in place, but each product of axis factors
    is formed in a fresh array: numpy's in-place complex loop rounds
    differently. The last product, real times complex, rounds the same
    either way."""
    T = tail.astype(np.intp)
    first, *rest = T
    tail_pairs = [P[a, b] for a, b in combinations(T, 2)]
    wc_first, *wc_rest = [wc[k] for k in T]
    # row lists: a block reads its rows without a new view each
    cP, P, wc = list(const * P), list(P), wc.tolist()
    starts = np.searchsorted(first, np.arange(1, top + 1), "right")
    starts = starts[starts < len(first)]
    weights = np.empty(int(np.sum(len(first) - starts)),
                       dtype=wc_first.dtype)
    lo = 0
    for k, s in enumerate(starts.tolist(), start=1):
        hi = lo + len(first) - s
        w = cP[k][first[s:]]
        for t in rest:
            w *= P[k][t[s:]]
        for x in tail_pairs:
            w *= x[s:]
        ax = wc[k] * wc_first[s:]
        for x in wc_rest:
            ax = ax * x[s:]
        np.multiply(w, ax, out=weights[lo:hi])
        lo = hi
    return weights


class _Chamber:
    """The M-point trapezoid rule of Delta on n_axes axes, folded onto the
    open W-chamber: the nodes (int16 columns k, 0 < k_1 < ... < k_n < M/2)
    and the weights Delta(z_k) 2^n n! / M^n_axes, 2^n n! the size of every
    node's orbit, in the dtype of w_c: float64 for conjugation-closed
    parameters, where Delta is real on the torus, else complex128. One
    axis reads w_c on the chamber axis, two the strict upper triangle of
    the pair table times w_c(z_a) w_c(z_b), and three or more are built one
    leading index at a time (_lead_weights) from the chamber of one axis
    fewer. The weights never read the nodes: those are built on first use
    (orbit_sum, or _discrete_table reading a chamber of n - r axes), so a
    pairing of constants holds the weights alone."""

    def __init__(self, p: AWParams, n_axes: int, M: int):
        roots = _grid_axes(M)
        half, top = M // 2, (M - 1) // 2
        self.axis = roots[:half + 1]
        self.cos = roots.real
        self.M = M
        self.n_axes = n_axes
        wc = _axis_wc(self.axis, p)
        const = 2 ** n_axes * math.factorial(n_axes) / M ** n_axes
        # each weight is const times the real pair factors P[k_i, k_j] in
        # (i, j) combinations order, times the axis factors
        # w_c(z_k_1) ... w_c(z_k_n) multiplied left to right
        if n_axes == 1:
            self.weights = const * wc[1:top + 1]
        elif n_axes == 2:
            i, j = np.triu_indices(top, 1)
            i += 1
            j += 1
            self.weights = (const * _pair_table(p, M)[i, j]) * (wc[i] * wc[j])
        else:
            self.weights = _lead_weights(
                _chamber_nodes(n_axes - 1, top - 1) + 1, _pair_table(p, M),
                wc, const, top)
        self._sums: Dict[Tuple[int, ...], np.ndarray] = {}

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        """The open chamber 0 < k_1 < ... < k_n < M/2 (_chamber_nodes),
        built on first use."""
        return _chamber_nodes(self.n_axes, (self.M - 1) // 2)

    def orbit_sum(self, lam: Tuple[int, ...]) -> np.ndarray:
        """m_lambda at every node, real on the torus: the sum over the
        distinct permutations pi of lambda of prod_i c_pi_i(z_k_i), with
        c_l(z) = z^l + z^-l = 2 cos(2 pi l k / M) for l > 0 and c_0 = 1
        (the sign choices of each axis summed apart), multiplied in axis
        order. Each row c_l(z_k_i) is gathered once per axis i; lambda is
        not 0 (at_nodes keeps a constant a scalar)."""
        if lam not in self._sums:
            rows: Dict[Tuple[int, int], np.ndarray] = {}

            def row(i: int, l: int) -> np.ndarray:
                if (i, l) not in rows:
                    k = np.arange(len(self.axis))
                    c = 2.0 * self.cos[l * k % self.M]
                    rows[i, l] = c[self.nodes[i]]
                return rows[i, l]

            s = np.zeros(self.nodes.shape[1])
            for perm in sorted(set(permutations(lam))):
                s += math.prod(row(i, l) for i, l in enumerate(perm) if l)
            self._sums[lam] = s
        return self._sums[lam]

    def at_nodes(self, f: LaurentPolynomial) -> np.ndarray:
        """sum_mu c_mu m_mu at every node for f = sum_mu c_mu m_mu, or a
        single value for a constant, which reads no orbit sum and so no
        node. The orbit sums are real, so the real and imaginary parts of
        the coefficients are summed apart, in real arithmetic."""
        parts = [np.zeros(1), np.zeros(1)]
        for mu, c in sorted(f.w_coefficients().items()):
            S = self.orbit_sum(mu) if any(mu) else 1.0
            parts = [part + x * S for part, x in zip(parts, (c.real, c.imag))]
        return parts[0] + 1j * parts[1] if parts[1].any() else parts[0]


def _pairing_degree(f: LaurentPolynomial, g: LaurentPolynomial) -> int:
    """Largest total degree of f * g for W-invariant f and g: the sum of
    their largest orbit degrees, reached by one product of orbit members
    with aligned signs, which cannot cancel."""
    if f.nvars != g.nvars:
        raise LengthMismatch("variable count mismatch")
    degs = [[sum(lam) for lam in h.w_coefficients()] for h in (f, g)]
    return sum(map(max, degs)) if all(degs) else 0


def _check_torus_clearance(p: AWParams) -> None:
    """Reject parameters with a pole chain value within guard distance of
    the unit circle (the measure-zero exclusion t_i t^j q^s on T): the
    values t_i t^j q^s, j = 0..n-1 and s >= 0, that _chain_ends runs
    through."""
    for ti in p.tvec:
        for j in range(p.n):
            m = abs(ti) * p.t ** j
            if m == 0:
                continue
            # m q^s = 1 for real s; check the nearest integers s >= 0
            s = -math.log(m) / math.log(p.q)
            for sr in (math.floor(s), math.ceil(s)):
                if sr >= 0 and abs(m * p.q ** sr - 1.0) < TORUS_GUARD:
                    raise NearPole(
                        f"parameter chain value t_i t^{j} q^{sr} on torus")


def _check_grid(f: LaurentPolynomial, g: LaurentPolynomial, p: AWParams,
                M: int) -> None:
    """Reject a pairing the M-point grid cannot resolve or hold."""
    deg = _pairing_degree(f, g)
    if M < 2 * deg + 8:
        raise GridTooCoarse(f"M={M} too small for degree {deg}")
    _check_torus_clearance(p)
    if f.nvars != p.n:
        raise LengthMismatch("grid has wrong number of axes")


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
    # (tau0^-2;q)_inf over the guarded (q, tau0 tk, tk/tau0;q)_inf
    try:
        num, *dens = qpoch_infinite_arr(
            [tau0 ** -2, q] + [x for tk in (tau1, tau2, tau3)
                               for x in (tau0 * tk, tk / tau0)],
            q, [False] + [True] * 7).tolist()
    except ZeroProduct as exc:
        raise PoleInWeight("vanishing denominator in w_d prefactor") from exc
    val = num / math.prod(dens)
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
            args = [rl / rk * q ** (nl - nk), q ** (-nk - nl) / (rk * rl)]
            for x in qpoch_real_arr(np.array(args), q, t).tolist():
                val *= x
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


def _interaction_c_rows(ws: np.ndarray, xs: np.ndarray, p: AWParams,
                        on_circle: bool = False) -> np.ndarray:
    """delta_c((w,); (x,)) for every w of ws (rows) and x of xs. For a
    real chain, ws real, of conjugation-closed parameters against points
    xs on the unit circle, w/x and x/w are the conjugates of w x and
    1/(w x), so the rows are |(w x;q)_tau|^2 |(1/(w x);q)_tau|^2, real:
    one kernel call on those two arguments stacked. Otherwise, as for
    every unpaired complex parameter set, one call on the four stacked."""
    w, x = ws[:, None], xs[None, :]
    if on_circle and not w.imag.any() and p.conj_closed():
        wx = w.real * x
        f = _abs2(qpoch_real_arr(np.stack([wx, 1.0 / wx]), p.q, p.t))
        return f[0] * f[1]
    f = qpoch_real_arr(np.stack([w * x, w / x, x / w, 1.0 / (w * x)]),
                       p.q, p.t)
    return f[0] * f[1] * f[2] * f[3]


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


def _split_labels(p: AWParams, M: int) -> tuple:
    """The labels of every split l + m = r of F(r), r = 1..n, as
    ((l, nu, z, w, row), ...): the labels nu (one column per label, nu on
    the chain of t_i in its first l rows, nu' on that of t_j in the other
    m), the support values z[i] that row i of nu indexes, the weights
    Delta^(d)(nu) Delta^(d)(nu') delta_c(omega; omega') of the labels'
    points omega and, for r < n, their delta_c rows over the chamber axis
    k <= M/2 of the M-point grid (one row per label; None for r = n),
    real for a real chain of conjugation-closed parameters. Weights whose
    imaginary parts are all exactly 0, as those of real parameters are,
    are kept as their real parts. On V_AW a weight that is not real and
    nonnegative raises NonPositiveWeight: the one positivity test of the
    partially discrete measure."""
    n = p.n
    large = _large_params(p)
    i_param = large[0] if large else 0
    j_param = large[1] if len(large) > 1 else (1 if i_param == 0 else 0)
    zvals = _grid_axes(M)[:M // 2 + 1]
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
                rows[c, k] = _interaction_c_rows(values[c, k], zvals, p,
                                                 on_circle=True)
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
                               lambda a, b: pairs[axes[a], axes[b]],
                               f"the split ({l}, {r - l})")
            if p.in_V_AW():
                bad = np.flatnonzero((np.abs(w.imag) > 1e-9 * np.abs(w))
                                     | (w.real < 0))
                if bad.size:
                    raise NonPositiveWeight(
                        f"discrete weight {w[bad[0]]} not real and "
                        f"nonnegative at the label {nu[:, bad[0]].tolist()} "
                        f"of the split ({l}, {r - l})")
            # real parameters give imaginary parts exactly 0: keep the
            # real parts, bit for bit
            w = w if w.imag.any() else w.real
            row = (np.prod([rows[ax][lab] for ax, lab in zip(axes, nu)],
                           axis=0) if r < n else None)
            table.append((l, nu, [values[ax] for ax in axes], w, row))
    return tuple(table)


def _discrete_table(p: AWParams, M: int) -> Tuple[PointTable, ...]:
    """One PointTable per split of F(r). For r = n a node is a label's
    point; for r < n the nodes are every label times every node of the
    chamber table of the other n - r axes (built once per n - r),
    label-major, the trailing coordinates read on the chamber axis. A node's weight is
    2^r n! / (n - r)! times its label's weight, times the label's delta_c
    row at each trailing coordinate, times the chamber weight: real where
    all of these are. On V_AW every parameter of modulus >= 1 is real (a
    conjugate pair u, u-bar off the open disk has t_k t_l = |u|^2 >= 1),
    so every chain is real and a node weight is a label weight, tested
    nonnegative where it is made (_split_labels), times squared moduli:
    the real chain's delta_c rows and the chamber weight."""
    n = p.n
    out = []
    chambers = functools.cache(lambda axes: _Chamber(p, axes, M))
    for _l, nu, z, w, row in _split_labels(p, M):
        r = len(nu)
        w = 2 ** r * math.perm(n, r) * w
        if r < n:
            chamber = chambers(n - r)
            k = chamber.nodes
            w = (w[:, None] * np.prod([row[:, kj] for kj in k], axis=0)
                 * chamber.weights).ravel()
            z = z + [chamber.axis] * (n - r)
            nu = np.vstack([np.repeat(nu, k.shape[1], axis=1),
                            np.tile(k, nu.shape[1])])
        out.append(PointTable(z, nu, w))
    return tuple(out)


# ---------------------------------------------------------------------------
# partially discrete bilinear form

def measure(p: AWParams, M: int) -> tuple:
    """The node tables of the measure on the M-point grid: the chamber
    table, then the split tables."""
    return (_Chamber(p, p.n, M), *_discrete_table(p, M))


def partial_bilinear(f: LaurentPolynomial, g: LaurentPolynomial,
                     tables: Iterable, p: AWParams, M: int) -> complex:
    """<f,g> for W-invariant f and g on the tables of measure(p, M): one
    bcpoly.pair per table, added table by table from 0j, once the grid
    check has passed. The form is bilinear, so its value need not be
    real; the positivity of the measure on V_AW is tested once, on the
    label weights (_split_labels)."""
    _check_grid(f, g, p, M)
    total = 0j
    for table in tables:
        total += pair(f, g, [table])
    return total


def partial_gram(polys: Sequence[LaurentPolynomial], tables: Iterable,
                 p: AWParams, M: int) -> np.ndarray:
    """The Gram matrix of partial_bilinear on the same tables: one
    bcpoly.gram per table, added from 0, so entry a <= b is
    partial_bilinear(P_a, P_b) bit for bit. The grid must resolve the
    pair of highest degree, checked once, before any table is read."""
    if any(f.nvars != p.n for f in polys):
        raise LengthMismatch("grid has wrong number of axes")
    top = max(polys, key=lambda f: _pairing_degree(f, f))
    _check_grid(top, top, p, M)
    G = np.zeros((len(polys), len(polys)), dtype=complex)
    for table in tables:
        G += gram(polys, [table])
    return G
