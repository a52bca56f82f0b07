"""The Askey-Wilson measures built from their distinct factors: moment
tables formed slab by slab against the whole Delta grid, the per-measure
chain tables against the scalar residue weights, and the per-factor pole
guards of the chain weights and of the little and big q-Jacobi weights."""

import math
import tracemalloc

import numpy as np
import pytest

from bcortho import big, little, measures
from bcortho.big import (
    BigParams,
    askey_evans_rhs,
    big_polynomials,
    bilinear_big,
    norm_big,
    selberg_big,
    selberg_big_qk,
    weight_big,
)
from bcortho.bcpoly import LaurentPolynomial
from bcortho.errors import (
    DomainViolation,
    PoleInWeight,
    SlowConvergence,
    ZeroProduct,
)
from bcortho.little import (
    LittleParams,
    bilinear_little,
    little_polynomials,
    norm_little,
    selberg_little,
    weight_little,
)
from bcortho.measures import (
    delta_d,
    interaction_c,
    multi_discrete_weight,
    support_F,
    wd_residue_weight,
)
from bcortho.params import AWParams
from bcortho.qseries import qpoch_finite, qpoch_infinite, qpoch_infinite_arr

PS = {n: AWParams(n, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)
      for n in (1, 2, 3)}
# two large parameters: chains of both kinds and chain-chain interactions
PC3 = AWParams(3, 0.5, 0.3, 3.5, -2.5, 0.25, 0.2)
# one chain; t = q^2 for the natural-t form
PK2 = AWParams(2, 0.5, 0.25, 1.1, -0.5, 0.3, 0.4)


def whole_grid_moments(grid, V):
    """(L, H) from the whole Delta grid: one einsum over all axes."""
    n = grid.ndim
    axes = "abc"[:n]
    spec = (axes + "," + ",".join(a + a.upper() for a in axes) + "->"
            + axes.upper())

    def mean(G, A):
        return np.einsum(spec, G, *[A] * n) / G.size

    even = (slice(None, None, 2),) * n
    return mean(grid, V), mean(grid[even], V[::2])


class TestSlabMoments:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("M", [24, 25])
    @pytest.mark.parametrize("factor", [False, True])
    @pytest.mark.parametrize("slabs", ["one", "many"])
    def test_equal_whole_grid(self, n, M, factor, slabs, monkeypatch):
        # D = 2; with many slabs of 16 leading points, M = 24, 25 end on
        # a partial one
        if slabs == "many":
            monkeypatch.setattr(measures, "_SLAB_POINTS", 1)
        p = PS[n]
        zvals, grid = measures._weight_grid(p, n, M)
        V = measures._vandermonde(zvals, 2)
        if factor:
            rng = np.random.default_rng(n * M)
            V = V * (rng.uniform(0.5, 2, M)
                     * np.exp(1j * rng.uniform(0, 6, M)))[:, None]
        got = measures._grid_moments(measures._factors(p, M, None), n, V)
        want = whole_grid_moments(grid, V)
        scale = whole_grid_moments(np.abs(grid), np.abs(V))
        for g, w, s in zip(got, want, scale):
            assert g.shape == w.shape == (5,) * n
            assert np.max(np.abs(g - w)) < 1e-13 * np.max(s)

    def test_weight_grid_is_the_product_of_the_factors(self):
        p = PS[2]
        zvals, wc, pair = measures._factors(p, 8, None)
        _, grid = measures._weight_grid(p, 2, 8)
        assert np.max(np.abs(grid - wc[:, None] * wc[None, :] * pair)) \
            < 1e-14 * np.max(np.abs(grid))

    def test_no_grid_in_memory(self):
        # the whole n = 3, M = 256 grid is 256^3 complex values, 268 MB
        p = PS[3]
        measures._factors(p, 256, None)
        measures._moment_table.cache_clear()
        tracemalloc.start()
        try:
            L, _H = measures._moment_table(p, 3, 256, None, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert L.shape == (1, 1, 1)
        assert peak < 32 * 2 ** 20


class TestChainTables:
    @pytest.mark.parametrize("p, M", [(PC3, 32), (PK2, 32)])
    def test_weights_equal_scalar_oracles(self, p, M):
        table = measures._chain_table(p, M)
        assert [(r, pt) for r, pt, _w, _row in table] == [
            (r, pt) for r in range(1, p.n + 1) for pt in support_F(r, p)]
        zvals = measures._grid_axes(M)
        crossed = 0
        for r, pt, w, row in table:
            want = multi_discrete_weight(pt.nu, p, pt.i_param)
            want *= multi_discrete_weight(pt.nu_prime, p, pt.j_param)
            want *= interaction_c(pt.omega_i, pt.omega_j, p)
            assert w == want
            crossed += bool(pt.omega_i and pt.omega_j)
            if r == p.n:
                assert row is None
                continue
            oracle = np.array([interaction_c(pt.omega, (z,), p)
                               for z in zvals])
            assert np.max(np.abs(row - oracle)) < 1e-13 * np.max(
                np.abs(oracle))
        assert (crossed > 0) == (p is PC3)

    def test_prefactor_once_per_chain_start(self, monkeypatch):
        starts, weights = [], []

        def counted(calls, real):
            def wrapper(*args):
                calls.append(args)
                return real(*args)
            return wrapper

        monkeypatch.setattr(measures, "_wd_prefactor", counted(
            starts, measures._wd_prefactor))
        monkeypatch.setattr(measures, "_wd_from_prefactor", counted(
            weights, measures._wd_from_prefactor))
        measures._chain_table(PC3, 32)
        # every chain start once, although most carry several points
        assert starts and len(starts) == len(set(starts))
        assert len(weights) > len(starts)


class TestPerFactorGuards:
    """Products far below the pole guard with no vanishing factor are
    accepted; a factor that vanishes still raises."""

    Q = 0.99

    @pytest.mark.parametrize("q, m", [(0.5, 12), (0.99, 300)])
    def test_array_kernel_far_along_the_chain(self, q, m):
        # the vanishing factor is the m-th: the array kernel tests factors
        # only while some |a q^j| is near 1
        with pytest.raises(ZeroProduct):
            qpoch_infinite_arr(np.array([0.3, q ** -m]), q,
                               require_nonzero=True)
        got = qpoch_infinite_arr(np.array([0.3, q ** -(m + 0.5)]), q,
                                 require_nonzero=True)
        assert np.all(np.isfinite(got)) and np.all(got != 0)

    def test_wd_i_factor(self):
        q, tau0, k, i = self.Q, 0.5, 14, 29
        # tau0 q / t1 = q^-(k + 0.5): factors 1 - q^(j-k-0.5), none near 0
        t1 = tau0 * q ** (k + 1.5)
        assert abs(qpoch_finite(tau0 * q / t1, q, i)) < 1e-30
        val = wd_residue_weight(i, tau0, t1, -0.9, -0.8, q)
        assert math.isfinite(abs(val)) and val != 0
        with pytest.raises(PoleInWeight):
            # tau0 q / t1 = q^-k, with k < i
            wd_residue_weight(i, tau0, tau0 * q ** (k + 1), -0.9, -0.8, q)

    def test_delta_d(self):
        q = self.Q
        p = AWParams(2, q, q ** 0.5, 1.5, 0.3, 0.2, 0.1)
        rk, rl = p.t0, p.t0 * p.t
        tiny = (qpoch_finite(rk * rl * q ** 40, q, 40)
                * qpoch_finite(rk / rl * q ** -40, q, 40))
        assert abs(tiny) < 1e-50
        assert math.isfinite(abs(delta_d((40, 40), p, 0)))
        # rk rl q^2 = 1: the first denominator factor of label (1, 2)
        t = 0.3
        pole = AWParams(2, q, t, 1.0 / math.sqrt(t * q ** 2), 0.3, 0.2, 0.1)
        with pytest.raises(PoleInWeight):
            delta_d((1, 2), pole, 0)

    def test_little(self):
        # (qbx;q)_inf = 5.7e-32 at the node x = 1
        lp = LittleParams(2, self.Q, 0.3, 0.4, 0.6)
        assert abs(qpoch_infinite(self.Q * 0.6, self.Q)) < 1e-30
        [(z, nu, w)] = little._node_table(lp)
        assert nu[:, 0].tolist() == [0, 0] and z[:, 0].tolist() == [1.0, 0.3]
        want = (1 - self.Q) ** 2 * weight_little((0, 0), lp) * 0.3
        assert w[0] > 0 and abs(w[0] - want) < 1e-13 * want
        with pytest.raises(DomainViolation):
            little._weight_at_point((1.0 / (self.Q * 0.6), 0.3), lp)

    def test_big(self):
        # (q a x / c;q)_inf is below 1e-50 at x = -1 and in the closed forms
        bp = BigParams(1, self.Q, self.Q, -0.9, 0.3, 1.0, 1.0)
        assert abs(qpoch_infinite(0.9 * self.Q, self.Q)) < 1e-50
        assert weight_big((-1.0,), bp) > 0
        z, a = big._axis_factors(bp, 0)
        assert z.ravel().tolist() == [1.0, -1.0]
        assert np.all(a > 0) and np.all(np.isfinite(a))
        assert abs(a[1, 0] - weight_big((-1.0,), bp)) < 1e-13 * a[1, 0]
        sel = selberg_big(bp)
        assert abs(norm_big((0,), bp) - sel) < 1e-12 * sel
        rhs = askey_evans_rhs(bp)
        assert abs(rhs - selberg_big_qk(bp)) < 1e-12 * rhs
        with pytest.raises(DomainViolation):
            # q a x / c = 1
            weight_big((1.0 / (self.Q * -0.9),), bp)


class TestTinyMasses:
    """The guards above let q = 0.99 measures with masses far below 1
    through; their node tables grow until the last shells are negligible
    against the table's own mass, so the pairings keep full relative
    precision."""

    @pytest.mark.parametrize("params, pairing, polynomials, norm, mass", [
        # masses 2.5e-94, 1.2e-146 (tables to 256 shells) and 2.4e-12
        (LittleParams(2, 0.99, 0.3, 0.4, 0.6), bilinear_little,
         little_polynomials, norm_little, selberg_little),
        (BigParams(2, 0.99, 0.4, 0.6, 0.3, 1, 0.8), bilinear_big,
         big_polynomials, norm_big, selberg_big),
        (LittleParams(2, 0.9, 0.3, 0.4, 0.2), bilinear_little,
         little_polynomials, norm_little, selberg_little),
    ], ids=["little-q0.99", "big-q0.99", "little-q0.9"])
    def test_pairings_match_closed_forms(self, params, pairing, polynomials,
                                         norm, mass):
        one = LaurentPolynomial.constant(2)
        want = mass(params)
        assert abs(pairing(one, one, params) - want) < 1e-12 * want
        for lam, P in polynomials((1, 1), params).items():
            f = P.to_laurent()
            want = norm(lam, params)
            assert abs(pairing(f, f, params) - want) < 1e-12 * want

    def test_unsettled_table_is_refused(self):
        # a = 1.9: the one-axis factors decay like q^(0.074 nu)
        one = LaurentPolynomial.constant(2)
        with pytest.raises(SlowConvergence):
            bilinear_little(one, one, LittleParams(2, 0.5, 0.3, 1.9, 0.2))
