"""The Askey-Wilson measures built from their distinct factors: chamber
tables against the whole Delta grid and, bit for bit, against the slab
build they replaced, the per-measure
chain tables against the scalar residue weights, and the per-factor pole
guards of the chain weights and of the little and big q-Jacobi weights."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from bcortho import askey_wilson, big, little, measures
from bcortho.askey_wilson import gustafson_constant
from bcortho.big import (
    BigParams,
    askey_evans_rhs,
    norm_big,
    selberg_big,
    selberg_big_qk,
    weight_big,
)
from bcortho.bcpoly import (
    LaurentPolynomial,
    PointTable,
    monomial_w,
    pair,
    partitions_dominated_by,
)
from bcortho.errors import (
    DomainViolation,
    NearPole,
    PoleInWeight,
    SlowConvergence,
    ZeroProduct,
)
from bcortho.little import LittleParams
from bcortho.measures import (
    delta_d,
    multi_discrete_weight,
    wd_residue_weight,
)
from bcortho.params import AWParams
from bcortho.qseries import qpoch_finite, qpoch_infinite, qpoch_infinite_arr
from oracles import (
    axis_wc_complex,
    chamber_slabs,
    interaction_c,
    interaction_c_rows_complex,
    little_weight_at_point,
    table_nodes,
    weight_continuous,
    weight_little,
)
from test_moment_tables import weight_grid

PS = {n: AWParams(n, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)
      for n in (1, 2, 3)}
# two large parameters: chains of both kinds and chain-chain interactions
PC3 = AWParams(3, 0.5, 0.3, 3.5, -2.5, 0.25, 0.2)
# one chain; t = q^2 for the natural-t form
PK2 = AWParams(2, 0.5, 0.25, 1.1, -0.5, 0.3, 0.4)


def random_invariant(rng, n):
    """A random complex combination of the W-orbit sums up to (1, 1, 1)."""
    out = LaurentPolynomial(n)
    for mu in partitions_dominated_by((1,) * n):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        out = out + monomial_w(mu).scale(c)
    return out


def inversion_symmetric(rng, M):
    """A random per-axis factor phi(z_k) = phi(z_{M-k}), like a delta_c
    row: (phi on the chamber axis, phi on the whole grid axis)."""
    half = rng.uniform(0.5, 2, M // 2 + 1) * np.exp(
        1j * rng.uniform(0, 6, M // 2 + 1))
    return half, half[np.minimum(np.arange(M), M - np.arange(M))]


class TestSlabMoments:
    """Chamber pairings against the whole Delta grid, with and without a
    per-axis factor, summed over one table or over the table's blocks of
    one leading index k_1, the blocks the build forms. The factor is
    multiplied into the chamber weights as a split table of F(r) does
    with its labels' delta_c rows: one PointTable whose axes read the
    chamber axis at the node indices."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("M", [24, 25])
    @pytest.mark.parametrize("factor", [False, True])
    @pytest.mark.parametrize("tables", ["one", "many"])
    def test_equal_whole_grid(self, n, M, factor, tables):
        p = PS[n]
        f = random_invariant(random.Random(n * M), n)
        g = LaurentPolynomial.constant(n)
        rng = np.random.default_rng(n * M)
        half, whole = inversion_symmetric(rng, M)
        if not factor:
            half, whole = np.ones_like(half), np.ones_like(whole)
        z, grid = weight_grid(p, n, M)
        for a in range(n):
            sh = [1] * n
            sh[a] = M
            grid = grid * whole.reshape(sh)
        G = f.eval_grid([z] * n) * grid
        table = measures._Chamber(p, n, M)
        w = np.prod([half[k] for k in table.nodes], axis=0) * table.weights
        cuts = [0, len(w)]
        if tables == "many":
            # one block per leading index, in node order
            lead = table.nodes[0]
            cuts[1:1] = (np.flatnonzero(np.diff(lead)) + 1).tolist()
            assert len(cuts) - 1 == len(np.unique(lead))
        got = pair(f, g, [PointTable([table.axis] * n, table.nodes[:, a:b],
                                     w[a:b])
                          for a, b in zip(cuts, cuts[1:])])
        assert abs(got - np.mean(G)) < 1e-13 * np.mean(np.abs(G))

    def test_weight_grid_is_the_product_of_the_factors(self):
        # each chamber weight is 2^n n! / M^n times Delta at its node,
        # read off the scalar density
        p, M = PS[2], 8
        table = measures._Chamber(p, 2, M)
        for k, w in zip(table.nodes.T.tolist(), table.weights):
            want = weight_continuous(list(table.axis[k]), p) * 8 / M ** 2
            assert abs(w - want) < 1e-13 * max(1.0, abs(want))

    def test_no_grid_in_memory(self):
        # the n = 3, M = 256 chamber holds 333,375 nodes (the whole grid
        # is 256^3 complex values, 268 MB); built one leading index at a
        # time from the two-axis tail of the block k_1 = 1 (7,875 nodes
        # over 2..127), its peak is the finished table, 2,667,000 B of
        # real weights (a conjugate pair), plus the tail's gathered index,
        # pair and axis rows (5 x 8 B per tail node), the pair table and
        # one block's products. The int16 node list (2,000,250 B) is not
        # built: <1,1> does not read it. A complex table alone, 5.3 MB,
        # exceeds the bound
        p = PS[3]
        tail = 5 * 8 * math.comb(126, 2)
        tracemalloc.start()
        try:
            [table] = tables = measures.measure(p, 256)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.weights.dtype == np.float64
        assert peak <= 1.25 * (table.weights.nbytes + tail)
        one = LaurentPolynomial.constant(3)
        measures.partial_bilinear(one, one, tables, p, 256)
        assert "nodes" not in table.__dict__
        assert table.nodes.shape == (3, 333375)


# real parameters, one large parameter, conjugate pairs (one of them
# with q = 0.9) and unpaired complex ones off V_AW
BUILD_PARAMS = {"real": AWParams(3, 0.5, 0.3, 0.35, -0.45, 0.25, 0.2),
                "t0=1.1": AWParams(3, 0.5, 0.3, 1.1, -0.45, 0.25, 0.2),
                "complex": AWParams(3, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j,
                                    0.3 + 0.1j),
                "pair": AWParams(3, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j,
                                 0.3 - 0.4j),
                "q=0.9-pair": AWParams(3, 0.9, 0.3, 0.35, 0.2 - 0.5j,
                                       -0.45, 0.2 + 0.5j)}
BUILD_CASES = [pytest.param(p, n, M, id=f"{name}-{n}-{M}")
               for name, p in BUILD_PARAMS.items() for n in (1, 2, 3)
               for M in (8, 9, 16, 33, 64, 128, 256)] + [
    pytest.param(BUILD_PARAMS["real"], 4, 48, id="real-4-48"),
    pytest.param(AWParams(2, 0.99, 0.3, 0.35, -0.45, 0.25, 0.2), 2, 256,
                 id="q=0.99-2-256")]


class TestChamberBuild:
    @pytest.mark.parametrize("p, n, M", BUILD_CASES)
    def test_equals_slab_build(self, p, n, M):
        # one leading index at a time, the nodes and weights are those of
        # the slab build, bit for bit, except on a table of one node: there
        # the slab build's product of the axis factors over one column took
        # numpy's scalar reduction loop, which can round a complex product
        # in the last bit where the vector loop, used for every other
        # node, does not
        table = measures._Chamber(p, n, M)
        nodes, weights = chamber_slabs(p, n, M)
        assert table.nodes.dtype == np.int16
        assert table.nodes.tobytes() == nodes.tobytes()
        if p.conj_closed():
            assert table.weights.dtype == np.float64
        else:
            # unpaired complex parameters keep the complex density, bit
            # for bit
            assert table.weights.dtype == np.complex128
            assert weights.tobytes() == chamber_slabs(
                p, n, M, axis_wc_complex)[1].tobytes()
        assert weights.dtype == table.weights.dtype
        if n > 1 and len(weights) == 1:
            assert table.weights.shape == (1,)
            assert abs(table.weights[0] - weights[0]) <= 4e-16 * abs(
                weights[0])
        else:
            assert table.weights.tobytes() == weights.tobytes()

    @pytest.mark.parametrize("n, M", [(2, 5), (2, 6), (3, 8), (4, 10)])
    def test_one_node(self, n, M):
        # the node 1, 2, ..., n weighed as every other node is: const
        # times the pair factors in combinations order, times the axis
        # factors left to right
        p = BUILD_PARAMS["complex"]
        table = measures._Chamber(p, n, M)
        wc = measures._axis_wc(table.axis, p)
        P = measures._pair_table(p, M)
        w = 2 ** n * math.factorial(n) / M ** n
        for i, j in itertools.combinations(range(1, n + 1), 2):
            w = w * P[i, j]
        ax = wc[1:2]
        for k in range(2, n + 1):
            ax = ax * wc[k:k + 1]
        assert table.nodes.T.tolist() == [list(range(1, n + 1))]
        assert table.weights.tobytes() == (w * ax).tobytes()


CLOSED_CASES = [case for case in BUILD_CASES if case.values[0].conj_closed()]


class TestRealDensity:
    """For conjugation-closed parameters w_c, the delta_c rows of a real
    chain on the circle and the chamber weights are real, and match
    their complex forms to rounding; other parameters keep the complex
    forms bit for bit."""

    def test_conj_closed(self):
        def closed(*tv):
            return AWParams(2, 0.5, 0.3, *tv).conj_closed()

        assert closed(0.35, -0.45, 0.25, 0.2)
        assert closed(1.1, -0.45, 0.3 + 0.4j, 0.3 - 0.4j)
        assert closed(0.3 + 0.4j, 0.1, 0.3 - 0.4j, -0.2)
        assert closed(0.3 + 0.4j, 0.3 - 0.4j, 0.1j, -0.1j)
        # a conjugate within 1e-10 pairs, and so is a real part
        assert closed(0.3 + 0.4j, 0.3 - (0.4 - 1e-12) * 1j, 0.25 + 1e-12j,
                      0.2)
        assert not closed(0.6, -0.5, 0.3 + 0.4j, 0.3 + 0.1j)
        assert not closed(0.3 + 0.4j, 0.3 + 0.4j, 0.25, 0.2)
        assert not closed(0.3 + 0.4j, 0.3 - 0.4j, 0.3 + 0.4j, 0.2)
        assert not closed(0.3 + 0.4j, 0.3 - 0.41j, 0.25, 0.2)
        # off V_AW through the pairing alone
        p = AWParams(2, 0.5, 0.3, 0.3 + 0.4j, 0.25, 0.2, 0.1)
        assert not p.conj_closed() and not p.in_V_AW()

    @pytest.mark.parametrize("name", sorted(BUILD_PARAMS))
    @pytest.mark.parametrize("M", [8, 9, 33, 128, 256])
    def test_wc(self, name, M):
        p = BUILD_PARAMS[name]
        z = measures._grid_axes(M)[:M // 2 + 1]
        got, want = measures._axis_wc(z, p), axis_wc_complex(z, p)
        if p.conj_closed():
            assert got.dtype == np.float64 and np.all(got >= 0)
            assert np.max(np.abs(got - want)) <= 5e-14 * np.max(np.abs(want))
        else:
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("tv, z", [
        ((2.0, -0.45, 0.25, 0.2), 1.0),
        ((2j, -2j, 0.25, 0.2), 1j),
        ((2j, -0.45, 0.25, 0.2), -1j),
        ((2j, -0.45, 0.25, 0.2), 1j)],
        ids=["real", "pair-t/z", "complex-tz", "complex-t/z"])
    def test_pole_on_the_grid(self, tv, z):
        # t_i z q = 1 or t_i q / z = 1 at a grid point: the real form
        # guards t_i z for every t_i, which covers t_i / z through the
        # conjugate of t_i
        p = AWParams(1, 0.5, 0.3, *tv)
        zs = np.array([z, 1j ** 0.5], dtype=complex)
        with pytest.raises(NearPole, match="w_c pole"):
            measures._axis_wc(zs, p)

    @pytest.mark.parametrize("p", [PC3, PK2, BUILD_PARAMS["t0=1.1"],
                                   AWParams(2, 0.9, 0.3, 1.1, 0.2 - 0.5j,
                                            -0.45, 0.2 + 0.5j),
                                   AWParams(2, 0.99, 0.3, 1.1, -0.45, 0.25,
                                            0.2)],
                             ids=["PC3", "PK2", "t0=1.1", "q=0.9-pair",
                                  "q=0.99"])
    @pytest.mark.parametrize("M", [8, 33, 64, 256])
    def test_real_chain_rows(self, p, M):
        # a real chain against the circle: two conjugate pairs of
        # arguments, so two arguments give the real rows
        z = measures._grid_axes(M)[:M // 2 + 1]
        runs = 0
        for c in measures._large_params(p):
            for k, end in enumerate(measures._chain_ends(p, c)):
                if not end:
                    continue
                ws = p.tvec[c] * p.t ** k * p.q ** np.arange(end)
                got = measures._interaction_c_rows(ws, z, p, on_circle=True)
                want = interaction_c_rows_complex(ws, z, p)
                assert got.dtype == np.float64 and np.all(got >= 0)
                assert np.max(np.abs(got - want)) <= 5e-14 * np.max(
                    np.abs(want))
                runs += 1
        assert runs

    def test_other_rows_stay_complex(self):
        # a complex chain on the circle, a real chain against another
        # chain, and a real chain of unpaired complex parameters take the
        # four arguments, bit for bit
        p = AWParams(2, 0.5, 0.3, 1.1 + 0.2j, -2.5, 0.25, 0.2)
        unpaired = AWParams(2, 0.5, 0.3, 1.1, -2.5, 0.3 + 0.4j, 0.2)
        z = measures._grid_axes(32)[:17]
        ws = p.tvec[0] * p.q ** np.arange(3)
        xs = p.tvec[1] * p.q ** np.arange(4)
        for w, x, circle, pw in [(ws, z, True, p), (xs, ws, False, p),
                                 (xs, xs.conj(), False, p),
                                 (xs, z, True, unpaired)]:
            got = measures._interaction_c_rows(w, x, pw, on_circle=circle)
            assert got.tobytes() == interaction_c_rows_complex(
                w, x, pw).tobytes()

    @pytest.mark.parametrize("p, n, M", CLOSED_CASES)
    def test_chamber_weights(self, p, n, M):
        got = measures._Chamber(p, n, M).weights
        want = chamber_slabs(p, n, M, axis_wc_complex)[1]
        assert got.dtype == np.float64 and want.dtype == np.complex128
        assert np.max(np.abs(got - want), initial=0) <= 5e-14 * np.max(
            np.abs(want), initial=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_sweep_nonnegative(self, seed):
        # conjugation-closed sets, real or in pairs, some with one
        # parameter off the unit disk: every chamber weight is a finite
        # real >= 0, and the density is not identically 0
        rng = random.Random(seed)
        for _ in range(15):
            tv = []
            while len(tv) < 4:
                r = rng.uniform(0.05, 0.95)
                if len(tv) < 3 and rng.random() < 0.4:
                    x = r * complex(math.cos(a := rng.uniform(0.1, 3.0)),
                                    math.sin(a))
                    tv += [x, x.conjugate()]
                else:
                    tv.append(r * rng.choice((-1, 1)))
            real = [i for i, x in enumerate(tv) if not isinstance(x, complex)]
            if real and rng.random() < 0.3:
                tv[rng.choice(real)] = rng.uniform(1.01, 3.0)
            rng.shuffle(tv)
            p = AWParams(rng.choice((1, 2, 3)), rng.uniform(0.1, 0.9),
                         rng.uniform(0.05, 0.95), *tv)
            w = measures._Chamber(p, p.n, rng.choice((16, 25, 32))).weights
            assert p.conj_closed() and w.dtype == np.float64, p
            assert np.all(np.isfinite(w)) and np.all(w >= 0), p
            assert np.any(w > 0), p

    @pytest.mark.parametrize("p", [PC3, PK2, BUILD_PARAMS["t0=1.1"]],
                             ids=["PC3", "PK2", "t0=1.1"])
    def test_real_chain_label_weights_keep_their_bits(self, p, monkeypatch):
        # the complex label weights of real parameters have imaginary
        # part exactly 0; the split keeps their real parts bit for bit,
        # and so its node table is real
        made = []
        label_weights = measures._label_weights

        def recording(*args):
            made.append(label_weights(*args))
            return made[-1]

        monkeypatch.setattr(measures, "_label_weights", recording)
        splits = measures._split_labels(p, 16)
        assert len(made) == len(splits) > 0
        for (_l, _nu, _z, w, _row), old in zip(splits, made):
            assert old.dtype == np.complex128 and not old.imag.any()
            assert w.dtype == np.float64
            assert w.tobytes() == old.real.tobytes()
        for table in measures._discrete_table(p, 16):
            assert table.weights.dtype == np.float64

    def test_unpaired_complex_chain_weights_stay_complex(self):
        p = AWParams(2, 0.5, 0.3, 1.1, -0.45, 0.3 + 0.4j, 0.2)
        for _l, _nu, _z, w, row in measures._split_labels(p, 16):
            assert w.dtype == np.complex128 and w.imag.any()
        for table in measures._discrete_table(p, 16):
            assert table.weights.dtype == np.complex128


def rel(a, b):
    return abs(a - b) / abs(b)


def scalar_weight(p, l, label):
    """Delta^(d)(nu) Delta^(d)(nu') delta_c(omega; omega') of the label
    (nu, nu') = (label[:l], label[l:]) from the scalar residue forms."""
    large = [i for i, ti in enumerate(p.tvec) if abs(ti) >= 1]
    i, j = large[0], (large[1] if len(large) > 1 else 1)
    omega = [p.tvec[c] * p.t ** k * p.q ** nu for c, k, nu in zip(
        [i] * l + [j] * (len(label) - l),
        list(range(l)) + list(range(len(label) - l)), label)]
    return (multi_discrete_weight(label[:l], p, i)
            * multi_discrete_weight(label[l:], p, j)
            * interaction_c(omega[:l], omega[l:], p))


def label_points(z, nu):
    """The points of the labels nu, one row per label."""
    return np.array([zi[k] for zi, k in zip(z, nu)]).T


class TestChainTables:
    @pytest.mark.parametrize("p, M", [(PC3, 32), (PK2, 32)])
    def test_weights_equal_scalar_oracles(self, p, M):
        # the labels weigh Delta^(d) as K_r Delta^qR from per-step ratios:
        # the same product as the scalar residue forms, in another order;
        # the delta_c rows run over the chamber axis, k <= M/2, of the
        # M-point grid
        table = measures._split_labels(p, M)
        zvals = measures._grid_axes(M)[:M // 2 + 1]
        crossed = 0
        for l, nu, z, w, row in table:
            r = len(nu)
            omega = label_points(z, nu)
            for k, label in enumerate(nu.T.tolist()):
                assert rel(w[k], scalar_weight(p, l, label)) < 1e-13
                if r == p.n:
                    continue
                oracle = np.array([interaction_c(omega[k], (z,), p)
                                   for z in zvals])
                assert np.max(np.abs(row[k] - oracle)) < 1e-13 * np.max(
                    np.abs(oracle))
            crossed += 0 < l < r
            assert (row is None) == (r == p.n)
        assert (crossed > 0) == (p is PC3)

    @pytest.mark.parametrize("p, M", [(PC3, 12), (PK2, 12)])
    def test_node_weights_equal_scalar_oracles(self, p, M):
        # a split table's node is a label's point followed by a chamber
        # node of the other n - r axes, label-major, weighted by
        # 2^r n! / (n - r)! times the label's weight, its delta_c factor
        # against the chamber coordinates and the chamber weight
        n = p.n
        tables = measures._discrete_table(p, M)
        splits = measures._split_labels(p, M)
        assert len(tables) == len(splits)
        for table, (l, nu, z, _w, _row) in zip(tables, splits):
            r = len(nu)
            assert isinstance(table, PointTable)
            labels = nu.shape[1]
            assert len(table.weights) % labels == 0
            nodes = table_nodes(table)
            for node, w in zip(nodes, table.weights):
                label = [z[i].tolist().index(node[i]) for i in range(r)]
                want = (2 ** r * math.perm(n, r)
                        * scalar_weight(p, l, label)
                        * interaction_c(node[:r], node[r:], p)
                        * weight_continuous(list(node[r:]), p)
                        * 2 ** (n - r) * math.factorial(n - r)
                        / M ** (n - r))
                assert rel(w, want) < 1e-12
            # label-major: each label's point over its block of nodes
            block = len(table.weights) // labels
            assert np.array_equal(nodes[::block, :r], label_points(z, nu))

    @pytest.mark.parametrize("p", [PC3, PK2])
    def test_labels_ascend_to_the_support_ends(self, p):
        # every label of every split, in lexicographic order: each chain
        # ascends and each support value lies off the closed unit disk
        large = [i for i, ti in enumerate(p.tvec) if abs(ti) >= 1]
        i, j = large[0], (large[1] if len(large) > 1 else 1)
        ends_i, ends_j = (measures._chain_ends(p, c) for c in (i, j))

        def ascending(ends):
            return [a for a in itertools.product(*map(range, ends))
                    if list(a) == sorted(a)]

        for l, nu, z, _w, _row in measures._split_labels(p, 16):
            want = [a + b for a in ascending(ends_i[:l])
                    for b in ascending(ends_j[:len(nu) - l])]
            assert [tuple(c) for c in nu.T.tolist()] == want
            assert np.all(np.abs(label_points(z, nu)) > 1)


class TestLongChains:
    """Chains far longer than the residue products can reach: the
    table's weights are cumulative products of per-step ratios."""

    P1 = AWParams(1, 0.95, 0.3, 0.95 ** -66.5, 5e-3, -3e-3, 2e-3)

    def test_weights_far_along_the_chain(self):
        # 50-digit mpmath values; the scalar residue weight is 0 at offsets
        # 30 and 47 and raises NonFiniteWeight at 52
        [(_l, nu, _z, w, _row)] = measures._split_labels(self.P1, 16)
        assert nu.shape == (1, 67)
        for k, want in ((30, 3.729659880183797e-46),
                        (47, 7.3060168232280592e-67),
                        (52, 1.1071948121939259e-70)):
            assert rel(w[k], want) < 1e-12

    def test_n1_mass(self):
        one = LaurentPolynomial.constant(1)
        got = askey_wilson.family(self.P1, 256).pair(one, one)
        assert rel(got, gustafson_constant(self.P1)) < 1e-12

    def test_n2_mass(self):
        p = AWParams(2, 0.97, 0.3, 0.97 ** -80.5, 5e-3, -3e-3, 2e-3)
        one = LaurentPolynomial.constant(2)
        got = askey_wilson.family(p, 128).pair(one, one)
        assert rel(got, gustafson_constant(p)) < 1e-8


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
        [part] = little._node_table(lp)
        z, nu, w = part.z, part.nu, part.weights
        assert nu[:, 0].tolist() == [0, 0] and z[:, 0].tolist() == [1.0, 0.3]
        want = (1 - self.Q) ** 2 * weight_little((0, 0), lp) * 0.3
        assert w[0] > 0 and abs(w[0] - want) < 1e-13 * want
        with pytest.raises(DomainViolation):
            little_weight_at_point((1.0 / (self.Q * 0.6), 0.3), lp)

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

    @pytest.mark.parametrize("family, params", [
        # masses 2.5e-94, 1.2e-146 (tables to 256 shells) and 2.4e-12
        (little.family, LittleParams(2, 0.99, 0.3, 0.4, 0.6)),
        (big.family, BigParams(2, 0.99, 0.4, 0.6, 0.3, 1, 0.8)),
        (little.family, LittleParams(2, 0.9, 0.3, 0.4, 0.2)),
    ], ids=["little-q0.99", "big-q0.99", "little-q0.9"])
    def test_pairings_match_closed_forms(self, family, params):
        fam = family(params)
        one = LaurentPolynomial.constant(2)
        want = fam.mass()
        assert abs(fam.pair(one, one) - want) < 1e-12 * want
        for lam, f in fam.polynomials((1, 1)).items():
            want = fam.norm(lam)
            assert abs(fam.pair(f, f) - want) < 1e-12 * want

    def test_unsettled_table_is_refused(self):
        # a = 1.9: the one-axis factors decay like q^(0.074 nu)
        one = LaurentPolynomial.constant(2)
        with pytest.raises(SlowConvergence):
            little.family(LittleParams(2, 0.5, 0.3, 1.9, 0.2)).pair(one, one)
