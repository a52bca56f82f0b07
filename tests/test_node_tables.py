"""The per-parameter node tables of the discrete measures against the
scalar weight functions they replace in the pairings, and their owners:
each family record builds its tables once and frees them with itself."""

import gc
import itertools
import math
import random
import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from oracles import (eval_points_loop, jackson_table_ladder,
                     label_weights_stacked, little_weight_at_point,
                     support_point, table_nodes)

from bcortho import (askey_wilson, bcpoly, big, cli, koornwinder, little,
                     measures, qracah)
from bcortho.bcpoly import (
    SLAB,
    LaurentPolynomial,
    PointTable,
    _chain_labels,
    _label_weights,
    monomial_s,
    monomial_w,
    orthogonalize,
    pair,
    partitions_dominated_by,
)
from bcortho.big import BigParams, c_weights, weight_big
from bcortho.cli import build_config, run_suite
from bcortho.errors import (
    BcorthoError,
    DomainViolation,
    LengthMismatch,
    NearPole,
    NonFiniteWeight,
    PoleAtDenominator,
    PoleInWeight,
    SlowConvergence,
    ZeroCoordinate,
    ZeroProduct,
)
from bcortho.little import LittleParams, delta_qJ
from bcortho.params import AWParams
from bcortho.qracah import QRacahParams
from bcortho.qseries import (
    qpoch_infinite,
    qpoch_infinite_arr,
    qpoch_real,
    qpoch_real_arr,
)

# weights are compared with the scalar functions on the shells |nu| <= 6;
# deeper, (a;q)_inf of the scalar delta_qJ overflows for |a| >> 1
SHELLS = 6
U = 0.3 + 0.4j


def big_params(n, branch):
    if branch == "real":
        return BigParams(n, 0.5, 0.4, -0.5, 0.3, 1.0, 0.8)
    return BigParams(n, 0.5, 0.4, 1.0 * U, -0.8 * U.conjugate(), 1.0, 0.8)


def rel(a, b):
    return abs(a - b) / abs(b)


def raised(fn, *args):
    try:
        fn(*args)
    except BcorthoError as exc:
        return type(exc)
    return None


def delta_qJ_rows(Z, q, t):
    """delta_qJ at every row of Z, with qpoch_real's per-factor guard: the
    reference for little._pair_factors."""
    tau = math.log(t) / math.log(q)
    val = np.ones(len(Z))
    for i in range(Z.shape[1]):
        for j in range(i + 1, Z.shape[1]):
            zi, zj = Z[:, i], Z[:, j]
            val *= np.abs(zi - zj) * np.abs(zi) ** (2.0 * tau - 1.0)
            val *= qpoch_real_arr(q * zj / (t * zi), q, t * t / q).real
    return val


def ascending_labels(lengths, S):
    """Brute force: labels with |nu| <= S ascending within each chain."""
    out = set()
    for nu in itertools.product(range(S + 1), repeat=sum(lengths)):
        k = 0
        ok = sum(nu) <= S
        for length in lengths:
            ok = ok and all(nu[i] <= nu[i + 1]
                            for i in range(k, k + length - 1))
            k += length
        if ok:
            out.add(nu)
    return out


def check_labels(nu, lengths):
    """The labels nu (columns) are those of _chain_labels at the table's
    S."""
    S = int(nu.sum(axis=0).max())
    assert S in (32, 64, 128, 256, 400)
    want = _chain_labels(lengths, [S + 1] * sum(lengths), S)
    assert sorted(map(tuple, nu.T.tolist())) == sorted(
        map(tuple, want.T.tolist()))


class TestChainLabels:
    @pytest.mark.parametrize("lengths", [(1,), (3,), (0, 2), (2, 1),
                                         (1, 2), (3, 0)])
    @pytest.mark.parametrize("S", [0, 1, 7])
    def test_matches_brute_force(self, lengths, S):
        nu = _chain_labels(lengths, [S + 1] * sum(lengths), S)
        assert nu.shape[0] == sum(lengths)
        labels = set(map(tuple, nu.T.tolist()))
        assert len(labels) == nu.shape[1]
        assert labels == ascending_labels(lengths, S)

    @pytest.mark.parametrize("lengths, ends", [
        ((3,), (6, 4, 2)), ((2, 2), (5, 3, 4, 1)), ((0, 2), (3, 3)),
        ((2, 1), (4, 0, 3))])
    def test_per_axis_ends(self, lengths, ends):
        # S = sum(ends) never binds: the labels below each axis end, in
        # lexicographic order
        nu = _chain_labels(lengths, ends, sum(ends))
        want = sorted(label for label in ascending_labels(lengths, sum(ends))
                      if all(x < e for x, e in zip(label, ends)))
        assert list(map(tuple, nu.T.tolist())) == want


class TestLabelWeights:
    """_label_weights gathers one axis at a time from the int16 labels,
    bit for bit the product on the stacked axis factors
    (oracles.label_weights_stacked), on real, complex and mixed factors
    and with no axis at all."""

    @pytest.mark.parametrize("kinds", ["", "r", "c", "rr", "rc", "cr", "rrc",
                                       "crr", "rcr", "ccc", "rrrr", "crcr"])
    @pytest.mark.parametrize("const", [0.37, 0.2 - 0.45j])
    def test_equals_stacked_form(self, kinds, const):
        rng = np.random.default_rng(len(kinds))
        ends = [5, 7, 4, 6][:len(kinds)]

        def draw(shape, kind):
            x = rng.normal(size=shape)
            return x + 1j * rng.normal(size=shape) if kind == "c" else x

        axis = [draw(e, k) for e, k in zip(ends, kinds)]
        pairs = {(i, j): draw((ends[i], ends[j]), kinds[j])
                 for i, j in itertools.combinations(range(len(kinds)), 2)}
        nu = np.array([rng.integers(0, e, 300) for e in ends],
                      dtype=np.int16).reshape(len(ends), 300)
        got = _label_weights(nu, const, axis, lambda i, j: pairs[i, j], "t")
        want = label_weights_stacked(nu, const, axis,
                                     lambda i, j: pairs[i, j])
        assert np.result_type(got) == np.result_type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestBigTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("branch", ["real", "conjugate"])
    def test_weights_match_scalar(self, n, branch):
        bp = big_params(n, branch)
        cw = c_weights(bp)
        table = big._node_table(bp)
        assert len(table) == n + 1
        compared = 0
        for j, part in enumerate(table):
            z, nu, w = part.z, part.nu, part.weights
            check_labels(nu, (j, n - j))
            assert nu.shape == (n, len(w))
            # axis i: c t^i q^nu on the positive chain, -d t^(i-j) q^nu on
            # the negative one
            for i in range(n):
                lead, pos = (bp.c, i) if i < j else (-bp.d, i - j)
                want = [lead * bp.t ** pos * bp.q ** v
                        for v in range(len(z[i]))]
                assert np.allclose(z[i], want, rtol=1e-14, atol=0)
            for r, lab in enumerate(nu.T.tolist()):
                if sum(lab) <= SHELLS:
                    x = big.support_point(j, lab[:j], lab[j:], bp)
                    assert np.allclose(z[np.arange(n), lab], x, rtol=1e-14,
                                       atol=0)
                    want = ((1 - bp.q) ** n * cw[j] * weight_big(x, bp)
                            * abs(math.prod(x)))
                    assert rel(w[r], want) < 1e-13
                    compared += 1
        assert compared == sum(len(ascending_labels((j, n - j), SHELLS))
                               for j in range(n + 1))

    @pytest.mark.parametrize("n", [1, 2])
    def test_scalar_pole_raises_same_class(self, n):
        # 1 - q a ~ 1e-14 makes v_B's denominator vanish at the node z = c
        bp = BigParams(n, 0.5, 0.4, (1.0 - 1e-14) / 0.5, 0.3, 1.0, 0.8)
        z = big.support_point(1, (0,), (0,) * (n - 1), bp)
        want = raised(weight_big, z, bp)
        assert want is DomainViolation
        one = LaurentPolynomial.constant(n)
        assert raised(big.family(bp).pair, one, one) is want


class TestLittleTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weights_match_scalar(self, n):
        lp = LittleParams(n, 0.5, 0.4, 0.6, -2.0)
        [part] = little._node_table(lp)
        z, nu, w = part.z, part.nu, part.weights
        check_labels(nu, (n,))
        assert nu.shape == (n, len(w))
        for i in range(n):
            want = [lp.t ** i * lp.q ** v for v in range(len(z[i]))]
            assert np.allclose(z[i], want, rtol=1e-14, atol=0)
        compared = 0
        for r, lab in enumerate(nu.T.tolist()):
            if sum(lab) <= SHELLS:
                x = support_point(lab, lp)
                assert np.allclose(z[np.arange(n), lab], x, rtol=1e-14,
                                   atol=0)
                want = ((1 - lp.q) ** n * little_weight_at_point(x, lp)
                        * math.prod(x))
                assert rel(w[r], want) < 1e-13
                compared += 1
        assert compared == len(ascending_labels((n,), SHELLS))

    @pytest.mark.parametrize("n", [1, 2])
    def test_scalar_pole_raises_same_class(self, n):
        # 1 - q b ~ 1e-14 makes (qbx;q)_inf vanish at the node x = 1
        lp = LittleParams(n, 0.5, 0.4, 0.6, (1.0 - 1e-14) / 0.5)
        z = support_point((0,) * n, lp)
        want = raised(little_weight_at_point, z, lp)
        assert want is DomainViolation
        one = LaurentPolynomial.constant(n)
        assert raised(little.family(lp).pair, one, one) is want

    def test_pair_factor_guard_is_per_factor(self):
        # z = (t, 1) puts the factor 1 - t z_2 / z_1 of the denominator of
        # (q z_2 / (t z_1); q)_{2 tau - 1} exactly at zero
        q, t = 0.5, 0.4
        assert raised(delta_qJ, (t, 1.0), q, t) is PoleAtDenominator
        assert raised(delta_qJ_rows, np.array([[t, 1.0]]), q,
                      t) is PoleAtDenominator
        # the same node, (u, v) = (0, 0), of one chain and of two
        z = np.array([t, 1.0])[:, None] * q ** np.arange(4.0)
        for chains in ((2,), (1, 1)):
            assert raised(little._pair_factors, z, chains, q,
                          t) is PoleAtDenominator
        Z = np.array([[1.0, 0.3], [0.7, 0.2], [-0.9, 0.4]])
        got = delta_qJ_rows(Z, q, t)
        for r in range(len(Z)):
            assert rel(got[r], delta_qJ(tuple(Z[r]), q, t)) < 1e-13

    @pytest.mark.parametrize("q, tol", [(0.5, 1e-14), (0.9, 2e-14)])
    @pytest.mark.parametrize("family", ["little", "big-real", "big-conj"])
    def test_pair_factors_match_rows(self, family, q, tol):
        # one kernel call over the differences v - u against delta_qJ at
        # every index pair a label can hold; NaN at every other. At
        # q = 0.9 the relative condition of (x;q)_{2 tau - 1} in x
        # reaches 2 tau - 1 = 16.4 for |x| >> 1 (big's two chains), and
        # each form strays up to 1.2e-14 from 40-digit values, measured
        # at (u, v) = (39, 4) and (41, 3) of big's split j = 1
        n, S = 3, 48
        if family == "little":
            lp = LittleParams(n, q, 0.4, 0.6, -2.0)
            parts = [((n,), lp.t ** np.arange(n)[:, None]
                      * q ** np.arange(S + 1.0))]
            t = lp.t
        else:
            bp = big_params(n, family[4:])
            bp = BigParams(n, q, bp.t, bp.a, bp.b, bp.c, bp.d)
            z, _ = big._axis_factors(bp, S)
            parts = [((j, n - j), z[np.r_[0:j, n:2 * n - j]])
                     for j in range(n + 1)]
            t = bp.t
        u, v = np.indices((S + 1, S + 1))
        for chains, z in parts:
            pair = little._pair_factors(z, chains, q, t)
            chain = np.repeat(np.arange(len(chains)), chains)
            for i, j in itertools.combinations(range(n), 2):
                keep = (u + v <= S) & ((u <= v) | (chain[i] != chain[j]))
                got = pair(i, j)
                assert np.all(np.isnan(got[~keep]))
                want = delta_qJ_rows(np.column_stack(
                    [z[i][u[keep]], z[j][v[keep]]]), q, t)
                assert np.all(np.abs(got[keep] - want) < tol * np.abs(want))


class TestArrayKernel:
    def test_real_arr_matches_scalar(self):
        a = np.array([0.3, -0.9, 1.7, 0.2 + 0.5j])
        got = qpoch_real_arr(a, 0.5, 0.4)
        for x, y in zip(a, got):
            assert rel(y, qpoch_real(complex(x), 0.5, 0.4)) < 1e-13

    def test_guards_single_factors(self):
        # the product (a;q)_inf is below the guard, no single factor is
        a = np.array([0.5, 1.0 - 2e-13])
        assert abs(qpoch_infinite_arr(a, 0.5)[1]) < 1e-13
        qpoch_infinite_arr(a, 0.5, require_nonzero=True)
        with pytest.raises(ZeroProduct):
            qpoch_infinite_arr(np.array([0.5, 4.0]), 0.5,
                               require_nonzero=True)
        with pytest.raises(PoleAtDenominator):
            qpoch_real_arr(np.array([0.1, 4.0]), 0.5, 0.5)
        with pytest.raises(PoleAtDenominator):
            qpoch_real(4.0, 0.5, 0.5)
        assert qpoch_infinite(4.0, 0.5) == 0.0

    @pytest.mark.parametrize("guarded, error", [
        (lambda d: measures._step_products([0.3], [1.0 - d], 1.0, 0.5, 2),
         PoleInWeight),
        (lambda d: koornwinder._guard(np.array([0.5, d])), NearPole),
    ], ids=["step-products", "koornwinder"])
    def test_one_pole_guard(self, guarded, error):
        # qseries.POLE_GUARD (1e-13) tests each denominator factor
        guarded(5e-13)
        with pytest.raises(error):
            guarded(5e-14)

    @pytest.mark.parametrize("t, finite", [
        # t = q^2: (a;q)_2 = (1 - a)(1 - a q); t = 1/q: 1 / (1 - a/q)
        (0.25, lambda a: (1 - a) * (1 - 0.5 * a)),
        (2.0, lambda a: 1 / (1 - 2 * a)),
    ], ids=["tau=2", "tau=-1"])
    def test_real_arr_large_arguments(self, t, finite):
        # (a;q)_inf and (a t;q)_inf overflow for |a| >> 1, their ratio
        # does not
        a = np.array([1e30, -3e25, 0.7])
        got = qpoch_real_arr(a, 0.5, t)
        for x, y in zip(a, got):
            assert rel(y, finite(x)) < 1e-14


class TestNonFiniteWeights:
    def test_table_names_the_node(self, monkeypatch):
        pair_factors = little._pair_factors

        def injected(z, chains, q, t):
            pair = pair_factors(z, chains, q, t)

            def with_inf(i, j):
                out = pair(i, j)
                out[0, 3] = np.inf
                return out

            return with_inf

        monkeypatch.setattr(little, "_pair_factors", injected)
        lp = LittleParams(2, 0.5, 0.4, 0.6, -2.0)
        # row 3 of the table: label (0, 3)
        with pytest.raises(NonFiniteWeight, match=re.escape(
                "Jackson multisum: weight inf at the label nu = [0, 3]")):
            little._node_table(lp)


def jackson_case(kind, n, q):
    """Seeded parameters of a little or big (real or conjugate branch)
    q-Jacobi table at n and q."""
    rng = random.Random(f"{kind}-{n}-{q}")
    t = rng.uniform(0.2, 0.8)
    if kind == "little":
        return LittleParams(n, q, t, rng.uniform(0.1, 0.95 / q),
                            rng.uniform(-1.0, 0.95 / q))
    c, d = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    if kind == "big-real":
        return BigParams(n, q, t, rng.uniform(-0.9 * c / (d * q), 0.9 / q),
                         rng.uniform(-0.9 * d / (c * q), 0.9 / q), c, d)
    u = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.2, 0.6))
    return BigParams(n, q, t, c * u, -d * u.conjugate(), c, d)


def node_table(params):
    """The node table of params, or the type and text of its error, and
    the floating-point warnings on the way."""
    module = little if isinstance(params, LittleParams) else big
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        try:
            table = module._node_table(params)
        except BcorthoError as exc:
            table = (type(exc), str(exc))
    return table, [(w.category, str(w.message)) for w in seen]


# n = 3 stops at q = 0.7: at q >= 0.9 an n = 3 table may hold millions
# of labels per part
SWEEP = [(kind, n, q) for kind in ("little", "big-real", "big-conjugate")
         for n in (1, 2, 3) for q in (0.3, 0.5, 0.7, 0.9, 0.95)
         if n < 3 or q <= 0.7]


class TestJacksonLadder:
    """little._jackson_table builds a table predicted to need more than
    32 shells at 64 at once: every table, and every error, is that of a
    whole build per rung (oracles.jackson_table_ladder)."""

    @pytest.mark.parametrize("params", [
        *(jackson_case(*case) for case in SWEEP),
        # NonFiniteWeight (big --q 0.9 --t 0.3) and SlowConvergence at
        # MAX_SHELLS (big --q 0.95)
        BigParams(2, 0.9, 0.3, 0.6, 0.3, 1.0, 0.8),
        BigParams(2, 0.95, 0.4, 0.6, 0.3, 1.0, 0.8),
        # b < 0 near q = 1: the one-axis factors decay slowly at first
        LittleParams(2, 0.95, 0.4, 0.5, -6.0),
    ], ids=[*("-".join(map(str, case)) for case in SWEEP),
            "big-q0.9-t0.3", "big-q0.95", "little-q0.95-b-6"])
    def test_same_tables_as_the_ladder(self, params, monkeypatch):
        builds = []
        build = little._build

        def recorded(parts, S, *args):
            builds.append(S)
            return build(parts, S, *args)

        monkeypatch.setattr(little, "_build", recorded)
        got, got_warned = node_table(params)
        for module in (little, big):
            monkeypatch.setattr(module, "_jackson_table",
                                jackson_table_ladder)
        want, want_warned = node_table(params)
        assert got_warned == want_warned
        if isinstance(want, tuple):
            assert got == want
            return
        # a guess too high costs one build at 64 shells, no more
        assert max(builds) <= max(len(want[0].z[0]) - 1, 64)
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert a.z.shape == b.z.shape and np.array_equal(a.z, b.z)
            assert a.nu.dtype == b.nu.dtype and np.array_equal(a.nu, b.nu)
            assert a.weights.dtype == b.weights.dtype
            assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("params, error", [
        (BigParams(2, 0.9, 0.3, 0.6, 0.3, 1.0, 0.8), NonFiniteWeight),
        (BigParams(2, 0.95, 0.4, 0.6, 0.3, 1.0, 0.8), SlowConvergence),
    ], ids=["big-q0.9-t0.3", "big-q0.95"])
    def test_sweep_meets_both_errors(self, params, error):
        assert node_table(params)[0][0] is error

    @pytest.mark.parametrize("params", [
        BigParams(2, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8),
        LittleParams(2, 0.5, 0.3, 0.4, 0.2),
        BigParams(3, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8),
    ], ids=["big", "little", "big-n3"])
    def test_default_tables_build_once(self, params, monkeypatch):
        # the CLI's default big and little tables and big --n 3: the
        # labels and weights of each part are computed once
        calls = []
        label_weights = little._label_weights

        def counted(nu, *args):
            calls.append(nu.shape[1])
            return label_weights(nu, *args)

        monkeypatch.setattr(little, "_label_weights", counted)
        module = little if isinstance(params, LittleParams) else big
        table = module._node_table(params)
        assert calls == [len(part.weights) for part in table]


class TestEvalPoints:
    POLY = LaurentPolynomial(3, {(1, -2, 0): 0.3 + 0.2j, (0, 0, 0): 1.5,
                                 (2, 1, -1): -0.7j, (-3, 0, 2): 2.0})

    @pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)])
    def test_matches_eval(self, phase):
        rng = np.random.default_rng(3)
        Z = rng.uniform(0.2, 2.0, (40, 3)) * rng.choice([-1, 1], (40, 3))
        Z = Z * phase
        got = self.POLY.eval_points(Z)
        assert got.shape == (40,)
        for r in range(len(Z)):
            assert rel(got[r], self.POLY.eval(list(Z[r]))) < 1e-14

    @staticmethod
    def random_poly(rng, top, coeffs):
        f = LaurentPolynomial(len(top))
        for mu in partitions_dominated_by(top):
            c = rng.normal()
            f = f + monomial_w(mu).scale(
                c + 1j * rng.normal() if coeffs == "complex" else c)
        return f

    @pytest.mark.parametrize("nodes, coeffs", [
        ("real", "real"), ("real", "complex"), ("complex", "complex")])
    @pytest.mark.parametrize("m", [1, 2, 7, 100, SLAB + 3])
    def test_bit_identical_to_term_loop(self, nodes, coeffs, m):
        # 343 terms with negative exponents; at m = 100 a slab holds 40
        # of them, at m > SLAB one, and a lone point is doubled
        rng = np.random.default_rng(m)
        f = self.random_poly(rng, (3, 3, 3), coeffs)
        Z = rng.uniform(0.3, 1.5, (m, 3)) * rng.choice([-1, 1], (m, 3))
        if nodes == "complex":
            Z = Z * np.exp(1j * rng.uniform(0, 2 * np.pi, (m, 3)))
        got, want = f.eval_points(Z), eval_points_loop(f, Z)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("coeffs", ["real", "complex"])
    def test_op_matrix_points(self, coeffs):
        # the complex node grid of koornwinder.op_matrix and the shifted
        # copies apply_D evaluates
        q = 0.5
        Z, _base = koornwinder._nodes(3, 5)
        f = self.random_poly(np.random.default_rng(5), (2, 2, 2), coeffs)
        for j in range(3):
            zp, zm = Z.copy(), Z.copy()
            zp[:, j] = q * zp[:, j]
            zm[:, j] = zm[:, j] / q
            for pts in (Z, zp, zm):
                assert np.array_equal(f.eval_points(pts),
                                      eval_points_loop(f, pts))

    def test_empty_polynomial(self):
        f = LaurentPolynomial(3)
        Z = np.ones((4, 3))
        got = f.eval_points(Z)
        assert got.dtype == float and np.array_equal(got, np.zeros(4))
        assert np.array_equal(got, eval_points_loop(f, Z))

    @pytest.mark.parametrize("table", ["big-n3", "qracah-n3"])
    def test_node_tables_bit_identical(self, table):
        # every value the discrete Gram checks read, on their own tables
        if table == "big-n3":
            bp = BigParams(3, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
            parts = big._node_table(bp)
            polys = orthogonalize((1, 1, 1), 3, monomial_s, parts).values()
        else:
            qp = QRacahParams(3, 0.5, 0.3, 0.7, -0.5, 0.4, 3)
            parts = [qracah._node_table(qp)]
            polys = [monomial_w(mu) for mu in
                     partitions_dominated_by((3, 3, 3))]
        for part in parts:
            Z = np.array([zi.take(nui) for zi, nui in zip(part.z, part.nu)]).T
            for f in polys:
                assert np.array_equal(f.eval_points(Z), eval_points_loop(f, Z))

    def test_errors(self):
        with pytest.raises(ZeroCoordinate):
            self.POLY.eval_points(np.array([[1.0, 0.0, 2.0]]))
        with pytest.raises(LengthMismatch):
            self.POLY.eval_points(np.ones((4, 2)))
        with pytest.raises(LengthMismatch):
            self.POLY.eval_points(np.ones(3))


# the split tables of F(r) on the 24-point grid: at r = 2 = n the labels'
# points (6, 35 and 15 nodes), at r = 1 < n every label times every node
# of the one-axis chamber table (55 and 77 nodes)
SPLIT = AWParams(2, 0.7, 0.5, 9.0, -5.0, -0.1, 0.12)


def split_tables(r_is_n):
    return [table for table, (_l, nu, *_rest) in zip(
        measures._discrete_table(SPLIT, 24), measures._split_labels(SPLIT, 24))
            if (len(nu) == SPLIT.n) == r_is_n]


def real_labels(tables):
    # the real support values of the label axes as real arrays, beside
    # the complex chamber axis
    return [PointTable([zi.real if not zi.imag.any() else zi
                        for zi in table.z], table.nu, table.weights)
            for table in tables]


AT_NODES_TABLES = {
    "qracah-real-t0": lambda: [qracah._node_table(
        QRacahParams(3, 0.5, 0.3, 0.7, -0.5, 0.4, 3))],
    "qracah-complex-t0": lambda: [qracah._node_table(
        QRacahParams(2, 0.5, 0.3, 0.7 + 0.2j, -0.5, 0.4, 2))],
    "little-q0.5": lambda: little._node_table(
        LittleParams(2, 0.5, 0.3, 0.4, 0.2)),
    "little-q0.9": lambda: little._node_table(
        LittleParams(2, 0.9, 0.3, 0.4, 0.2)),
    "big-n2": lambda: big._node_table(BigParams(2, 0.5, 0.4, 0.6, 0.3, 1.0,
                                                0.8)),
    "big-n3": lambda: big._node_table(BigParams(3, 0.5, 0.4, 0.6, 0.3, 1.0,
                                                0.8)),
    "split-r<n": lambda: split_tables(False),
    "split-r=n": lambda: split_tables(True),
    "split-real-labels": lambda: real_labels(split_tables(False)),
    "one-node": lambda: [
        PointTable(np.array([[0.7], [0.4]]), np.zeros((2, 1), int),
                   np.ones(1)),
        PointTable(np.array([[0.7 + 0.1j], [0.4]]), np.zeros((2, 1), int),
                   np.ones(1))],
}


class TestAtNodes:
    """PointTable.at_nodes, the per-axis powers gathered by label: bit for
    bit eval_points at the gathered nodes, in their dtype."""

    @pytest.mark.parametrize("case", list(AT_NODES_TABLES))
    def test_equals_eval_points(self, case):
        tables = AT_NODES_TABLES[case]()
        n = len(tables[0].z)
        rng = np.random.default_rng(len(case))
        top = (3,) * n if n < 3 else (2, 2, 2)
        polys = [TestEvalPoints.random_poly(rng, top, coeffs)
                 for coeffs in ("real", "complex")]
        polys.append(monomial_s((3,) + (1,) * (n - 1)))
        for table in tables:
            for f in polys:
                got, want = table.at_nodes(f), f.eval_points(table_nodes(table))
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
                assert not got.flags.writeable

    @pytest.mark.parametrize("case", list(AT_NODES_TABLES))
    @pytest.mark.parametrize("c", [0.5, -1.25 + 0.75j, 0.3j])
    def test_constant_is_one_value(self, case, c, monkeypatch):
        # a constant is one value, gathered at no node, equal to its
        # value at every node in eval_points' dtype and bits
        tables = AT_NODES_TABLES[case]()
        f = LaurentPolynomial.constant(len(tables[0].z), c)
        wants = [f.eval_points(table_nodes(table)) for table in tables]

        def gathers(*args):
            raise AssertionError("a constant gathers no node")

        monkeypatch.setattr(bcpoly, "_layout_values", gathers)
        for table, want in zip(tables, wants):
            got = table.at_nodes(f)
            assert got.shape == (1,)
            assert got.dtype == want.dtype
            assert np.broadcast_to(got, want.shape).tobytes() == (
                want.tobytes())
            assert not got.flags.writeable

    def test_errors(self):
        f = monomial_s((1, 0))
        with pytest.raises(ZeroCoordinate):
            PointTable(np.array([[0.7, 0.0], [0.4, 0.5]]),
                       np.array([[0, 1], [0, 1]]), np.ones(2)).at_nodes(f)
        with pytest.raises(LengthMismatch):
            PointTable(np.array([[0.7]]), np.zeros((1, 1), int),
                       np.ones(1)).at_nodes(f)
        one = LaurentPolynomial.constant(2)
        with pytest.raises(ZeroCoordinate):
            PointTable(np.array([[0.7, 0.0], [0.4, 0.5]]),
                       np.array([[0, 1], [0, 1]]), np.ones(2)).at_nodes(one)
        with pytest.raises(LengthMismatch):
            PointTable(np.array([[0.7]]), np.zeros((1, 1), int),
                       np.ones(1)).at_nodes(one)


class TestNodeValues:
    """LaurentPolynomial.node_values: the values at a table's nodes are
    computed once per polynomial and table, and live on the polynomial."""

    @pytest.mark.parametrize("make", [
        # two tables of equal contents each
        lambda: [measures._Chamber(AWParams(2, 0.5, 0.3, 0.2, -0.3, 0.35,
                                            0.45), 2, 16) for _ in "ab"],
        lambda: [PointTable(np.array([[0.5, 1.5, 0.7], [2.0, -0.3, 0.9]]),
                            np.array([[0, 1, 2], [0, 0, 1]]), np.ones(3))
                 for _ in "ab"],
    ], ids=["chamber", "point"])
    def test_kept_once_per_table(self, make, monkeypatch):
        table, other = make()
        at_nodes = type(table).at_nodes
        calls = []

        def counted(tab, h):
            calls.append(tab)
            return at_nodes(tab, h)

        monkeypatch.setattr(type(table), "at_nodes", counted)
        f = monomial_w((2, 1))
        first = f.node_values(table)
        assert f.node_values(table) is first
        assert calls == [table]
        assert np.array_equal(first, at_nodes(table, f))
        assert not first.flags.writeable
        # equal contents, another table: its own entry
        second = f.node_values(other)
        assert second is not first and calls == [table, other]
        # the values die with the polynomial
        ref = weakref.ref(first)
        del f, first, second
        gc.collect()
        assert ref() is None

    def test_tables_die_with_their_family(self):
        # the measure at t0 = 1.1 has a chamber table and split tables;
        # a polynomial paired on them keeps none of them alive
        def tables():
            return [obj for obj in gc.get_objects()
                    if isinstance(obj, (measures._Chamber, PointTable))]

        gc.collect()
        before = {id(obj) for obj in tables()}
        fam = askey_wilson.family(
            AWParams(2, 0.5, 0.3, 1.1, -0.45, 0.25, 0.2), 128)
        one = LaurentPolynomial.constant(2)
        fam.pair(one, one)
        refs = [weakref.ref(obj) for obj in tables()
                if id(obj) not in before]
        assert len(refs) > 1 and len(one._node_values) == len(refs)
        del fam
        gc.collect()
        assert [ref for ref in refs if ref() is not None] == []
        assert one._node_values == {} and one.nvars == 2

    def test_entry_dies_with_its_table(self, monkeypatch):
        # the entry goes when its table dies, without a gc run, so its
        # values die and a table that reuses the identity is evaluated
        def make():
            return PointTable(np.array([[0.5, 1.5]]), np.array([[0, 1]]),
                              np.ones(2))

        f = monomial_w((1,))
        table = make()
        ref = weakref.ref(table)
        values = weakref.ref(f.node_values(table))
        del table
        assert ref() is None and values() is None
        assert f._node_values == {}
        calls = []
        at_nodes = PointTable.at_nodes

        def counted(tab, h):
            calls.append(tab)
            return at_nodes(tab, h)

        monkeypatch.setattr(PointTable, "at_nodes", counted)
        other = make()
        assert np.array_equal(f.node_values(other), at_nodes(other, f))
        assert calls == [other] and list(f._node_values) == [id(other)]

    @pytest.mark.parametrize("raw", [
        {"suite": "qracah", "n": "3", "N": "3"},
        {"suite": "little"},
        {"suite": "big"},
    ], ids=["qracah-n3-N3", "little", "big"])
    def test_each_polynomial_evaluated_once_per_table(self, raw,
                                                      monkeypatch):
        # the polynomials of orthogonalize and of the Gram checks are
        # evaluated at most once per instance and node table
        seen = []
        at_nodes = PointTable.at_nodes

        def counting(table, f):
            seen.append((table, f))
            return at_nodes(table, f)

        monkeypatch.setattr(PointTable, "at_nodes", counting)
        report = run_suite(build_config(raw))
        assert any(c.name == "orthogonality" for c in report.checks)
        # seen holds every table and polynomial, so no id is reused
        keys = [(id(table), id(f)) for table, f in seen]
        assert len(keys) > 0
        assert len(set(keys)) == len(keys)

    def test_big_n3_gram_memory(self):
        # the node values of the lmax 1 polynomials at n = 3 (66k nodes in
        # four parts) stay within 5 MiB traced; 4.68 MiB measured
        bp = BigParams(3, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
        parts = big._node_table(bp)
        tracemalloc.start()
        try:
            polys = list(orthogonalize((1, 1, 1), 3, monomial_s,
                                       parts).values())
            for i, f in enumerate(polys):
                for g in polys[i:]:
                    pair(f, g, parts)
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2 ** 20

    def test_big_n3_eval_points_memory(self):
        # a lmax 1 polynomial on the big --n 3 table (parts of 8,536 and
        # 24,497 nodes): 2.43 MiB traced, 1.7 of it the power rows; a
        # slab of 16 times SLAB elements takes 3.0 MiB
        bp = BigParams(3, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
        f = sum((monomial_w(mu) for mu in partitions_dominated_by((1, 1, 1))),
                LaurentPolynomial(3))
        Zs = [np.array([zi.take(nui) for zi, nui in zip(p.z, p.nu)]).T
              for p in big._node_table(bp)]
        tracemalloc.start()
        try:
            for Z in Zs:
                f.eval_points(Z)
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2.75 * 2 ** 20

    def test_kernel_memory(self):
        # 4,096 complex arguments at q = 0.99, about 3,600 factors each:
        # 0.5 MiB traced; a block of 4 times BLOCK elements takes 1.05 MiB
        rng = np.random.default_rng(0)
        a = rng.uniform(0.1, 0.9, 4096) * np.exp(1j * rng.uniform(0, 6, 4096))
        tracemalloc.start()
        try:
            qpoch_infinite_arr(a, 0.99)
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.75 * 2 ** 20


# per family: the module whose builder makes its node tables, the
# builder's name there, and a record on fresh parameters
OWNERS = {
    "aw": (askey_wilson, "measure", lambda: askey_wilson.family(
        AWParams(2, 0.5, 0.3, 1.1, -0.45, 0.25, 0.2), 64)),
    "qracah": (qracah, "_node_table", lambda: qracah.family(
        QRacahParams(2, 0.5, 0.3, 0.7, -0.5, 0.4, 2))),
    "little": (little, "_node_table", lambda: little.family(
        LittleParams(2, 0.5, 0.4, 0.6, -2.0))),
    "big": (big, "_node_table", lambda: big.family(big_params(2, "real"))),
}


class TestFamiliesOwnTheirTables:
    """A family record builds its measure once, on first use, and holds
    it alone (bcpoly.Family.on_tables): no cache keyed by parameter
    values shares a table between records, and no table outlives the
    check that reads it."""

    @staticmethod
    def counted(monkeypatch, name):
        """A fresh record of the family, and the list of its measure
        builds."""
        mod, builder, make = OWNERS[name]
        build, calls = getattr(mod, builder), []

        def counting(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(mod, builder, counting)
        return make, calls

    @pytest.mark.parametrize("name", list(OWNERS))
    def test_one_build_per_family(self, name, monkeypatch):
        # the <1,1>, the polynomials and their Gram matrix all read the
        # one build, made on the first pairing
        make, calls = self.counted(monkeypatch, name)
        fam = make()
        assert calls == []
        one = LaurentPolynomial.constant(2)
        fam.pair(one, one)
        fam.gram(list(fam.polynomials((1, 1)).values()))
        assert len(calls) == 1

    @pytest.mark.parametrize("name", list(OWNERS))
    def test_equal_parameters_build_twice(self, name, monkeypatch):
        # equal but distinct parameters: two records, two measures
        make, calls = self.counted(monkeypatch, name)
        first, second = make(), make()
        assert first.params == second.params
        assert first.params is not second.params
        one = LaurentPolynomial.constant(2)
        assert first.pair(one, one) == second.pair(one, one)
        assert len(calls) == 2

    def test_no_table_outlives_its_run(self, tmp_path):
        # selberg --n 3 builds the chamber and split tables of five
        # families; none is alive once the run is over
        def alive():
            return {id(obj) for obj in gc.get_objects()
                    if isinstance(obj, (measures._Chamber, PointTable))}

        gc.collect()
        before = alive()
        assert cli.main(["--suite", "selberg", "--n", "3",
                         "--out", str(tmp_path / "report.json")]) == 0
        gc.collect()
        assert alive() - before == set()
