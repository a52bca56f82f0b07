"""The per-parameter node tables of the discrete measures against the
scalar weight functions they replace in the pairings, and the caching that
makes a repeated pairing compute no weights."""

import itertools
import math
import re

import numpy as np
import pytest

from bcortho import big, little, measures, qracah
from bcortho.bcpoly import LaurentPolynomial, monomial_s, monomial_w
from bcortho.big import BigParams, bilinear_big, c_weights, weight_big
from bcortho.errors import (
    BcorthoError,
    DomainViolation,
    LengthMismatch,
    NonFiniteWeight,
    PoleAtDenominator,
    ZeroCoordinate,
    ZeroProduct,
)
from bcortho.little import (
    LittleParams,
    _weight_at_point,
    bilinear_little,
    delta_qJ,
)
from bcortho.params import CACHE_SIZE
from bcortho.qracah import QRacahParams, bilinear_qR
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
    want = measures._chain_labels(lengths, [S + 1] * sum(lengths), S)
    assert sorted(map(tuple, nu.T.tolist())) == sorted(
        map(tuple, want.T.tolist()))


class TestChainLabels:
    @pytest.mark.parametrize("lengths", [(1,), (3,), (0, 2), (2, 1),
                                         (1, 2), (3, 0)])
    @pytest.mark.parametrize("S", [0, 1, 7])
    def test_matches_brute_force(self, lengths, S):
        nu = measures._chain_labels(lengths, [S + 1] * sum(lengths), S)
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
        nu = measures._chain_labels(lengths, ends, sum(ends))
        want = sorted(label for label in ascending_labels(lengths, sum(ends))
                      if all(x < e for x, e in zip(label, ends)))
        assert list(map(tuple, nu.T.tolist())) == want


class TestBigTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("branch", ["real", "conjugate"])
    def test_weights_match_scalar(self, n, branch):
        bp = big_params(n, branch)
        cw = c_weights(bp)
        table = big._node_table(bp)
        assert len(table) == n + 1
        compared = 0
        for j, (z, nu, w) in enumerate(table):
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
        assert raised(bilinear_big, one, one, bp) is want


class TestLittleTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_weights_match_scalar(self, n):
        lp = LittleParams(n, 0.5, 0.4, 0.6, -2.0)
        [(z, nu, w)] = little._node_table(lp)
        check_labels(nu, (n,))
        assert nu.shape == (n, len(w))
        for i in range(n):
            want = [lp.t ** i * lp.q ** v for v in range(len(z[i]))]
            assert np.allclose(z[i], want, rtol=1e-14, atol=0)
        compared = 0
        for r, lab in enumerate(nu.T.tolist()):
            if sum(lab) <= SHELLS:
                x = little.support_point(lab, lp)
                assert np.allclose(z[np.arange(n), lab], x, rtol=1e-14,
                                   atol=0)
                want = (1 - lp.q) ** n * _weight_at_point(x, lp) * math.prod(x)
                assert rel(w[r], want) < 1e-13
                compared += 1
        assert compared == len(ascending_labels((n,), SHELLS))

    @pytest.mark.parametrize("n", [1, 2])
    def test_scalar_pole_raises_same_class(self, n):
        # 1 - q b ~ 1e-14 makes (qbx;q)_inf vanish at the node x = 1
        lp = LittleParams(n, 0.5, 0.4, 0.6, (1.0 - 1e-14) / 0.5)
        z = little.support_point((0,) * n, lp)
        want = raised(_weight_at_point, z, lp)
        assert want is DomainViolation
        one = LaurentPolynomial.constant(n)
        assert raised(bilinear_little, one, one, lp) is want

    def test_pair_factor_guard_is_per_factor(self):
        # z = (t, 1) puts the factor 1 - t z_2 / z_1 of the denominator of
        # (q z_2 / (t z_1); q)_{2 tau - 1} exactly at zero
        q, t = 0.5, 0.4
        assert raised(delta_qJ, (t, 1.0), q, t) is PoleAtDenominator
        assert raised(little._delta_qJ_rows, np.array([[t, 1.0]]), q,
                      t) is PoleAtDenominator
        Z = np.array([[1.0, 0.3], [0.7, 0.2], [-0.9, 0.4]])
        got = little._delta_qJ_rows(Z, q, t)
        for r in range(len(Z)):
            assert rel(got[r], delta_qJ(tuple(Z[r]), q, t)) < 1e-13


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
        def delta(Z, q, t):
            out = np.ones(len(Z))
            out[3] = np.inf
            return out

        monkeypatch.setattr(little, "_delta_qJ_rows", delta)
        lp = LittleParams(2, 0.5, 0.4, 0.6, -2.0)
        # row 3 of the table: label (0, 3)
        z = list(little.support_point((0, 3), lp))
        with pytest.raises(NonFiniteWeight, match=re.escape(
                f"z = {z}, label nu = [0, 3]")):
            little._node_table.__wrapped__(lp)


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

    def test_errors(self):
        with pytest.raises(ZeroCoordinate):
            self.POLY.eval_points(np.array([[1.0, 0.0, 2.0]]))
        with pytest.raises(LengthMismatch):
            self.POLY.eval_points(np.ones((4, 2)))
        with pytest.raises(LengthMismatch):
            self.POLY.eval_points(np.ones(3))


class TestTablesAreReused:
    """A repeated pairing on equal parameters computes no node weight."""

    def counting(self, monkeypatch, mod, names, counts):
        for name in names:
            fn = getattr(mod, name)

            def wrapped(*args, _fn=fn, _name=name, **kwargs):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapped)

    def check(self, monkeypatch, pairing, make_params, tables, kernels):
        for table in tables:
            table.cache_clear()
        counts = {}
        for mod, names in kernels:
            self.counting(monkeypatch, mod, names, counts)
        first = pairing(make_params())
        assert sum(counts.values()) > 0
        counts.clear()
        assert pairing(make_params()) == first
        assert counts == {}

    def test_big(self, monkeypatch):
        f, g = monomial_s((1, 0)), monomial_s((1, 1))
        self.check(monkeypatch, lambda bp: bilinear_big(f, g, bp),
                   lambda: big_params(2, "real"), [big._node_table],
                   [(big, ["qpoch_infinite", "qpoch_infinite_arr",
                           "weight_big", "c_weights"]),
                    (little, ["qpoch_real_arr"])])

    def test_little(self, monkeypatch):
        f, g = monomial_s((1, 0)), monomial_s((2, 1))
        self.check(monkeypatch, lambda lp: bilinear_little(f, g, lp),
                   lambda: LittleParams(2, 0.5, 0.4, 0.6, -2.0),
                   [little._node_table],
                   [(little, ["qpoch_infinite", "qpoch_infinite_arr",
                              "qpoch_real", "qpoch_real_arr"])])

    def test_qracah(self, monkeypatch):
        f, g = monomial_w((1, 0)), monomial_w((1, 1))
        self.check(monkeypatch, lambda qp: bilinear_qR(f, g, qp),
                   lambda: QRacahParams(2, 0.5, 0.3, 0.7, -0.5, 0.4, 2),
                   [qracah._node_table], [(qracah, ["weight_qR"])])

    def test_one_bound_for_every_table(self):
        for table in (big._node_table, little._node_table,
                      qracah._node_table, measures._factors,
                      measures._moment_table):
            assert table.cache_info().maxsize == CACHE_SIZE
