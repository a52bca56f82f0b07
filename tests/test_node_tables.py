"""The per-parameter node tables of the discrete measures against the
scalar weight functions they replace in the pairings, and the caching that
makes a repeated pairing compute no weights."""

import math

import numpy as np
import pytest

from bcortho import big, little, measures, qracah
from bcortho.bcpoly import LaurentPolynomial, monomial_s, monomial_w
from bcortho.big import BigParams, bilinear_big, c_weights, weight_big
from bcortho.errors import (
    BcorthoError,
    DomainViolation,
    LengthMismatch,
    PoleAtDenominator,
    ZeroCoordinate,
    ZeroProduct,
)
from bcortho.little import (
    LittleParams,
    _ascending_with_sum,
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

SHELLS = range(7)
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


class TestBigTable:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("branch", ["real", "conjugate"])
    def test_weights_match_scalar(self, n, branch):
        bp = big_params(n, branch)
        cw = c_weights(bp, check=False)
        table = big._node_table(bp)
        for s in SHELLS:
            Z, w = table.shell(s)
            r = 0
            for j in range(n + 1):
                for s1 in range(s + 1):
                    for nu in _ascending_with_sum(j, s1):
                        for nup in _ascending_with_sum(n - j, s - s1):
                            z = big.support_point(j, nu, nup, bp)
                            assert tuple(Z[r]) == z
                            jac = math.prod(z[:j]) * math.prod(
                                -x for x in z[j:])
                            want = cw[j] * weight_big(z, bp) * jac
                            assert rel(w[r], want) < 1e-13
                            r += 1
            assert r == len(Z) == len(w)

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
        table = little._node_table(lp)
        for s in SHELLS:
            Z, w = table.shell(s)
            nodes = list(_ascending_with_sum(n, s))
            assert len(Z) == len(w) == len(nodes)
            for r, nu in enumerate(nodes):
                z = little.support_point(nu, lp)
                assert tuple(Z[r]) == z
                want = _weight_at_point(z, lp) * math.prod(z)
                assert rel(w[r], want) < 1e-13

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
