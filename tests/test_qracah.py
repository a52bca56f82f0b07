"""Tests for the finite discrete q-Racah orthogonality."""

import cmath
import math
import random

import numpy as np
import pytest

from bcortho.askey_wilson import aw1_oracle
from bcortho import cli, qracah
from bcortho.bcpoly import (LaurentPolynomial, monomial_w,
                            partitions_dominated_by)
from bcortho.errors import BcorthoError, DomainViolation, PoleInWeight
from bcortho.measures import multi_discrete_weight, wd_residue_weight
from bcortho.params import AWParams
from bcortho.qracah import (
    QRacahParams,
    kr_constant,
    norm_qR,
    summation_qR,
    support_qR,
    weight_qR,
)
from bcortho.qseries import qpoch_finite
from oracles import norm_ratio_keys_tuples, residue_split_loop

QP1 = QRacahParams(1, 0.5, 0.3, 0.7, -0.5, 0.4, 3)
QP2 = QRacahParams(2, 0.5, 0.3, 0.7, -0.5, 0.4, 2)
QP3 = QRacahParams(3, 0.5, 0.3, 0.7, -0.5, 0.4, 1)

# generic (non-truncated) parameters with one discrete chain
PG = AWParams(2, 0.5, 0.3, 1.1, -0.5, 0.35, 0.45)


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def nodewise_table(qp):
    """The nodes rho q^nu and weights Delta^qR, each computed on its own,
    in support order."""
    p = qp.aw
    return [(tuple(p.t0 * p.t ** (i - 1) * p.q ** nu[i - 1]
                   for i in range(1, qp.n + 1)), weight_qR(nu, p))
            for nu in support_qR(qp)]


def bilinear_qR_nodewise(f, g, table):
    """The q-Racah pairing node by node, as it was computed before the
    pairing went to vectors: f and g evaluated at each node by eval, and
    the terms added in support order."""
    total = 0.0
    for z, w in table:
        total += f.eval(z) * g.eval(z) * w
    return total


class Memo:
    """A polynomial whose eval results are kept, so that the oracle pairs
    a Gram matrix without evaluating a polynomial twice at one node."""

    def __init__(self, f):
        self.f, self.values = f, {}

    def eval(self, z):
        if z not in self.values:
            self.values[z] = self.f.eval(z)
        return self.values[z]

    def eval_abs(self, z):
        """sum |c| |z^e|: the scale of the rounding of eval at z."""
        total = 0.0
        for e, c in self.f.terms.items():
            for zi, ei in zip(z, e):
                c = abs(c) * abs(zi) ** ei
            total += abs(c)
        return total


class TestWeight:
    def test_zero_label_is_one(self):
        assert weight_qR((0,), QP1.aw) == 1.0
        assert weight_qR((0, 0), QP2.aw) == 1.0

    def test_n1_hand_value(self):
        # single-variable weight at nu = (1,): all finite factorials have
        # length 1 or 2
        p = QP1.aw
        q = p.q
        rho = p.t0
        T = p.t0 * p.t1 * p.t2 * p.t3
        want = qpoch_finite(q * rho ** 2, q, 2) / (
            qpoch_finite(rho ** 2, q, 2) * (T / q))
        for tj in p.tvec:
            want *= (1 - tj * rho) / (1 - q * rho / tj)
        assert rel(weight_qR((1,), p), want) < 1e-13

    def test_vanishes_beyond_truncation(self):
        for nu in [(QP2.N + 1, QP2.N + 1), (0, QP2.N + 1)]:
            w = weight_qR(tuple(sorted(nu)), QP2.aw)
            assert abs(w) < 1e-10

    def test_rejects_decreasing_label(self):
        with pytest.raises(DomainViolation):
            weight_qR((2, 1), QP2.aw)


class TestWeightGuards:
    """The denominators of weight_qR and summation_qR are tested factor by
    factor: a tiny product of nonzero factors is a value, a vanishing
    factor is a pole."""

    Q, T0 = 0.5, 0.3
    # 1 - q t0 / t1 = 1e-9 and 1 - q t0 / t2 = -1e-9: the product of the
    # two denominator factors is 1e-18, far below the pole guard
    T1, T2 = Q * T0 / (1 - 1e-9), Q * T0 / (1 + 1e-9)

    def test_tiny_one_axis_denominator(self):
        p = AWParams(1, self.Q, 0.3, self.T0, self.T1, self.T2, 0.45)
        q, rho = p.q, p.t0
        T = p.t0 * p.t1 * p.t2 * p.t3
        num = qpoch_finite(q * rho ** 2, q, 2)
        den = qpoch_finite(rho ** 2, q, 2) * (T / q)
        for tj in (p.t0, p.t1, p.t2, p.t3):
            num *= qpoch_finite(tj * rho, q, 1)
            den *= qpoch_finite(q * rho / tj, q, 1)
        assert abs(den) < 1e-20
        assert weight_qR((1,), p) == num / den

    def test_tiny_pair_denominator(self):
        # t0^2 t = q^-1 (1 - 1e-9) at t = q: the pair factors
        # (q rho_1 rho_2 / t;q)_1 and (rho_1 rho_2;q)_1 are both 1e-9
        q = t = 0.5
        t0 = ((1 - 1e-9) / q) ** 0.5
        p = AWParams(2, q, t, t0, -0.5, 0.35, 0.45)
        rk, rl = t0, t0 * t
        pair_num = (qpoch_finite(q * rk * rl, q, 1)
                    * qpoch_finite(t * rk * rl, q, 1)
                    * qpoch_finite(q * rl / rk, q, 1)
                    * qpoch_finite(t * rl / rk, q, 1))
        pair_den = (qpoch_finite(q * rk * rl / t, q, 1)
                    * qpoch_finite(rk * rl, q, 1))
        assert abs(pair_den) < 1e-17
        pair_den *= (qpoch_finite(q * rl / (t * rk), q, 1)
                     * qpoch_finite(rl / rk, q, 1))
        # the one-axis factor of nu_2 = 1 at rho_2 = t0 t
        T = p.t0 * p.t1 * p.t2 * p.t3
        num = qpoch_finite(q * rl ** 2, q, 2)
        den = qpoch_finite(rl ** 2, q, 2) * (T / q * t ** 2)
        for tj in (p.t0, p.t1, p.t2, p.t3):
            num *= qpoch_finite(tj * rl, q, 1)
            den *= qpoch_finite(q * rl / tj, q, 1)
        assert rel(weight_qR((0, 1), p),
                   num / den * (pair_num / pair_den)) < 1e-12

    def test_tiny_summation_denominator(self):
        q, t0, t1, t2 = self.Q, self.T0, self.T1, self.T2
        qp = QRacahParams(1, q, 0.3, t0, t1, t2, 1)
        num = (1 - q * t0 ** 2 * 1.0) * (1 - q / (t1 * t2) * 1.0)
        den = (1 - q * t0 / t1 * 1.0) * (1 - q * t0 / t2 * 1.0)
        assert abs(den) < 1e-17
        assert summation_qR(qp) == num / den

    def test_vanishing_one_axis_factor(self):
        # q rho / t1 = 0.5 * 0.5 / 0.25 = 1 exactly
        p = AWParams(1, 0.5, 0.3, 0.5, 0.25, 0.35, 0.45)
        with pytest.raises(PoleInWeight, match="denominator at i=1"):
            weight_qR((1,), p)

    def test_vanishing_pair_factor(self):
        # rho_1 rho_2 = t0^2 t = 4 * 0.25 = 1 exactly
        p = AWParams(2, 0.5, 0.25, 2.0, -0.5, 0.35, 0.45)
        with pytest.raises(PoleInWeight, match="pair denominator"):
            weight_qR((0, 1), p)

    def test_vanishing_summation_factor(self):
        qp = QRacahParams(1, 0.5, 0.3, 0.5, 0.25, 0.35, 2)
        with pytest.raises(PoleInWeight, match="summation"):
            summation_qR(qp)


class TestKr:
    def test_k0_is_one(self):
        assert kr_constant(0, PG) == 1.0

    def test_k1_is_wd_at_origin(self):
        # Delta^(d) at the one-point chain (0,) equals w_d(0) while
        # Delta^qR there is 1, so K_1 is the bare residue mass
        got = kr_constant(1, PG)
        want = wd_residue_weight(0, PG.t0, PG.t1, PG.t2, PG.t3, PG.q)
        assert rel(got, want) < 1e-12

    def test_tiny_factor_near_q_one(self):
        # (q;q)_inf = 1.3e-13 at q = 0.95: a small product, not a pole
        p = AWParams(1, 0.95, 0.3, 0.95 ** -66.5, 5e-3, -3e-3, 2e-3)
        got = kr_constant(1, p)
        assert abs(got - 1.01811840407536e14) < 1e-13 * 1.01811840407536e14
        want = wd_residue_weight(0, p.t0, p.t1, p.t2, p.t3, p.q)
        assert rel(got, want) < 1e-14

    @pytest.mark.parametrize("n", [2, 3])
    def test_residue_split_equals_loop(self, n):
        # the CLI's check weighs each distinct label once and forms K_r
        # once per length: the value of the loop over all 20 labels, or
        # NaN where that loop raises (a failed check)
        qp = QRacahParams(n, 0.5, 0.3, 0.7, -0.5, 0.4, 2)
        for seed in range(60):
            try:
                got = cli._residue_split(qp, seed)
            except BcorthoError:
                got = math.nan
            want = residue_split_loop(qp, seed)
            assert got == want or (math.isnan(got) and math.isnan(want))

    def test_residue_weight_identity(self):
        rng = random.Random(11)
        for _ in range(20):
            r = rng.choice([1, 2])
            nu = tuple(sorted(rng.randrange(5) for _ in range(r)))
            lhs = multi_discrete_weight(nu, PG, 0)
            rhs = kr_constant(r, PG) * weight_qR(nu, PG)
            assert rel(lhs, rhs) < 1e-10


class TestSupport:
    def test_sizes(self):
        assert len(support_qR(QP2)) == 6
        assert len(support_qR(QP3)) == 4

    def test_ascending_and_bounded(self):
        for nu in support_qR(QP2):
            assert list(nu) == sorted(nu)
            assert nu[-1] <= QP2.N


class TestSummation:
    @pytest.mark.parametrize("qp", [QP1, QP2, QP3])
    def test_matches_direct_sum(self, qp):
        one = LaurentPolynomial.constant(qp.n)
        assert rel(qracah.family(qp).pair(one, one),
                   summation_qR(qp)) < 1e-10

    def test_norm0_matches_summation(self):
        for qp in (QP1, QP2, QP3):
            assert rel(norm_qR((0,) * qp.n, qp), summation_qR(qp)) < 1e-12


class TestOrthogonality:
    def test_n1_gram_via_oracle(self):
        # evaluate the one-variable polynomial through the independent
        # exact-rational closed form at each node
        qp = QP1
        p = qp.aw
        nodes = [(nu[0], p.t0 * p.q ** nu[0]) for nu in support_qR(qp)]
        for la in range(qp.N + 1):
            for lb in range(la, qp.N + 1):
                s = sum(aw1_oracle(la, z, p) * aw1_oracle(lb, z, p)
                        * weight_qR((nu,), p) for nu, z in nodes)
                if la == lb:
                    assert rel(s, norm_qR((la,), qp)) < 1e-9
                else:
                    assert abs(s) < 1e-10 * abs(summation_qR(qp))

    @pytest.mark.parametrize("N", [1, 2])
    def test_n2_gram(self, N):
        qp = QRacahParams(2, 0.5, 0.3, 0.7, -0.5, 0.4, N)
        lams = [lam for lam in
                [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2)]
                if lam[0] <= N]
        fam = qracah.family(qp)
        polys = {lam: fam.polynomials(lam)[lam] for lam in lams}
        scale = abs(summation_qR(qp))
        for i, la in enumerate(lams):
            for lb in lams[i:]:
                v = fam.pair(polys[la], polys[lb])
                if la == lb:
                    assert rel(v, norm_qR(la, qp)) < 1e-8
                else:
                    assert abs(v) < 1e-9 * scale

    def test_norm_positive(self):
        for lam in [(0, 0), (1, 0), (2, 2)]:
            v = norm_qR(lam, QP2)
            assert abs(complex(v).imag) < 1e-12 * abs(v)
            assert complex(v).real > 0


class TestNodeTable:
    """The vectorized pairing against the node-by-node oracle."""

    @staticmethod
    def gram_pairs(fam):
        top = (fam.params.N,) * fam.params.n
        polys = list(fam.polynomials(top).values())
        polys += [monomial_w(lam) for lam in partitions_dominated_by(top)]
        memo = [Memo(f) for f in polys]
        return [(polys[i], polys[j], memo[i], memo[j])
                for i in range(len(polys)) for j in range(i, len(polys))]

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_table_in_support_order(self, n, N):
        qp = QRacahParams(n, 0.5, 0.3, 0.7, -0.5, 0.4, N)
        part = qracah._node_table(qp)
        Z, w = part.z[np.arange(n)[:, None], part.nu].T, part.weights
        table = nodewise_table(qp)
        assert Z.shape == (len(table), n) and w.shape == (len(table),)
        assert [(tuple(z), wk) for z, wk in zip(Z.tolist(), w.tolist())
                ] == table

    @pytest.mark.parametrize("N", [0, 1, 2, 3])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_equals_nodewise_oracle_bitwise(self, n, N):
        # real parameters: the real path of eval_points reproduces eval,
        # and the terms are added in the same order
        qp = QRacahParams(n, 0.5, 0.3, 0.7, -0.5, 0.4, N)
        table = nodewise_table(qp)
        fam = qracah.family(qp)
        for f, g, fm, gm in self.gram_pairs(fam):
            assert fam.pair(f, g) == bilinear_qR_nodewise(fm, gm, table)

    @pytest.mark.parametrize("n, N", [(1, 3), (2, 2), (3, 1)])
    def test_complex_t0(self, n, N):
        # numpy's complex powers may differ from Python's in the last bit
        qp = QRacahParams(n, 0.5, 0.3, 0.7 * cmath.exp(0.4j), -0.5, 0.4, N)
        assert np.iscomplexobj(qracah._node_table(qp).z)
        table = nodewise_table(qp)
        fam = qracah.family(qp)
        for f, g, fm, gm in self.gram_pairs(fam):
            want = bilinear_qR_nodewise(fm, gm, table)
            scale = sum(fm.eval_abs(z) * gm.eval_abs(z) * abs(w)
                        for z, w in table)
            assert abs(fam.pair(f, g) - want) <= 1e-13 * scale


class TestNormKeys:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_keys_equal_tuple_arithmetic(self, n):
        # the one-step keys are the tuple-arithmetic ones, in the same
        # order, so norm_qR keeps its rounding
        qp = QRacahParams(n, 0.5, 0.3, 0.7, -0.5, 0.4, 3)
        for lam in partitions_dominated_by((3,) * n):
            num, den = qracah._norm_ratio_keys(lam, qp)
            assert (num, den) == norm_ratio_keys_tuples(lam, n, 3)
            assert all(type(x) is int for key in num + den for x in key)


class TestErrors:
    def test_degree_beyond_truncation(self):
        with pytest.raises(DomainViolation):
            norm_qR((QP2.N + 1, 0), QP2)
        with pytest.raises(DomainViolation):
            qracah.family(QP2).polynomials((QP2.N + 1, 0))

    def test_negative_N(self):
        with pytest.raises(DomainViolation):
            QRacahParams(1, 0.5, 0.3, 0.7, -0.5, 0.4, -1)

    def test_partition_length(self):
        with pytest.raises(DomainViolation):
            norm_qR((1,), QP2)
