"""Tests for the finite discrete q-Racah orthogonality."""

import random

import pytest

from bcortho.askey_wilson import aw1_oracle
from bcortho.bcpoly import LaurentPolynomial
from bcortho.errors import DomainViolation
from bcortho.measures import multi_discrete_weight, wd_residue_weight
from bcortho.params import AWParams
from bcortho.qracah import (
    QRacahParams,
    bilinear_qR,
    kr_constant,
    norm_qR,
    qracah_polynomials,
    summation_qR,
    support_qR,
    weight_qR,
)
from bcortho.qseries import qpoch_finite

QP1 = QRacahParams(1, 0.5, 0.3, 0.7, -0.5, 0.4, 3)
QP2 = QRacahParams(2, 0.5, 0.3, 0.7, -0.5, 0.4, 2)
QP3 = QRacahParams(3, 0.5, 0.3, 0.7, -0.5, 0.4, 1)

# generic (non-truncated) parameters with one discrete chain
PG = AWParams(2, 0.5, 0.3, 1.1, -0.5, 0.35, 0.45)


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


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


class TestKr:
    def test_k0_is_one(self):
        assert kr_constant(0, PG) == 1.0

    def test_k1_is_wd_at_origin(self):
        # Delta^(d) at the one-point chain (0,) equals w_d(0) while
        # Delta^qR there is 1, so K_1 is the bare residue mass
        got = kr_constant(1, PG)
        want = wd_residue_weight(0, PG.t0, PG.t1, PG.t2, PG.t3, PG.q)
        assert rel(got, want) < 1e-12

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
        assert rel(bilinear_qR(one, one, qp), summation_qR(qp)) < 1e-10

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
        polys = {lam: qracah_polynomials(lam, qp)[lam].to_laurent()
                 for lam in lams}
        scale = abs(summation_qR(qp))
        for i, la in enumerate(lams):
            for lb in lams[i:]:
                v = bilinear_qR(polys[la], polys[lb], qp)
                if la == lb:
                    assert rel(v, norm_qR(la, qp)) < 1e-8
                else:
                    assert abs(v) < 1e-9 * scale

    def test_norm_positive(self):
        for lam in [(0, 0), (1, 0), (2, 2)]:
            v = norm_qR(lam, QP2)
            assert abs(complex(v).imag) < 1e-12 * abs(v)
            assert complex(v).real > 0


class TestErrors:
    def test_degree_beyond_truncation(self):
        with pytest.raises(DomainViolation):
            norm_qR((QP2.N + 1, 0), QP2)
        with pytest.raises(DomainViolation):
            qracah_polynomials((QP2.N + 1, 0), QP2)

    def test_negative_N(self):
        with pytest.raises(DomainViolation):
            QRacahParams(1, 0.5, 0.3, 0.7, -0.5, 0.4, -1)

    def test_partition_length(self):
        with pytest.raises(DomainViolation):
            norm_qR((1,), QP2)
