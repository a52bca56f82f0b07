"""Tests for the little q-Jacobi Jackson-multisum orthogonality."""

import math

import pytest

from bcortho.askey_wilson import limit_scan
from bcortho.bcpoly import LaurentPolynomial, monomial_s
from bcortho.errors import DomainViolation
from bcortho.little import (
    LittleParams,
    aw_params_little,
    bilinear_little,
    little_limit,
    little_polynomials,
    norm_little,
    selberg_little,
)
from bcortho.qseries import qpoch_infinite
from oracles import qgamma, support_point, weight_little

LP1 = LittleParams(1, 0.5, 0.3, 0.4, 0.2)
LP2 = LittleParams(2, 0.5, 0.3, 0.4, 0.2)
LP2N = LittleParams(2, 0.5, 0.3, 0.4, -0.6)
LP3 = LittleParams(3, 0.5, 0.25, 0.3, 0.2)


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


class TestParams:
    def test_domain_checks(self):
        with pytest.raises(DomainViolation):
            LittleParams(1, 0.5, 0.3, -0.1, 0.2)   # a <= 0
        with pytest.raises(DomainViolation):
            LittleParams(1, 0.5, 0.3, 2.5, 0.2)    # a >= 1/q
        with pytest.raises(DomainViolation):
            LittleParams(1, 0.5, 0.3, 0.4, 2.5)    # b >= 1/q
        with pytest.raises(DomainViolation):
            LittleParams(0, 0.5, 0.3, 0.4, 0.2)

    def test_alpha(self):
        lp = LittleParams(1, 0.5, 0.3, 0.25, 0.2)
        assert abs(lp.alpha - 2.0) < 1e-14


class TestWeight:
    def test_n1_closed_form(self):
        q, a, b = LP1.q, LP1.a, LP1.b
        for nu in (0, 1, 3):
            x = q ** nu
            want = (qpoch_infinite(q * x, q)
                    / qpoch_infinite(q * b * x, q)).real * a ** nu
            assert rel(weight_little((nu,), LP1), want) < 1e-13

    def test_positive_on_support(self):
        for lp in (LP2, LP2N, LP3):
            for nu in [(0,) * lp.n, (1,) * lp.n,
                       tuple(range(lp.n)), (0,) * (lp.n - 1) + (3,)]:
                assert weight_little(nu, lp) > 0.0

    def test_support_point(self):
        assert support_point((1, 2), LP2) == (LP2.q, LP2.t * LP2.q ** 2)


class TestConstantTerm:
    @pytest.mark.parametrize("lp", [LP1, LP2, LP2N, LP3])
    def test_selberg_matches_multisum(self, lp):
        one = LaurentPolynomial.constant(lp.n)
        got = bilinear_little(one, one, lp)
        assert rel(got, selberg_little(lp)) < 1e-10

    def test_n1_is_qbeta(self):
        # one-variable constant term is the q-beta integral
        lp = LP1
        q = lp.q
        alpha = lp.alpha
        beta = math.log(lp.b) / math.log(q)
        want = (qgamma(alpha + 1.0, q, qu=q * lp.a)
                * qgamma(beta + 1.0, q, qu=q * lp.b)
                / qgamma(alpha + beta + 2.0, q, qu=q * q * lp.a * lp.b))
        assert rel(selberg_little(lp), want) < 1e-12

    def test_norm0_is_selberg(self):
        for lp in (LP1, LP2, LP2N):
            assert rel(norm_little((0,) * lp.n, lp),
                       selberg_little(lp)) < 1e-13

    def test_symmetry(self):
        f = monomial_s((1, 0))
        g = monomial_s((1, 1))
        assert bilinear_little(f, g, LP2) == bilinear_little(g, f, LP2)


class TestNearOne:
    def test_closed_forms_finite_at_q099(self):
        # (q a;q)_inf is below 1e-13 here although no factor vanishes
        lp = LittleParams(2, 0.99, 0.3, 0.4, 0.2)
        sel = selberg_little(lp)
        assert math.isfinite(sel) and sel > 0.0
        assert abs(norm_little((0, 0), lp) - sel) < 1e-12 * sel
        for lam in [(1, 0), (2, 1)]:
            v = norm_little(lam, lp)
            assert math.isfinite(v) and v > 0.0


class TestOrthogonality:
    def test_n1_mean_ratio(self):
        # P_1 = x - <x,1>/<1,1> with the ratio from the 1-d Jackson sums
        lp = LP1
        pol = little_polynomials((1,), lp)[(1,)]
        mean = (bilinear_little(monomial_s((1,)), monomial_s((0,)), lp)
                / bilinear_little(monomial_s((0,)), monomial_s((0,)), lp))
        assert rel(pol.coefficient((0,)), -mean) < 1e-12

    @pytest.mark.parametrize("lp", [LP2, LP2N])
    def test_n2_gram(self, lp):
        lams = [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0)]
        polys = {lam: little_polynomials(lam, lp)[lam] for lam in lams}
        scale = abs(selberg_little(lp))
        for i, la in enumerate(lams):
            for lb in lams[i:]:
                v = bilinear_little(polys[la], polys[lb], lp)
                if la == lb:
                    assert rel(v, norm_little(la, lp)) < 1e-8
                else:
                    assert abs(v) < 1e-9 * scale

    def test_norm_positive(self):
        for lam in [(0, 0), (1, 0), (2, 2), (3, 1)]:
            for lp in (LP2, LP2N):
                assert norm_little(lam, lp) > 0.0


class TestLimit:
    def test_aw_params(self):
        p = aw_params_little(0.5, LP1)
        rq = math.sqrt(LP1.q)
        assert p.tvec == (rq / 0.5, -LP1.a * rq, 0.5 * LP1.b * rq, -rq)

    def test_aw_params_requires_b(self):
        lp = LittleParams(1, 0.5, 0.3, 0.4, 0.0)
        with pytest.raises(DomainViolation):
            aw_params_little(0.5, lp)

    def test_scan_zero_partition(self):
        rows = limit_scan(little_limit(LP1), (0,), range(4))
        assert all(dev == 0.0 for _k, _e, dev in rows)

    def test_scan_decreasing(self):
        rows = limit_scan(little_limit(LP1), (1,), range(16))
        devs = [dev for _k, _e, dev in rows]
        assert devs[-1] < 1e-4
        assert all(b < a for a, b in zip(devs[4:-1], devs[5:]))


class TestErrors:
    def test_partition_length(self):
        with pytest.raises(DomainViolation):
            little_polynomials((1,), LP2)
        with pytest.raises(DomainViolation):
            norm_little((1, 0, 0), LP2)
