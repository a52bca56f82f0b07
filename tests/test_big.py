"""Tests for the big q-Jacobi c-weighted Jackson orthogonality."""

import math
import random

import pytest

from bcortho import big
from bcortho.askey_wilson import limit_scan
from bcortho.bcpoly import LaurentPolynomial, monomial_s
from bcortho.errors import DomainViolation, PoleInTheta
from bcortho.big import (
    FORM_TOL,
    BigParams,
    askey_evans_lhs,
    askey_evans_rhs,
    asymptotic_ratio,
    aw_params_big,
    big_polynomials,
    bilinear_big,
    big_limit,
    c_weights,
    c_weights_defining,
    norm_big,
    selberg_big,
    selberg_big_qk,
    support_point,
    weight_big,
)
from bcortho.qseries import qpoch_infinite

BP1 = BigParams(1, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
BP2 = BigParams(2, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
BP2N = BigParams(2, 0.5, 0.4, -0.5, 0.3, 1.0, 0.8)
# conjugate branch a = c u, b = -d conj(u)
U = 0.3 + 0.4j
BP2C = BigParams(2, 0.5, 0.4, 1.0 * U, -0.8 * U.conjugate(), 1.0, 0.8)


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def random_vb(rng, n):
    q = rng.uniform(0.3, 0.7)
    t = rng.uniform(0.2, 0.8)
    c = rng.uniform(0.5, 1.5)
    d = rng.uniform(0.5, 1.5)
    a = rng.uniform(-0.9 * c / (d * q), 0.9 / q)
    b = rng.uniform(-0.9 * d / (c * q), 0.9 / q)
    return BigParams(n, q, t, a, b, c, d)


class TestParams:
    def test_domain_checks(self):
        with pytest.raises(DomainViolation):
            BigParams(1, 0.5, 0.4, 0.6, 0.3, -1.0, 0.8)   # c <= 0
        with pytest.raises(DomainViolation):
            BigParams(1, 0.5, 0.4, 2.5, 0.3, 1.0, 0.8)    # a >= 1/q
        with pytest.raises(DomainViolation):
            BigParams(1, 0.5, 0.4, 0.6, -2.5, 1.0, 0.8)   # b <= -d/cq

    def test_conjugate_branch(self):
        u = 0.3 + 0.4j
        bp = BigParams(1, 0.5, 0.4, 1.0 * u, -0.8 * u.conjugate(), 1.0, 0.8)
        assert bp.a == u
        with pytest.raises(DomainViolation):
            BigParams(1, 0.5, 0.4, 1.0 * u, 0.8 * u, 1.0, 0.8)

    def test_support_point(self):
        z = support_point(1, (2,), (1,), BP2)
        assert z == (BP2.c * BP2.q ** 2, -BP2.d * BP2.q)
        with pytest.raises(DomainViolation):
            support_point(1, (2, 0), (), BP2)


class TestCWeights:
    def test_n1_both_equal(self):
        cw = c_weights(BP1)
        assert len(cw) == 2
        assert rel(cw[0], cw[1]) < 1e-14

    def test_dual_form_random_points(self):
        # internal cross-check of the theta product form against the
        # base-constant-times-Psi_t form, at random admissible points
        rng = random.Random(7)
        for _ in range(10):
            bp = random_vb(rng, rng.choice([1, 2, 3]))
            for got, want in zip(c_weights(bp), c_weights_defining(bp)):
                assert abs(got - want) <= FORM_TOL * max(abs(got), abs(want))

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_qk_closed_form(self, n, k):
        # at t = q^k all split-weights coincide and have an explicit
        # theta-free product form
        q, c, d = 0.5, 1.2, 0.8
        bp = BigParams(n, q, q ** k, 0.3, 0.2, c, d)
        want = (q ** (math.comb(k, 2) * math.comb(n, 2)
                      - k * k * math.comb(n, 3)) * (c + d) ** n
                / ((qpoch_infinite(-d / c, q)
                    * qpoch_infinite(-c / d, q)).real ** n
                   * (c * d) ** (n + math.comb(n, 2) * k)))
        for v in c_weights(bp):
            assert rel(v, want) < 1e-12

    def test_quasi_constant_ratios(self):
        # the ratios c_{B,j}/c_{B,0} are built from Psi_t factors, which
        # are invariant under d -> q d
        bp = BigParams(2, 0.5, 0.4, 0.3, 0.2, 1.0, 0.7)
        bq = BigParams(2, 0.5, 0.4, 0.3, 0.2, 1.0, 0.7 * 0.5)
        ca, cb = c_weights(bp), c_weights(bq)
        for j in range(3):
            assert rel(ca[j] / ca[0], cb[j] / cb[0]) < 1e-12


def fake_thetas(monkeypatch, theta):
    """Make c_weights read theta(x) for every theta value of its kernel
    call, and the true (a;q)_inf for the others."""
    real = big.qpoch_theta_values
    monkeypatch.setattr(big, "qpoch_theta_values", lambda args, xs, q: (
        real(args, [], q)[0], [theta(x) for x in xs]))


class TestCWeightGuard:
    # each theta factor of a denominator is guarded on its own, as in
    # qpoch_ratio, so a small product of admissible factors is accepted
    def test_small_factors_accepted(self, monkeypatch):
        # the product of the two factors of c_{B,1} is 1e-14, below the
        # pole guard, but neither factor is
        fake_thetas(monkeypatch, lambda x: 1e-7)
        assert all(math.isfinite(v) and v != 0.0
                   for v in big.c_weights(BP2))

    def test_vanishing_factor_raises(self, monkeypatch):
        x0 = -BP2.t * BP2.c / BP2.d   # theta(-t c / d) divides c_{B,1}
        fake_thetas(monkeypatch, lambda x: 1e-14 if x == x0 else 1.0)
        with pytest.raises(PoleInTheta):
            big.c_weights(BP2)


class TestWeight:
    def test_n1_value_at_c(self):
        q, a, b, c, d = BP1.q, BP1.a, BP1.b, BP1.c, BP1.d
        want = ((qpoch_infinite(q, q) * qpoch_infinite(-q * c / d, q))
                / (qpoch_infinite(q * a, q)
                   * qpoch_infinite(-q * b * c / d, q))).real
        assert rel(weight_big((c,), BP1), want) < 1e-13

    def test_positive_on_support(self):
        for bp in (BP2, BP2N):
            for j in range(3):
                z = support_point(j, (0,) * j, (1,) * (2 - j), bp)
                assert weight_big(z, bp) > 0.0

    def test_a_b_zero_finite(self):
        bp = BigParams(1, 0.5, 0.4, 0.0, 0.0, 1.0, 0.8)
        assert weight_big((bp.c,), bp) > 0.0


class TestConstantTerm:
    @pytest.mark.parametrize("bp", [BP1, BP2, BP2N])
    def test_selberg_matches_multisum(self, bp):
        one = LaurentPolynomial.constant(bp.n)
        assert rel(bilinear_big(one, one, bp), selberg_big(bp)) < 1e-10

    def test_norm0_is_selberg(self):
        for bp in (BP1, BP2, BP2N):
            assert rel(norm_big((0,) * bp.n, bp), selberg_big(bp)) < 1e-13

    def test_swap_symmetry(self):
        # the closed form is invariant under (a,c) <-> (b,d)
        b1 = BigParams(2, 0.5, 0.4, 0.3, 0.2, 1.0, 0.7)
        b2 = BigParams(2, 0.5, 0.4, 0.2, 0.3, 0.7, 1.0)
        assert rel(selberg_big(b1), selberg_big(b2)) < 1e-14

    def test_symmetry(self):
        f = monomial_s((1, 0))
        g = monomial_s((1, 1))
        assert bilinear_big(f, g, BP2) == bilinear_big(g, f, BP2)


class TestAskeyEvans:
    @pytest.mark.parametrize("n,k", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1),
                                     (3, 2)])
    def test_two_sided_integral(self, n, k):
        bp = BigParams(n, 0.5, 0.5 ** k, 0.6, 0.3, 1.0, 0.8)
        assert rel(askey_evans_lhs(bp), askey_evans_rhs(bp)) < 1e-12

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2), (3, 1)])
    def test_constant_translation(self, n, k):
        # the general constant term, divided by the translation constant,
        # reproduces the two-sided integral value
        bp = BigParams(n, 0.5, 0.5 ** k, 0.3, 0.2, 1.0, 0.7)
        assert rel(selberg_big_qk(bp), askey_evans_rhs(bp)) < 1e-12

    def test_requires_integral_k(self):
        with pytest.raises(DomainViolation):
            askey_evans_rhs(BP2)


class TestOrthogonality:
    @pytest.mark.parametrize("bp", [BP2, BP2N])
    def test_n2_gram(self, bp):
        lams = [(0, 0), (1, 0), (1, 1), (2, 0)]
        polys = {lam: big_polynomials(lam, bp)[lam] for lam in lams}
        scale = abs(selberg_big(bp))
        for i, la in enumerate(lams):
            for lb in lams[i:]:
                v = bilinear_big(polys[la], polys[lb], bp)
                if la == lb:
                    assert rel(v, norm_big(la, bp)) < 1e-8
                else:
                    assert abs(v) < 1e-9 * scale

    def test_n1_degree2(self):
        for lam in [(1,), (2,)]:
            P = big_polynomials(lam, BP1)[lam]
            assert rel(bilinear_big(P, P, BP1), norm_big(lam, BP1)) < 1e-10

    def test_norm_positive(self):
        rng = random.Random(3)
        for _ in range(10):
            bp = random_vb(rng, 2)
            lam = tuple(sorted((rng.randrange(3) for _ in range(2)),
                               reverse=True))
            assert norm_big(lam, bp) > 0.0


class TestConjugateBranch:
    def test_selberg(self):
        one = LaurentPolynomial.constant(2)
        want = bilinear_big(one, one, BP2C)
        assert abs(selberg_big(BP2C) - want) < 1e-10 * abs(want)

    def test_norms(self):
        polys = big_polynomials((2, 0), BP2C)
        for lam in [(1, 0), (1, 1), (2, 0)]:
            f = polys[lam]
            want = bilinear_big(f, f, BP2C)
            assert abs(norm_big(lam, BP2C) - want) < 1e-10 * abs(want)

    def test_askey_evans(self):
        bk = BigParams(2, 0.5, 0.5, BP2C.a, BP2C.b, 1.0, 0.8)
        want = askey_evans_lhs(bk)
        assert abs(askey_evans_rhs(bk) - want) < 1e-10 * abs(want)


class TestNearOne:
    def test_closed_forms_finite_at_q099(self):
        bp = BigParams(2, 0.99, 0.4, 0.4, 0.3, 1.0, 0.8)
        sel = selberg_big(bp)
        assert math.isfinite(sel) and sel > 0.0
        for lam in [(0, 0), (1, 0), (2, 1)]:
            v = norm_big(lam, bp)
            assert math.isfinite(v) and v > 0.0


class TestAsymptotics:
    def test_n1_ratio(self):
        assert abs(asymptotic_ratio(1, (), (), BP1, 25) - 1.0) < 1e-6

    def test_n2_ratios(self):
        for j, lam, mu in [(1, (), (0,)), (1, (), (1,)), (2, (0,), ())]:
            assert abs(asymptotic_ratio(j, lam, mu, BP2, 25) - 1.0) < 1e-5

    def test_large_argument_pair_factor(self):
        # at L = 50 the delta_qJ factor has |a| ~ q^-50: its two infinite
        # products overflowed to inf / inf = NaN; the factor ratios do not
        bp = BigParams(2, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
        assert abs(asymptotic_ratio(1, (), (0,), bp, 50) - 1.0) < 1e-13

    def test_monotone_beyond_10(self):
        errs = [abs(asymptotic_ratio(1, (), (0,), BP2, L) - 1.0)
                for L in (10, 14, 18, 22)]
        assert all(b < a for a, b in zip(errs, errs[1:]))


class TestLimit:
    def test_aw_params(self):
        p = aw_params_big(0.5, BP1)
        rcd = math.sqrt(BP1.q * BP1.c / BP1.d)
        rdc = math.sqrt(BP1.q * BP1.d / BP1.c)
        assert p.tvec == (rcd / 0.5, -rdc / 0.5,
                          0.5 * BP1.a * rdc, -0.5 * BP1.b * rcd)

    def test_scan_zero_partition(self):
        rows = limit_scan(big_limit(BP1), (0,), range(4))
        assert all(dev == 0.0 for _k, _e, dev in rows)

    def test_scan_decreasing(self):
        rows = limit_scan(big_limit(BP1), (1,), range(13))
        devs = [dev for _k, _e, dev in rows]
        assert devs[-1] < 1e-4
        assert all(b < a for a, b in zip(devs[4:-1], devs[5:]))


class TestErrors:
    def test_partition_length(self):
        with pytest.raises(DomainViolation):
            big_polynomials((1,), BP2)
        with pytest.raises(DomainViolation):
            norm_big((1, 0, 0), BP2)

    def test_asymptotic_label_lengths(self):
        with pytest.raises(DomainViolation):
            asymptotic_ratio(1, (0,), (), BP2, 10)
        with pytest.raises(DomainViolation):
            asymptotic_ratio(3, (), (), BP2, 10)
