"""Tests for the q-analysis kernel."""

import math
import re

import mpmath
import numpy as np
import pytest

from bcortho import qseries
from bcortho.errors import (
    DomainViolation,
    PoleAtDenominator,
    PoleAtNonpositiveInteger,
    PoleInProduct,
    ZeroArgument,
    ZeroProduct,
)

Q = 0.5


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


class TestQpochFinite:
    def test_empty_product(self):
        assert qseries.qpoch_finite(0.7 + 0.2j, Q, 0) == 1

    def test_two_factors(self):
        # direct product (1-0.5)(1-0.25)
        assert qseries.qpoch_finite(0.5, 0.5, 2) == pytest.approx(0.375)

    def test_one_factor_negative(self):
        assert qseries.qpoch_finite(2.0, 0.5, 1) == pytest.approx(-1.0)

    def test_negative_k_rejected(self):
        with pytest.raises(DomainViolation):
            qseries.qpoch_finite(0.5, Q, -1)


class TestQpochInfinite:
    def test_zero_argument(self):
        assert qseries.qpoch_infinite(0.0, Q) == 1

    def test_euler_function_half(self):
        # partial products of (0.5;0.5)_inf taken far past machine precision
        val = 1.0
        aq = 0.5
        for _ in range(200):
            val *= 1 - aq
            aq *= 0.5
        assert rel(qseries.qpoch_infinite(0.5, 0.5), val) < 1e-14
        assert val == pytest.approx(0.2887880951, abs=1e-9)

    def test_a_equals_q(self):
        assert qseries.qpoch_infinite(0.5, 0.5) == qseries.qpoch_infinite(
            Q, Q)

    def test_require_nonzero(self):
        with pytest.raises(ZeroProduct):
            qseries.qpoch_infinite(2.0, 0.5, require_nonzero=True)

    def test_splitting(self):
        # (a;q)_inf = (a;q)_k (a q^k;q)_inf
        a = 0.8 - 0.3j
        for k in (1, 5, 17, 30):
            lhs = qseries.qpoch_infinite(a, Q)
            rhs = qseries.qpoch_finite(a, Q, k) * qseries.qpoch_infinite(
                a * Q ** k, Q)
            assert rel(lhs, rhs) < 1e-12

    def test_array_matches_scalar(self):
        import numpy as np
        args = np.array([0.3, -0.9, 0.5 + 0.4j, 2.0])
        arr = qseries.qpoch_infinite_arr(args, Q)
        for x, v in zip(args, arr):
            assert rel(v, qseries.qpoch_infinite(complex(x), Q)) < 1e-13


class TestQpochReal:
    def test_tau_one_telescopes(self):
        a = 0.4 + 0.1j
        assert rel(qseries.qpoch_real(a, Q, Q), 1 - a) < 1e-13

    def test_t_near_one(self):
        a = 0.6
        assert rel(qseries.qpoch_real(a, Q, 1.0 - 1e-14), 1.0) < 1e-10

    def test_ratio_of_products(self):
        got = qseries.qpoch_real(0.3, 0.5, 0.25)
        want = qseries.qpoch_infinite(0.3, 0.5) / qseries.qpoch_infinite(
            0.075, 0.5)
        assert rel(got, want) < 1e-14

    def test_pole_at_denominator(self):
        # a t = 2 = q^{-1}
        with pytest.raises(PoleAtDenominator):
            qseries.qpoch_real(8.0, 0.5, 0.25)

    @pytest.mark.parametrize("j", [1, 3, 12])
    def test_array_pole_past_the_first_factor(self, j):
        # a t q^j = 1 for the last entry only; the others stay far from 1
        # (|a t q^i| < 1e-3 or > 50 while it is near 1), so only the
        # per-factor guard of that entry can fire
        q, t = 0.5, 0.25
        a = np.array([1e-3, 3e3 * q ** -j, q ** -j / t])
        with pytest.raises(PoleAtDenominator):
            qseries.qpoch_real_arr(a, q, t)
        got = qseries.qpoch_real_arr(a[:2], q, t)
        want = [qseries.qpoch_real(x, q, t) for x in a[:2]]
        assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


class TestQpochRatio:
    def test_matches_products(self):
        num, den = [0.3, 0.2 + 0.4j], [0.7, -0.6]
        want = (qseries.qpoch_infinite(0.3, Q)
                * qseries.qpoch_infinite(0.2 + 0.4j, Q)
                / qseries.qpoch_infinite(0.7, Q)
                / qseries.qpoch_infinite(-0.6, Q))
        assert abs(qseries.qpoch_ratio(num, den, Q) - want) < 1e-15

    def test_tiny_product_is_not_a_pole(self):
        # (q;q)_inf is about 2e-70 at q = 0.99, but no factor vanishes
        assert qseries.qpoch_ratio([], [0.99], 0.99) > 1e69

    def test_pole_raises(self):
        # 1 - 4 q^2 = 0 at q = 1/2
        with pytest.raises(PoleInProduct):
            qseries.qpoch_ratio([0.3], [4.0], Q)


class TestTheta:
    def test_zero_at_one_chain(self):
        # theta(1) has the factor (1;q)_inf = 0
        assert abs(qseries.theta_jacobi(1.0, Q)) < 1e-15

    def test_inversion_symmetry(self):
        x = 0.3 + 0.1j
        assert rel(qseries.theta_jacobi(x, 0.5),
                   qseries.theta_jacobi(0.5 / x, 0.5)) < 1e-13

    def test_functional_equation_k1(self):
        x = -0.7
        q = 0.4
        lhs = qseries.theta_jacobi(q * x, q)
        assert abs(lhs + qseries.theta_jacobi(x, q) / x) < 1e-13

    def test_functional_equation_general(self):
        x = 0.6 - 0.2j
        q = 0.55
        th = qseries.theta_jacobi(x, q)
        for k in range(1, 6):
            lhs = qseries.theta_jacobi(q ** k * x, q)
            rhs = (-1 / x) ** k * q ** (-k * (k - 1) // 2) * th
            assert rel(lhs, rhs) < 1e-11

    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            qseries.theta_jacobi(0.0, Q)


class TestQgamma:
    def test_at_one(self):
        assert qseries.qgamma(1.0, Q) == pytest.approx(1.0)

    def test_at_two(self):
        assert qseries.qgamma(2.0, Q) == pytest.approx(1.0)

    def test_at_three(self):
        # (1-q)(1-q^2)/(1-q)^2 = 1 + q
        assert qseries.qgamma(3.0, 0.5) == pytest.approx(1.5)

    def test_recurrence(self):
        for u in (0.5, 1.5, 2.0, 3.7):
            lhs = qseries.qgamma(u + 1, Q)
            rhs = (1 - Q ** u) / (1 - Q) * qseries.qgamma(u, Q)
            assert rel(lhs, rhs) < 1e-12

    def test_pole(self):
        with pytest.raises(PoleAtNonpositiveInteger):
            qseries.qgamma(0.0, Q)
        with pytest.raises(PoleAtNonpositiveInteger):
            qseries.qgamma(-3.0, Q)

    def test_supplied_power(self):
        u = 2.5
        assert qseries.qgamma(u, Q, qu=Q ** u) == pytest.approx(
            qseries.qgamma(u, Q))


class TestPsiT:
    def test_quasi_constant(self):
        x, q, t = -0.8, 0.5, 0.25
        assert rel(qseries.psi_t(q * x, q, t), qseries.psi_t(x, q, t)) < 1e-12

    def test_t_equals_q(self):
        x, q = -1.3, 0.5
        lhs = qseries.psi_t(x, q, q)
        rhs = abs(x) * qseries.theta_jacobi(q * x, q) / qseries.theta_jacobi(
            x, q)
        assert rel(lhs, rhs) < 1e-13

    def test_finite_positive(self):
        v = qseries.psi_t(-2.0, 0.5, 0.3)
        assert v > 0 and math.isfinite(v)

    def test_zero_argument(self):
        with pytest.raises(ZeroArgument):
            qseries.psi_t(0.0, Q, 0.3)


class TestInversionFormula:
    def test_inversion(self):
        # (q^{1-l} x;q)_l = (-x)^l q^{-l(l-1)/2} (1/x;q)_l
        x = 1.7 - 0.4j
        for l in range(1, 8):
            lhs = qseries.qpoch_finite(Q ** (1 - l) * x, Q, l)
            rhs = ((-x) ** l * Q ** (-l * (l - 1) // 2)
                   * qseries.qpoch_finite(1 / x, Q, l))
            assert rel(lhs, rhs) < 1e-12


def test_check_q():
    with pytest.raises(DomainViolation):
        qseries.check_q(1.0)
    with pytest.raises(DomainViolation):
        qseries.check_q(0.0)
    assert qseries.check_q(0.5) == 0.5


class TestBlockKernel:
    """qpoch_infinite_arr and qpoch_real_arr: every value of a batched
    call is that of a call on its argument alone."""

    # moduli from 1e-12 to 7e4, real and complex
    ARGS = [0.3, -0.9, 2.5, 1e-12, 7e4, 0.5 + 0.4j, -3.0 - 2.0j, 0.999]

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.9])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_batched_equals_one_at_a_time(self, q, kind):
        a = np.array([x for x in self.ARGS
                      if kind == "complex" or not isinstance(x, complex)])
        for got, one in (
                (qseries.qpoch_infinite_arr(a, q), qseries.qpoch_infinite),
                (qseries.qpoch_real_arr(a, q, 0.3),
                 lambda x, q: qseries.qpoch_real(x, q, 0.3)),
                (qseries.qpoch_real_arr(a, q, 1.7),
                 lambda x, q: qseries.qpoch_real(x, q, 1.7))):
            assert got.dtype == a.dtype
            assert [one(x, q) for x in a.tolist()] == got.tolist()
        grid = qseries.qpoch_infinite_arr(a.reshape(2, -1), q)
        assert grid.shape == (2, len(a) // 2)
        assert grid.ravel().tolist() == qseries.qpoch_infinite_arr(
            a, q).tolist()

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_moduli_keep_their_own_results(self, q):
        # among BLOCK + 5 random arguments each step takes one factor of
        # every argument, and the small ones take far fewer factors
        rng = np.random.default_rng(7)
        a = np.concatenate([np.array(self.ARGS, complex), rng.normal(
            size=qseries.BLOCK + 5) * 10.0 ** rng.uniform(-12, 4)])
        got = qseries.qpoch_infinite_arr(a, q)
        for k in list(range(len(self.ARGS))) + [-1, -2, -3]:
            assert got[k] == qseries.qpoch_infinite(a[k], q)

    @pytest.mark.parametrize("j", [5, 40])
    def test_pole_past_the_first_block(self, j):
        # with BLOCK arguments a step takes one factor, so the factor
        # j of a = q^-j that vanishes comes in step j + 1
        q, t = 0.5, 0.25
        a = np.full(qseries.BLOCK, 0.3)
        a[-7] = q ** -j
        with pytest.raises(ZeroProduct, match=re.escape(f"a = {q ** -j}")):
            qseries.qpoch_infinite_arr(a, q, require_nonzero=True)
        guard = np.zeros(a.shape, dtype=bool)
        guard[-7] = True
        with pytest.raises(ZeroProduct):
            qseries.qpoch_infinite_arr(a, q, guard)
        assert qseries.qpoch_infinite_arr(a, q, ~guard)[-7] == 0.0
        with pytest.raises(PoleInProduct, match=re.escape(str(q ** -j))):
            qseries.qpoch_ratio([q ** -j], list(a), q)
        assert qseries.qpoch_ratio(list(a), [0.3], q) == 0.0
        with pytest.raises(PoleAtDenominator,
                           match=re.escape(f"a = {q ** -j / t}")):
            qseries.qpoch_real_arr(a / t, q, t)

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_matches_mpmath(self, q):
        # 40-digit (a;q)_inf, and (a;q)_tau as (a;q)_inf / (a t;q)_inf;
        # mpmath.qp does not converge at q = 0.99
        args = [0.3, -0.9, 0.75, -2.5, 0.5 + 0.4j, -0.7 - 0.6j, 1e-9,
                3.0 + 0.1j]
        a = np.array(args, complex)
        t = 0.3
        inf = qseries.qpoch_infinite_arr(a, q)
        real = qseries.qpoch_real_arr(a, q, t)
        with mpmath.workdps(40):
            for x, v, r in zip(args, inf, real):
                want = mpmath.qp(mpmath.mpc(x), mpmath.mpf(q))
                ratio = want / mpmath.qp(mpmath.mpc(x) * t, mpmath.mpf(q))
                assert abs(v - complex(want)) <= 1e-13 * abs(complex(want))
                assert abs(r - complex(ratio)) <= 1e-13 * abs(complex(ratio))

    def test_empty_and_infinite(self):
        assert qseries.qpoch_infinite_arr(np.zeros((0, 3)), Q).shape == (0, 3)
        with pytest.raises(DomainViolation):
            qseries.qpoch_infinite(math.inf, Q)
