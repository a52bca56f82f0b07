"""Tests for Askey-Wilson polynomials, norms and the one-variable oracle."""

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from bcortho import qseries
from bcortho.askey_wilson import (
    aw1_oracle,
    aw_norm,
    aw_norm_plus,
    aw_polynomials,
    gustafson_constant,
)
from bcortho.errors import (
    DomainViolation,
    EigenvalueCollision,
    ZeroCoordinate,
)
from bcortho.koornwinder import apply_D, eigenvalue_E
from bcortho.params import AWParams
from oracles import renorm_constant

P1 = AWParams(1, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)
P2 = AWParams(2, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)

PARAM_SETS_1 = [
    P1,
    AWParams(1, 0.4, 0.35, 0.7, -0.3, 0.2 + 0.5j, 0.2 - 0.5j),
    AWParams(1, 0.6, 0.25, 0.5, -0.8, 0.1, 0.45),
]


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


# independent torus-quadrature oracle, built directly on qseries
def torus_quad(f, p, M):
    q, t = p.q, p.t
    n = p.n
    angles = [2 * math.pi * (k + 0.5) / M for k in range(M)]
    zs = [cmath.exp(1j * a) for a in angles]

    def wc(x):
        val = qseries.qpoch_infinite(x * x, q) * qseries.qpoch_infinite(
            1 / (x * x), q)
        for ti in p.tvec:
            val /= qseries.qpoch_infinite(ti * x, q)
            val /= qseries.qpoch_infinite(ti / x, q)
        return val

    total = 0.0
    if n == 1:
        for z in zs:
            total += f([z]) * wc(z)
        return total / M
    for z1 in zs:
        w1 = wc(z1)
        for z2 in zs:
            d = 1.0
            for arg in (z1 * z2, z2 / z1, z1 / z2, 1 / (z1 * z2)):
                d *= qseries.qpoch_real(arg, q, t)
            total += f([z1, z2]) * w1 * wc(z2) * d
    return total / M ** 2


class TestAwPolynomial:
    def test_zero_partition(self):
        P = aw_polynomials((0, 0), P2)[(0, 0)]
        assert P.w_coefficients() == {(0, 0): 1.0}

    def test_n1_matches_oracle(self):
        rng = random.Random(1)
        for p in PARAM_SETS_1:
            for lam in range(0, 7):
                P = aw_polynomials((lam,), p)[(lam,)]
                for _ in range(3):
                    z = rng.uniform(0.8, 1.2) * cmath.exp(
                        2j * math.pi * rng.random())
                    got = P.eval([z])
                    want = aw1_oracle(lam, z, p)
                    assert rel(got, want) < 1e-10

    def test_n2_orthogonal_to_constant(self):
        p = AWParams(2, 0.5, 0.6, 0.3, -0.4, 0.5j, -0.5j)
        P = aw_polynomials((1, 0), p)[(1, 0)]
        val = torus_quad(lambda z: P.eval(z), p, 64)
        scale = abs(torus_quad(lambda z: 1.0, p, 64))
        assert abs(val) < 1e-6 * scale

    def test_eigenfunction(self):
        rng = random.Random(2)
        for p, lam in [(P1, (3,)), (P2, (2, 1)), (P2, (2, 2))]:
            P = aw_polynomials(lam, p)[lam]
            e = eigenvalue_E(lam, p)
            for _ in range(5):
                z = [rng.uniform(0.8, 1.3) * cmath.exp(
                    2j * math.pi * rng.random()) for _ in range(p.n)]
                lhs = apply_D(P, np.array([z]), p)[0]
                rhs = e * P.eval(z)
                assert abs(lhs - rhs) <= 1e-8 * (1 + abs(e)) * max(
                    1, abs(P.eval(z)))

    def test_real_coefficients_on_vaw(self):
        assert P2.in_V_AW()
        for lam in [(1, 0), (1, 1), (2, 0), (2, 1)]:
            P = aw_polynomials(lam, P2)[lam]
            for c in P.w_coefficients().values():
                assert abs(c.imag) <= 1e-9 * max(1, abs(c))

    def test_eigenvalue_collision(self):
        # T = 1/q makes E_(2) collide with E_(0) in one variable
        p = AWParams(1, 0.5, 0.3, 2.0, 1.0, 1.0, 1.0)
        with pytest.raises(EigenvalueCollision):
            aw_polynomials((2,), p)


class TestNorms:
    def test_norm0_is_gustafson(self):
        for p in (P1, P2):
            assert rel(aw_norm((0,) * p.n, p), gustafson_constant(p)) < 1e-12

    def test_n1_norm_vs_quadrature(self):
        p = AWParams(1, 0.5, 0.3, 0.6, -0.5, 0.4, 0.2)
        P = aw_polynomials((1,), p)[(1,)]
        # the closed form already carries the 2^n n! factor
        quad = torus_quad(lambda z: P.eval(z) ** 2, p, 256)
        assert rel(quad, aw_norm((1,), p)) < 1e-8

    def test_norm_real_positive_on_vaw(self):
        for lam in [(0, 0), (1, 0), (2, 1)]:
            v = aw_norm(lam, P2)
            assert abs(v.imag) < 1e-10 * abs(v)
            assert v.real > 0

    def test_gustafson_n1_t_factors_cancel(self):
        p = P1
        q = p.q
        tv = p.tvec
        den = qseries.qpoch_infinite(q, q)
        for j in range(4):
            for k in range(j + 1, 4):
                den *= qseries.qpoch_infinite(tv[j] * tv[k], q)
        want = 2 * qseries.qpoch_infinite(p.T, q) / den
        assert rel(gustafson_constant(p), want) < 1e-12

    def test_gustafson_degenerate_parameters(self):
        eps = 1e-18
        p = AWParams(1, 0.5, 0.3, eps, eps, eps, eps)
        want = 2 / qseries.qpoch_infinite(0.5, 0.5)
        assert rel(gustafson_constant(p), want) < 1e-12


class _CQ:
    """Complex number over exact rationals; floats convert losslessly."""

    __slots__ = ("re", "im")

    def __init__(self, re, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @classmethod
    def of(cls, z: complex) -> "_CQ":
        z = complex(z)
        return cls(Fraction(z.real), Fraction(z.imag))

    def __add__(self, o):
        return _CQ(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return _CQ(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return _CQ(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        d = o.re * o.re + o.im * o.im
        return _CQ((self.re * o.re + self.im * o.im) / d,
                   (self.im * o.re - self.re * o.im) / d)


def fraction_oracle(lam, z, p):
    """The terminating 4phi3 sum with its monic prefactor in exact
    rationals (fractions.Fraction), rounded once at the end: the
    reference the gcd-free aw1_oracle must match bit for bit."""
    one = _CQ(1)
    q = _CQ.of(p.q)
    tv = [_CQ.of(x) for x in p.tvec]
    T = tv[0] * tv[1] * tv[2] * tv[3]
    zq = _CQ.of(z)
    qpow = [one]
    for _ in range(2 * lam + 2):
        qpow.append(qpow[-1] * q)
    q_lam_m1_T = (T * qpow[lam - 1]) if lam >= 1 else (T / q)

    def pochf(a, k):
        v = one
        for i in range(k):
            v = v * (one - a * qpow[i])
        return v

    t0_pow = one
    for _ in range(lam):
        t0_pow = t0_pow * tv[0]
    pref = (pochf(tv[0] * tv[1], lam) * pochf(tv[0] * tv[2], lam)
            * pochf(tv[0] * tv[3], lam)) / (t0_pow * pochf(q_lam_m1_T, lam))
    a = [one / qpow[lam], q_lam_m1_T, tv[0] * zq, tv[0] / zq]
    b = [tv[0] * tv[1], tv[0] * tv[2], tv[0] * tv[3], q]
    total = _CQ(0)
    term = one
    for m in range(lam + 1):
        total = total + term
        fac = q
        for ai in a:
            fac = fac * (one - ai * qpow[m])
        for bi in b:
            fac = fac / (one - bi * qpow[m])
        term = term * fac
    val = pref * total
    return complex(float(val.re), float(val.im))


ORACLE_SETS = {
    "defaults": AWParams(1, 0.5, 0.3, 0.35, -0.45, 0.25, 0.2),
    "complex-t0": AWParams(1, 0.5, 0.3, 0.35 + 0.1j, -0.45, 0.25, 0.2),
    "q0.99": AWParams(1, 0.99, 0.3, 0.35, -0.45, 0.25, 0.2),
}


class TestOracle:
    @pytest.mark.parametrize("name", list(ORACLE_SETS))
    def test_bit_identical_to_exact_rationals(self, name):
        p = ORACLE_SETS[name]
        zs = [cmath.exp(0.7j), 0.9 * cmath.exp(0.7j), 1.3 * cmath.exp(-2j),
              -0.6, 2.5 + 1e-3j]
        for lam in range(7):
            for z in zs:
                assert aw1_oracle(lam, z, p) == fraction_oracle(lam, z, p)

    @pytest.mark.parametrize("lam, z, error", [
        (2, 0.0, ZeroCoordinate),
        (2, 0j, ZeroCoordinate),
        (2, complex(math.nan, 0.0), DomainViolation),
        (2, complex(1.0, math.inf), DomainViolation),
        (-1, 0.7, DomainViolation),
    ], ids=["zero", "complex-zero", "nan", "inf", "negative-degree"])
    def test_typed_errors(self, lam, z, error):
        with pytest.raises(error):
            aw1_oracle(lam, z, P1)

    def test_degree_zero(self):
        assert aw1_oracle(0, 0.7 + 0.2j, P1) == 1

    def test_degree_one_hand_value(self):
        # two-term evaluation at z = t0
        p = P1
        q = p.q
        t0, t1, t2, t3 = p.tvec
        pref = (1 - t0 * t1) * (1 - t0 * t2) * (1 - t0 * t3) / (
            t0 * (1 - p.T))
        term = (q * (1 - 1 / q) * (1 - p.T / q) * (1 - t0 * t0) * (1 - 1.0)
                / ((1 - t0 * t1) * (1 - t0 * t2) * (1 - t0 * t3) * (1 - q)))
        want = pref * (1 + term)
        assert rel(aw1_oracle(1, t0, p), want) < 1e-12

    def test_symmetric_in_z_inverse(self):
        z = 1.3 * cmath.exp(0.7j)
        for lam in (1, 2, 5):
            a = aw1_oracle(lam, z, P1)
            b = aw1_oracle(lam, 1 / z, P1)
            assert rel(a, b) < 1e-12


class TestRenorm:
    def test_zero(self):
        assert renorm_constant((0, 0), P2) == pytest.approx(1.0)

    def test_n1_matches_oracle_prefactor(self):
        # p_lambda = c(lambda) P_lambda is exactly the 4phi3 part, so
        # c(lambda) is the reciprocal of the oracle prefactor
        p = P1
        q = p.q
        for lam in (1, 2, 3):
            pref = (qseries.qpoch_finite(p.t0 * p.t1, q, lam)
                    * qseries.qpoch_finite(p.t0 * p.t2, q, lam)
                    * qseries.qpoch_finite(p.t0 * p.t3, q, lam)) / (
                p.t0 ** lam * qseries.qpoch_finite(p.T * q ** (lam - 1), q, lam))
            assert rel(renorm_constant((lam,), p), 1 / pref) < 1e-10

    def test_finite_nonzero_scan(self):
        rng = random.Random(9)
        for _ in range(5):
            q = rng.uniform(0.3, 0.7)
            t = rng.uniform(0.2, 0.6)
            p = AWParams(2, q, t, rng.uniform(0.2, 0.8),
                         -rng.uniform(0.2, 0.8), 0.3 + 0.4j, 0.3 - 0.4j)
            lam = random.Random(rng.random()).choice(
                [(1, 0), (2, 0), (2, 1), (2, 2), (3, 1)])
            c = renorm_constant(lam, p)
            assert abs(c) > 0 and math.isfinite(abs(c))
