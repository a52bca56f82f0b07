"""Tests for the q-difference operator and its triangular matrix."""

import cmath
import random

import numpy as np
import pytest

from bcortho import askey_wilson, koornwinder
from bcortho.askey_wilson import aw_polynomials
from bcortho.bcpoly import LaurentPolynomial, monomial_w, partitions_dominated_by, dominance_leq
from bcortho.errors import DiagonalMismatch, NearPole
from bcortho.koornwinder import (
    apply_D,
    eigenvalue_E,
    op_matrix,
    phi_minus,
    phi_plus,
)
from bcortho.params import AWParams

from oracles import aw_polynomials_loop, op_matrix_loop

P1 = AWParams(1, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)
P2 = AWParams(2, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)
P3 = AWParams(3, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)


def random_vaw(rng, n):
    q = rng.uniform(0.3, 0.7)
    t = rng.uniform(0.2, 0.6)
    t0 = rng.uniform(0.2, 0.9)
    t1 = -rng.uniform(0.2, 0.9)
    re, im = rng.uniform(0.1, 0.6), rng.uniform(0.1, 0.6)
    return AWParams(n, q, t, t0, t1, complex(re, im), complex(re, -im))


def rand_point(rng, n):
    return [rng.uniform(0.7, 1.4) * cmath.exp(2j * cmath.pi * rng.random())
            for _ in range(n)]


class TestDomainFlags:
    def test_in_v_aw(self):
        assert P2.in_V_AW()

    def test_not_in_v_aw(self):
        p = AWParams(2, 0.5, 0.3, 1.2, 0.9, 0.3, 0.1)
        assert not p.in_V_AW()  # t0 t1 = 1.08 in [1, inf)

    def test_conjugate_pair_required(self):
        p = AWParams(2, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.3j)
        assert not p.in_V_AW()

    def test_in_v(self):
        p = AWParams(2, 0.5, 0.3, 0.6 * cmath.exp(0.3j), -0.5 * cmath.exp(0.1j),
                     0.4 * cmath.exp(1.1j), 0.7 * cmath.exp(2.0j))
        assert p.in_V()
        # real parameter: arg(t0) = arg(1/t0) = 0 collides
        assert not P2.in_V()


class TestPhi:
    def test_at_zero(self):
        assert phi_plus(0, np.array([[0.0]]), P1)[0] == pytest.approx(1.0)

    def test_zero_factor(self):
        z = [1.0 / P1.t0]
        assert abs(phi_plus(0, np.array([z]), P1)[0]) < 1e-12

    def test_symmetry_n2(self):
        rng = random.Random(1)
        z = rand_point(rng, 2)
        a = phi_plus(0, np.array([z]), P2)[0]
        b = phi_plus(1, np.array([[z[1], z[0]]]), P2)[0]
        assert abs(a - b) < 1e-12 * max(1, abs(a))

    def test_minus_is_plus_of_inverse(self):
        rng = random.Random(2)
        z = rand_point(rng, 2)
        a = phi_minus(0, np.array([z]), P2)[0]
        b = phi_plus(0, np.array([[1 / z[0], 1 / z[1]]]), P2)[0]
        assert abs(a - b) < 1e-12 * max(1, abs(a))

    def test_near_pole(self):
        with pytest.raises(NearPole):
            phi_plus(0, np.array([[1.0]]), P1)


class TestApplyD:
    def test_constant(self):
        rng = random.Random(3)
        z = rand_point(rng, 2)
        one = LaurentPolynomial.constant(2)
        assert abs(apply_D(one, np.array([z]), P2)[0]) < 1e-13

    def test_n1_hand_expansion(self):
        # D(z + 1/z) = E_1 (z + 1/z) + E_{1,0}
        m = op_matrix((1,), P1)
        e1 = eigenvalue_E((1,), P1)
        e10 = m.entries[1, 0]
        rng = random.Random(4)
        f = monomial_w((1,))
        for _ in range(5):
            z = rand_point(rng, 1)
            lhs = apply_D(f, np.array([z]), P1)[0]
            rhs = e1 * f.eval(z) + e10
            assert abs(lhs - rhs) < 1e-9 * max(1, abs(rhs))

    def test_w_invariance_of_output(self):
        rng = random.Random(5)
        f = monomial_w((2, 1))
        z = rand_point(rng, 2)
        a, b, c = apply_D(f, np.array([z, [z[1], z[0]], [1 / z[0], z[1]]]),
                          P2)
        assert abs(b - a) < 1e-10 * max(1, abs(a))
        assert abs(c - a) < 1e-10 * max(1, abs(a))


class TestEigenvalue:
    def test_zero(self):
        assert eigenvalue_E((0, 0), P2) == 0

    def test_n1_lambda1(self):
        q = P1.q
        want = P1.T / q * (q - 1) + (1 / q - 1)
        assert eigenvalue_E((1,), P1) == pytest.approx(want)

    def test_n2_lambda10(self):
        q, t = P2.q, P2.t
        want = P2.T / q * t ** 2 * (q - 1) + (1 / q - 1)
        assert eigenvalue_E((1, 0), P2) == pytest.approx(want)


class TestOpMatrix:
    def test_zero_partition(self):
        m = op_matrix((0, 0), P2)
        assert m.entries.shape == (1, 1)
        assert abs(m.entries[0, 0]) < 1e-10

    def test_n1_triangular(self):
        m = op_matrix((1,), P1)
        assert m.index == ((0,), (1,))
        assert abs(m.entries[0, 0]) < 1e-10
        assert abs(m.entries[0, 1]) < 1e-10
        assert abs(m.entries[1, 1] - eigenvalue_E((1,), P1)) < 1e-10

    def test_triangularity_n2(self):
        m = op_matrix((2, 0), P2)
        scale = np.max(np.abs(m.entries))
        for r, lamp in enumerate(m.index):
            for c, mu in enumerate(m.index):
                if not dominance_leq(mu, lamp):
                    assert abs(m.entries[r, c]) < 1e-12 * max(1, scale)

    def test_diagonal_random_params(self):
        rng = random.Random(11)
        for n in (1, 2):
            for _ in range(3):
                p = random_vaw(rng, n)
                lam = (2,) if n == 1 else (1, 1)
                m = op_matrix(lam, p)
                for k, mu in enumerate(m.index):
                    ek = eigenvalue_E(mu, p)
                    assert abs(m.entries[k, k] - ek) <= 1e-8 * max(1, abs(ek))

    def test_out_of_sample(self):
        lam = (2, 1)
        m = op_matrix(lam, P2)
        monos = [monomial_w(mu) for mu in m.index]
        row = m.entries[m.index.index(lam)]
        rng = random.Random(12)
        checked = 0
        while checked < 20:
            z = rand_point(rng, 2)
            try:
                lhs = apply_D(monos[-1], np.array([z]), P2)[0]
            except NearPole:
                continue
            rhs = sum(c * mm.eval(z) for c, mm in zip(row, monos))
            assert abs(lhs - rhs) < 1e-8 * max(1, abs(rhs))
            checked += 1

    @pytest.mark.parametrize("p,top", [(P2, (2, 1)), (P3, (3, 3, 3))])
    def test_restriction_is_lower_matrix(self, p, top):
        # the matrix of top, restricted to the partitions <= mu, is the
        # matrix of mu, although the two come from different node grids
        big = op_matrix(top, p)
        scale = np.max(np.abs(big.entries))
        for mu in partitions_dominated_by(top):
            small = op_matrix(mu, p)
            rows = [big.index.index(nu) for nu in small.index]
            sub = big.entries[np.ix_(rows, rows)]
            assert np.max(np.abs(sub - small.entries)) <= 1e-13 * scale


class TestAwPolynomials:
    @pytest.mark.parametrize("p,top", [(P2, (2, 1)), (P3, (2, 2, 1))])
    def test_lower_polynomials_match(self, p, top):
        family = aw_polynomials(top, p)
        for mu, P in family.items():
            own = aw_polynomials(mu, p)[mu]
            coeffs, want = P.w_coefficients(), own.w_coefficients()
            assert coeffs.keys() == want.keys()
            for nu, c in want.items():
                assert abs(coeffs[nu] - c) <= 1e-12 * max(1, abs(c))

    def test_one_op_matrix_per_call(self, monkeypatch):
        calls = []

        def counted(lam, p):
            calls.append(lam)
            return op_matrix(lam, p)

        monkeypatch.setattr(askey_wilson, "op_matrix", counted)
        family = aw_polynomials((2, 2), P2)
        assert len(family) == len(partitions_dominated_by((2, 2)))
        assert calls == [(2, 2)]


P2_REAL = AWParams(2, 0.5, 0.3, 0.6, -0.5, 0.4, 0.2)
P2_PAIR = AWParams(2, 0.5, 0.3, 0.3 + 0.4j, 0.3 - 0.4j, -0.45, 0.25)
P2_LARGE = AWParams(2, 0.9, 0.3, 1.1, -0.5, 0.4, 0.2)
P4 = AWParams(4, 0.5, 0.3, 0.35, -0.45, 0.25, 0.2)


class TestOnePass:
    """op_matrix applies D to every monomial in one pass and reads every
    row from one FFT: bit for bit the per-monomial form, which the
    Askey-Wilson reports read."""

    @pytest.mark.parametrize("p,top", [
        (P1, (6,)), (AWParams(1, 0.9, 0.3, 1.1, -0.5, 0.4, 0.2), (3,)),
        (P2_REAL, (4, 4)), (P2_PAIR, (3, 1)), (P2_LARGE, (2, 2)),
        (P2, (2, 1)),
        (AWParams(3, 0.5, 0.3, 0.6, -0.5, 0.4, 0.2), (3, 2, 1)),
        (AWParams(3, 0.5, 0.3, 0.3 + 0.4j, 0.3 - 0.4j, -0.45, 0.25),
         (2, 2, 1)),
        (AWParams(3, 0.9, 0.3, 1.1, -0.5, 0.4, 0.2), (2, 1, 1)),
    ])
    def test_matches_per_monomial_form(self, p, top):
        m, want = op_matrix(top, p), op_matrix_loop(top, p)
        assert m.index == want.index
        assert np.array_equal(m.entries, want.entries)
        family, old = aw_polynomials(top, p), aw_polynomials_loop(top, p)
        assert list(family) == list(old)
        for mu, P in family.items():
            assert P.terms == old[mu].terms

    def test_diagonal_check_stays(self, monkeypatch):
        exact = koornwinder.eigenvalue_E
        monkeypatch.setattr(koornwinder, "eigenvalue_E",
                            lambda mu, p: exact(mu, p) + 1e-6)
        with pytest.raises(DiagonalMismatch):
            op_matrix((2, 1), P2)

    def test_apply_D_is_one_row_of_the_batch(self):
        rng = random.Random(13)
        Z = np.array([rand_point(rng, 2) for _ in range(7)])
        f, g = monomial_w((2, 1)), monomial_w((1, 0)) + monomial_w((2, 2))
        fz, values = koornwinder._apply_D_rows([f, g], Z, P2)
        assert np.array_equal(fz[0], f.eval_points(Z))
        assert np.array_equal(fz[1], g.eval_points(Z))
        assert np.array_equal(apply_D(f, Z, P2), values[0])
        assert np.array_equal(apply_D(g, Z, P2), values[1])


class TestFourVariables:
    """RADII sets three node radii; axes past the third use the unit
    circle, and the matrix must still vanish off the dominance triangle."""

    @pytest.mark.parametrize("top", [(1, 1, 1, 1), (2, 1, 0, 0)])
    def test_triangular(self, top):
        m = op_matrix(top, P4)
        scale = np.max(np.abs(m.entries))
        for r, lamp in enumerate(m.index):
            for c, mu in enumerate(m.index):
                if not dominance_leq(mu, lamp):
                    assert abs(m.entries[r, c]) <= 1e-13 * scale
