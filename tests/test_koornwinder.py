"""Tests for the q-difference operator and its triangular matrix."""

import cmath
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from bcortho import askey_wilson, cli, koornwinder
from bcortho.askey_wilson import aw_polynomials
from bcortho.big import big_limit
from bcortho.cli import _big_family, _little_family, build_config
from bcortho.little import little_limit
from bcortho.bcpoly import LaurentPolynomial, monomial_w, partitions_dominated_by, dominance_leq
from bcortho.errors import DiagonalMismatch, DomainViolation, NearPole
from bcortho.koornwinder import eigenvalue_E, op_matrix
from bcortho.params import _TOL, AWParams, _real_geq1

from oracles import (apply_D, aw_polynomials_loop, limit_scan_loop,
                     op_matrix_loop, phi_minus, phi_plus)

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


def in_V(p: AWParams) -> bool:
    """Generic domain: the 8 arguments of t_i and 1/t_i are pairwise
    distinct, and t0 t1 t2 t3 is not a real number >= 1."""
    args = []
    for ti in p.tvec:
        for u in (ti, 1.0 / ti):
            args.append(math.atan2(u.imag, u.real) % (2 * math.pi))
    for i in range(8):
        for j in range(i + 1, 8):
            d = abs(args[i] - args[j]) % (2 * math.pi)
            if min(d, 2 * math.pi - d) < _TOL:
                return False
    return not _real_geq1(p.T)


class TestDomainFlags:
    def test_in_v_aw(self):
        assert P2.in_V_AW()

    @pytest.mark.parametrize("bad", [math.nan, math.inf,
                                     complex(0.3, math.nan)])
    def test_non_finite_parameter(self, bad):
        # a non-finite t_i is rejected before any closed form reads it
        with pytest.raises(DomainViolation, match="finite"):
            AWParams(2, 0.5, 0.3, 0.6, -0.5, 0.3, bad)

    def test_not_in_v_aw(self):
        p = AWParams(2, 0.5, 0.3, 1.2, 0.9, 0.3, 0.1)
        assert not p.in_V_AW()  # t0 t1 = 1.08 in [1, inf)

    def test_conjugate_pair_required(self):
        p = AWParams(2, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.3j)
        assert not p.in_V_AW()

    def test_in_v(self):
        p = AWParams(2, 0.5, 0.3, 0.6 * cmath.exp(0.3j), -0.5 * cmath.exp(0.1j),
                     0.4 * cmath.exp(1.1j), 0.7 * cmath.exp(2.0j))
        assert in_V(p)
        # real parameter: arg(t0) = arg(1/t0) = 0 collides
        assert not in_V(P2)


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
        fz, values = koornwinder._apply_D_rows([f, g], Z, [P2, P2_PAIR])
        assert np.array_equal(fz[0], f.eval_points(Z))
        assert np.array_equal(fz[1], g.eval_points(Z))
        for p, row in zip([P2, P2_PAIR], values):
            assert np.array_equal(apply_D(f, Z, p), row[0])
            assert np.array_equal(apply_D(g, Z, p), row[1])


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


def limit_params(n: int) -> list:
    """The limits suite's (limit, partition, steps) at n, with its default
    parameters: the coefficient checks scan the tail k = 8..15."""
    cfg = build_config({"suite": "limits", "n": str(n)})
    lam = (1,) + (0,) * (n - 1)
    ks = range(8, 16)
    return [(little_limit(_little_family(cfg).params), lam, ks),
            (big_limit(_big_family(cfg).params), lam, ks)]


def scan_sets(limit, ks) -> list:
    q = limit.target.params.q
    return [limit.deformation(q * q ** k) for k in ks]


def seeded_sets(seed: int, n: int, count: int) -> list:
    """count random V_AW parameter sets at n sharing one q."""
    rng = random.Random(seed)
    q = rng.uniform(0.3, 0.7)
    return [replace(random_vaw(rng, n), q=q) for _ in range(count)]


class TestBatchedPass:
    """op_matrices applies D to every monomial for a list of parameter
    sets sharing n and q in one pass and one FFT: each set's matrix is
    bit for bit op_matrix of that set alone and the per-monomial
    oracle."""

    @pytest.mark.parametrize("n", [2, 3])
    def test_limit_scan_sets(self, n):
        # the 16 sets of the two coefficient scans of limits at n
        for limit, lam, ks in limit_params(n):
            sets = scan_sets(limit, ks)
            batch = list(koornwinder.op_matrices(lam, sets))
            assert len(batch) == len(sets) == 8
            for p, m in zip(sets, batch):
                for want in (op_matrix(lam, p), op_matrix_loop(lam, p)):
                    assert m.index == want.index
                    assert np.array_equal(m.entries, want.entries)

    @pytest.mark.parametrize("n, top", [(1, (5,)), (2, (2, 1)),
                                        (3, (2, 1, 1))])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_seeded_vaw_sets(self, n, top, seed):
        sets = seeded_sets(seed, n, 4)
        for p, m in zip(sets, koornwinder.op_matrices(top, sets)):
            for want in (op_matrix(top, p), op_matrix_loop(top, p)):
                assert m.index == want.index
                assert np.array_equal(m.entries, want.entries)

    def test_phi_is_phi_plus_and_minus(self):
        rng = random.Random(14)
        Z = np.array([rand_point(rng, 3) for _ in range(5)])
        sets = seeded_sets(2, 3, 3)
        phi = koornwinder._phi(Z, sets)
        for p, row in zip(sets, phi):
            for j in range(3):
                assert np.array_equal(row[j, 0], phi_plus(j, Z, p))
                assert np.array_equal(row[j, 1], phi_minus(j, Z, p))

    def test_near_pole_names_the_first_factor(self):
        # the first factor within the guard in the order of a loop over
        # j, then phi^+ before phi^-: here phi_0^- meets 1 - z_0^2 = 0
        Z = np.array([[0.7 + 0.1j, 1.3 - 0.2j], [-1.0, 0.6j]])
        with pytest.raises(NearPole) as batch:
            koornwinder._phi(Z, [P2])
        with pytest.raises(NearPole) as loop:
            for j in range(2):
                phi_plus(j, Z, P2)
                phi_minus(j, Z, P2)
        assert str(batch.value) == str(loop.value)

    def test_sets_share_n_and_q(self):
        with pytest.raises(DomainViolation):
            list(koornwinder.op_matrices((1, 0), [P2, AWParams(
                2, 0.6, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)]))
        assert list(koornwinder.op_matrices((1, 0), [])) == []

    def test_diagonal_check_per_set(self, monkeypatch):
        # a mismatch at the second set only: the first matrix comes out
        sets = seeded_sets(3, 2, 3)
        exact = koornwinder.eigenvalue_E
        monkeypatch.setattr(koornwinder, "eigenvalue_E", lambda mu, p: (
            exact(mu, p) + (1e-3 if p is sets[1] else 0.0)))
        batch = koornwinder.op_matrices((2, 1), sets)
        next(batch)
        with pytest.raises(DiagonalMismatch):
            next(batch)


class TestLimitScan:
    """limit_scan reads every step's matrix from one pass of D and is bit
    for bit the loop of aw_polynomials over its steps, errors included."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_pass_per_scan(self, n, monkeypatch):
        passes = []
        apply = koornwinder._apply_D_rows

        def counted(fs, Z, ps):
            passes.append(len(ps))
            return apply(fs, Z, ps)

        for limit, lam, ks in limit_params(n):
            monkeypatch.setattr(koornwinder, "_apply_D_rows", counted)
            rows = askey_wilson.limit_scan(limit, lam, ks)
            assert passes == [len(ks)]
            monkeypatch.setattr(koornwinder, "_apply_D_rows", apply)
            assert rows == limit_scan_loop(limit, lam, ks)
            passes.clear()

    def test_limits_run_makes_two_passes(self, tmp_path, monkeypatch):
        passes = []
        apply = koornwinder._apply_D_rows

        def counted(fs, Z, ps):
            passes.append(len(ps))
            return apply(fs, Z, ps)

        monkeypatch.setattr(koornwinder, "_apply_D_rows", counted)
        assert cli.main(["--suite", "limits",
                         "--out", str(tmp_path / "r.json")]) == 0
        assert passes == [8, 8]

    @pytest.mark.parametrize("deform_at, diagonal_at, near_pole", [
        (3, None, False), (0, None, False), (None, 2, False),
        (1, 4, False), (4, 1, False), (2, 2, False),
        (None, None, True), (0, None, True), (3, 1, True),
    ])
    def test_first_error_of_the_loop(self, deform_at, diagonal_at,
                                     near_pole, monkeypatch):
        limit, lam, ks = limit_params(2)[1]
        q = limit.target.params.q
        bad = {k: q * q ** k for k in ks}
        deform = limit.deformation

        def deformation(eps):
            if deform_at is not None and eps == bad[ks[deform_at]]:
                raise DomainViolation("deformation refused")
            return deform(eps)

        limit = replace(limit, deformation=deformation)
        if diagonal_at is not None:
            off = deform(bad[ks[diagonal_at]])
            exact = koornwinder.eigenvalue_E
            monkeypatch.setattr(koornwinder, "eigenvalue_E", lambda mu, p: (
                exact(mu, p) + (1e-3 if p == off else 0.0)))
        if near_pole:
            monkeypatch.setattr(koornwinder, "POLE_GUARD", 10.0)
        errors = []
        for scan in (limit_scan_loop, askey_wilson.limit_scan):
            with pytest.raises(Exception) as info:
                scan(limit, lam, ks)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        # the first (step, stage) that fails: a step's deformation comes
        # before its pass of D, which meets the pole guard at step 0
        # before the diagonal check
        stages = [(deform_at, 0, DomainViolation), (diagonal_at, 2,
                                                    DiagonalMismatch),
                  (0 if near_pole else None, 1, NearPole)]
        assert errors[1][0] == min(s for s in stages if s[0] is not None)[2]
