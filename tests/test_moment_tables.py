"""Torus pairings as contractions of moment tables, checked against the
grid formula they replace (mean of f*g*Delta over the tensor grid, with
the even-index subgrid as error estimate), and the per-factor pole guards
of the Askey-Wilson side."""

import math
import random
from dataclasses import replace
from itertools import combinations_with_replacement

import numpy as np
import pytest

from bcortho import measures
from bcortho.askey_wilson import aw_norm, gustafson_constant
from bcortho.bcpoly import LaurentPolynomial
from bcortho.cli import DEFAULTS
from bcortho.errors import DomainViolation, LengthMismatch, PoleInWeight
from bcortho.measures import (
    multi_discrete_weight,
    natural_t_bilinear,
    partial_bilinear,
    torus_bilinear,
    wd_residue_weight,
)
from bcortho.params import AWParams
from bcortho.qracah import kr_constant, weight_qR

PS = {n: AWParams(n, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)
      for n in (1, 2, 3)}
# one discrete chain; t = q^2 for the natural-t form
PD2 = AWParams(2, 0.5, 0.3, 1.1, -0.5, 0.35, 0.45)
PK2 = AWParams(2, 0.5, 0.25, 1.1, -0.5, 0.3, 0.4)


def random_laurent(rng, n, real=False):
    """Four (n = 1) or six terms with exponents in [-2, 2]^n and complex
    (or real) coefficients: negative exponents, no symmetry."""
    terms = {}
    while len(terms) < (4 if n == 1 else 6):
        e = tuple(rng.randint(-2, 2) for _ in range(n))
        terms[e] = complex(rng.uniform(-1, 1), 0 if real else rng.uniform(-1, 1))
    return LaurentPolynomial(n, terms)


def product_degree(f, g):
    """The degree that the M guard bounds: largest |e|_1 among the terms
    of the product polynomial."""
    return max((sum(map(abs, e)) for e in (f * g).terms), default=0)


def grid_pairing(f, g, zvals, grid):
    """The grid formula: mean of f*g*grid and its even-subgrid estimate."""
    G = (f * g).eval_grid([zvals] * grid.ndim) * grid
    value = complex(np.mean(G))
    half = complex(np.mean(G[(slice(None, None, 2),) * G.ndim]))
    return value, abs(value - half)


def oracle_against(pair, p, n_axes, M, k, axis_factor=None):
    """measures._Pairing.against by the grid formula: the axis factor is
    multiplied into a copy of the grid."""
    zvals, grid = measures._weight_grid(p, n_axes, M, k)
    grid = grid.copy()
    if axis_factor is not None:
        for ax in range(n_axes):
            sh = [1] * n_axes
            sh[ax] = M
            grid *= axis_factor.reshape(sh)
    return grid_pairing(pair.f, pair.g, zvals, grid)


def term_mass(f, g):
    return (sum(abs(c) for c in f.terms.values())
            * sum(abs(c) for c in g.terms.values()))


class TestAgainstGridFormula:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("odd", [0, 1])
    def test_torus(self, n, odd):
        rng = random.Random(10 * n + odd)
        p = PS[n]
        for _ in range(3):
            f, g = random_laurent(rng, n), random_laurent(rng, n)
            M = 2 * product_degree(f, g) + 8 + odd
            rep = torus_bilinear(f, g, p, M)
            zvals, grid = measures._weight_grid(p, n, M)
            value, err = grid_pairing(f, g, zvals, grid)
            tol = 1e-13 * term_mass(f, g) * np.mean(np.abs(grid))
            assert abs(rep.value - value) < tol
            assert abs(rep.abs_error_estimate - err) < tol

    def test_partial(self, monkeypatch):
        # real coefficients: the form checks that its value is real there
        rng = random.Random(5)
        f, g = random_laurent(rng, 2, real=True), random_laurent(rng, 2, True)
        M = 2 * product_degree(f, g) + 9
        rep = partial_bilinear(f, g, PD2, M)
        assert rep.discrete_points_used > 0
        # the torus term and every chain point by the grid formula
        monkeypatch.setattr(measures._Pairing, "against", oracle_against)
        want = partial_bilinear(f, g, PD2, M)
        # the chain values |omega| > 1 scale the substituted coefficients
        tol = 1e-13 * term_mass(f, g) * 10 * abs(gustafson_constant(PD2))
        assert abs(rep.value - want.value) < tol
        assert abs(rep.abs_error_estimate - want.abs_error_estimate) < tol

    def test_natural_t(self, monkeypatch):
        rng = random.Random(6)
        f, g = random_laurent(rng, 2), random_laurent(rng, 2)
        M = 2 * product_degree(f, g) + 8
        rep = natural_t_bilinear(f, g, PK2, M)
        assert rep.discrete_points_used > 1
        monkeypatch.setattr(measures._Pairing, "against", oracle_against)
        want = natural_t_bilinear(f, g, PK2, M)
        tol = 1e-13 * term_mass(f, g) * 10 * abs(gustafson_constant(PK2))
        assert abs(rep.value - want.value) < tol
        assert abs(rep.abs_error_estimate - want.abs_error_estimate) < tol


class TestPairingTerms:
    def test_exactly_symmetric(self):
        rng = random.Random(8)
        for n in (1, 2, 3):
            f, g = random_laurent(rng, n), random_laurent(rng, n)
            # same exponents, different coefficients: the order comes
            # from the coefficients
            h = LaurentPolynomial(n, {e: 2 * c for e, c in f.terms.items()})
            for a, b in ((f, g), (f, h)):
                M = 2 * product_degree(a, b) + 8
                assert (torus_bilinear(a, b, PS[n], M)
                        == torus_bilinear(b, a, PS[n], M))

    def test_degree_counts_kept_terms_only(self):
        # the top-degree terms of f*g cancel: (z1 + 1/z2)(z1 - 1/z2)
        # keeps z1^2 and z2^-2 at degree 2, but (z1 + z2)(z1^-1 - z2^-1)
        # keeps z1 z2^-1 and z2 z1^-1 and cancels its constant term
        cases = [
            (LaurentPolynomial(2, {(1, 0): 1, (0, -1): 1}),
             LaurentPolynomial(2, {(1, 0): 1, (0, -1): -1})),
            (LaurentPolynomial(2, {(1, 0): 1, (0, 1): 1}),
             LaurentPolynomial(2, {(-1, 0): 1, (0, -1): -1})),
            (LaurentPolynomial(1, {(3,): 1, (1,): 1}),
             LaurentPolynomial(1, {(-3,): 1, (-1,): -1})),
            (LaurentPolynomial(1, {(2,): 1}), LaurentPolynomial(1)),
        ]
        rng = random.Random(9)
        cases += [(random_laurent(rng, n), random_laurent(rng, n))
                  for n in (1, 2, 3) for _ in range(5)]
        for f, g in cases:
            pair = measures._Pairing(f, g)
            assert pair.degree() == product_degree(pair.f, pair.g)

    def test_m_guard_boundary(self):
        f = LaurentPolynomial(1, {(3,): 1, (1,): 1})
        g = LaurentPolynomial(1, {(-3,): 1, (-1,): -1})
        # f*g = z^2 - z^-2 after cancellation: degree 2, so M = 12 is the
        # smallest accepted grid although the exponent sums reach 6
        torus_bilinear(f, g, PS[1], 12)
        with pytest.raises(DomainViolation):
            torus_bilinear(f, g, PS[1], 11)

    def test_zero_polynomial(self):
        zero = LaurentPolynomial(2)
        rep = torus_bilinear(zero, random_laurent(random.Random(1), 2),
                             PS[2], 32)
        assert rep.value == 0 and rep.abs_error_estimate == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            torus_bilinear(LaurentPolynomial.constant(1),
                           LaurentPolynomial.constant(2), PS[2], 32)
        with pytest.raises(LengthMismatch):
            torus_bilinear(LaurentPolynomial.constant(1),
                           LaurentPolynomial.constant(1), PS[2], 32)


class TestMechanism:
    def test_no_product_and_no_grid_evaluation(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("pairing built a product or grid values")

        rng = random.Random(11)
        f, g = random_laurent(rng, 2, True), random_laurent(rng, 2, True)
        M = 2 * product_degree(f, g) + 8
        monkeypatch.setattr(LaurentPolynomial, "eval_grid", forbidden)
        monkeypatch.setattr(LaurentPolynomial, "__mul__", forbidden)
        torus_bilinear(f, g, PS[2], M)
        assert partial_bilinear(f, g, PD2, M).discrete_points_used > 0
        assert natural_t_bilinear(f, g, PK2, M).discrete_points_used > 0

    def test_repeated_call_builds_nothing(self):
        rng = random.Random(12)
        f, g = random_laurent(rng, 2, True), random_laurent(rng, 2, True)
        M = 2 * product_degree(f, g) + 8

        def params():
            # equal but distinct parameter objects
            return (replace(PS[2]), replace(PD2), replace(PK2))

        def run():
            ps, pd, pk = params()
            return (torus_bilinear(f, g, ps, M), partial_bilinear(f, g, pd, M),
                    natural_t_bilinear(f, g, pk, M))

        measures._factors.cache_clear()
        measures._moment_table.cache_clear()
        first = run()
        built = (measures._factors.cache_info().misses,
                 measures._moment_table.cache_info().misses)
        assert run() == first
        assert (measures._factors.cache_info().misses,
                measures._moment_table.cache_info().misses) == built

    def test_one_over_one_is_a_weighted_sum(self):
        one = LaurentPolynomial.constant(3)
        pair = measures._Pairing(one, one)
        assert pair.D == 0
        L, H = measures._moment_table(PS[3], 3, 16, None, pair.D)
        assert L.shape == H.shape == (1, 1, 1)


class TestPoleGuards:
    def test_residue_split_labels(self):
        # the residue-split check's parameters at n = 3, where |tau0|
        # small made |num| huge and the scaled prefactor guard fire
        q, t = DEFAULTS["qracah"]["q"], DEFAULTS["qracah"]["t"]
        pg = AWParams(3, q, t, 1.1, -0.5, 0.35, 0.45)
        for r in range(1, 4):
            for nu in combinations_with_replacement(range(5), r):
                lhs = multi_discrete_weight(nu, pg, 0)
                rhs = kr_constant(r, pg) * weight_qR(nu, pg)
                assert abs(lhs - rhs) < 1e-10 * abs(rhs)

    def test_closed_forms_near_q_one(self):
        d = dict(DEFAULTS["aw"], q=0.99)
        p = AWParams(d["n"], d["q"], d["t"], d["t0"], d["t1"], d["t2"],
                     d["t3"])
        assert math.isfinite(abs(gustafson_constant(p)))
        assert math.isfinite(abs(aw_norm((1, 0), p)))

    def test_torus_constant_term_near_q_one(self):
        d = DEFAULTS["aw"]
        p = AWParams(1, 0.99, d["t"], d["t0"], d["t1"], d["t2"], d["t3"])
        one = LaurentPolynomial.constant(1)
        want = gustafson_constant(p)
        got = torus_bilinear(one, one, p, 256).value
        assert abs(got - want) < 1e-8 * abs(want)

    @pytest.mark.parametrize("m", [0, 1, 2])
    def test_true_pole_still_raises(self, m):
        q, tau0 = 0.5, 1.1
        with pytest.raises(PoleInWeight):
            # tk / tau0 = q^-m
            wd_residue_weight(0, tau0, tau0 * q ** -m, 0.3, 0.4, q)
        with pytest.raises(PoleInWeight):
            # tau0 tk = q^-m
            wd_residue_weight(0, tau0, q ** -m / tau0, 0.3, 0.4, q)
