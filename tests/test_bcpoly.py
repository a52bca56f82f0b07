"""Tests for partitions, dominance order and Laurent polynomial algebra."""

import itertools
import random

import numpy as np
import pytest

from bcortho import bcpoly
from bcortho.bcpoly import (
    LaurentPolynomial,
    dominance_leq,
    monomial_s,
    monomial_w,
    partitions_dominated_by,
)
from bcortho.errors import (
    DomainViolation,
    LengthMismatch,
    ZeroCoordinate,
)


class TestValidators:
    def test_partition_ok(self):
        assert bcpoly.partition([3, 1, 0]) == (3, 1, 0)

    def test_partition_bad(self):
        with pytest.raises(DomainViolation):
            bcpoly.partition([1, 2])
        with pytest.raises(DomainViolation):
            bcpoly.partition([-1])

    def test_ascending_ok(self):
        assert bcpoly.ascending_index([0, 2, 2]) == (0, 2, 2)

    def test_ascending_bad(self):
        with pytest.raises(DomainViolation):
            bcpoly.ascending_index([2, 1])


class TestDominance:
    def test_examples(self):
        assert dominance_leq((1, 1), (2, 0))
        assert not dominance_leq((2, 2), (3, 0))
        assert dominance_leq((2, 1), (2, 1))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            dominance_leq((1,), (1, 0))


class TestPartitionsDominatedBy:
    def test_zero(self):
        assert partitions_dominated_by((0, 0, 0)) == [(0, 0, 0)]

    def test_n1(self):
        assert partitions_dominated_by((3,)) == [(0,), (1,), (2,), (3,)]

    def test_n2_brute_force(self):
        # brute-force enumeration of all partitions with a partial-sum check
        lam = (2, 0)
        want = set()
        for a in range(3):
            for b in range(a + 1):
                if a <= 2 and a + b <= 2:
                    want.add((a, b))
        got = partitions_dominated_by(lam)
        assert set(got) == want
        assert set(got) == {(0, 0), (1, 0), (1, 1), (2, 0)}

    def test_order_refines_dominance(self):
        got = partitions_dominated_by((3, 2, 1))
        pos = {m: i for i, m in enumerate(got)}
        for mu, nu in itertools.permutations(got, 2):
            if dominance_leq(mu, nu) and mu != nu:
                assert pos[mu] < pos[nu]

    def test_downward_closed(self):
        got = partitions_dominated_by((2, 2))
        for mu in got:
            for nu in partitions_dominated_by(mu):
                assert nu in got


class TestMonomials:
    def test_monomial_w_zero(self):
        assert monomial_w((0, 0)) == LaurentPolynomial.constant(2)

    def test_monomial_w_10(self):
        m = monomial_w((1, 0))
        assert m.terms == {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1}

    def test_monomial_w_11(self):
        m = monomial_w((1, 1))
        assert set(m.terms) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_monomial_s(self):
        assert monomial_s((0, 0)) == LaurentPolynomial.constant(2)
        assert monomial_s((1, 0)).terms == {(1, 0): 1, (0, 1): 1}
        assert monomial_s((2, 1)).terms == {(2, 1): 1, (1, 2): 1}

    def test_orbit_size_divides_group_order(self):
        for lam in [(0, 0), (1, 0), (1, 1), (2, 1), (3, 2)]:
            size = len(monomial_w(lam).terms)
            assert (2 ** 2 * 2) % size == 0
        # distinct nonzero parts give the full orbit
        assert len(monomial_w((2, 1)).terms) == 8
        assert len(monomial_w((3, 2, 1)).terms) == 48

    def test_w_invariance(self):
        rng = random.Random(7)
        m = monomial_w((2, 1))
        z = [complex(rng.uniform(0.5, 2), rng.uniform(-1, 1)) for _ in range(2)]
        v = m.eval(z)
        assert abs(m.eval([z[1], z[0]]) - v) < 1e-12 * abs(v)
        assert abs(m.eval([1 / z[0], z[1]]) - v) < 1e-12 * abs(v)


class TestEval:
    def test_constant(self):
        assert LaurentPolynomial.constant(3).eval([1j, 2, -1]) == 1

    def test_hand_value(self):
        p = LaurentPolynomial(1, {(1,): 1, (-1,): 1})
        assert p.eval([2.0]) == pytest.approx(2.5)

    def test_orbit_size_at_ones(self):
        assert monomial_w((1, 1)).eval([1, 1]) == pytest.approx(4)

    def test_zero_coordinate(self):
        with pytest.raises(ZeroCoordinate):
            LaurentPolynomial.constant(2).eval([0, 1])

    def test_ring_laws(self):
        rng = random.Random(3)

        def rand_poly():
            return LaurentPolynomial(2, {
                (rng.randint(-2, 2), rng.randint(-2, 2)):
                    complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                for _ in range(4)})

        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f * g) * h == (f * g) * h
        lhs = ((f * g) * h)
        rhs = (f * (g * h))
        for e in set(lhs.terms) | set(rhs.terms):
            assert abs(lhs.coefficient(e) - rhs.coefficient(e)) < 1e-12
        z = [1.3 - 0.2j, 0.4 + 0.9j]
        assert abs(f.eval(z) * g.eval(z) - (f * g).eval(z)) \
            < 1e-12 * max(1, abs(f.eval(z) * g.eval(z)))

    def test_eval_grid_matches_pointwise(self):
        p = monomial_w((2, 1)) + LaurentPolynomial.constant(2, 0.5 + 0.1j)
        ax = [np.array([0.5, 1.0 + 0.5j, -1.2]),
              np.array([2.0, 0.3 - 0.4j])]
        grid = p.eval_grid(ax)
        for i, x in enumerate(ax[0]):
            for j, y in enumerate(ax[1]):
                assert abs(grid[i, j] - p.eval([x, y])) < 1e-12
