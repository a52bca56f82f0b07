"""Tests for the one orthogonalizer, bcpoly.orthogonalize, and the
Laurent polynomials every family returns."""

import itertools

import numpy as np
import pytest

from oracles import orthogonalize_loop

from bcortho.askey_wilson import aw_polynomials
from bcortho import big, little, qracah
from bcortho.bcpoly import (
    LaurentPolynomial,
    PointTable,
    monomial_s,
    monomial_w,
    orthogonalize,
    pair,
    partitions_dominated_by,
)
from bcortho.big import BigParams
from bcortho.errors import DomainViolation, SingularGram
from bcortho.little import LittleParams
from bcortho.params import AWParams
from bcortho.qracah import QRacahParams

LP2 = LittleParams(2, 0.5, 0.3, 0.4, 0.2)
BP2 = BigParams(2, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
QP2 = QRacahParams(2, 0.5, 0.3, 0.7, -0.5, 0.4, 2)
AW2 = AWParams(2, 0.5, 0.3, 0.35, -0.45, 0.25, 0.2)

FAMILIES = [
    ("little_polynomials", LP2, monomial_s),
    ("big_polynomials", BP2, monomial_s),
    ("qracah_polynomials", QP2, monomial_w),
]
# the polynomials of degree mu <= top of each family on the parameters
# p, one record per call, under the names of the test ids
POLYNOMIALS = {
    "little_polynomials": lambda p: little.family(p).polynomials,
    "big_polynomials": lambda p: big.family(p).polynomials,
    "qracah_polynomials": lambda p: qracah.family(p).polynomials,
    "aw_polynomials": lambda p: lambda top: aw_polynomials(top, p),
}


@pytest.mark.parametrize("build, p, basis", FAMILIES)
def test_family_independent_of_top(build, p, basis):
    build = POLYNOMIALS[build](p)
    family = build((2, 2))
    assert list(family) == partitions_dominated_by((2, 2))
    for mu, P in family.items():
        alone = build(mu)[mu]
        assert P == alone
        assert P.coefficient(mu) == 1.0


@pytest.mark.parametrize("build, p, basis",
                         FAMILIES + [("aw_polynomials", AW2, monomial_w)])
def test_combination_of_basis_orbits(build, p, basis):
    # P_mu = sum_{nu <= mu} c_nu basis(nu) exactly, with c_mu = 1
    for mu, P in POLYNOMIALS[build](p)((2, 1)).items():
        lower = partitions_dominated_by(mu)
        assert P.coefficient(mu) == 1.0
        assert P == LaurentPolynomial(2, {
            e: P.coefficient(nu) for nu in lower for e in basis(nu).terms})
        if basis is monomial_w:
            assert set(P.w_coefficients()) <= set(lower)
        else:
            for e, c in P.terms.items():
                assert all(P.coefficient(s) == c
                           for s in itertools.permutations(e))


@pytest.mark.parametrize("build, p, basis", FAMILIES)
def test_length_checked(build, p, basis):
    with pytest.raises(DomainViolation):
        POLYNOMIALS[build](p)((1,))


def test_rank_one_pairing_is_singular():
    # one node: m_(1,0) is a multiple of 1 there
    table = PointTable(np.array([[0.7], [0.4]]), np.zeros((2, 1), int),
                       np.ones(1))
    with pytest.raises(SingularGram):
        orthogonalize((1, 0), 2, monomial_s, [table])


# (family module, params, top) of the bit-identity tests
LOOP_CASES = {
    "qracah-n2-N2": (qracah, QP2, (2, 2)),
    "qracah-n2-N3": (qracah, QRacahParams(2, 0.5, 0.3, 0.7, -0.5, 0.4, 3),
                     (3, 3)),
    "qracah-n3-N2": (qracah, QRacahParams(3, 0.5, 0.3, 0.7, -0.5, 0.4, 2),
                     (2, 2, 2)),
    "qracah-n3-N3": (qracah, QRacahParams(3, 0.5, 0.3, 0.7, -0.5, 0.4, 3),
                     (3, 3, 3)),
    "qracah-complex-t0": (qracah, QRacahParams(2, 0.5, 0.3, 0.7 + 0.2j,
                                               -0.5, 0.4, 2), (2, 2)),
    "little-q0.5": (little, LP2, (2, 2)),
    "little-q0.9": (little, LittleParams(2, 0.9, 0.3, 0.4, 0.2), (2, 2)),
    "big-n2": (big, BP2, (2, 2)),
    "big-n3": (big, BigParams(3, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8), (1, 1, 1)),
}


@pytest.mark.parametrize("case", list(LOOP_CASES))
def test_columns_equal_polynomial_loop(case):
    # on node-value columns, orthogonalize forms the terms (in their
    # order) and node values of the loop that made a new polynomial per
    # projection step and evaluated it anew, on the family's node tables
    mod, p, top = LOOP_CASES[case]
    if mod is qracah:
        tables, basis = [qracah._node_table(p)], monomial_w
    else:
        tables, basis = mod._node_table(p), monomial_s
    got = orthogonalize(top, len(top), basis, tables)
    want = orthogonalize_loop(top, len(top), basis,
                              lambda f, g: pair(f, g, tables))
    assert list(got) == list(want)
    for mu, P in got.items():
        assert list(P.terms.items()) == list(want[mu].terms.items())
        for t in tables:
            assert np.array_equal(P.node_values(t), want[mu].node_values(t))
            assert P.node_values(t).dtype == want[mu].node_values(t).dtype


def test_small_measure_is_not_singular():
    # <1,1> = 2.4e-12 here, so an absolute norm guard would reject it
    lp = LittleParams(2, 0.9, 0.3, 0.4, 0.2)
    family = little.family(lp).polynomials((2, 2))
    assert list(family) == partitions_dominated_by((2, 2))
