"""Tests for the one orthogonalizer, bcpoly.orthogonalize, and the
polynomial class it returns for every family."""

import pytest

from bcortho.askey_wilson import aw_polynomials
from bcortho.bcpoly import (
    LaurentPolynomial,
    monomial_s,
    monomial_w,
    orthogonalize,
    partitions_dominated_by,
)
from bcortho.big import BigParams, big_polynomials
from bcortho.errors import DomainViolation, SingularGram
from bcortho.little import LittleParams, little_polynomials
from bcortho.params import AWParams
from bcortho.qracah import QRacahParams, qracah_polynomials

LP2 = LittleParams(2, 0.5, 0.3, 0.4, 0.2)
BP2 = BigParams(2, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
QP2 = QRacahParams(2, 0.5, 0.3, 0.7, -0.5, 0.4, 2)

FAMILIES = [
    (little_polynomials, LP2, monomial_s),
    (big_polynomials, BP2, monomial_s),
    (qracah_polynomials, QP2, monomial_w),
]


@pytest.mark.parametrize("build, p, basis", FAMILIES)
def test_family_independent_of_top(build, p, basis):
    family = build((2, 2), p)
    assert list(family) == partitions_dominated_by((2, 2))
    for mu, P in family.items():
        alone = build(mu, p)[mu]
        assert P.degree == alone.degree == mu
        assert P.coeffs == alone.coeffs
        assert P.coeffs[mu] == 1.0


@pytest.mark.parametrize("build, p, basis", FAMILIES)
def test_basis_travels(build, p, basis):
    P = build((2, 1), p)[(2, 1)]
    assert P.basis is basis
    want = LaurentPolynomial(2)
    for mu, c in P.coeffs.items():
        want = want + basis(mu).scale(c)
    assert P.to_laurent() == want


def test_aw_basis():
    p = AWParams(2, 0.5, 0.3, 0.35, -0.45, 0.25, 0.2)
    assert aw_polynomials((1, 0), p)[(1, 0)].basis is monomial_w


@pytest.mark.parametrize("build, p, basis", FAMILIES)
def test_length_checked(build, p, basis):
    with pytest.raises(DomainViolation):
        build((1,), p)


def test_rank_one_pairing_is_singular():
    z0 = (0.7, 0.4)

    def pair(f, g):
        return f.eval(z0) * g.eval(z0)

    with pytest.raises(SingularGram):
        orthogonalize((1, 0), 2, monomial_s, pair)


def test_small_measure_is_not_singular():
    # <1,1> = 2.4e-12 here, so an absolute norm guard would reject it
    lp = LittleParams(2, 0.9, 0.3, 0.4, 0.2)
    family = little_polynomials((2, 2), lp)
    assert list(family) == partitions_dominated_by((2, 2))
