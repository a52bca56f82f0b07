"""End-to-end acceptance suite.

Each test class certifies one headline identity family at desk scale
(n <= 3, small degrees) with an explicit tolerance. The checks pair an
independent numerical evaluation of a bilinear form against the
corresponding closed-form product, or two independently coded forms of
the same quantity against each other.
"""

import cmath
import math
import random

import pytest

from test_measures import contour_value

from bcortho import askey_wilson, big, little, qracah
from bcortho.askey_wilson import (
    aw1_oracle,
    aw_norm,
    aw_polynomials,
    gustafson_constant,
    limit_scan,
    measure_scan,
)
from bcortho.bcpoly import (
    LaurentPolynomial,
    monomial_w,
    pair,
    partition,
    partitions_dominated_by,
)
from bcortho.big import (
    BigParams,
    askey_evans_lhs,
    askey_evans_rhs,
    asymptotic_ratio,
    c_weights,
    c_weights_defining,
    big_limit,
    selberg_big,
    selberg_big_qk,
)
from bcortho.koornwinder import op_matrix
from bcortho.little import (
    LittleParams,
    little_limit,
    norm_little,
    selberg_little,
)
from bcortho.measures import (
    _Chamber,
    multi_discrete_weight,
    wd_residue_weight,
)
from bcortho.params import AWParams
from bcortho.qracah import (
    QRacahParams,
    kr_constant,
    norm_qR,
    summation_qR,
    weight_qR,
)
from bcortho.qseries import (
    qpoch_finite,
    qpoch_infinite,
)
from oracles import qgamma, theta_jacobi


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


class TestOneVariableClosedForm:
    """Criterion 1: the n=1 polynomials agree with the terminating
    series closed form for degrees up to 6, three parameter sets in the
    positive-measure domain; rel <= 1e-10."""

    SETS = [
        (0.35, -0.45, 0.25, 0.2),
        (0.6, -0.3, 0.5, -0.4),
        (0.7, 0.2, -0.55, 0.15),
    ]

    @pytest.mark.parametrize("tvec", SETS)
    def test_oracle_equivalence(self, tvec):
        p = AWParams(1, 0.5, 0.3, *tvec)
        assert p.in_V_AW()
        points = [0.9 * cmath.exp(2j * math.pi * s)
                  for s in (0.13, 0.41, 0.77)]
        for lam in range(7):
            poly = aw_polynomials((lam,), p)[(lam,)]
            for z in points:
                want = aw1_oracle(lam, z, p)
                assert abs(poly.eval([z]) - want) <= 1e-10 * max(
                    1.0, abs(want))


class TestConstantTermTorus:
    """Criterion 2: the torus constant term <1,1> equals the closed
    product; n=1,2 at M=128 rel <= 1e-8, n=3 at M=48 rel <= 1e-6."""

    @pytest.mark.parametrize("n,M,tol", [(1, 128, 1e-8), (2, 128, 1e-8),
                                         (3, 48, 1e-6)])
    def test_gustafson(self, n, M, tol):
        p = AWParams(n, 0.5, 0.3, 0.35, -0.45, 0.25, 0.2)
        one = LaurentPolynomial.constant(n)
        got = askey_wilson.family(p, M).pair(one, one)
        want = gustafson_constant(p)
        assert rel(got, want) < tol


class TestTorusOrthogonality:
    """Criterion 3: full Gram matrix of the n=2 family on partitions of
    weight <= 4, all |t_i| < 1; off-diagonals <= 1e-8 relative to the
    constant term, diagonals match the closed-form norms rel <= 1e-6."""

    def test_gram(self):
        p = AWParams(2, 0.5, 0.3, 0.35, -0.45, 0.25, 0.2)
        M = 64
        lams = [mu for mu in partitions_dominated_by((4, 4))
                if sum(mu) <= 4]
        polys = {lam: aw_polynomials(lam, p)[lam] for lam in lams}
        scale = abs(gustafson_constant(p))
        fam = askey_wilson.family(p, M)
        for i, la in enumerate(lams):
            for lb in lams[i:]:
                v = fam.pair(polys[la], polys[lb])
                if la == lb:
                    assert rel(v, aw_norm(la, p)) < 1e-6
                else:
                    assert abs(v) < 1e-8 * scale


class TestPartiallyDiscreteOrthogonality:
    """Criterion 4: with one (t0 = 1.1) or two ((t0,t1) = (1.1,-1.05))
    parameters outside the unit disc, the Gram matrix on weight <= 2
    partitions for n=2 matches the same contour-free closed-form norms,
    rel <= 1e-6."""

    @pytest.mark.parametrize("t0,t1", [(1.1, -0.5), (1.1, -1.05)])
    def test_gram(self, t0, t1):
        p = AWParams(2, 0.5, 0.3, t0, t1, 0.35, 0.45)
        assert p.in_V_AW()
        M = 320
        lams = [mu for mu in partitions_dominated_by((2, 2))
                if sum(mu) <= 2]
        polys = {lam: aw_polynomials(lam, p)[lam] for lam in lams}
        scale = abs(gustafson_constant(p))
        fam = askey_wilson.family(p, M)
        for i, la in enumerate(lams):
            for lb in lams[i:]:
                v = fam.pair(polys[la], polys[lb])
                if la == lb:
                    assert rel(v, aw_norm(la, p)) < 1e-6
                else:
                    assert abs(v) < 1e-6 * scale


class TestContourDecomposition:
    """Criterion 5: the n=1 contour integral over a deformed circle of
    radius 1.3 equals the torus term plus twice the sum of residue
    weights, rel <= 1e-9."""

    def test_radius_13(self):
        t0 = 1.1 * cmath.exp(2j * math.pi * 0.15)
        p = AWParams(1, 0.5, 0.3, t0, -0.5, 0.35, 0.45)
        one = LaurentPolynomial.constant(1)
        lhs = contour_value(p, R=1.3, M=4096)
        disc = 0.0
        i = 0
        while abs(t0) * p.q ** i > 1:
            disc += wd_residue_weight(i, t0, p.t1, p.t2, p.t3, p.q)
            i += 1
        rhs = pair(one, one, [_Chamber(p, 1, 256)]) + 2 * disc
        assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(rhs))


class TestFiniteDiscreteOrthogonality:
    """Criterion 6: exact finite-sum Gram matrices for n=2 at truncation
    levels N = 1,2,3 (off-diagonals <= 1e-9, diagonals match the
    closed-form norms rel <= 1e-8), and the finite summation formula for
    (n,N) = (1,3),(2,2),(3,1) rel <= 1e-10."""

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_gram(self, N):
        qp = QRacahParams(2, 0.5, 0.3, 0.7, -0.5, 0.4, N)
        lams = [lam for lam in partitions_dominated_by((N, N))]
        fam = qracah.family(qp)
        polys = {lam: fam.polynomials(lam)[lam] for lam in lams}
        norms = {lam: abs(norm_qR(lam, qp)) for lam in lams}
        for i, la in enumerate(lams):
            for lb in lams[i:]:
                v = fam.pair(polys[la], polys[lb])
                if la == lb:
                    assert rel(v, norm_qR(la, qp)) < 1e-8
                else:
                    assert abs(v) < 1e-9 * math.sqrt(norms[la] * norms[lb])

    @pytest.mark.parametrize("n,N", [(1, 3), (2, 2), (3, 1)])
    def test_summation(self, n, N):
        qp = QRacahParams(n, 0.5, 0.3, 0.7, -0.5, 0.4, N)
        one = LaurentPolynomial.constant(n)
        assert rel(qracah.family(qp).pair(one, one),
                   summation_qR(qp)) < 1e-10


class TestResidueFactorization:
    """Criterion 7: the multivariate residue weight factors into the
    chain constant K_r times the per-label node weight, at 20 random
    admissible points, rel <= 1e-10."""

    def test_identity(self):
        p = AWParams(2, 0.5, 0.3, 1.1, -0.5, 0.35, 0.45)
        rng = random.Random(11)
        for _ in range(20):
            r = rng.choice([1, 2])
            nu = tuple(sorted(rng.randrange(5) for _ in range(r)))
            lhs = multi_discrete_weight(nu, p, 0)
            rhs = kr_constant(r, p) * weight_qR(nu, p)
            assert rel(lhs, rhs) < 1e-10


class TestJacksonConstantTerm:
    """Criterion 8: the Jackson-multisum constant term <1,1> equals the
    closed product for n = 1,2,3, rel <= 1e-8."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_closed_product(self, n):
        lp = LittleParams(n, 0.5, 0.3, 0.4, 0.2)
        one = LaurentPolynomial.constant(n)
        assert rel(little.family(lp).pair(one, one),
                   selberg_little(lp)) < 1e-8


class TestLittleOrthogonality:
    """Criterion 9: n=2 Gram matrix on partitions of weight <= 3 matches
    the closed-form norms, rel <= 1e-6."""

    def test_gram(self):
        lp = LittleParams(2, 0.5, 0.3, 0.4, 0.2)
        lams = [mu for mu in partitions_dominated_by((3, 3))
                if sum(mu) <= 3]
        fam = little.family(lp)
        polys = {lam: fam.polynomials(lam)[lam] for lam in lams}
        scale = abs(selberg_little(lp))
        for i, la in enumerate(lams):
            for lb in lams[i:]:
                v = fam.pair(polys[la], polys[lb])
                if la == lb:
                    assert rel(v, norm_little(la, lp)) < 1e-6
                else:
                    assert abs(v) < 1e-6 * scale


class TestBigIdentities:
    """Criterion 10: two-sided measure identities — the split-weight
    dual-form identity at 10 random admissible points (rel <= 1e-9), the
    constant term for n = 1,2 (rel <= 1e-7), the integral-exponent
    two-sided integral including its constant translation from the
    general form (rel <= 1e-7), and the asymptotic-match ratios at probe
    depth 25 (within 1e-5 of 1)."""

    def test_c_weight_dual_form(self):
        rng = random.Random(7)
        for _ in range(10):
            n = rng.choice([1, 2, 3])
            q = rng.uniform(0.3, 0.7)
            t = rng.uniform(0.2, 0.8)
            c = rng.uniform(0.5, 1.5)
            d = rng.uniform(0.5, 1.5)
            a = rng.uniform(-0.9 * c / (d * q), 0.9 / q)
            b = rng.uniform(-0.9 * d / (c * q), 0.9 / q)
            bp = BigParams(n, q, t, a, b, c, d)
            got = c_weights(bp)
            want = c_weights_defining(bp)
            for x, y in zip(got, want):
                assert abs(x - y) <= 1e-9 * max(abs(x), abs(y))

    @pytest.mark.parametrize("n", [1, 2])
    def test_constant_term(self, n):
        bp = BigParams(n, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
        one = LaurentPolynomial.constant(n)
        assert rel(big.family(bp).pair(one, one), selberg_big(bp)) < 1e-7

    @pytest.mark.parametrize("n,k", [(1, 1), (2, 1), (2, 2)])
    def test_askey_evans(self, n, k):
        bp = BigParams(n, 0.5, 0.5 ** k, 0.6, 0.3, 1.0, 0.8)
        lhs = askey_evans_lhs(bp)
        rhs = askey_evans_rhs(bp)
        assert rel(lhs, rhs) < 1e-7
        # the general constant term reproduces the same value after the
        # constant translation
        assert rel(selberg_big_qk(bp), rhs) < 1e-7

    def test_asymptotic_ratios(self):
        bp2 = BigParams(2, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
        bp1 = BigParams(1, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8)
        assert abs(asymptotic_ratio(1, (), (), bp1, 25) - 1.0) < 1e-5
        for j, lam, mu in [(1, (), (0,)), (2, (0,), ())]:
            assert abs(asymptotic_ratio(j, lam, mu, bp2, 25) - 1.0) < 1e-5


class TestLimitTransitions:
    """Criterion 11: along eps_k = eps0 q^k the rescaled coefficient
    distance tables are eventually decreasing with final distance
    < 1e-4 at kmax <= 20, for n <= 2 and weight <= 2 partitions, in both
    scalings; the renormalized measure pairings reproduce the constant
    2^n n! (q;q)_inf^{-2n} (1-q)^{-n} within 1e-3."""

    LP1 = LittleParams(1, 0.5, 0.3, 0.4, 0.2)
    LP2 = LittleParams(2, 0.5, 0.3, 0.4, 0.2)
    BP1 = BigParams(1, 0.5, 0.3, 0.4, 0.2, 1.0, 0.8)
    BP2 = BigParams(2, 0.5, 0.3, 0.4, 0.2, 1.0, 0.8)

    @staticmethod
    def check_table(rows):
        devs = [dev for _k, _e, dev in rows]
        assert devs[-1] < 1e-4
        tail = devs[len(devs) // 2:]
        assert all(b < a for a, b in zip(tail, tail[1:]))

    @pytest.mark.parametrize("lam,n", [((2,), 1), ((1, 0), 2),
                                       ((1, 1), 2), ((2, 0), 2)])
    def test_little_coefficients(self, lam, n):
        lp = self.LP1 if n == 1 else self.LP2
        self.check_table(limit_scan(little_limit(lp), lam, range(16)))

    @pytest.mark.parametrize("lam,n", [((2,), 1), ((1, 0), 2),
                                       ((1, 1), 2), ((2, 0), 2)])
    def test_big_coefficients(self, lam, n):
        # beyond k = 11 the deformed operator data grows like eps^{-2}
        # and rounding noise overtakes the geometric convergence
        bp = self.BP1 if n == 1 else self.BP2
        self.check_table(limit_scan(big_limit(bp), lam, range(12)))

    def test_little_measure_constant(self):
        rows = measure_scan(little_limit(self.LP2), (1, 0), (0, 0), range(13),
                            64)
        assert rows[-1][2] < 1e-3

    def test_big_measure_constant(self):
        rows = measure_scan(big_limit(self.BP2), (1, 0), (0, 0), range(12),
                            64)
        assert rows[-1][2] < 1e-3


class TestStructuralInvariants:
    """Criterion 12: structural identities that do not depend on any
    closed-form table — factorial splitting and inversion, theta
    functional equations, the q-gamma recurrence, symmetry of the
    difference operator for the torus form, dominance-order closure and
    hyperoctahedral invariance of the symmetrized monomials."""

    Q = 0.5

    def test_factorial_splitting(self):
        rng = random.Random(5)
        for _ in range(10):
            a = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            m, k = rng.randrange(6), rng.randrange(6)
            lhs = qpoch_finite(a, self.Q, m + k)
            rhs = qpoch_finite(a, self.Q, m) * qpoch_finite(
                a * self.Q ** m, self.Q, k)
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))
            inf = qpoch_infinite(a, self.Q)
            split = qpoch_finite(a, self.Q, k) * qpoch_infinite(
                a * self.Q ** k, self.Q)
            assert abs(inf - split) < 1e-12 * max(1.0, abs(inf))

    def test_theta_functional_equations(self):
        rng = random.Random(6)
        for _ in range(10):
            x = complex(rng.uniform(0.2, 2), rng.uniform(-1, 1))
            th = theta_jacobi(x, self.Q)
            assert abs(theta_jacobi(self.Q * x, self.Q)
                       - th / (-x)) < 1e-11 * max(1.0, abs(th))
            assert abs(theta_jacobi(self.Q / x, self.Q)
                       - th) < 1e-11 * max(1.0, abs(th))

    def test_qgamma_recurrence(self):
        for u in (0.4, 1.3, 2.7):
            lhs = qgamma(u + 1.0, self.Q)
            rhs = (1.0 - self.Q ** u) / (1.0 - self.Q) * qgamma(u, self.Q)
            assert rel(lhs, rhs) < 1e-12

    def test_operator_symmetry(self):
        # the triangular coefficient matrix lets D act on monomials as a
        # polynomial; symmetry of D is then a Gram-matrix statement
        p = AWParams(2, 0.5, 0.3, 0.35, -0.45, 0.25, 0.2)
        top = (2, 0)
        m = op_matrix(top, p)
        mons = [monomial_w(mu) for mu in m.index]

        def apply_rows(i):
            out = LaurentPolynomial(2)
            for j in range(len(mons)):
                out = out + mons[j].scale(complex(m.entries[i, j]))
            return out

        fam = askey_wilson.family(p, 64)
        for i in range(len(mons)):
            for j in range(len(mons)):
                a = fam.pair(apply_rows(i), mons[j])
                b = fam.pair(mons[i], apply_rows(j))
                assert abs(a - b) < 1e-9 * max(1.0, abs(a))

    def test_dominance_closure(self):
        lams = partitions_dominated_by((3, 1))
        for mu in lams:
            assert partition(mu) == mu
            for nu in partitions_dominated_by(mu):
                assert nu in lams

    def test_w_invariance(self):
        rng = random.Random(8)
        f = monomial_w((2, 1))
        for _ in range(5):
            z = [complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
                 for _ in range(2)]
            base = f.eval(z)
            assert abs(f.eval([z[1], z[0]]) - base) < 1e-12 * abs(base)
            assert abs(f.eval([1.0 / z[0], z[1]]) - base) < 1e-12 * abs(base)
