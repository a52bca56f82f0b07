"""Torus pairings on the W-chamber node tables (which replaced the
moment tables), checked against the full tensor-grid formula: the mean
of f*g*Delta over the M^n grid. Also the batched partially discrete
form and its natural-t reference (oracles.natural_t_bilinear) against
per-label oracles, the guards of the pairings, and the per-factor pole
guards of the Askey-Wilson side."""

import math
import random
from itertools import combinations_with_replacement, product

import numpy as np
import pytest

from bcortho import askey_wilson, measures
from bcortho.askey_wilson import aw_norm, aw_polynomials, gustafson_constant
from bcortho.bcpoly import (
    LaurentPolynomial,
    monomial_w,
    pair,
    partitions_dominated_by,
)
from bcortho.cli import DEFAULTS, build_config, run_suite
from bcortho.errors import (
    DomainViolation,
    GridTooCoarse,
    LengthMismatch,
    NotWInvariant,
    PoleInWeight,
)
from bcortho.measures import (
    multi_discrete_weight,
    partial_bilinear,
    partial_gram,
    wd_residue_weight,
)
from bcortho.params import AWParams
from bcortho.qracah import kr_constant, weight_qR
from bcortho.qseries import qpoch_finite, qpoch_infinite_arr
from oracles import interaction_c, natural_t_bilinear, substitute_prefix

PS = {n: AWParams(n, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)
      for n in (1, 2, 3)}
# one discrete chain (n = 2, 3); two chains; t = q^2 for the natural-t form
PD = {n: AWParams(n, 0.5, 0.3, 1.1, -0.5, 0.35, 0.45) for n in (2, 3)}
PDD2 = AWParams(2, 0.5, 0.3, 1.1, -1.05, 0.35, 0.45)
PK2 = AWParams(2, 0.5, 0.25, 1.1, -0.5, 0.3, 0.4)
# a chain of three support values, 7.5 q^m
PK3 = AWParams(2, 0.5, 0.25, 7.5, -0.5, 0.3, 0.4)


def weight_grid(p, n_axes, M, k=None):
    """(z-axis values, Delta over the whole M^n_axes tensor grid): the
    axis factor w_c on every axis times, per pair of axes, the M x M
    table of the interaction factor on the M^2 products z_a z_b, z_b/z_a,
    z_a/z_b, 1/(z_a z_b); k = None uses (x;q)_tau, integer k (x;q)_k."""
    z = np.exp(2j * np.pi * np.arange(M) / M)
    wc = qpoch_infinite_arr(z ** 2, p.q) * qpoch_infinite_arr(z ** -2, p.q)
    for ti in p.tvec:
        wc = wc / qpoch_infinite_arr(ti * z, p.q)
        wc = wc / qpoch_infinite_arr(ti / z, p.q)
    za, zb = z[:, None], z[None, :]
    pair = np.ones((M, M), dtype=complex)
    for arg in (za * zb, zb / za, za / zb, 1.0 / (za * zb)):
        if k is None:
            pair *= qpoch_infinite_arr(arg, p.q) / qpoch_infinite_arr(
                arg * p.t, p.q)
        else:
            pair *= qpoch_finite(arg, p.q, k)
    grid = np.ones((M,) * n_axes, dtype=complex)
    for a in range(n_axes):
        sh = [1] * n_axes
        sh[a] = M
        grid = grid * wc.reshape(sh)
        for b in range(a + 1, n_axes):
            sh = [1] * n_axes
            sh[a] = sh[b] = M
            grid = grid * pair.reshape(sh)
    return z, grid


def grid_mean(h, p, n_axes, M, k=None, factor=None):
    """Mean of h * Delta (* factor(z_j) on every axis) over the M^n grid;
    h is a callable on the grid axes, factor one on the axis values."""
    z, grid = weight_grid(p, n_axes, M, k)
    if factor is not None:
        fz = factor(z)
        for a in range(n_axes):
            sh = [1] * n_axes
            sh[a] = M
            grid = grid * fz.reshape(sh)
    return complex(np.mean(h([z] * n_axes) * grid))


def oracle(f, g, p, M, k=None):
    """The torus pairing by the grid formula."""
    return grid_mean((f * g).eval_grid, p, p.n, M, k)


def random_invariant(rng, n, top):
    """A random complex combination of monomial_w(mu), mu <= top."""
    out = LaurentPolynomial(n)
    for mu in partitions_dominated_by(top):
        c = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        out = out + monomial_w(mu).scale(c)
    return out


def real_part(h):
    """h with the real parts of its coefficients: the partially discrete
    form checks that its value is real on real measures."""
    return LaurentPolynomial(h.nvars, {e: c.real for e, c in h.terms.items()})


def product_degree(f, g):
    """The degree that the M guard bounds: largest |e|_1 among the terms
    of the product polynomial."""
    return max((sum(map(abs, e)) for e in (f * g).terms), default=0)


def term_mass(f, g):
    return (sum(abs(c) for c in f.terms.values())
            * sum(abs(c) for c in g.terms.values()))


def partial(f, g, p, M):
    """<f, g> on the measure of p and M, built for this one pairing."""
    return askey_wilson.family(p, M).pair(f, g)


# the pairings that the guard tests run, by name
FORMS = {"partial_bilinear": partial, "natural_t_bilinear": natural_t_bilinear}


TOPS = {1: (2,), 2: (2, 1), 3: (1, 1, 0)}


class TestAgainstGridFormula:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("odd", [0, 1])
    def test_torus(self, n, odd):
        rng = random.Random(10 * n + odd)
        p = PS[n]
        for _ in range(2):
            f, g = (random_invariant(rng, n, TOPS[n]) for _ in range(2))
            M = 2 * sum(TOPS[n]) * 2 + 8 + odd
            got = partial(f, g, p, M)
            value = oracle(f, g, p, M)
            scale = term_mass(f, g) * np.mean(np.abs(weight_grid(p, n, M)[1]))
            assert abs(got - value) < 1e-13 * scale

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("M", [16, 17])
    def test_orbit_sizes_fill_the_grid(self, n, M):
        # each node stands for 2^n n! grid points; the rest of the grid
        # lies on a wall: a coordinate folded to 0 or M/2, or two equal
        for m in (M, (M + 1) // 2):
            table = measures._Chamber(PS[n], n, m)
            assert table.nodes.dtype == np.int16
            assert table.nodes.shape[0] == n
            assert np.all(np.diff(table.nodes.astype(int), axis=0) > 0)
            assert table.nodes.min() == 1
            assert table.nodes.max() == (m - 1) // 2
            walls = 0
            for idx in np.ndindex((m,) * n):
                fold = {min(i, m - i) for i in idx}
                walls += len(fold) < n or bool(fold & {0, m / 2})
            orbit = 2 ** n * math.factorial(n)
            assert orbit * table.nodes.shape[1] + walls == m ** n

    @pytest.mark.parametrize("n", [1, 2])
    def test_weights_fold_the_grid(self, n):
        # every grid point's weight lands on its chamber node; the walls
        # carry none
        M = 12
        table = measures._Chamber(PS[n], n, M)
        _, grid = weight_grid(PS[n], n, M)
        folded = {}
        for idx in np.ndindex(grid.shape):
            key = tuple(sorted(min(i, M - i) for i in idx))
            folded[key] = folded.get(key, 0) + grid[idx] / M ** n
        got = {tuple(c): w for c, w in zip(table.nodes.T.tolist(),
                                           table.weights)}
        assert got.keys() <= folded.keys()
        scale = np.max(np.abs(grid))
        for key, w in folded.items():
            assert abs(got.get(key, 0) - w) < 1e-14 * scale

    def test_natural_t_torus_term(self):
        # the torus term of the natural-t form pairs against the t = q^k
        # table; all four parameters small leaves only that term
        p = AWParams(2, 0.5, 0.25, 0.6, -0.5, 0.3, 0.4)
        rng = random.Random(6)
        f, g = (random_invariant(rng, 2, (2, 0)) for _ in range(2))
        got = natural_t_bilinear(f, g, p, 24)
        value = oracle(f, g, p, 24, k=2)
        scale = term_mass(f, g) * abs(gustafson_constant(p))
        assert abs(got - value) < 1e-13 * scale

    def test_partial(self):
        cases = [(PD[2], 24), (PD[2], 25), (PDD2, 24), (PD[3], 20)]
        for p, M in cases:
            rng = random.Random(M)
            f, g = (real_part(random_invariant(rng, p.n, (1,) * p.n))
                    for _ in range(2))
            assert measures._discrete_table(p, M)
            got = partial(f, g, p, M)
            value = per_label_partial(f, g, p, M)
            # the chain values |omega| > 1 scale the substituted
            # coefficients
            tol = 1e-13 * term_mass(f, g) * 10 * abs(gustafson_constant(p))
            assert abs(got - value) < tol

    def test_natural_t(self):
        # one chain of t0, three support values: every pick of r = 1, 2
        # points substituted one at a time
        p, k, M = PK3, 2, 24
        q = p.q
        rng = random.Random(4)
        f, g = (random_invariant(rng, 2, (1, 1)) for _ in range(2))
        got = natural_t_bilinear(f, g, p, M)
        chain = [(p.t0 * q ** m, measures.wd_residue_weight(m, *p.tvec, q))
                 for m in range(measures._chain_ends(p, 0)[0])]
        assert len(chain) == 3
        value = oracle(f, g, p, M, k)
        count, mass = 0, 0.0
        for r in (1, 2):
            for picks in product(chain, repeat=r):
                pt = [zv for zv, _w in picks]
                w = math.prod(w for _zv, w in picks)
                for a, b in ((0, 1),) * (r - 1):
                    for arg in (pt[a] * pt[b], pt[b] / pt[a], pt[a] / pt[b],
                                1 / (pt[a] * pt[b])):
                        w *= qpoch_finite(arg, q, k)
                if w == 0:
                    continue
                count += 1
                if r == 2:
                    term = 4 * w * f.eval(pt) * g.eval(pt)
                    value += term
                    mass += abs(term)
                    continue
                fz, gz = substitute_prefix(f, pt), substitute_prefix(g, pt)

                def row(z, zv=pt[0]):
                    out = np.ones(len(z), dtype=complex)
                    for arg in (zv * z, zv / z, z / zv, 1 / (zv * z)):
                        out *= qpoch_finite(arg, q, k)
                    return out

                pq = AWParams(1, q, p.t, *p.tvec)
                fine = grid_mean((fz * gz).eval_grid, pq, 1, M, k, row)
                value += 4 * w * fine
                mass += abs(4 * w * fine)
        # r = 2: (x;q)_2 vanishes at x = 1, 1/q, so only (0, 2), (2, 0)
        assert count == 3 + 2
        assert abs(got - value) < 1e-13 * mass


def per_label_partial(f, g, p, M):
    """partial_bilinear label by label: every discrete label substituted
    into f and g, its (n - r)-axis pairing by the grid formula with the
    label's delta_c factor on every axis."""
    n = p.n
    value = oracle(f, g, p, M)
    for _l, nu, z, weights, _row in measures._split_labels(p, M):
        r = len(nu)
        comb = 2 ** r * math.perm(n, r)
        omega = np.array([zi[k] for zi, k in zip(z, nu)]).T
        for pt, w in zip(omega.tolist(), weights.tolist()):
            fz, gz = substitute_prefix(f, pt), substitute_prefix(g, pt)
            if r == n:
                value += comb * w * fz.coefficient(()) * gz.coefficient(())
                continue
            pq = AWParams(n - r, p.q, p.t, *p.tvec)

            def row(z, pt=pt):
                return np.array([interaction_c(pt, (x,), p) for x in z])

            value += comb * w * grid_mean((fz * gz).eval_grid, pq, n - r, M,
                                          factor=row)
    return value


class TestPairingTerms:
    def test_exactly_symmetric(self):
        rng = random.Random(8)
        for n in (1, 2, 3):
            f, g = (random_invariant(rng, n, TOPS[n]) for _ in range(2))
            fam = askey_wilson.family(PS[n], 2 * 2 * sum(TOPS[n]) + 8)
            assert fam.pair(f, g) == fam.pair(g, f)
        f, g = (real_part(random_invariant(rng, 2, (1, 1))) for _ in range(2))
        fam = askey_wilson.family(PDD2, 24)
        assert fam.pair(f, g) == fam.pair(g, f)
        assert (natural_t_bilinear(f, g, PK2, 24)
                == natural_t_bilinear(g, f, PK2, 24))

    def test_degree_counts_kept_terms_only(self):
        # for W-invariant f and g the top degrees add: no product term of
        # the largest orbits cancels
        rng = random.Random(9)
        cases = [(monomial_w((2, 1)), monomial_w((1, 0))),
                 (monomial_w((1, 1)) - monomial_w((2, 0)), monomial_w((1, 1))),
                 (LaurentPolynomial.constant(2), monomial_w((0, 0)))]
        cases += [tuple(random_invariant(rng, n, TOPS[n]) for _ in range(2))
                  for n in (1, 2, 3) for _ in range(3)]
        for f, g in cases:
            assert measures._pairing_degree(f, g) == product_degree(f, g)

    def test_m_guard_boundary(self):
        # degree 3 + 1: M = 16 is the smallest accepted grid
        f, g = monomial_w((3,)), monomial_w((1,))
        partial(f, g, PS[1], 16)
        with pytest.raises(DomainViolation):
            partial(f, g, PS[1], 15)
        # at n = 2 the degrees add along aligned signs: |(2,1)| + |(1,0)|
        f, g = monomial_w((2, 1)), monomial_w((1, 0))
        partial(f, g, PS[2], 16)
        with pytest.raises(DomainViolation):
            partial(f, g, PS[2], 15)

    @pytest.mark.parametrize("form, p", [("partial_bilinear", PS[2]),
                                         ("partial_bilinear", PD[2]),
                                         ("natural_t_bilinear", PK2)])
    def test_not_invariant_raises(self, form, p):
        form = FORMS[form]
        m = monomial_w((1, 0))
        for bad in (
                # a missing orbit member, then unequal coefficients
                LaurentPolynomial(2, {(1, 0): 1.0}),
                m + LaurentPolynomial(2, {(0, 1): 1e-3}),
                LaurentPolynomial(2, {(1, 0): 1.0, (-1, 0): 1.0,
                                      (0, 1): 1.0, (0, -1): 1.0 + 1e-15})):
            with pytest.raises(NotWInvariant):
                form(bad, m, p, 32)
            with pytest.raises(NotWInvariant):
                form(m, bad, p, 32)

    def test_zero_polynomial(self):
        zero = LaurentPolynomial(2)
        assert partial(zero, monomial_w((2, 1)), PS[2], 32) == 0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            partial(LaurentPolynomial.constant(1),
                    LaurentPolynomial.constant(2), PS[2], 32)
        with pytest.raises(LengthMismatch):
            partial(LaurentPolynomial.constant(1),
                    LaurentPolynomial.constant(1), PS[2], 32)


class TestOpenChamber:
    """The chamber tables hold the open W-chamber 0 < k_1 < ... < k_n < M/2
    only: Delta vanishes on its walls."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("M", [12, 13])
    def test_matches_weight_grid(self, n, M):
        # node k carries 2^n n! grid points of weight Delta(z_k) / M^n,
        # and the nodes carry the whole mean of the grid
        table = measures._Chamber(PS[n], n, M)
        _, grid = weight_grid(PS[n], n, M)
        scale = np.max(np.abs(grid))
        want = grid[tuple(table.nodes.astype(int))] * (
            2 ** n * math.factorial(n) / M ** n)
        assert np.all(np.abs(table.weights - want) < 1e-14 * scale)
        assert abs(table.weights.sum() - np.mean(grid)) < 1e-14 * scale

    @pytest.mark.parametrize("M", [16, 17, 256])
    def test_pair_table_is_the_four_factor_product(self, M):
        # the real P[a, b] against the complex product over
        # m = a + b, b - a, a - b, -a - b of R = (w^m;q)_tau, on the
        # entries the nodes read, 0 < a < b; next to the diagonal the
        # products differ by up to 1e-14 of themselves, because w^m and
        # w^-m are rounded apart and 1 - w^m cancels
        p = PS[2]
        z = np.exp(2j * np.pi * np.arange(M) / M)
        R = qpoch_infinite_arr(z, p.q) / qpoch_infinite_arr(z * p.t, p.q)
        P = measures._pair_table(p, M)
        assert P.dtype == float and P.shape == ((M + 1) // 2,) * 2
        a, b = np.indices(P.shape)
        want = np.ones(P.shape, dtype=complex)
        for m in (a + b, b - a, a - b, -a - b):
            want = want * R[m % M]
        read = (a > 0) & (b > a)
        assert np.all(np.abs(P - want)[read]
                      < 1e-14 * np.max(np.abs(want)))

    def test_table_without_interior_node(self):
        # n = 3 needs 0 < k_1 < k_2 < k_3 < M/2: no node for M <= 6 and
        # one, (1, 2, 3), for M = 7 and 8
        for M in (4, 5, 6):
            table = measures._Chamber(PS[3], 3, M)
            assert table.nodes.shape == (3, 0)
            assert table.weights.sum() == 0
        one = LaurentPolynomial.constant(3)
        [table] = tables = measures.measure(PS[3], 8)
        [weight] = table.weights
        assert partial_bilinear(one, one, tables, PS[3], 8) == weight
        f = monomial_w((1, 0, 0))
        assert pair(f, f, [measures._Chamber(PS[3], 3, 6)]) == 0


class TestMechanism:
    def test_no_product_and_no_grid_evaluation(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("pairing built a product or grid values")

        rng = random.Random(11)
        f, g = (real_part(random_invariant(rng, 2, (1, 1))) for _ in range(2))
        monkeypatch.setattr(LaurentPolynomial, "eval_grid", forbidden)
        monkeypatch.setattr(LaurentPolynomial, "__mul__", forbidden)
        partial(f, g, PS[2], 24)
        assert measures._discrete_table(PD[2], 24)
        partial(f, g, PD[2], 24)

    def test_gram_evaluates_each_polynomial_once(self, monkeypatch):
        # a polynomial keeps its node values per table
        # (LaurentPolynomial.node_values)
        rng = random.Random(13)
        polys = [random_invariant(rng, 2, (2, 1)) for _ in range(4)]
        calls = []
        at_nodes = measures._Chamber.at_nodes

        def counted(table, f):
            calls.append(table.M)
            return at_nodes(table, f)

        monkeypatch.setattr(measures._Chamber, "at_nodes", counted)

        fam = askey_wilson.family(PS[2], 32)
        for a in polys:
            for b in polys:
                fam.pair(a, b)
        assert calls == [32] * 4

    def test_one_over_one_is_a_weighted_sum(self):
        # a constant stays a scalar: the pairing is the sum of the
        # weights, added one by one in node order
        one = LaurentPolynomial.constant(3, 0.5)
        [table] = tables = measures.measure(PS[3], 16)
        assert table.at_nodes(one).shape == (1,)

        def in_order(weights):
            total = 0.0
            for w in weights.tolist():
                total += 0.25 * w
            return total

        assert partial_bilinear(one, one, tables, PS[3], 16) == in_order(
            table.weights)


# (n, top, M) of the Gram tests: the smallest grid each top accepts,
# the n = 3 case on an odd grid, and the aw --lmax 4 defaults
GRAM_CASES = [(1, (6,), 32), (2, (2, 2), 24), (3, (1, 1, 1), 21),
              (2, (4, 4), 128)]


class TestTorusGram:
    @pytest.mark.parametrize("n, top, M", GRAM_CASES,
                             ids=["n1", "n2", "n3-odd", "n2-lmax4"])
    @pytest.mark.parametrize("params", ["complex", "cli"])
    def test_entries_match_pairings(self, n, top, M, params):
        # bcpoly.gram against the pairwise pairings: both are bcpoly.pair
        # on the M-point table, so the entries are equal. gram pairs
        # (P_a, P_b) for a <= b; for complex values numpy's products
        # f g and g f may differ in the last bit
        if params == "cli":
            d = DEFAULTS["aw"]
            p = AWParams(n, d["q"], d["t"], d["t0"], d["t1"], d["t2"],
                         d["t3"])
        else:
            p = PS[n]
        polys = [LaurentPolynomial.constant(n, 0.5)] + list(
            aw_polynomials(top, p).values())
        tables = measures.measure(p, M)
        G = partial_gram(polys, tables, p, M)
        assert G.shape == (len(polys),) * 2
        for a, f in enumerate(polys):
            for b, g in enumerate(polys[a:], start=a):
                assert G[a, b] == G[b, a] == partial_bilinear(f, g, tables,
                                                              p, M)

    @pytest.mark.parametrize("n, top", [(1, (6,)), (2, (2, 2)),
                                        (3, (1, 1, 1))])
    def test_grid_guard_matches_pairings(self, n, top):
        # the pair of highest degree sets the grid, as for the pairwise
        # path: M = 4 |top| + 8 is the smallest accepted grid
        polys = list(aw_polynomials(top, PS[n]).values())
        M = 4 * sum(top) + 8
        fine, coarse = (askey_wilson.family(PS[n], m) for m in (M, M - 1))
        fine.gram(polys)
        fine.pair(polys[-1], polys[-1])
        with pytest.raises(GridTooCoarse):
            coarse.gram(polys)
        with pytest.raises(GridTooCoarse):
            coarse.pair(polys[-1], polys[-1])
        coarse.gram(polys[:-1])

    def test_wrong_variable_count(self):
        polys = [monomial_w((1, 0)), monomial_w((1,))]
        with pytest.raises(LengthMismatch):
            askey_wilson.family(PS[2], 32).gram(polys)


class TestReportedValues:
    def test_imaginary_residue(self):
        # <P_(4,2), P_(4,2)> at the aw defaults: a real norm whose
        # imaginary part is rounding only
        d = DEFAULTS["aw"]
        p = AWParams(2, d["q"], d["t"], d["t0"], d["t1"], d["t2"], d["t3"])
        P = aw_polynomials((4, 2), p)[(4, 2)]
        v = partial(P, P, p, 128)
        assert abs(v.imag) <= 1e-14 * abs(v.real)

    def test_aw_near_q_one(self):
        # q = 0.99 needs M = 256; every check passes
        report = run_suite(build_config({"suite": "aw", "q": "0.99",
                                         "M": "256"}))
        assert len(report.checks) == 4
        assert all(c.passed for c in report.checks), [
            (c.name, c.rel_err) for c in report.checks]


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
        got = partial(one, one, p, 256)
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
