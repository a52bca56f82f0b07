"""Tests for torus, discrete and partially discrete measures."""

import cmath
import math
import random
from dataclasses import replace

import numpy as np
import pytest

from bcortho import askey_wilson, measures, qseries
from bcortho.askey_wilson import aw_polynomials, gustafson_constant
from bcortho.bcpoly import LaurentPolynomial, gram, monomial_w, pair
from bcortho.big import big_limit
from bcortho.cli import _big_family, _little_family, build_config
from bcortho.errors import (
    BcorthoError,
    DomainViolation,
    NearPole,
    NonFiniteWeight,
    NonPositiveWeight,
    PoleAtDenominator,
    PoleInWeight,
    SlowConvergence,
)
from bcortho.koornwinder import op_matrix
from bcortho.measures import (
    MAX_CHAIN,
    multi_discrete_weight,
    wd_residue_weight,
)
from bcortho.params import AWParams
from bcortho.little import little_limit
from oracles import (
    interaction_c,
    labelled_partial,
    natural_t_bilinear,
    weight_continuous,
)
from test_moment_tables import partial, weight_grid

ONE1 = LaurentPolynomial.constant(1)
ONE2 = LaurentPolynomial.constant(2)

PS1 = AWParams(1, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)
PS2 = AWParams(2, 0.5, 0.3, 0.6, -0.5, 0.3 + 0.4j, 0.3 - 0.4j)
# one discrete chain (t2, t3 chosen off the torus-clearance set t_i t^j q^p)
PD1 = AWParams(1, 0.5, 0.3, 1.1, -0.5, 0.35, 0.45)
PD2 = AWParams(2, 0.5, 0.3, 1.1, -0.5, 0.35, 0.45)
# two discrete chains
PDD2 = AWParams(2, 0.5, 0.3, 1.1, -1.05, 0.35, 0.45)


def rel(a, b):
    return abs(a - b) / max(1.0, abs(b))


def apply_D_poly(lam, p):
    m = op_matrix(lam, p)
    row = m.entries[m.index.index(tuple(lam))]
    out = LaurentPolynomial(p.n)
    for c, mu in zip(row, m.index):
        out = out + monomial_w(mu).scale(c)
    return out


class TestWeightContinuous:
    def test_n1_is_wc(self):
        z = cmath.exp(0.7j)
        got = weight_continuous([z], PS1)
        q = PS1.q
        want = qseries.qpoch_infinite(z * z, q) * qseries.qpoch_infinite(
            z ** -2, q)
        for ti in PS1.tvec:
            want /= qseries.qpoch_infinite(ti * z, q)
            want /= qseries.qpoch_infinite(ti / z, q)
        assert rel(got, want) < 1e-13

    def test_t_to_one_interaction_trivial(self):
        p = AWParams(2, 0.5, 1.0 - 1e-13, 0.6, -0.5, 0.3, 0.4)
        z = [cmath.exp(0.7j), cmath.exp(2.1j)]
        lhs = weight_continuous(z, p)
        rhs = weight_continuous([z[0]], AWParams(
            1, 0.5, 0.3, 0.6, -0.5, 0.3, 0.4)) * weight_continuous(
            [z[1]], AWParams(1, 0.5, 0.3, 0.6, -0.5, 0.3, 0.4))
        assert rel(lhs, rhs) < 1e-9

    def test_real_nonnegative_on_torus(self):
        rng = random.Random(5)
        for _ in range(10):
            z = [cmath.exp(2j * math.pi * rng.random()) for _ in range(2)]
            v = weight_continuous(z, PS2)
            assert abs(v.imag) < 1e-10 * max(1, abs(v))
            assert v.real > -1e-12

    def test_grid_matches_scalar(self):
        zvals, grid = weight_grid(PS2, 2, 8)
        for a in range(8):
            for b in range(8):
                want = weight_continuous([zvals[a], zvals[b]], PS2)
                assert rel(grid[a, b], want) < 1e-11


class TestTorusBilinear:
    def test_gustafson_n1(self):
        got = partial(ONE1, ONE1, PS1, 128)
        assert rel(got, gustafson_constant(PS1)) < 1e-8

    def test_gustafson_n2(self):
        got = partial(ONE2, ONE2, PS2, 128)
        assert rel(got, gustafson_constant(PS2)) < 1e-8

    def test_orthogonality_degree_one(self):
        P = aw_polynomials((1, 0), PS2)[(1, 0)]
        got = partial(P, ONE2, PS2, 64)
        scale = abs(gustafson_constant(PS2))
        assert abs(got) < 1e-8 * scale

    def test_m_too_small(self):
        with pytest.raises(DomainViolation):
            partial(monomial_w((8, 0)), monomial_w((8, 0)), PS2, 16)

    def test_doubling_converged(self):
        f = monomial_w((2, 1))
        a = partial(f, f, PS2, 48)
        b = partial(f, f, PS2, 96)
        assert abs(a - b) < 1e-10 * max(1, abs(b))

    def test_symmetry(self):
        f = monomial_w((2, 0))
        g = monomial_w((1, 1))
        fam = askey_wilson.family(PS2, 48)
        assert fam.pair(f, g) == fam.pair(g, f)


class TestResidueWeight:
    def test_i0_closed_form(self):
        q = 0.5
        t0, t1, t2, t3 = 1.1, -0.5, 0.3, 0.4
        got = wd_residue_weight(0, t0, t1, t2, t3, q)
        den = qseries.qpoch_infinite(q, q)
        for tk in (t1, t2, t3):
            den *= qseries.qpoch_infinite(t0 * tk, q)
            den *= qseries.qpoch_infinite(tk / t0, q)
        want = qseries.qpoch_infinite(t0 ** -2, q) / den
        assert rel(got, want) < 1e-13

    def test_numeric_residue_oracle(self):
        # w_d(tau0 q^i;tau0) = res at x = tau0 q^i of w_c(x)/x, computed by
        # quadrature on a small circle around the pole
        q = 0.5
        p = PD1
        for i in (0, 1):
            center = p.t0 * q ** i
            radius = 1e-3
            Mq = 64
            acc = 0.0
            for m in range(Mq):
                x = center + radius * cmath.exp(2j * math.pi * m / Mq)
                acc += weight_continuous([x], p) / x * (
                    radius * cmath.exp(2j * math.pi * m / Mq))
            resid = acc / Mq
            got = wd_residue_weight(i, p.t0, p.t1, p.t2, p.t3, q)
            assert rel(resid, got) < 1e-9

    def test_ratio_i1_over_i0(self):
        q = 0.5
        t0, t1, t2, t3 = 1.1, -0.5, 0.3, 0.4
        r = wd_residue_weight(1, t0, t1, t2, t3, q) / wd_residue_weight(
            0, t0, t1, t2, t3, q)
        want = ((1 - t0 ** 2) * (1 - t0 * t1) * (1 - t0 * t2) * (1 - t0 * t3)
                / ((1 - q) * (1 - t0 * q / t1) * (1 - t0 * q / t2)
                   * (1 - t0 * q / t3)))
        want *= (1 - t0 ** 2 * q ** 2) / (1 - t0 ** 2) * q / (
            t0 * t1 * t2 * t3)
        assert rel(r, want) < 1e-12


class TestDiscreteWeights:
    def test_r1_is_wd(self):
        p = PD1
        for i in (0,):
            got = multi_discrete_weight((i,), p, 0)
            want = wd_residue_weight(i, p.t0, p.t1, p.t2, p.t3, p.q)
            assert rel(got, want) < 1e-13

    def test_r2_zero_labels_delta_d(self):
        p = AWParams(2, 0.5, 0.9, 1.3, -0.5, 0.3, 0.4)
        got = measures.delta_d((0, 0), p, 0)
        r1, r2 = p.t0, p.t0 * p.t
        want = qseries.qpoch_real(r2 / r1, p.q, p.t) * qseries.qpoch_real(
            1 / (r1 * r2), p.q, p.t)
        assert rel(got, want) < 1e-13

    def test_interaction_empty(self):
        assert interaction_c([], [cmath.exp(1j)], PS2) == 1

    def test_interaction_splits(self):
        w = [1.1, 0.8 * cmath.exp(0.4j)]
        u, v = cmath.exp(0.9j), cmath.exp(2.2j)
        lhs = interaction_c(w, [u, v], PS2)
        rhs = interaction_c(w, [u], PS2) * interaction_c(w, [v], PS2)
        assert rel(lhs, rhs) < 1e-12


def table_labels(p):
    """The labels (nu, nu') of the discrete table of p, in table order."""
    return [(tuple(col[:l]), tuple(col[l:]))
            for l, nu, *_ in measures._split_labels(p, 16)
            for col in nu.T.tolist()]


class TestSupports:
    def test_all_small_empty(self):
        assert measures._discrete_table(PS2, 16) == ()

    def test_single_point(self):
        p = AWParams(1, 0.5, 0.4, 1.2, 0.5, 0.3, 0.1)
        assert table_labels(p) == [((0,), ())]

    def test_r2_empty_when_chain_shrinks(self):
        p = AWParams(2, 0.5, 0.4, 1.2, 0.5, 0.3, 0.1)
        assert table_labels(p) == [((0,), ())]

    def test_two_chains(self):
        table = measures._split_labels(PDD2, 16)
        splits = {(l, len(nu) - l) for l, nu, *_ in table}
        assert (1, 1) in splits
        for _l, nu, z, _w, _row in table:
            assert np.all(np.abs([zi[k] for zi, k in zip(z, nu)]) > 1)

    def test_too_many_large(self):
        p = AWParams(2, 0.5, 0.3, 1.1, 1.2, -1.3, 0.1)
        with pytest.raises(DomainViolation):
            measures._discrete_table(p, 16)

    def test_long_chain_runs_to_its_end(self):
        # 67 support values t0 q^nu > 1, past the old cap of 64 labels
        p = AWParams(1, 0.97, 0.3, 0.97 ** -66.5, 0.1, -0.1, 0.05)
        assert table_labels(p) == [((nu,), ()) for nu in range(67)]
        assert rel(partial(ONE1, ONE1, p, 64),
                   gustafson_constant(p)) < 1e-13

    def test_chain_past_cap_raises(self):
        p = AWParams(1, 0.97, 0.3, 0.97 ** -(MAX_CHAIN - 0.5), 0.1, -0.1,
                     0.05)
        assert len(table_labels(p)) == MAX_CHAIN
        with pytest.raises(SlowConvergence):
            measures._discrete_table(
                replace(p, t0=0.97 ** -(MAX_CHAIN + 0.5)), 16)


def bits(x) -> bytes:
    return np.complex128(x).tobytes()


class TestPartialBilinear:
    def test_reduces_to_torus(self):
        # on the open disk the measure is the chamber table alone, and the
        # pairing is bcpoly.pair on it, bit for bit
        [chamber] = measures.measure(PS2, 48)
        assert isinstance(chamber, measures._Chamber)
        f = monomial_w((1, 0))
        a = measures.partial_bilinear(f, f, [chamber], PS2, 48)
        b = pair(f, f, [chamber])
        assert bits(a) == bits(b)

    def test_constant_term_one_chain_n1(self):
        assert measures._discrete_table(PD1, 256)
        got = partial(ONE1, ONE1, PD1, 256)
        assert rel(got, gustafson_constant(PD1)) < 1e-8

    def test_constant_term_one_chain_n2(self):
        got = partial(ONE2, ONE2, PD2, 256)
        assert rel(got, gustafson_constant(PD2)) < 1e-7

    def test_constant_term_two_chains_n2(self):
        got = partial(ONE2, ONE2, PDD2, 320)
        assert rel(got, gustafson_constant(PDD2)) < 1e-7

    @pytest.mark.parametrize("M", [64, 128, 256])
    def test_chain_value_next_to_the_torus_raises(self, M):
        # t0 q lies within 1e-10 of the circle: a pole of the contour
        # integrand next to the grid. t2 = 0.25 = q^2 of the aw defaults
        # needs s = -2, no chain value, and PS1 has no value near it
        p = AWParams(1, 0.5, 0.3, 2.0000000001, 0.15, -0.1, 0.12)
        with pytest.raises(NearPole, match="q\\^1"):
            partial(ONE1, ONE1, p, M)
        for clear in (AWParams(1, 0.5, 0.3, 0.35, -0.45, 0.25, 0.2), PS1):
            partial(ONE1, ONE1, clear, M)

    def test_residue_weight_overflow_is_typed(self):
        # the scalar reference: the i-dependent products of w_d overflow
        # to NaN from offset 48 of 67, and (q / (t0 t1 t2 t3))^i raises
        # OverflowError from 52 on (the chain table's weights stay finite:
        # test_measure_factors.TestLongChains)
        p = AWParams(1, 0.95, 0.3, 0.95 ** -66.5, 5e-3, -3e-3, 2e-3)
        with pytest.raises(NonFiniteWeight, match="offset 48"):
            wd_residue_weight(48, *p.tvec, p.q)
        with pytest.raises(NonFiniteWeight, match="offset 52"):
            wd_residue_weight(52, p.t0, p.t1, p.t2, p.t3, p.q)

    def test_symmetry_and_positivity(self):
        rng = random.Random(3)
        coeffs = [rng.uniform(-1, 1) for _ in range(3)]
        f = (monomial_w((1, 0)).scale(coeffs[0])
             + monomial_w((1, 1)).scale(coeffs[1])
             + LaurentPolynomial.constant(2, coeffs[2]))
        g = monomial_w((2, 0))
        fam = askey_wilson.family(PD2, 48)
        a = fam.pair(f, g)
        b = fam.pair(g, f)
        assert a == b
        self_val = fam.pair(f, f)
        assert self_val.real > 0

    @pytest.mark.parametrize("lam", [(0, 0), (1, 0)])
    def test_bilinear_over_the_complex_numbers(self, lam):
        # the form is bilinear, not Hermitian: <i f, f> = i <f, f> on V_AW,
        # where the positivity of the measure is tested on its weights
        p = AWParams(2, 0.5, 0.3, 1.1, -0.45, 0.25, 0.2)
        assert p.in_V_AW()
        f = monomial_w(lam)
        fam = askey_wilson.family(p, 128)
        want = 1j * fam.pair(f, f)
        got = fam.pair(f.scale(1j), f)
        assert abs(got - want) <= 1e-14 * abs(want)

    def test_d_symmetry(self):
        lam_f, lam_g = (2, 0), (1, 1)
        Df = apply_D_poly(lam_f, PD2)
        Dg = apply_D_poly(lam_g, PD2)
        f = monomial_w(lam_f)
        g = monomial_w(lam_g)
        fam = askey_wilson.family(PD2, 192)
        lhs = fam.pair(Df, g)
        rhs = fam.pair(f, Dg)
        assert rel(lhs, rhs) < 1e-7


def limit_deformation(name):
    """The limits suite's little or big deformation at its last measure
    step, k = measure_kmax, on its M = 64 grid."""
    cfg = build_config({"suite": "limits"})
    limit = (little_limit(_little_family(cfg).params) if name == "little"
             else big_limit(_big_family(cfg).params))
    q = limit.target.params.q
    return limit.deformation(q * q ** min(15, limit.measure_kmax)), 64


SPLIT_CASES = {
    **{f"n{n}": lambda n=n: (AWParams(n, 0.5, 0.3, 1.1, -0.5, 0.35, 0.45),
                             24) for n in (1, 2, 3)},
    "two-chains": lambda: (PDD2, 24),
    "long-chain": lambda: (AWParams(2, 0.97, 0.3, 0.97 ** -80.5, 5e-3,
                                    -3e-3, 2e-3), 32),
    "little-limit": lambda: limit_deformation("little"),
    "big-limit": lambda: limit_deformation("big"),
}


class TestOneMeasure:
    """The Askey-Wilson measure is one list of node tables: the chamber
    table, then one split table per split of F(r). Its pairing and its
    Gram matrix add the tables one at a time."""

    # the selberg suite's partially discrete parameters: t0 = 1.1, on V_AW
    P = AWParams(2, 0.5, 0.3, 1.1, -0.45, 0.25, 0.2)

    def test_gram_entries_are_pairings(self):
        # bit for bit for a <= b; numpy's complex product is not
        # symmetric in the last bit, so G[b, a] may differ from
        # partial_bilinear(P_b, P_a)
        M = 64
        tables = measures.measure(self.P, M)
        assert self.P.in_V_AW() and len(tables) > 1
        polys = list(aw_polynomials((2, 2), self.P).values())
        G = measures.partial_gram(polys, tables, self.P, M)
        for a, f in enumerate(polys):
            for b in range(a, len(polys)):
                want = measures.partial_bilinear(f, polys[b], tables,
                                                 self.P, M)
                assert bits(G[a, b]) == bits(want), (a, b)
                assert bits(G[b, a]) == bits(want), (a, b)

    def test_open_disk_gram_is_the_chamber_gram(self):
        polys = list(aw_polynomials((2, 1), PS2).values())
        [chamber] = tables = measures.measure(PS2, 48)
        G = measures.partial_gram(polys, tables, PS2, 48)
        want = gram(polys, [chamber])
        assert G.tobytes() == want.tobytes()

    def test_family_pairs_the_whole_measure(self):
        # the chamber table alone reads 40.70 against 52.59 here
        one = LaurentPolynomial.constant(2)
        want = gustafson_constant(self.P)
        fam = askey_wilson.family(self.P, 256)
        got = fam.pair(one, one)
        assert abs(got - want) < 1e-10 * abs(want)
        fam_gram = fam.gram([one])
        assert bits(fam_gram[0, 0]) == bits(got)


class TestGridFactors:
    """A measure forms w_c and the pair table once, for its own chamber
    and for the chamber of every split table, bit for bit the factors a
    chamber forms alone."""

    P3 = AWParams(3, 0.5, 0.3, 1.1, -0.45, 0.25, 0.2)

    def test_one_wc_and_one_pair_table(self, monkeypatch):
        calls = []
        for name in ("_axis_wc", "_pair_table"):
            fn = getattr(measures, name)

            def counted(*args, fn=fn, name=name):
                calls.append(name)
                return fn(*args)

            monkeypatch.setattr(measures, name, counted)
        tables = measures.measure(self.P3, 256)
        # the chamber, then the split of the chain of t0 = 1.1 over a
        # chamber of two axes, which formed both factors anew before
        assert len(tables) == 2 and tables[1].nu.shape[0] == 3
        assert sorted(calls) == ["_axis_wc", "_pair_table"]

    @pytest.mark.parametrize("p, M", [
        (P3, 64), (AWParams(2, 0.5, 0.3, 1.1, -0.45, 0.25, 0.2), 65),
        # splits over chambers of two axes and of one
        (AWParams(3, 0.5, 0.3, 3.5, -0.45, 0.25, 0.2), 64),
        # complex w_c
        (AWParams(3, 0.5, 0.3, 1.1, -0.45, 0.3 + 0.2j, 0.2), 48)])
    def test_shared_factors_keep_their_bits(self, p, M):
        # each chamber forming its own w_c and pair table
        alone = (measures._Chamber(p, p.n, M), *measures._discrete_table(
            p, M, None))
        for got, want in zip(measures.measure(p, M), alone, strict=True):
            assert got.weights.dtype == want.weights.dtype
            assert np.array_equal(got.weights, want.weights)


class TestSplitTables:
    """Each split of F(r) is one node table summed by bcpoly.pair."""

    @pytest.mark.parametrize("case", list(SPLIT_CASES))
    def test_agrees_with_labelled_pairing(self, case):
        # the label-by-label sum of the chain pairings, within 1e-14 of
        # the summed label magnitudes
        p, M = SPLIT_CASES[case]()
        n = p.n
        polys = [LaurentPolynomial.constant(n),
                 monomial_w((1,) + (0,) * (n - 1))]
        if n > 1:
            polys.append(monomial_w((1,) * n))
        assert measures._discrete_table(p, M)
        fam = askey_wilson.family(p, M)
        for a, f in enumerate(polys):
            for g in polys[a:]:
                value, mass = labelled_partial(f, g, p, M)
                got = fam.pair(f, g)
                assert abs(got - value) <= 1e-14 * mass

    @pytest.mark.parametrize("factor", [-1.0, 1j])
    def test_weight_not_real_and_positive_raises(self, factor, monkeypatch):
        # on V_AW one label weight made negative or imaginary stops the
        # build: the chain of t0 = 5 holds 5, 2.5 and 1.25
        p = AWParams(1, 0.5, 0.3, 5.0, 0.15, -0.1, 0.12)
        assert p.in_V_AW()
        qr_axis = measures._qr_axis

        def one_flipped(pc, k, end):
            out = qr_axis(pc, k, end)
            out[1] *= factor
            return out

        assert len(measures._discrete_table(p, 24)[0].weights) == 3
        monkeypatch.setattr(measures, "_qr_axis", one_flipped)
        with pytest.raises(NonPositiveWeight, match=r"label \[1\]"):
            partial(ONE1, ONE1, p, 24)

    def test_node_weights_positive_on_V_AW(self):
        # on V_AW every parameter of modulus >= 1 is real, so every node
        # weight is a label weight tested at build times squared moduli:
        # real (to rounding) and nonnegative, whatever the chains
        rng = random.Random(28)
        tables = 0
        for _ in range(300):
            tv = [rng.uniform(1.01, 3.0)]
            if rng.random() < 0.4:
                tv.append(-rng.uniform(1.01, 3.0))
            if rng.random() < 0.5:
                u = cmath.rect(rng.uniform(0.1, 0.9), rng.uniform(0.2, 2.9))
                tv += [u, u.conjugate()]
            while len(tv) < 4:
                tv.append(rng.uniform(-0.9, 0.9) / tv[0])
            p = AWParams(rng.randint(1, 3), rng.uniform(0.3, 0.7),
                         rng.uniform(0.2, 0.6), *tv)
            if not p.in_V_AW():
                continue
            for table in measures._discrete_table(p, 32):
                w = table.weights
                assert np.all(np.isfinite(w))
                assert np.all(w.real >= 0)
                assert np.all(np.abs(w.imag) <= 1e-12 * np.abs(w))
                tables += 1
        assert tables > 500


def contour_value(p, R=1.3, M=4096, arg0=None):
    """(1/2pi i) contour integral of w_c(x)/x over an inversion-invariant
    deformed circle bulging to radius R around arg(t0) and dipping to 1/R
    at the reflected angle."""
    th0 = (cmath.phase(complex(p.t0)) / (2 * math.pi)) % 1.0 if arg0 is None \
        else arg0
    delta = 0.09

    def bump(s):
        if abs(s) >= 1.0:
            return 0.0, 0.0
        b = math.exp(1.0 - 1.0 / (1.0 - s * s))
        db = b * (-2.0 * s / (1.0 - s * s) ** 2)
        return b, db

    def r_and_dr(x):
        rv, drv = 1.0, 0.0
        for center, amp in ((th0, R - 1.0), ((1.0 - th0) % 1.0, 1.0 / R - 1.0)):
            d = (x - center + 0.5) % 1.0 - 0.5
            b, db = bump(d / delta)
            rv += amp * b
            drv += amp * db / delta
        return rv, drv

    total = 0.0
    for m in range(M):
        x = (m + 0.5) / M
        rv, drv = r_and_dr(x)
        phi = rv * cmath.exp(2j * math.pi * x)
        total += weight_continuous([phi], p) * (
            drv / (2j * math.pi * rv) + 1.0)
    return total / M


class TestContourDecomposition:
    def test_n1_contour_equals_torus_plus_twice_discrete(self):
        # complex t0 off the positive axis so the contour's bulge and dip
        # sit at distinct angles
        t0 = 1.1 * cmath.exp(2j * math.pi * 0.15)
        p = AWParams(1, 0.5, 0.3, t0, -0.5, 0.35, 0.45)
        lhs = contour_value(p, R=1.3, M=4096)
        torus = pair(ONE1, ONE1, [measures._Chamber(p, 1, 256)])
        disc = 0.0
        i = 0
        while abs(t0) * p.q ** i > 1:
            disc += wd_residue_weight(i, t0, p.t1, p.t2, p.t3, p.q)
            i += 1
        rhs = torus + 2 * disc
        assert abs(lhs - rhs) < 1e-9 * max(1, abs(rhs))


class TestNaturalT:
    PK1 = AWParams(1, 0.5, 0.25, 1.1, -0.5, 0.3, 0.4)
    PK2 = AWParams(2, 0.5, 0.25, 1.1, -0.5, 0.3, 0.4)

    def test_requires_power_of_q(self):
        with pytest.raises(DomainViolation):
            natural_t_bilinear(ONE2, ONE2, PS2, 32)

    def test_all_small_is_torus(self):
        p = AWParams(2, 0.5, 0.25, 0.6, -0.5, 0.3, 0.4)
        a = natural_t_bilinear(ONE2, ONE2, p, 48)
        b = partial(ONE2, ONE2, p, 48)
        assert rel(a, b) < 1e-12

    def test_agrees_with_partial(self):
        rng = random.Random(7)
        polys = [LaurentPolynomial.constant(2), monomial_w((1, 0)),
                 monomial_w((1, 1)), monomial_w((2, 0)),
                 monomial_w((1, 0)) + LaurentPolynomial.constant(2, 0.3)]
        fam = askey_wilson.family(self.PK2, 64)
        for _ in range(5):
            f = rng.choice(polys)
            g = rng.choice(polys)
            a = natural_t_bilinear(f, g, self.PK2, 64)
            b = fam.pair(f, g)
            assert rel(a, b) < 1e-9

    def test_n1_agrees_with_partial(self):
        a = natural_t_bilinear(ONE1, ONE1, self.PK1, 64)
        b = partial(ONE1, ONE1, self.PK1, 64)
        assert rel(a, b) < 1e-10

    def test_coincident_chain_points_vanish(self):
        # delta(z;q^k) = 0 when z_i = q^l z_j: weights for coincident picks
        # are skipped, so doubling a chain entry adds nothing
        q = 0.5
        k = 1
        a = qseries.qpoch_finite(1.0, q, k)
        assert a == 0


def weigh(fn, *args):
    """fn(*args), or the type of the BcorthoError it raises."""
    try:
        return fn(*args)
    except BcorthoError as exc:
        return type(exc)


class TestResidueWeightPoles:
    """multi_discrete_weight raises a typed error at each kind of pole
    of Delta^(d)."""

    PARAMS = {
        # t0 t1 = 1: a vanishing factor of the w_d prefactor
        "prefactor": AWParams(2, 0.5, 0.3, 1.25, 0.8, 0.35, 0.45),
        # t0^2 = q^-2: a delta_d denominator at nu_1 + nu_2 = 2, and
        # t1 = t0 q^3: a w_d i-factor from offset 3 on
        "delta-and-i": AWParams(2, 0.5, 0.3, 2.0, 0.25, 0.35, 0.45),
        # offset 48 overflows (test_residue_weight_overflow_is_typed)
        "overflow": AWParams(1, 0.95, 0.3, 0.95 ** -66.5, 5e-3, -3e-3,
                             2e-3),
    }

    def test_poles_are_typed(self):
        p = self.PARAMS["delta-and-i"]
        assert weigh(multi_discrete_weight, (1, 1), p, 0) is \
            PoleAtDenominator
        assert weigh(multi_discrete_weight, (3,), p, 0) is PoleInWeight
        assert weigh(multi_discrete_weight, (0,),
                     self.PARAMS["prefactor"], 0) is PoleInWeight
        assert weigh(multi_discrete_weight, (48,),
                     self.PARAMS["overflow"], 0) is NonFiniteWeight
