"""The one node-table pairing, bcpoly.pair, and its Gram matrix,
bcpoly.gram, against the in-order sums they reproduce bit for bit: the
per-term loop of the q-Racah pairing (oracles.pair_loop), on the discrete
tables and on torus chamber tables longer than one slab."""

import tracemalloc

import numpy as np
import pytest

from oracles import pair_loop

from bcortho import askey_wilson, bcpoly, big, cli, little, measures, qracah
from bcortho.askey_wilson import aw_polynomials
from bcortho.bcpoly import (
    SLAB,
    LaurentPolynomial,
    gram,
    monomial_s,
    monomial_w,
    pair,
    partitions_dominated_by,
)
from bcortho.big import BigParams, big_polynomials, bilinear_big
from bcortho.little import LittleParams, bilinear_little, little_polynomials
from bcortho.params import AWParams
from bcortho.qracah import QRacahParams, bilinear_qR, qracah_polynomials

# the aw suite's defaults at n = 3
P3 = AWParams(3, 0.5, 0.3, 0.35, -0.45, 0.25, 0.2)


def qracah_params(n, N):
    return QRacahParams(n, 0.5, 0.3, 0.7, -0.5, 0.4, N)


def with_monomials(polys, monomial, top):
    """The polynomials, the monomials below top and a constant."""
    n = len(top)
    return (list(polys)
            + [monomial(mu) for mu in partitions_dominated_by(top)]
            + [LaurentPolynomial.constant(n, 0.5)])


class TestInOrder:
    # (n, N) and the top the qracah suite pairs: the defaults, --N 3 and
    # --n 3 --N 3
    @pytest.mark.parametrize("n, N, top", [(2, 2, (2, 2)), (2, 3, (2, 2)),
                                           (3, 3, (2, 2, 2))],
                             ids=["defaults", "N3", "n3-N3"])
    def test_qracah_equals_term_loop(self, n, N, top):
        qp = qracah_params(n, N)
        table = [qracah._node_table(qp)]
        polys = with_monomials(qracah_polynomials(top, qp).values(),
                               monomial_w, top)
        for a, f in enumerate(polys):
            for g in polys[a:]:
                got = bilinear_qR(f, g, qp)
                assert type(got) is complex
                assert got == pair_loop(f, g, table)

    @pytest.mark.parametrize("module, params, make, pairing, parts", [
        (little, LittleParams(2, 0.5, 0.3, 0.4, 0.2), little_polynomials,
         bilinear_little, 1),
        (big, BigParams(2, 0.5, 0.4, 0.6, 0.3, 1.0, 0.8), big_polynomials,
         bilinear_big, 3),
    ], ids=["little", "big"])
    def test_jackson_parts_equal_term_loop(self, module, params, make,
                                           pairing, parts):
        # on the big table the running total carries from part to part
        tables = module._node_table(params)
        assert len(tables) == parts
        polys = with_monomials(make((2, 2), params).values(), monomial_s,
                               (2, 2))
        for a, f in enumerate(polys):
            for g in polys[a:]:
                got = pairing(f, g, params)
                assert type(got) is float
                assert got == pair_loop(f, g, tables)

    def test_chamber_across_slabs(self):
        # the n = 3, M = 64 chamber holds 4,495 nodes, more than one slab,
        # so a slab boundary falls inside the sum; a constant keeps one
        # chamber value, broadcast over every slab. The weights of real
        # parameters are real, so a pairing of real node values is a float
        table = [measures._table(P3, 3, 64)]
        assert len(table[0].weights) > SLAB
        assert table[0].weights.dtype == float
        polys = with_monomials(aw_polynomials((1, 1, 1), P3).values(),
                               monomial_w, (1, 1, 1))
        one = polys[-1]
        assert one.node_values(table[0]).size == 1
        kinds = set()
        for a, f in enumerate(polys):
            for g in polys[a:]:
                got = pair(f, g, table)
                real = all(h.node_values(table[0]).dtype == float
                           for h in (f, g))
                assert type(got) is (float if real else complex)
                assert got == pair_loop(f, g, table)
                kinds.add(real)
        assert True in kinds
        total = 0.0
        for w in table[0].weights.tolist():
            total += 0.25 * w
        assert pair(one, one, table) == total

    def test_symmetric_and_empty(self):
        # on real node values f g and g f are the same products; a table
        # with no node adds 0
        table = [measures._table(P3, 3, 64)]
        f, g = (monomial_w(mu) for mu in ((1, 0, 0), (1, 1, 0)))
        assert pair(f, g, table) == pair(g, f, table)
        empty = measures._table(P3, 3, 6)
        assert empty.weights.size == 0
        assert pair(f, g, [empty]) == 0.0
        assert pair(f, g, [empty] + table) == pair(f, g, table)


class TestGram:
    @pytest.mark.parametrize("family", ["torus", "qracah"])
    def test_one_pair_per_entry(self, family):
        if family == "torus":
            tables = [measures._table(P3, 3, 64)]
            polys = with_monomials(aw_polynomials((1, 1, 1), P3).values(),
                                   monomial_w, (1, 1, 1))
        else:
            qp = qracah_params(2, 3)
            tables = [qracah._node_table(qp)]
            polys = with_monomials(qracah_polynomials((2, 2), qp).values(),
                                   monomial_w, (2, 2))
        G = gram(polys, tables)
        assert G.shape == (len(polys),) * 2 and G.dtype == complex
        for a, f in enumerate(polys):
            for b in range(a, len(polys)):
                want = pair(f, polys[b], tables)
                assert G[a, b] == want and G[b, a] == want

    def test_torus_gram_is_gram(self):
        polys = list(aw_polynomials((1, 1, 1), P3).values())
        # on the open disk the measure is the chamber table alone
        G = measures.partial_gram(polys, P3, 64)
        want = gram(polys, [measures._table(P3, 3, 64)])
        assert G.tobytes() == want.tobytes()


def _mass_family(name, M):
    """The family whose <1,1> a suite checks, by the CLI's own builders:
    the suite defaults, the aw family at n = 3 and the partially discrete
    measure of t0 = 1.1 at n = 3 (M grid points per axis)."""
    if name == "aw-n3":
        return cli._aw_family(cli.build_config({"suite": "aw", "n": "3",
                                                "M": str(M)}))
    if name == "partial-t0=1.1-n3":
        return askey_wilson.family(
            AWParams(3, 0.5, 0.3, 1.1, -0.45, 0.25, 0.2), M)
    return getattr(cli, f"_{name}_family")(cli.build_config({"suite": name}))


class TestMassReadsWeights:
    @pytest.mark.parametrize("name, M", [
        ("qracah", None), ("little", None), ("big", None), ("aw-n3", 128),
        ("partial-t0=1.1-n3", 256)])
    def test_no_polynomial_evaluated(self, name, M, monkeypatch):
        # <1,1> reads the weights alone: no power row is gathered at a
        # node (bcpoly._layout_values), no orbit sum is formed and the
        # n-axis chamber builds no node list
        measures._table.cache_clear()
        measures._discrete_table.cache_clear()
        fam = _mass_family(name, M)

        def evaluates(*args):
            raise AssertionError("a mass pairing evaluated a polynomial")

        monkeypatch.setattr(bcpoly, "_layout_values", evaluates)
        monkeypatch.setattr(measures._Chamber, "orbit_sum", evaluates)
        one = LaurentPolynomial.constant(fam.params.n)
        got, want = fam.pair(one, one), fam.mass()
        assert abs(got - want) <= 1e-6 * abs(want)
        if M is not None:
            assert "nodes" not in measures._table(fam.params, 3, M).__dict__
        measures._table.cache_clear()
        measures._discrete_table.cache_clear()


class TestMemory:
    def test_constant_allocates_no_table_length_array(self):
        # the n = 3, M = 256 chamber holds 333,375 nodes: a real array of
        # its length takes 2.5 MiB, a complex one 5.1 MiB. Pairing 1 with
        # 1 slab by slab takes 0.22 MiB traced
        table = measures._table(P3, 3, 256)
        assert len(table.weights) == 333375
        one = LaurentPolynomial.constant(3)
        tracemalloc.start()
        try:
            pair(one, one, [table])
            _cur, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 * 2 ** 20
