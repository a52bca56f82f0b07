"""Partitions, BC dominance order, Weyl-group orbits and Laurent polynomials.

The hyperoctahedral group W = S_n x {+-1}^n acts on Laurent polynomials in
z_1..z_n by permuting variables and inverting them; the symmetric group S_n
acts by permutation only. This module provides the invariant monomial bases
m_lambda (W-orbit sums) and mtilde_lambda (S-orbit sums), the dominance
order, sparse Laurent arithmetic with node values kept per node table,
the PointTable of the discrete measures and the one label layer of
their labels (_chain_labels enumerates them, _label_weights weighs them
and rejects a non-finite weight), the one pairing and the one
orthogonalizer. A family record (Family) owns its measure: its node
tables are built once, on first use, read by that record's pairings,
Gram matrices and polynomials alone, and die with it (Family.on_tables).
Every family's bilinear form is a sum of f g w over the
nodes of its node tables (pair, and gram for a Gram matrix): a node table
has weights and at_nodes(f), the values of f at its nodes. A PointTable
node is a label into a few values per axis, so one evaluator serves
at_nodes and orthogonalize: each axis's values raised to the exponents
once, the power rows gathered by label per evaluation. A constant is one
value on every node table, gathered at no node and broadcast by pair, so
a family's <1,1> reads its weights alone. Every family
is monic in a monomial basis, triangular in the dominance order and
orthogonal for its own bilinear form, so orthogonalize builds all alike,
on the values of its polynomials at the nodes of their PointTables.
Every family's polynomial is a LaurentPolynomial, an exact sum of orbits of
its basis: w_coefficients reads a W-invariant one, coefficient(mu) the
coefficient of the basis monomial of the partition mu in any.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .errors import (
    DomainViolation,
    LengthMismatch,
    NonFiniteWeight,
    NotWInvariant,
    SingularGram,
    ZeroCoordinate,
)
from .qseries import POLE_GUARD

Exponent = Tuple[int, ...]

PRUNE = 1e-300

# Element count of the largest (terms x points) slab of eval_points, and
# node count of the largest slab of pair.
SLAB = 1 << 12


def partition(parts: Sequence[int]) -> Tuple[int, ...]:
    """Validate a weakly decreasing nonnegative integer vector."""
    p = tuple(int(x) for x in parts)
    if any(x < 0 for x in p):
        raise DomainViolation(f"negative part in {p}")
    if any(p[i] < p[i + 1] for i in range(len(p) - 1)):
        raise DomainViolation(f"not weakly decreasing: {p}")
    return p


def ascending_index(parts: Sequence[int]) -> Tuple[int, ...]:
    """Validate a weakly increasing nonnegative integer vector."""
    p = tuple(int(x) for x in parts)
    if any(x < 0 for x in p):
        raise DomainViolation(f"negative part in {p}")
    if any(p[i] > p[i + 1] for i in range(len(p) - 1)):
        raise DomainViolation(f"not weakly increasing: {p}")
    return p


class _NodeValues(dict):
    """id(table) -> (weak reference to table, values at its nodes). The
    reference drops its entry when the table dies, before its identity
    can be reused, and holds this dict only weakly, so a polynomial keeps
    no table alive and no entry outlives its table."""

    __slots__ = ("__weakref__",)

    def add(self, table, values: np.ndarray) -> np.ndarray:
        key, home = id(table), weakref.ref(self)

        def drop(_ref):
            entries = home()
            if entries is not None:
                entries.pop(key, None)

        self[key] = (weakref.ref(table, drop), values)
        return values


class LaurentPolynomial:
    """Sparse Laurent polynomial: map from integer exponent vectors to
    complex coefficients. Instances are treated as immutable. No program
    path runs the arithmetic: it is the semantics that _add_scaled keeps
    bit for bit, as oracles.orthogonalize_loop pins."""

    __slots__ = ("nvars", "terms", "_w_coeffs", "_node_values")

    def __init__(self, nvars: int, terms: Dict[Exponent, complex] | None = None):
        self.nvars = nvars
        clean: Dict[Exponent, complex] = {}
        if terms:
            for e, c in terms.items():
                if len(e) != nvars:
                    raise LengthMismatch(f"exponent {e} has wrong length")
                if abs(c) > PRUNE:
                    clean[tuple(int(x) for x in e)] = complex(c)
        self.terms = clean
        self._w_coeffs: Dict[Exponent, complex] | None = None
        self._node_values: _NodeValues | None = None

    @classmethod
    def constant(cls, nvars: int, c: complex = 1.0) -> "LaurentPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPolynomial)
                and self.nvars == other.nvars and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    @classmethod
    def _pruned(cls, nvars: int, terms: Dict[Exponent, complex]):
        """A polynomial on the terms of instances: only PRUNE applies."""
        poly = cls(nvars)
        poly.terms = {e: c for e, c in terms.items() if abs(c) > PRUNE}
        return poly

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        if self.nvars != other.nvars:
            raise LengthMismatch("variable count mismatch")
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0.0) + c
        return LaurentPolynomial._pruned(self.nvars, t)

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + other.scale(-1.0)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Kept, though no program path multiplies polynomials: the
        benchmark tracer wraps it by name (perfbench/tracer.py)."""
        if self.nvars != other.nvars:
            raise LengthMismatch("variable count mismatch")
        t: Dict[Exponent, complex] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0.0) + c1 * c2
        return LaurentPolynomial(self.nvars, t)

    def scale(self, c: complex) -> "LaurentPolynomial":
        return LaurentPolynomial._pruned(
            self.nvars, {e: complex(c * v) for e, v in self.terms.items()})

    def coefficient(self, e: Sequence[int]) -> complex:
        return self.terms.get(tuple(int(x) for x in e), 0.0)

    def eval(self, z: Sequence[complex]) -> complex:
        """Evaluate at a point with nonzero coordinates; terms are summed
        in sorted exponent order for determinism. The CLI's n1-closed-form
        check reads its rounding, Python complex powers, which can differ
        from those of eval_points in the last bit."""
        if len(z) != self.nvars:
            raise LengthMismatch("point has wrong length")
        if any(x == 0 for x in z):
            raise ZeroCoordinate("evaluation point has a zero coordinate")
        total: complex = 0.0
        for e in sorted(self.terms):
            term = self.terms[e]
            for zi, ei in zip(z, e):
                term *= zi ** ei
            total += term
        return total

    def eval_points(self, Z: np.ndarray) -> np.ndarray:
        """Evaluate at every row of the (m, nvars) array Z, bit for bit as
        the loop adding c z_1^e_1 ... z_n^e_n, formed left to right, over
        the terms in sorted exponent order: the orthogonality metric of
        the discrete families, which divides by <1,1>, reads that rounding.
        A slab of at most SLAB terms x points (or one term) multiplies the
        power rows gathered per term, adds the running total to its first
        row and is summed down its rows, which numpy does one row at a
        time unless there is one column: so a lone point is doubled."""
        Z = np.asarray(Z)
        X = _points(Z, self.nvars)
        exps = sorted(self.terms)
        coef = np.array([self.terms[e] for e in exps], dtype=complex)
        axes = _axes(exps, self.nvars)
        rows = [_power_rows(X, i, es) for i, (es, _k) in enumerate(axes)]
        return _slab_sum(coef, rows, [k for _es, k in axes], len(X))[:len(Z)]

    def node_values(self, table) -> np.ndarray:
        """table.at_nodes(self), the values at the nodes of a node table,
        computed once per table and kept on this instance, like
        w_coefficients, so the values die with the polynomial. Keyed by
        the identity of table; the entry holds the table weakly and is
        dropped when the table dies (_NodeValues), so a polynomial keeps
        no table alive. The array is read-only."""
        if self._node_values is None:
            self._node_values = _NodeValues()
        entry = self._node_values.get(id(table))
        if entry is not None:
            return entry[1]
        values = table.at_nodes(self)
        values.flags.writeable = False
        return self._node_values.add(table, values)

    def eval_grid(self, axes: List[np.ndarray]) -> np.ndarray:
        """Evaluate on the tensor grid axes[0] x ... x axes[n-1].

        Returns an ndarray of shape (len(axes[0]), ..., len(axes[n-1])).
        Uses per-axis power tables so the cost is O(#terms * grid size)
        with vectorized products. Kept, though no program path reads a
        full grid: the tests' full-grid reference for the chamber tables,
        and the benchmark tracer wraps it by name.
        """
        if len(axes) != self.nvars:
            raise LengthMismatch("grid has wrong number of axes")
        n = self.nvars
        shape = tuple(len(ax) for ax in axes)
        out = np.zeros(shape, dtype=complex)
        # per-axis power cache: (axis, exponent) -> vector
        cache: Dict[Tuple[int, int], np.ndarray] = {}

        def powers(i: int, e: int) -> np.ndarray:
            key = (i, e)
            if key not in cache:
                cache[key] = np.asarray(axes[i], dtype=complex) ** e
            return cache[key]

        for e, c in self.terms.items():
            term = np.full(shape, c, dtype=complex)
            for i in range(n):
                vec = powers(i, e[i])
                sh = [1] * n
                sh[i] = shape[i]
                term = term * vec.reshape(sh)
            out += term
        return out

    def w_coefficients(self) -> Dict[Exponent, complex]:
        """{lambda: c} with self = sum c monomial_w(lambda), computed once.
        NotWInvariant unless every W-orbit of exponents is present with
        one coefficient; sums of scaled monomial_w always are, since
        W-orbits are disjoint."""
        if self._w_coeffs is None:
            orbits: Dict[Exponent, List[complex]] = {}
            for e, c in self.terms.items():
                orbits.setdefault(tuple(sorted(map(abs, e), reverse=True)),
                                  []).append(c)
            for lam, cs in orbits.items():
                if (len(cs) != len(_orbit(lam, True))
                        or any(c != cs[0] for c in cs)):
                    raise NotWInvariant(f"the terms of orbit {lam} are not "
                                        f"one W-orbit sum")
            self._w_coeffs = {lam: cs[0] for lam, cs in orbits.items()}
        return self._w_coeffs

    def __repr__(self):
        items = ", ".join(f"{e}: {c:.6g}" for e, c in sorted(self.terms.items()))
        return f"LaurentPolynomial({self.nvars}, {{{items}}})"


def _points(Z: np.ndarray, nvars: int) -> np.ndarray:
    """Z checked as an (m, nvars) array of points with nonzero
    coordinates, a lone point doubled (see eval_points)."""
    if Z.ndim != 2 or Z.shape[1] != nvars:
        raise LengthMismatch("points have wrong length")
    if not Z.all():
        raise ZeroCoordinate("evaluation point has a zero coordinate")
    return np.repeat(Z, 2, axis=0) if len(Z) == 1 else Z


def _axes(exps: Sequence[Exponent], nvars: int) -> list:
    """Per axis i the sorted exponents e_i of exps and, per exponent of
    exps, the index of its e_i among them."""
    axes = []
    for i in range(nvars):
        es = sorted({e[i] for e in exps})
        at = {e: k for k, e in enumerate(es)}
        axes.append((es, np.array([at[e[i]] for e in exps], int)))
    return axes


def _power_rows(Z: np.ndarray, i: int, es: Sequence[int]) -> np.ndarray:
    """The rows Z[:, i] ** e for e in es."""
    rows = np.empty((len(es), len(Z)), Z.dtype)
    for k, e in enumerate(es):
        rows[k] = Z[:, i] ** e
    return rows


def _slab_sum(coef: np.ndarray, rows: List[np.ndarray],
              pick: List[np.ndarray], npts: int) -> np.ndarray:
    """sum_k coef[k] prod_i rows[i][pick[i][k]] at each of npts points,
    the product formed left to right from the coefficient and the terms
    added in order: the slab arithmetic of eval_points. The complex
    coefficients are taken as real if they all are and the rows are."""
    if not rows:
        rows, pick = [np.ones((1, npts))], [np.zeros(len(coef), int)]
    if rows[0].dtype.kind != "c" and not coef.imag.any():
        coef = coef.real
    total = np.zeros(npts, dtype=coef.dtype)
    step = max(1, SLAB // npts) if npts else len(coef)
    for lo in range(0, len(coef), step):
        s = slice(lo, lo + step)
        slab = coef[s, None] * rows[0][pick[0][s]]
        for R, k in zip(rows[1:], pick[1:]):
            slab *= R[k[s]]
        slab[0] += total
        total = np.add.reduce(slab, axis=0)
    return total


@dataclass(frozen=True, eq=False)
class PointTable:
    """A node table of a discrete measure: node r is the point
    (z[i, nu[i, r]])_i, with weight weights[r]."""

    z: np.ndarray
    nu: np.ndarray
    weights: np.ndarray

    def at_nodes(self, f: LaurentPolynomial) -> np.ndarray:
        """f at every node, read-only: bit for bit f.eval_points of the
        (nodes, nvars) array of node coordinates (_evaluator), a constant
        as one value, which pair broadcasts."""
        exps = sorted(f.terms)
        return _evaluator(self, f.nvars, exps)(
            np.array([f.terms[e] for e in exps], dtype=complex))


def _chain_labels(chains: Sequence[int], ends: Sequence[int],
                  S: int) -> np.ndarray:
    """Every label nu with |nu| <= S and nu_i < ends[i] that ascends
    within each chain (of the given lengths, in axis order), in
    lexicographic order, as the columns of an int16 array: row i holds
    axis i."""
    # int32 temporaries: half the memory of intp, and wide enough for the
    # label counts of the discrete tables
    i32 = np.int32
    cols: List[np.ndarray] = []
    total = np.zeros(1, dtype=i32)
    starts = [k == 0 for length in chains for k in range(length)]
    for start, end in zip(starts, ends):
        lo = np.zeros(len(total), dtype=i32) if start else cols[-1]
        count = np.maximum(np.minimum(S - total, end - 1) - lo + 1, 0)
        rows = np.repeat(np.arange(len(total), dtype=i32), count)
        step = np.arange(len(rows), dtype=i32) - np.repeat(
            np.cumsum(count, dtype=i32) - count, count)
        cols = [c[rows] for c in cols] + [lo[rows] + step]
        total = total[rows] + cols[-1]
    return np.array(cols, dtype=np.int16).reshape(len(cols), len(total))


def _label_weights(nu: np.ndarray, const, axis: Sequence[np.ndarray],
                   pair: Callable[[int, int], np.ndarray],
                   what: str) -> np.ndarray:
    """const ((axis[0][nu_0] axis[1][nu_1]) ...) prod_{i<j}
    pair(i, j)[nu_i, nu_j] for every label (column) of nu, multiplied in
    that order, the axis factors in their common dtype (1 for none) and
    gathered one axis at a time; a pair matrix is read at its flat
    indices, one gather each. NonFiniteWeight names the table (what) and
    its first label whose weight is not finite."""
    w = np.float64(1.0)
    if len(axis):
        # a real first factor of a complex product is made complex first,
        # as every later one is by the product
        w = axis[0][nu[0]].astype(np.result_type(*axis), copy=False)
    for a, lab in zip(axis[1:], nu[1:]):
        w = w * a[lab]
    w = const * w
    for i, j in itertools.combinations(range(len(nu)), 2):
        m = pair(i, j)
        w = w * m.ravel()[nu[i].astype(np.intp) * m.shape[1] + nu[j]]
    bad = np.flatnonzero(~np.isfinite(w))
    if bad.size:
        raise NonFiniteWeight(f"{what}: weight {w[bad[0]]} at the label "
                              f"nu = {nu[:, bad[0]].tolist()}")
    return w


def _check_axes(table: PointTable, nvars: int) -> None:
    """LengthMismatch unless the table has nvars axes, ZeroCoordinate if
    an axis holds a zero."""
    if len(table.z) != nvars:
        raise LengthMismatch("node table has wrong number of axes")
    if not all(np.all(zi) for zi in table.z):
        raise ZeroCoordinate("node table has a zero coordinate")


def _evaluator(table: PointTable, nvars: int, layout: List[Exponent]
               ) -> Callable[[np.ndarray, list | None], np.ndarray]:
    """The evaluator of at_nodes and orthogonalize: _layout_values, but
    for the constant layout [(0, ..., 0)] one value for every node,
    gathered at none: the coefficient times a 1 of the table's dtype per
    axis, the slab arithmetic of every node, so pair's broadcast of it
    adds the same terms."""
    if layout != [(0,) * nvars]:
        return _layout_values(table, nvars, layout)
    _check_axes(table, nvars)
    ones = [np.ones((1, 1), np.result_type(*table.z))] * nvars
    pick = [np.zeros(1, int)] * nvars

    def value(coef: np.ndarray, present: list | None = None) -> np.ndarray:
        out = _slab_sum(coef, ones, pick, 1)
        out.flags.writeable = False
        return out

    return value


def _layout_values(table: PointTable, nvars: int, layout: List[Exponent]
                   ) -> Callable[[np.ndarray, list | None], np.ndarray]:
    """For a sorted exponent layout, the function of (coef, present)
    giving sum_k coef[k] z^e_k over the layout's exponents e_k at the
    indices present (None: all), at the nodes of the table, read-only:
    bit for bit eval_points of that polynomial at the node coordinates.
    Each axis's values z[i] are raised to the layout's exponents once, in
    their common dtype (real and complex pow differ in the last bit), and
    each call gathers those power rows by label into eval_points' slab
    arithmetic; a lone node is doubled, as eval_points doubles a lone
    point. The errors of _check_axes."""
    _check_axes(table, nvars)
    dtype = np.result_type(*table.z)
    axes = _axes(layout, nvars)
    powers = [_power_rows(np.asarray(zi, dtype)[:, None], 0, es)
              for zi, (es, _k) in zip(table.z, axes)]
    m = len(table.weights)
    nu = np.repeat(table.nu, 2, axis=1) if m == 1 else table.nu

    def values(coef: np.ndarray, present: list | None = None) -> np.ndarray:
        rows = [P.take(nui, axis=1) for P, nui in zip(powers, nu)]
        pick = [k if present is None else k[present] for _es, k in axes]
        out = _slab_sum(coef, rows, pick, nu.shape[1])[:m]
        out.flags.writeable = False
        return out

    return values


def _slab(values: np.ndarray, s: slice) -> np.ndarray:
    """The node values of the nodes s, a constant's single value as it
    is, for numpy to broadcast."""
    return values if len(values) == 1 else values[s]


def _add_pairs(total, F: np.ndarray, G: np.ndarray, w: np.ndarray):
    """total plus sum F G w over the nodes of one table, the terms added
    one by one in node order: a slab of at most SLAB nodes at a time, the
    running total added to its first term and the slab summed with
    np.add.accumulate, which adds in order."""
    F, G = F.ravel(), G.ravel()
    for lo in range(0, len(w), SLAB):
        s = slice(lo, lo + SLAB)
        terms = _slab(F, s) * _slab(G, s) * w[s]
        terms[0] += total
        total = np.add.accumulate(terms)[-1]
    return total


def _scalar(total) -> complex:
    return total.item() if isinstance(total, np.generic) else total


def pair(f: LaurentPolynomial, g: LaurentPolynomial,
         tables: Iterable) -> complex:
    """sum f g w over the nodes of every table in turn, as a Python
    scalar: the bilinear form of every family, on its node tables (whose
    weights share one dtype).

    The values of f and g are their node values (node_values); a
    constant's single value is broadcast. The terms
    f g w are added one by one in node order (_add_pairs), bit for bit
    as a Python loop adding each to a running total. Another order
    leaves the polynomials as orthogonal, by the cosine
    |<P_a,P_b>| / sqrt(N_a N_b) (6e-14 either way at the q-Racah
    defaults), but moves the CLI orthogonality metric, which divides by
    <1,1> rather than by the norms, that reach 5e3 times <1,1>: one dot
    product over the q-Racah table read 4.4e-11 instead of 4.8e-12
    there, and 6.9e-10 instead of 5.6e-10 at N = 3."""
    total = 0.0
    for table in tables:
        total = _add_pairs(total, f.node_values(table),
                           g.node_values(table), table.weights)
    return _scalar(total)


def gram(polys: Sequence[LaurentPolynomial], tables: Sequence) -> np.ndarray:
    """The Gram matrix of pair on the node tables: one pair(P_a, P_b)
    per a <= b."""
    G = np.empty((len(polys), len(polys)), dtype=complex)
    for a, f in enumerate(polys):
        for b in range(a, len(polys)):
            G[a, b] = G[b, a] = pair(f, polys[b], tables)
    return G


@dataclass(frozen=True)
class Family:
    """One orthogonal family as the paper certifies it, built by its own
    module (family): its parameters, its pairing <f, g>, the Gram matrix
    of that pairing on a list of polynomials, the monic polynomials of
    degree mu <= top (a dict in graded-lex order), and the closed forms
    of the quadratic norms and of the constant term <1,1>."""

    params: object
    pair: Callable[[LaurentPolynomial, LaurentPolynomial], complex]
    gram: Callable[[List[LaurentPolynomial]], np.ndarray]
    polynomials: Callable[[Tuple[int, ...]],
                          Dict[Tuple[int, ...], LaurentPolynomial]]
    norm: Callable[[Tuple[int, ...]], complex]
    mass: Callable[[], complex]

    @classmethod
    def on_tables(cls, params, measure: Callable[[], Sequence],
                  pair_on: Callable, gram_on: Callable, build: Callable,
                  norm: Callable, mass: Callable) -> "Family":
        """The record of a family whose node tables measure() builds:
        pair_on(f, g, tables), gram_on(polys, tables) and
        build(top, tables) read one list, built on its first iteration,
        so a pairing may check its input before any table is built."""
        tables = _Tables(measure)
        return cls(params, lambda f, g: pair_on(f, g, tables),
                   lambda polys: gram_on(polys, tables),
                   lambda top: build(top, tables), norm, mass)


class _Tables:
    """The node tables of one measure: measure() on the first iteration,
    the same table objects on every later one."""

    def __init__(self, measure: Callable[[], Sequence]):
        self._measure = functools.cache(measure)

    def __iter__(self):
        return iter(self._measure())


def dominance_leq(mu: Sequence[int], lam: Sequence[int]) -> bool:
    """BC dominance: mu <= lam iff every leading partial sum of mu is
    bounded by the corresponding one of lam."""
    if len(mu) != len(lam):
        raise LengthMismatch("partitions of different length")
    s_mu = 0
    s_lam = 0
    for a, b in zip(mu, lam):
        s_mu += a
        s_lam += b
        if s_mu > s_lam:
            return False
    return True


def partitions_dominated_by(lam: Sequence[int]) -> List[Tuple[int, ...]]:
    """All partitions mu <= lam, in graded-lexicographic order (ascending
    total degree, then ascending lexicographic). This total order refines
    dominance, so triangular back-substitution can walk it directly."""
    lam = partition(lam)
    n = len(lam)
    if n == 0:
        return [()]
    bound = lam[0]
    out = []

    def rec(prefix: List[int], maxpart: int):
        if len(prefix) == n:
            if dominance_leq(prefix, lam):
                out.append(tuple(prefix))
            return
        for p in range(min(maxpart, bound), -1, -1):
            prefix.append(p)
            # prune: partial sums must stay below lam's
            if sum(prefix) <= sum(lam[:len(prefix)]):
                rec(prefix, p)
            prefix.pop()

    rec([], bound)
    out.sort(key=lambda m: (sum(m), m))
    return out


@functools.lru_cache(maxsize=1024)
def _orbit(v: Tuple[int, ...], signs: bool) -> Tuple[Exponent, ...]:
    sign_choices = ([1, -1] if signs else [1],) * len(v)
    return tuple(dict.fromkeys(
        tuple(s * x for s, x in zip(sg, perm))
        for perm in itertools.permutations(v)
        for sg in itertools.product(*sign_choices)))


def _w_sum(n: int, coeffs: Dict[Exponent, complex]) -> LaurentPolynomial:
    """sum c m_nu over {nu: c} of partitions of length n, the terms of
    each W-orbit in turn; only PRUNE applies, since the orbits are
    disjoint."""
    return LaurentPolynomial._pruned(n, {
        e: complex(c) for nu, c in coeffs.items() for e in _orbit(nu, True)})


def monomial_w(lam: Sequence[int]) -> LaurentPolynomial:
    """W-invariant monomial m_lambda: sum of z^mu over the orbit of lambda
    under permutations and independent sign flips of the exponents."""
    lam = partition(lam)
    return _w_sum(len(lam), {lam: 1.0})


def monomial_s(lam: Sequence[int]) -> LaurentPolynomial:
    """S-invariant monomial mtilde_lambda: permutation orbit sum only."""
    lam = partition(lam)
    return LaurentPolynomial(len(lam), {e: 1.0 for e in _orbit(lam, False)})


def _add_scaled(terms: Dict[Exponent, complex],
                other: Dict[Exponent, complex],
                c: complex) -> Dict[Exponent, complex]:
    """The terms of poly + other.scale(c), poly with the (pruned) terms
    given, which are modified: in Python scalars and in the order of
    LaurentPolynomial.__add__ and scale, each scaled term pruned, the
    kept ones added in the order of other, then the sum pruned. The
    values of other are complex, so c * v is the complex(c * v) of
    scale."""
    get = terms.get
    small = False
    for e, v in other.items():
        x = c * v
        if abs(x) > PRUNE:
            y = terms[e] = get(e, 0.0) + x
            small = small or abs(y) <= PRUNE
    if small:
        return {e: x for e, x in terms.items() if abs(x) > PRUNE}
    return terms


def orthogonalize(top: Sequence[int], n: int,
                  basis: Callable[[Sequence[int]], LaurentPolynomial],
                  tables: Sequence[PointTable]
                  ) -> Dict[Tuple[int, ...], LaurentPolynomial]:
    """The monic polynomials P_mu = basis(mu) + sum_{nu < mu} c_nu basis(nu)
    orthogonal for pair on the node tables, for every partition mu <= top
    of length n; basis(mu) has exponents |e_i| <= mu_1.

    Walks the graded-lex order and orthogonalizes each basis(mu) against
    the lower P_nu already built (Gram-Schmidt with one
    re-orthogonalization pass); the monomial Gram matrix itself can be too
    ill conditioned to solve. It runs on node-value columns, bit for bit
    the loop c = pair(poly, P_nu) / N_nu, poly = poly + P_nu.scale(-c)
    (oracles.orthogonalize_loop): each mu fixes one exponent layout, the
    sorted exponents its poly can hold, the coefficients are updated as
    Python scalars (_add_scaled) and the values at the nodes formed anew
    from them by eval_points' slab arithmetic (_evaluator, the evaluator
    of at_nodes, on the per-axis powers of the layout raised once per mu
    and gathered by label per evaluation; P_0 = m_0 is one value per
    table, as at_nodes gives a constant), and every pairing is pair's
    in-order sum on those values. Every pairing comes in a
    fixed order, so the result does not depend on top: the P_mu of
    orthogonalize(top) and of orthogonalize(mu) agree exactly. Each P_mu
    is returned with its node values kept on it
    (LaurentPolynomial.node_values), so a Gram matrix on the tables
    evaluates nothing. Raises SingularGram when <P_mu, P_mu> vanishes
    relative to <basis(mu), basis(mu)>."""
    top = partition(top)
    if len(top) != n:
        raise DomainViolation(f"partition {top} must have length {n}")
    tables = list(tables)

    def dot(F: List[np.ndarray], G: List[np.ndarray]) -> complex:
        # pair on the node values F and G of the tables
        total = 0.0
        for Fk, Gk, t in zip(F, G, tables):
            total = _add_pairs(total, Fk, Gk, t.weights)
        return _scalar(total)

    built: Dict[Tuple[int, ...], LaurentPolynomial] = {}
    norms: Dict[Tuple[int, ...], complex] = {}
    for mu in partitions_dominated_by(top):
        m_mu = basis(mu)
        lower = partitions_dominated_by(mu)[:-1]
        layout = sorted(set(m_mu.terms).union(
            *(built[nu].terms for nu in lower)))
        on_tables = [_evaluator(t, n, layout) for t in tables]

        def at_nodes(terms: Dict[Exponent, complex]) -> List[np.ndarray]:
            # terms holds a subset of the layout
            present = None
            if len(terms) < len(layout):
                present = [k for k, e in enumerate(layout) if e in terms]
            exps = layout if present is None else [layout[k] for k in present]
            coef = np.array([terms[e] for e in exps], dtype=complex)
            return [f(coef, present) for f in on_tables]

        terms = dict(m_mu.terms)
        F = F_mu = at_nodes(terms)
        for _ in range(2):
            for nu in lower:
                P = built[nu]
                c = dot(F, [P.node_values(t) for t in tables]) / norms[nu]
                terms = _add_scaled(terms, P.terms, -c)
                F = at_nodes(terms)
        norm = dot(F, F)
        if abs(norm) <= POLE_GUARD * abs(dot(F_mu, F_mu)):
            raise SingularGram(f"vanishing quadratic norm at {mu}")
        P = built[mu] = LaurentPolynomial._pruned(n, terms)
        P._node_values = _NodeValues()
        for t, v in zip(tables, F):
            P._node_values.add(t, v)
        norms[mu] = norm
    return built
