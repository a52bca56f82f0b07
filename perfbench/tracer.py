"""In-process tracer for one bcortho CLI invocation, plus the per-layer
metrics computed from what it records.

``Tracer.install`` wraps every public function of each layer module (and
``LaurentPolynomial.eval``, ``eval_grid`` and ``__mul__``) and rebinds
each wrapper in every ``bcortho.*`` module that holds the original object,
because modules import those functions by value.

Every wrapper counts calls and sums inclusive and self time; self time is
inclusive time minus the time of traced calls made inside it. Coarse
entry points (the invocation, polynomial constructors, bilinear forms,
closed forms, ``op_matrix``) also record a span (name, start, end,
parent span index). Everything stays in memory until ``dump``.

This module imports neither bcortho nor numpy at import time, so run.py
can use ``layer_metrics`` without loading the program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from typing import Dict, List

LAYERS = ("qseries", "bcpoly", "measures", "koornwinder", "askey_wilson",
          "qracah", "little", "big", "cli")
METHODS = ("eval", "eval_grid", "__mul__")

SCALAR = tuple(f"qseries.{f}" for f in (
    "qpoch_infinite", "qpoch_finite", "qpoch_real", "theta_jacobi",
    "psi_t", "qgamma"))
ARR = ("qseries.qpoch_infinite_arr", "qseries.qpoch_finite_arr")
POLY = ("askey_wilson.aw_polynomial", "qracah.qracah_polynomial",
        "little.little_polynomial", "big.big_polynomial")
BILINEAR = ("measures.torus_bilinear", "measures.partial_bilinear",
            "measures.natural_t_bilinear", "qracah.bilinear_qR",
            "little.bilinear_little", "big.bilinear_big")
CLOSED_FORM = (
    "askey_wilson.aw_norm", "askey_wilson.gustafson_constant",
    "askey_wilson.aw1_oracle", "qracah.norm_qR", "qracah.summation_qR",
    "qracah.kr_constant", "little.norm_little", "little.selberg_little",
    "big.norm_big", "big.selberg_big", "big.selberg_big_qk",
    "big.askey_evans_rhs")
SPANNED = set(POLY + BILINEAR + CLOSED_FORM
              + ("koornwinder.op_matrix", "cli.main"))


def _groups(key: str) -> tuple:
    """Time groups a spanned function belongs to; a group's time is the
    inclusive time of its outermost calls, so nesting is not counted twice."""
    layer = key.split(".")[0]
    for kind, keys in (("poly", POLY), ("closed_form", CLOSED_FORM)):
        if key in keys:
            return (kind, f"{layer}.{kind}")
    return ()


class Tracer:
    """Counters and spans of one process; see the module docstring."""

    def __init__(self) -> None:
        self.counters: Dict[str, List[float]] = {}
        self.extra: Dict[str, int] = defaultdict(int)
        self.group_s: Dict[str, float] = defaultdict(float)
        self.spans: List[list] = []
        self.wrapped = 0
        self.rebound = 0
        self._measures: set = set()
        self._nodes: set = set()
        self._child = [0.0]
        self._open = [-1]
        self._depth: Dict[str, int] = defaultdict(int)

    # -- probes: per-call work counts read from the arguments -------------

    def _probe(self, key: str, fn):
        extra = self.extra
        if key in ARR:
            def probe(args, kwargs):
                extra["arr_elems"] += getattr(args[0], "size", 1)
        elif key == "bcpoly.eval_grid":
            def probe(args, kwargs):
                points = 1
                for ax in args[1]:
                    points *= len(ax)
                extra["eval_grid_term_points"] += len(args[0].terms) * points
        elif key == "big.weight_big":
            nodes = self._nodes

            def probe(args, kwargs):
                nodes.add((tuple(args[0]), args[1]))
        elif key in ("measures.torus_bilinear", "measures.partial_bilinear"):
            sig = inspect.signature(fn)
            kind = key.split(".")[1]
            measures = self._measures

            def probe(args, kwargs):
                a = sig.bind(*args, **kwargs).arguments
                p, M = a["p"], a["M"]
                measures.add((kind, p, M, a.get("depth")))
                if kind == "torus_bilinear":
                    extra["grid_points"] += M ** p.n
        else:
            probe = None
        return probe

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, key: str):
        c = self.counters.setdefault(key, [0, 0.0, 0.0])
        probe = self._probe(key, fn)
        child = self._child
        perf = time.perf_counter
        self.wrapped += 1
        if key not in SPANNED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if probe is not None:
                    probe(args, kwargs)
                child.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - t0
                    inner = child.pop()
                    child[-1] += dt
                    c[0] += 1
                    c[1] += dt
                    c[2] += dt - inner
            return counted

        spans, opened = self.spans, self._open
        depth, group_s = self._depth, self.group_s
        groups = _groups(key)
        bilinear = key in BILINEAR

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if probe is not None:
                probe(args, kwargs)
            # a bilinear form called while a polynomial is being built is
            # Gram assembly
            gs = groups + ("gram",) if bilinear and depth["poly"] else groups
            for g in gs:
                depth[g] += 1
            idx = len(spans)
            spans.append([key, 0.0, 0.0, opened[-1]])
            opened.append(idx)
            child.append(0.0)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf()
                dt = t1 - t0
                inner = child.pop()
                child[-1] += dt
                opened.pop()
                spans[idx][1] = t0
                spans[idx][2] = t1
                c[0] += 1
                c[1] += dt
                c[2] += dt - inner
                for g in gs:
                    depth[g] -= 1
                    if not depth[g]:
                        group_s[g] += dt
        return spanned

    def install(self) -> None:
        """Wrap every layer's public functions and rebind each wrapper
        wherever the original is bound; raise if a binding is missed."""
        import bcortho.cli  # noqa: F401  (loads every layer module)

        mods = {name: m for name, m in sys.modules.items()
                if name.startswith("bcortho.")}
        wrappers = {}
        for layer in LAYERS:
            mod = mods[f"bcortho.{layer}"]
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(obj, f"{layer}.{name}"))
        for mod in mods.values():
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self.rebound += 1
        cls = mods["bcortho.bcpoly"].LaurentPolynomial
        for meth in METHODS:
            setattr(cls, meth, self._wrap(vars(cls)[meth], f"bcpoly.{meth}"))

        stale = [f"{mname}.{name}" for mname, mod in mods.items()
                 for name, obj in vars(mod).items()
                 for v in (obj.values() if isinstance(obj, dict) else
                           obj if isinstance(obj, (list, tuple)) else (obj,))
                 if id(v) in wrappers and wrappers[id(v)][0] is v]
        if stale:
            raise RuntimeError(f"untraced bindings left: {stale}")

    def dump(self) -> dict:
        extra = dict(self.extra)
        extra["distinct_measures"] = len(self._measures)
        extra["distinct_nodes"] = len(self._nodes)
        return {"counters": self.counters, "extra": extra,
                "groups": dict(self.group_s), "spans": self.spans,
                "wrapped": self.wrapped, "rebound": self.rebound}


def merge(dumps: List[dict]) -> dict:
    """Sum the counters, work counts and group times of several dumps.
    Every invocation starts with empty caches, so distinct counts add."""
    counters: Dict[str, List[float]] = {}
    extra: Dict[str, float] = defaultdict(float)
    groups: Dict[str, float] = defaultdict(float)
    for d in dumps:
        for key, vals in d["counters"].items():
            acc = counters.setdefault(key, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in d["extra"].items():
            extra[key] += v
        for key, v in d["groups"].items():
            groups[key] += v
    return {"counters": counters, "extra": extra, "groups": groups}


# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("qseries.scalar_calls", "count", "lower"),
    ("qseries.scalar_self_s", "s", "lower"),
    ("qseries.arr_calls", "count", "lower"),
    ("qseries.arr_elems", "count", "lower"),
    ("qseries.arr_self_s", "s", "lower"),
    ("bcpoly.eval_calls", "count", "lower"),
    ("bcpoly.eval_self_s", "s", "lower"),
    ("bcpoly.eval_grid_calls", "count", "lower"),
    ("bcpoly.eval_grid_term_points", "count", "lower"),
    ("bcpoly.eval_grid_self_s", "s", "lower"),
    ("bcpoly.mul_calls", "count", "lower"),
    ("bcpoly.mul_self_s", "s", "lower"),
    ("measures.torus_calls", "count", "lower"),
    ("measures.partial_calls", "count", "lower"),
    ("measures.distinct_measures", "count", "lower"),
    ("measures.grid_reuse", "ratio", "higher"),
    ("measures.grid_points", "count", "lower"),
    ("measures.discrete_weight_calls", "count", "lower"),
    ("measures.self_s", "s", "lower"),
    ("koornwinder.op_matrix_calls", "count", "lower"),
    ("koornwinder.apply_D_calls", "count", "lower"),
    ("koornwinder.self_s", "s", "lower"),
    ("askey_wilson.poly_calls", "count", "lower"),
    ("askey_wilson.poly_s", "s", "lower"),
    ("askey_wilson.closed_form_s", "s", "lower"),
    ("askey_wilson.self_s", "s", "lower"),
    ("qracah.bilinear_calls", "count", "lower"),
    ("qracah.weight_calls", "count", "lower"),
    ("qracah.poly_s", "s", "lower"),
    ("qracah.self_s", "s", "lower"),
    ("little.bilinear_calls", "count", "lower"),
    ("little.nodes", "count", "lower"),
    ("little.poly_s", "s", "lower"),
    ("little.closed_form_s", "s", "lower"),
    ("little.self_s", "s", "lower"),
    ("big.bilinear_calls", "count", "lower"),
    ("big.nodes", "count", "lower"),
    ("big.distinct_nodes", "count", "lower"),
    ("big.node_reuse", "ratio", "higher"),
    ("big.poly_s", "s", "lower"),
    ("big.closed_form_s", "s", "lower"),
    ("big.self_s", "s", "lower"),
    ("cli.check_ms_sum", "ms", "lower"),
    ("cli.untimed_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("stage.kernel_s", "s", "lower"),
    ("stage.measure_s", "s", "lower"),
    ("stage.gram_s", "s", "lower"),
    ("stage.poly_s", "s", "lower"),
    ("stage.closed_form_s", "s", "lower"),
    ("trace_overhead", "ratio", "lower"),
]


def layer_self_s(merged: dict) -> Dict[str, float]:
    """Self time of each layer: the sum over its wrapped functions."""
    out = dict.fromkeys(LAYERS, 0.0)
    for key, (_calls, _incl, self_s) in merged["counters"].items():
        out[key.split(".")[0]] += self_s
    return out


def layer_metrics(merged: dict, run_s: float, check_ms: float) -> dict:
    """Every PER_LAYER metric except trace_overhead, from the merged dumps
    of one pass, its traced run time and its summed per-check ms."""
    cnt, extra, groups = merged["counters"], merged["extra"], merged["groups"]

    def calls(*keys):
        return sum(cnt.get(k, (0,))[0] for k in keys)

    def self_s(*keys):
        return sum(cnt.get(k, (0, 0.0, 0.0))[2] for k in keys)

    def ratio(num, den):
        return num / den if den else 0.0

    layer = layer_self_s(merged)
    builds = calls("measures.torus_bilinear", "measures.partial_bilinear")
    return {
        "qseries.scalar_calls": calls(*SCALAR),
        "qseries.scalar_self_s": self_s(*SCALAR),
        "qseries.arr_calls": calls(*ARR),
        "qseries.arr_elems": extra.get("arr_elems", 0),
        "qseries.arr_self_s": self_s(*ARR),
        "bcpoly.eval_calls": calls("bcpoly.eval"),
        "bcpoly.eval_self_s": self_s("bcpoly.eval"),
        "bcpoly.eval_grid_calls": calls("bcpoly.eval_grid"),
        "bcpoly.eval_grid_term_points": extra.get("eval_grid_term_points", 0),
        "bcpoly.eval_grid_self_s": self_s("bcpoly.eval_grid"),
        "bcpoly.mul_calls": calls("bcpoly.__mul__"),
        "bcpoly.mul_self_s": self_s("bcpoly.__mul__"),
        "measures.torus_calls": calls("measures.torus_bilinear"),
        "measures.partial_calls": calls("measures.partial_bilinear"),
        "measures.distinct_measures": extra.get("distinct_measures", 0),
        "measures.grid_reuse": ratio(extra.get("distinct_measures", 0), builds),
        "measures.grid_points": extra.get("grid_points", 0),
        "measures.discrete_weight_calls": calls("measures.wd_residue_weight"),
        "measures.self_s": layer["measures"],
        "koornwinder.op_matrix_calls": calls("koornwinder.op_matrix"),
        "koornwinder.apply_D_calls": calls("koornwinder.apply_D"),
        "koornwinder.self_s": layer["koornwinder"],
        "askey_wilson.poly_calls": calls("askey_wilson.aw_polynomial"),
        "askey_wilson.poly_s": groups.get("askey_wilson.poly", 0.0),
        "askey_wilson.closed_form_s": groups.get("askey_wilson.closed_form", 0.0),
        "askey_wilson.self_s": layer["askey_wilson"],
        "qracah.bilinear_calls": calls("qracah.bilinear_qR"),
        "qracah.weight_calls": calls("qracah.weight_qR"),
        "qracah.poly_s": groups.get("qracah.poly", 0.0),
        "qracah.self_s": layer["qracah"],
        "little.bilinear_calls": calls("little.bilinear_little"),
        "little.nodes": calls("little.support_point"),
        "little.poly_s": groups.get("little.poly", 0.0),
        "little.closed_form_s": groups.get("little.closed_form", 0.0),
        "little.self_s": layer["little"],
        "big.bilinear_calls": calls("big.bilinear_big"),
        "big.nodes": calls("big.weight_big"),
        "big.distinct_nodes": extra.get("distinct_nodes", 0),
        "big.node_reuse": ratio(extra.get("distinct_nodes", 0),
                                calls("big.weight_big")),
        "big.poly_s": groups.get("big.poly", 0.0),
        "big.closed_form_s": groups.get("big.closed_form", 0.0),
        "big.self_s": layer["big"],
        "cli.check_ms_sum": check_ms,
        "cli.untimed_s": run_s - check_ms / 1000.0,
        "cli.self_s": layer["cli"],
        "stage.kernel_s": layer["qseries"],
        "stage.measure_s": layer["measures"],
        "stage.gram_s": groups.get("gram", 0.0),
        "stage.poly_s": groups.get("poly", 0.0),
        "stage.closed_form_s": groups.get("closed_form", 0.0),
    }
