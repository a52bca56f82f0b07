"""Batch verification harness.

Runs named suites of numerical identity checks (orthogonality, norms,
constant terms, limit transitions) over a parameter configuration and
emits a machine-readable certification report. Configurations come from
a flat key=value file, command-line flags, or both (flags win). The keys
are suite, out, format and those of INT_KEYS and FLOAT_KEYS; any other
key is a configuration error (exit 2).

Each family (aw, qracah, little, big) is one _Family record: its
parameters, the Gram matrix of its pairing (bcpoly.gram on the family's
node tables; for aw through measures.torus_gram, which checks the grid
first), polynomials up to a top partition (each a
bcpoly.LaurentPolynomial), and the closed forms of its norms and of its
constant term <1,1>. _mass_check compares its <1,1>, the Gram matrix of
[1], with the closed form and _gram_checks its Gram matrix with the
closed-form norms. The limits suite scans each limit record
(askey_wilson.Limit, from little_limit and big_limit) at the steps its
verdicts read: the tail half of the coefficient scan and the last step
of the measure scan. The family-specific checks keep their own code.

Report schema (JSON): {suite, config_echo, checks: [{name, anchor, lhs,
rhs, abs_err, rel_err, tol, pass, ms}], summary: {pass, fail}}. The
anchor field carries a short statement of the identity being checked.
Exit status is 0 exactly when no check failed; a configuration error,
a torus grid too coarse for a pairing (GridTooCoarse) among them, exits
2 without a report. Reruns with the same configuration and seed produce
an identical report body except for the per-check wall times. The seed
drives only the random draws of the qracah residue-split and big
c-weight-dual-form checks; every other check, the Askey-Wilson
polynomials and limit scans included, has no random input.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from .askey_wilson import (
    aw1_oracle,
    aw_norm,
    aw_polynomials,
    gustafson_constant,
    limit_scan,
    measure_scan,
)
from . import big, little, qracah
from .bcpoly import LaurentPolynomial, gram
from .big import (
    FORM_TOL,
    BigParams,
    askey_evans_lhs,
    askey_evans_rhs,
    asymptotic_ratio,
    big_limit,
    big_polynomials,
    bilinear_big,
    c_weights,
    c_weights_defining,
    norm_big,
    selberg_big,
    selberg_big_qk,
)
from .errors import BcorthoError, ConfigError, GridTooCoarse, IoError
from .little import (
    LittleParams,
    bilinear_little,
    little_limit,
    little_polynomials,
    norm_little,
    selberg_little,
)
from .measures import multi_discrete_weight, partial_bilinear, torus_gram
from .params import AWParams
from .qracah import (
    QRacahParams,
    bilinear_qR,
    kr_constant,
    norm_qR,
    qracah_polynomials,
    summation_qR,
    support_qR,
    weight_qR,
)

SUITES = ("aw", "qracah", "little", "big", "limits", "selberg")

# Default parameter sets, one per suite; chosen inside the admissible
# domains with comfortable margins from poles and eigenvalue collisions.
DEFAULTS: Dict[str, Dict[str, float]] = {
    "aw": dict(n=2, lmax=2, q=0.5, t=0.3, t0=0.35, t1=-0.45, t2=0.25,
               t3=0.2, M=128, seed=0),
    "qracah": dict(n=2, lmax=2, q=0.5, t=0.3, t0=0.7, t1=-0.5, t2=0.4,
                   N=2, seed=0),
    "little": dict(n=2, lmax=2, q=0.5, t=0.3, a=0.4, b=0.2, seed=0),
    "big": dict(n=2, lmax=2, q=0.5, t=0.4, a=0.6, b=0.3, c=1.0, d=0.8,
                seed=0),
    "limits": dict(n=2, lmax=2, q=0.5, t=0.3, a=0.4, b=0.2, c=1.0, d=0.8,
                   M=64, kmax=15, seed=0),
    "selberg": dict(n=2, q=0.5, t=0.3, t0=0.35, t1=-0.45, t2=0.25,
                    t3=0.2, a=0.4, b=0.2, c=1.0, d=0.8, N=2, M=128,
                    seed=0),
}

INT_KEYS = {"n", "lmax", "N", "M", "kmax", "seed"}
FLOAT_KEYS = {"q", "t", "t0", "t1", "t2", "t3", "a", "b", "c", "d", "tol"}
STR_KEYS = {"suite", "out", "format"}


@dataclass(frozen=True)
class SuiteConfig:
    """Validated configuration of one verification run."""

    suite: str
    values: Dict[str, float]

    def __getitem__(self, key: str):
        return self.values[key]

    def get(self, key: str, default=None):
        return self.values.get(key, default)


@dataclass
class CheckRecord:
    """One identity check: computed sides, errors, verdict, wall time."""

    name: str
    anchor: str
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool
    ms: float


@dataclass
class CertificationReport:
    """All checks of one suite run plus the configuration echo."""

    suite: str
    config_echo: Dict[str, float]
    checks: List[CheckRecord] = field(default_factory=list)

    @property
    def summary(self) -> Dict[str, int]:
        npass = sum(1 for c in self.checks if c.passed)
        return {"pass": npass, "fail": len(self.checks) - npass}

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "config_echo": self.config_echo,
            "checks": [
                {"name": c.name, "anchor": c.anchor, "lhs": c.lhs,
                 "rhs": c.rhs, "abs_err": c.abs_err, "rel_err": c.rel_err,
                 "tol": c.tol, "pass": c.passed, "ms": c.ms}
                for c in self.checks
            ],
            "summary": self.summary,
        }


def parse_config_file(path: str) -> Dict[str, str]:
    """Read a flat key=value configuration file (blank lines and lines
    starting with # are skipped)."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    out: Dict[str, str] = {}
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{i}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    return out


def build_config(raw: Dict[str, str]) -> SuiteConfig:
    """Validate raw string settings into a SuiteConfig."""
    suite = raw.get("suite")
    if suite not in SUITES:
        raise ConfigError(
            f"suite must be one of {', '.join(SUITES)}, got {suite!r}")
    values: Dict[str, float] = dict(DEFAULTS[suite])
    for key, sval in raw.items():
        if key in STR_KEYS:
            continue
        try:
            if key in INT_KEYS:
                values[key] = int(sval)
            elif key in FLOAT_KEYS:
                values[key] = float(sval)
            else:
                raise ConfigError(f"unknown configuration key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {sval!r}") from exc
    n = int(values.get("n", 1))
    if not 1 <= n <= 3:
        raise ConfigError(f"n must be in 1..3, got {n}")
    for key, low in (("kmax", 0), ("M", 1)):
        if key in values and values[key] < low:
            raise ConfigError(f"{key} must be >= {low}, got {values[key]}")
    if "tol" in values and not values["tol"] > 0:
        raise ConfigError("tol must be positive")
    # with some |t_i| >= 1 the orthogonality measure gains residue
    # chains, and these suites would certify the torus measure alone
    if suite in ("aw", "selberg"):
        for key in ("t0", "t1", "t2", "t3"):
            if not abs(values[key]) < 1:
                raise ConfigError(
                    f"{key} must satisfy |{key}| < 1 for suite {suite}, "
                    f"got {values[key]}")
    return SuiteConfig(suite, values)


def _run_check(report: CertificationReport, name: str, anchor: str,
               tol: float, fn: Callable[[], Tuple[float, float]]) -> None:
    """Evaluate fn() -> (lhs, rhs), time it and append the verdict.

    A BcorthoError inside fn is recorded as a failed check with NaN
    sides rather than aborting the suite; GridTooCoarse is raised on,
    since a torus grid too coarse for a pairing is a configuration
    error."""
    start = time.perf_counter()
    try:
        lhs, rhs = (complex(v) for v in fn())
        abs_err = abs(lhs - rhs)
        rel_err = abs_err / max(1.0, abs(rhs))
        passed = rel_err <= tol
        lhs, rhs = lhs.real, rhs.real
    except GridTooCoarse:
        raise
    except BcorthoError:
        lhs = rhs = abs_err = rel_err = float("nan")
        passed = False
    ms = (time.perf_counter() - start) * 1000.0
    report.checks.append(CheckRecord(
        name, anchor, float(lhs), float(rhs), float(abs_err),
        float(rel_err), tol, passed, ms))


def _tol(cfg: SuiteConfig, default: float) -> float:
    return float(cfg.get("tol", default))


@dataclass(frozen=True)
class _Family:
    """One orthogonal family as the paper certifies it: its parameters,
    its pairing <f, g>, the Gram matrix of that pairing on a list of
    polynomials, the monic polynomials of degree mu <= top (a dict in
    graded-lex order), and the closed forms of the quadratic norms and of
    the constant term <1,1>."""

    params: object
    pair: Callable[[LaurentPolynomial, LaurentPolynomial], complex]
    gram: Callable[[List[LaurentPolynomial]], np.ndarray]
    polynomials: Callable[[Tuple[int, ...]],
                          Dict[Tuple[int, ...], LaurentPolynomial]]
    norm: Callable[[Tuple[int, ...]], complex]
    mass: Callable[[], complex]


def _aw_family(cfg: SuiteConfig) -> _Family:
    p = AWParams(int(cfg["n"]), cfg["q"], cfg["t"], cfg["t0"], cfg["t1"],
                 cfg["t2"], cfg["t3"])
    M = int(cfg["M"])
    # one entry of the torus Gram (torus_bilinear would also pair on a
    # coarser grid for its error estimate)
    return _Family(p, lambda f, g: torus_gram([f] if f is g else [f, g],
                                              p, M)[0, -1],
                   lambda polys: torus_gram(polys, p, M),
                   lambda top: aw_polynomials(top, p),
                   lambda lam: aw_norm(lam, p),
                   lambda: gustafson_constant(p))


def _qracah_family(cfg: SuiteConfig) -> _Family:
    qp = QRacahParams(int(cfg["n"]), cfg["q"], cfg["t"], cfg["t0"],
                      cfg["t1"], cfg["t2"], int(cfg["N"]))
    return _Family(qp, lambda f, g: bilinear_qR(f, g, qp),
                   lambda polys: gram(polys, [qracah._node_table(qp)]),
                   lambda top: qracah_polynomials(top, qp),
                   lambda lam: norm_qR(lam, qp),
                   lambda: summation_qR(qp))


def _little_family(cfg: SuiteConfig) -> _Family:
    lp = LittleParams(int(cfg["n"]), cfg["q"], cfg["t"], cfg["a"], cfg["b"])
    return _Family(lp, lambda f, g: bilinear_little(f, g, lp),
                   lambda polys: gram(polys, little._node_table(lp)),
                   lambda top: little_polynomials(top, lp),
                   lambda lam: norm_little(lam, lp),
                   lambda: selberg_little(lp))


def _big_family(cfg: SuiteConfig) -> _Family:
    bp = BigParams(int(cfg["n"]), cfg["q"], cfg["t"], cfg["a"], cfg["b"],
                   cfg["c"], cfg["d"])
    return _Family(bp, lambda f, g: bilinear_big(f, g, bp),
                   lambda polys: gram(polys, big._node_table(bp)),
                   lambda top: big_polynomials(top, bp),
                   lambda lam: norm_big(lam, bp),
                   lambda: selberg_big(bp))


def _mass_check(report: CertificationReport, name: str, anchor: str,
                tol: float, fam: _Family) -> None:
    """The family's <1,1> against its closed form."""
    one = LaurentPolynomial.constant(fam.params.n)
    _run_check(report, name, anchor, tol,
               lambda: (fam.pair(one, one), fam.mass()))


def _gram_checks(report: CertificationReport, fam: _Family,
                 top: Tuple[int, ...], tol_orth: float,
                 tol_norm: float) -> None:
    """The Gram matrix of the family's polynomials of degree mu <= top:
    off-diagonals against |<1,1>| ("orthogonality") and diagonals against
    the closed-form norms N ("norms", relative to max(1, |N|)). The
    polynomials are paired as returned: a family built by
    bcpoly.orthogonalize brings the node values of its pairing with it.
    The polynomials and their Gram matrix are built once, inside the
    first check that reads them, so that check's time includes both; a
    BcorthoError while building them fails both checks."""
    scale = abs(fam.mass())

    @functools.cache
    def gram() -> Tuple[List[Tuple[int, ...]], np.ndarray]:
        polys = fam.polynomials(top)
        return list(polys), fam.gram(list(polys.values()))

    def off_diag() -> Tuple[float, float]:
        lams, G = gram()
        worst = 0.0
        for a in range(len(lams)):
            for b in range(a + 1, len(lams)):
                worst = max(worst, abs(G[a, b]) / scale)
        return worst, 0.0

    def diag() -> Tuple[float, float]:
        lams, G = gram()
        worst = 0.0
        for a, la in enumerate(lams):
            w = fam.norm(la)
            worst = max(worst, abs(G[a, a] - w) / max(1.0, abs(w)))
        return worst, 0.0

    _run_check(report, "orthogonality", "Gram off-diagonals vanish",
               tol_orth, off_diag)
    _run_check(report, "norms", "Gram diagonals = closed-form norms",
               tol_norm, diag)


def _suite_aw(cfg: SuiteConfig, report: CertificationReport) -> None:
    fam = _aw_family(cfg)
    p = fam.params
    _mass_check(report, "constant-term", "torus <1,1> = closed product",
                _tol(cfg, 1e-8), fam)

    p1 = AWParams(1, p.q, p.t, p.t0, p.t1, p.t2, p.t3)

    def n1_oracle() -> Tuple[float, float]:
        z = 0.9 * complex(math.cos(0.7), math.sin(0.7))
        dev = 0.0
        for (lam,), poly in aw_polynomials((4,), p1).items():
            got = poly.eval([z])
            want = aw1_oracle(lam, z, p1)
            dev = max(dev, abs(got - want) / max(1.0, abs(want)))
        return dev, 0.0

    _run_check(report, "n1-closed-form",
               "one-variable polynomial = terminating series closed form",
               _tol(cfg, 1e-10), n1_oracle)
    _gram_checks(report, fam, (int(cfg["lmax"]),) * p.n, _tol(cfg, 1e-8),
                 _tol(cfg, 1e-6))


def _residue_split(qp: QRacahParams, seed: int) -> float:
    """The largest relative distance of the residue weight
    Delta^(d)(nu) from K_r Delta^qR(nu), the chain constant times the
    per-label weight, over 20 random labels nu of length r <= n at
    t0 = 1.1. A label drawn again is weighed once and K_r is formed once
    per length; both are exact repeats, so the value, and the first error
    raised, are those of a loop over all 20 draws."""
    rng = random.Random(seed)
    pg = AWParams(qp.n, qp.q, qp.t, 1.1, -0.5, 0.35, 0.45)
    labels = {}  # the distinct labels in draw order
    for _ in range(20):
        r = rng.choice(range(1, qp.n + 1))
        labels[tuple(sorted(rng.randrange(5) for _ in range(r)))] = None
    K = {}
    worst = 0.0
    for nu in labels:
        lhs = multi_discrete_weight(nu, pg, 0)
        if len(nu) not in K:
            K[len(nu)] = kr_constant(len(nu), pg)
        rhs = K[len(nu)] * weight_qR(nu, pg)
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return worst


def _suite_qracah(cfg: SuiteConfig, report: CertificationReport) -> None:
    fam = _qracah_family(cfg)
    qp = fam.params
    _mass_check(report, "summation", "finite sum of weights = closed product",
                _tol(cfg, 1e-10), fam)
    _run_check(report, "residue-split",
               "discrete weight = chain constant times node weight",
               _tol(cfg, 1e-10),
               lambda: (_residue_split(qp, int(cfg["seed"])), 0.0))
    # the partitions mu <= (lmax, ..., lmax) with mu_1 <= N
    _gram_checks(report, fam, (min(int(cfg["lmax"]), qp.N),) * qp.n,
                 _tol(cfg, 1e-9), _tol(cfg, 1e-8))
    _run_check(report, "support-size",
               "number of admissible labels matches the binomial count",
               0.0,
               lambda: (float(len(support_qR(qp))),
                        float(math.comb(qp.N + qp.n, qp.n))))


def _suite_little(cfg: SuiteConfig, report: CertificationReport) -> None:
    fam = _little_family(cfg)
    _mass_check(report, "constant-term",
                "Jackson multisum <1,1> = closed product",
                _tol(cfg, 1e-8), fam)
    _gram_checks(report, fam, (int(cfg["lmax"]),) * fam.params.n,
                 _tol(cfg, 1e-8), _tol(cfg, 1e-6))


def _suite_big(cfg: SuiteConfig, report: CertificationReport) -> None:
    fam = _big_family(cfg)
    bp = fam.params

    def dual_form() -> Tuple[float, float]:
        rng = random.Random(int(cfg["seed"]))
        worst = 0.0
        for _ in range(10):
            q = rng.uniform(0.3, 0.7)
            t = rng.uniform(0.2, 0.8)
            c = rng.uniform(0.5, 1.5)
            d = rng.uniform(0.5, 1.5)
            a = rng.uniform(-0.9 * c / (d * q), 0.9 / q)
            b = rng.uniform(-0.9 * d / (c * q), 0.9 / q)
            rp = BigParams(bp.n, q, t, a, b, c, d)
            got = c_weights(rp)
            want = c_weights_defining(rp)
            for x, y in zip(got, want):
                worst = max(worst, abs(x - y) / max(abs(x), abs(y)))
        return worst, 0.0

    _run_check(report, "c-weight-dual-form",
               "split-weight theta form = base constant times Psi products",
               _tol(cfg, FORM_TOL), dual_form)
    _mass_check(report, "constant-term",
                "two-sided weighted multisum <1,1> = closed product",
                _tol(cfg, 1e-7), fam)

    def askey_evans() -> Tuple[float, float]:
        k = max(1, round(math.log(bp.t) / math.log(bp.q)))
        bk = BigParams(bp.n, bp.q, bp.q ** k, bp.a, bp.b, bp.c, bp.d)
        return askey_evans_lhs(bk), askey_evans_rhs(bk)

    def askey_evans_translated() -> Tuple[float, float]:
        k = max(1, round(math.log(bp.t) / math.log(bp.q)))
        bk = BigParams(bp.n, bp.q, bp.q ** k, bp.a, bp.b, bp.c, bp.d)
        return selberg_big_qk(bk), askey_evans_rhs(bk)

    _run_check(report, "askey-evans",
               "two-sided integral at integral exponent = closed product",
               _tol(cfg, 1e-7), askey_evans)
    _run_check(report, "askey-evans-translation",
               "general constant term reproduces the two-sided integral",
               _tol(cfg, 1e-7), askey_evans_translated)

    def asym() -> Tuple[float, float]:
        # the ratios tend to 1 like q^L: compare where q^L = tol / 1000
        L = math.ceil(math.log(_tol(cfg, 1e-5) / 1000) / math.log(bp.q))
        worst = 0.0
        for j in range(1, bp.n + 1):
            ratio = asymptotic_ratio(j, (0,) * (j - 1), (0,) * (bp.n - j),
                                     bp, L)
            worst = max(worst, abs(ratio - 1.0))
        return worst, 0.0

    _run_check(report, "asymptotic-match",
               "split-weight ratios balance where a chain coordinate "
               "crosses zero", _tol(cfg, 1e-5), asym)

    _gram_checks(report, fam, (int(cfg["lmax"]),) * bp.n, _tol(cfg, 1e-8),
                 _tol(cfg, 1e-6))


def _suite_limits(cfg: SuiteConfig, report: CertificationReport) -> None:
    lp = _little_family(cfg).params
    bp = _big_family(cfg).params
    kmax = int(cfg["kmax"])
    M = int(cfg["M"])
    lam = (1,) + (0,) * (lp.n - 1)

    # the coefficient check reads the tail half k = (kmax+1)//2 .. kmax
    # of the scan, the measure check its last step only
    tail_ks = range((kmax + 1) // 2, kmax + 1)

    def tail_ok(rows) -> float:
        # final deviation, provided the deviations decrease
        devs = [dev for _k, _e, dev in rows]
        if any(b >= a for a, b in zip(devs, devs[1:])):
            return float("inf")
        return devs[-1]

    for name, target, limit in (
            ("little", "the Jackson-side family", little_limit(lp)),
            ("big", "the two-sided family", big_limit(bp))):
        _run_check(report, f"{name}-coefficients",
                   f"rescaled coefficients converge to {target}",
                   _tol(cfg, 1e-4),
                   lambda: (tail_ok(limit_scan(limit, lam, tail_ks)), 0.0))
        _run_check(report, f"{name}-measure-constant",
                   "renormalized pairings converge with the expected "
                   "constant", _tol(cfg, 1e-3),
                   lambda: (measure_scan(
                       limit, lam, (0,) * lp.n,
                       (min(kmax, limit.measure_kmax),), M)[-1][2], 0.0))


def _suite_selberg(cfg: SuiteConfig, report: CertificationReport) -> None:
    aw = _aw_family(cfg)
    _mass_check(report, "torus", "torus constant term = closed product",
                _tol(cfg, 1e-8), aw)
    _mass_check(report, "finite-sum", "finite constant term = closed product",
                _tol(cfg, 1e-10), _qracah_family(cfg))
    _mass_check(report, "jackson", "multisum constant term = closed product",
                _tol(cfg, 1e-8), _little_family(cfg))
    _mass_check(report, "two-sided",
                "weighted multisum constant term = closed product",
                _tol(cfg, 1e-7), _big_family(cfg))

    p = aw.params
    one = LaurentPolynomial.constant(p.n)
    pd = AWParams(p.n, p.q, p.t, 1.1, p.t1, p.t2, p.t3)
    _run_check(report, "partially-discrete",
               "torus plus chain corrections constant term = closed product",
               _tol(cfg, 1e-6),
               lambda: (partial_bilinear(one, one, pd,
                                         int(cfg["M"]) * 2).value.real,
                        gustafson_constant(pd).real))


_SUITE_RUNNERS = {
    "aw": _suite_aw,
    "qracah": _suite_qracah,
    "little": _suite_little,
    "big": _suite_big,
    "limits": _suite_limits,
    "selberg": _suite_selberg,
}


def run_suite(cfg: SuiteConfig) -> CertificationReport:
    """Execute all checks of the configured suite."""
    echo = {k: cfg.values[k] for k in sorted(cfg.values)}
    report = CertificationReport(cfg.suite, echo)
    try:
        _SUITE_RUNNERS[cfg.suite](cfg, report)
    except BcorthoError as exc:
        raise ConfigError(
            f"suite {cfg.suite} rejected the configuration: {exc}") from exc
    report.checks.sort(key=lambda c: c.name)
    return report


def format_text(report: CertificationReport) -> str:
    """Fixed-width table rendering of a report."""
    lines = [f"suite: {report.suite}"]
    header = (f"{'check':28} {'lhs':>14} {'rhs':>14} {'rel_err':>10} "
              f"{'tol':>8} {'pass':>5} {'ms':>8}")
    lines.append(header)
    lines.append("-" * len(header))
    for c in report.checks:
        lines.append(
            f"{c.name:28} {c.lhs:14.6g} {c.rhs:14.6g} {c.rel_err:10.2e} "
            f"{c.tol:8.0e} {str(c.passed):>5} {c.ms:8.1f}")
    s = report.summary
    lines.append(f"summary: pass={s['pass']} fail={s['fail']}")
    return "\n".join(lines) + "\n"


def emit_report(report: CertificationReport, fmt: str,
                path: str | None) -> None:
    """Write the report as JSON or a fixed-width text table."""
    if fmt == "json":
        body = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    elif fmt == "text":
        body = format_text(report)
    else:
        raise ConfigError(f"format must be json or text, got {fmt!r}")
    if path is None:
        sys.stdout.write(body)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(body)
    except OSError as exc:
        raise IoError(f"cannot write report to {path}: {exc}") from exc


def _build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="bcortho",
        description="Numerical certification of orthogonality, norm and "
                    "constant-term identities for multivariable BC-type "
                    "basic hypergeometric polynomial families.")
    ap.add_argument("--config", help="flat key=value configuration file")
    ap.add_argument("--suite", choices=SUITES)
    for key in sorted(INT_KEYS):
        ap.add_argument(f"--{key}", type=int)
    for key in sorted(FLOAT_KEYS):
        ap.add_argument(f"--{key}", type=float)
    ap.add_argument("--out", help="report path (default: stdout)")
    ap.add_argument("--format", choices=("json", "text"), default="json")
    return ap


def main(argv: List[str] | None = None) -> int:
    args = _build_arg_parser().parse_args(argv)
    try:
        raw: Dict[str, str] = {}
        if args.config:
            raw.update(parse_config_file(args.config))
        for key in INT_KEYS | FLOAT_KEYS | {"suite"}:
            val = getattr(args, key, None)
            if val is not None:
                raw[key] = str(val)
        cfg = build_config(raw)
        report = run_suite(cfg)
        emit_report(report, args.format, args.out)
    except (ConfigError, IoError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if report.summary["fail"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
