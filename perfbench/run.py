"""Benchmark of the bcortho certification CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload discrete --seed 1 --seconds 40 --trace 0

A workload is a fixed list of CLI invocations. One pass runs them one
after another, each in a fresh interpreter (perfbench/child.py), so module
caches start empty as they do for a CLI user: a closed loop with one
client and nothing in parallel. Passes repeat until the time given by
--seconds is used; the seed is passed to every invocation as --seed.

--trace 0 reports the end-to-end metrics, as medians over passes:

    run_s         sum over a pass of the time from after `import bcortho.cli`
                  until the report is written, speed-corrected (below)
    setup_s       sum over a pass of interpreter start plus that import,
                  speed-corrected
    peak_rss_mb   largest peak RSS of one invocation in the pass
    pass_frac     passing checks / (checks + invocations exiting 2)
    margin_dec    min over passing checks with tol > 0 of
                  log10(tol / max(rel_err, 1e-17)): how many decades the
                  tightest certificate is from failing

The speed of the shared machine this was tuned on drifts by up to a factor
of two within minutes. Each child times a fixed Python loop after its
import and after its report (child.speed_probe); run_s and setup_s are the
wall times scaled by PROBE_S / probe. The raw wall times are printed too.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of perfbench/tracer.py (medians over traced passes) plus
trace_overhead = traced run_s / untraced run_s - 1. The spans of the last
traced pass are written to .bench_build/perfbench/.

Every report is checked: exit code, schema, pass == (rel_err <= tol), the
seed echo, and each check's verdict against the verdicts recorded at the
seed commit (WORKLOADS below). A check that newly fails, or any other
fault, fails the invocation and makes the result incorrect; a known
failure that passes (FIXED) and a seed-dependent one that fails (KNOWN)
are reported. The last stdout line is one JSON object with
keys correct, attempted (invocations run), failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence

from tracer import PER_LAYER, layer_metrics, layer_self_s, merge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
BUDGET_S = 170.0  # the whole run, child timeouts included
# Duration of child.speed_probe at the nominal machine speed: roughly its
# median on the 2-vCPU Xeon (2.0 GHz) virtual machine the benchmark was
# tuned on, so that corrected times read close to wall times there.
PROBE_S = 0.075


@dataclass(frozen=True)
class Invocation:
    """CLI arguments (without --seed/--out) and the verdicts recorded for
    them at the seed commit: checks that fail at every seed tried, checks
    whose verdict depends on the seed, or a bad configuration that must
    exit 2 without a report."""

    argv: tuple
    fails: frozenset = frozenset()
    seed_dependent: frozenset = frozenset()
    bad_config: bool = False


WORKLOADS: Dict[str, tuple] = {
    # Jackson multisums and finite sums: scalar q-series kernel, node
    # weights and LaurentPolynomial.eval; the torus grids are idle
    "discrete": (
        Invocation(("--suite", "big")),
        Invocation(("--suite", "little")),
        Invocation(("--suite", "qracah")),
        Invocation(("--suite", "little", "--q", "0.9"),
                   frozenset({"orthogonality"})),
        # residue-split draws 20 random chains; for about 93% of seeds one
        # hits a pole and the check reports NaN
        Invocation(("--suite", "qracah", "--n", "3", "--N", "3"),
                   frozenset({"orthogonality"}), frozenset({"residue-split"})),
    ),
    # many pairings against one cached torus measure per invocation:
    # eval_grid and __mul__; the scalar kernel and Jackson sums are idle
    "torus": (
        Invocation(("--suite", "aw", "--n", "3", "--lmax", "1", "--M", "64")),
        Invocation(("--suite", "aw", "--lmax", "4")),
        Invocation(("--suite", "aw")),
    ),
    # a fresh measure for one or two pairings per step: measure builds,
    # op_matrix per epsilon, and the n = 3 grids that set peak memory
    "scan": (
        # for about 5% of seeds (7, 24, 59 of 0-59) the sampled op_matrix
        # noise makes the tail of the big q-Jacobi scan non-monotone
        Invocation(("--suite", "limits"), seed_dependent=frozenset(
            {"big-coefficients"})),
        Invocation(("--suite", "selberg")),
        Invocation(("--suite", "selberg", "--n", "3")),
    ),
}

# (name, unit) of every end-to-end metric, in report order
END_TO_END = [("run_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"),
              ("pass_frac", "ratio"), ("margin_dec", "decades")]
CHECK_KEYS = ("name", "anchor", "lhs", "rhs", "abs_err", "rel_err", "tol",
              "pass", "ms")


class BenchError(Exception):
    """The benchmark itself cannot run (as opposed to a program fault)."""


def check_invocation(inv: Invocation, res: dict, seed: int) -> tuple:
    """(problems, notes): faults that fail the invocation, and (tag, text)
    notes on known failures that pass or seed-dependent ones that fail."""
    report = res["report"]
    if inv.bad_config:
        if res["exit"] != 2 or report is not None:
            return [f"bad configuration exited {res['exit']}"
                    + (" with a report" if report is not None else "")], []
        return [], []
    if report is None:
        return [f"exit {res['exit']} without a report"], []
    problems: List[str] = []
    suite = inv.argv[inv.argv.index("--suite") + 1]
    if report.get("suite") != suite:
        problems.append(f"report suite {report.get('suite')!r}")
    if report.get("config_echo", {}).get("seed") != seed:
        problems.append("report does not echo the seed")
    checks = report.get("checks", [])
    if any(not set(CHECK_KEYS) <= set(c) for c in checks):
        return problems + ["check record lacks a schema key"], []
    npass = sum(c["pass"] is True for c in checks)
    summary = report.get("summary", {})
    if (summary.get("pass"), summary.get("fail")) != (npass,
                                                      len(checks) - npass):
        problems.append("summary does not match the checks")
    if res["exit"] != (0 if npass == len(checks) else 1):
        problems.append(f"exit {res['exit']} does not match the verdicts")
    notes = []
    for c in checks:
        name = c["name"]
        if c["pass"] != (c["rel_err"] <= c["tol"]):
            problems.append(f"{name}: pass flag disagrees with rel_err")
        if name in inv.seed_dependent:
            if not c["pass"]:
                notes.append(("KNOWN", f"{name} fails at this seed"))
        elif not c["pass"] and name not in inv.fails:
            problems.append(f"{name}: newly fails, rel_err "
                            f"{c['rel_err']:.3g} tol {c['tol']:.0e}")
        elif c["pass"] and name in inv.fails:
            notes.append(("FIXED", f"{name} now passes"))
    missing = (inv.fails | inv.seed_dependent) - {c["name"] for c in checks}
    if missing:
        problems.append(f"expected checks missing: {sorted(missing)}")
    return problems, notes


def run_child(inv: Invocation, seed: int, trace: bool, work: Path,
              deadline: float) -> tuple:
    """Run one invocation in a fresh interpreter; (spawn stamp, result)."""
    argv = [*inv.argv, "--seed", str(seed)]
    cmd = [sys.executable, str(CHILD), str(ROOT / "src"),
           str(work / "report.json"), str(int(trace)), *argv]
    # bytecode is cached after the warm-up, as for an installed copy,
    # whatever the caller's environment says
    env = {k: v for k, v in os.environ.items()
           if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(ROOT / "src")
    timeout = max(1.0, deadline - time.perf_counter())
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env=env, cwd=str(work), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"bcortho {' '.join(argv)} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchError(f"child for bcortho {' '.join(argv)} exited "
                         f"{proc.returncode}")
    return t_spawn, json.loads(proc.stdout.splitlines()[-1])


def run_pass(invocations: Sequence[Invocation], seed: int, trace: bool,
             work: Path, deadline: float, log: List[str]) -> dict:
    """One pass: every invocation once, in order."""
    run_s = setup_s = wall_run_s = wall_setup_s = check_ms = 0.0
    rss_kb = 0
    nchecks = npass = failed = 0
    margins: List[float] = []
    probes: List[float] = []
    dumps: List[dict] = []
    for inv in invocations:
        t_spawn, res = run_child(inv, seed, trace, work, deadline)
        before, after = res["probe"]
        probes += res["probe"]
        wall_setup_s += res["t_imported"] - t_spawn
        wall_run_s += res["t_done"] - res["t_run"]
        setup_s += (res["t_imported"] - t_spawn) * PROBE_S / before
        run_s += (res["t_done"] - res["t_run"]) * 2 * PROBE_S / (before + after)
        rss_kb = max(rss_kb, res["maxrss_kb"])
        problems, notes = check_invocation(inv, res, seed)
        label = "bcortho " + " ".join(inv.argv)
        log += [f"FAULT {label}: {p}" for p in problems]
        log += [f"{tag} {label}: {text}" for tag, text in notes]
        failed += bool(problems)
        checks = (res["report"] or {}).get("checks", [])
        nchecks += len(checks) + (res["exit"] == 2)
        for c in checks:
            check_ms += c["ms"]
            if c["pass"]:
                npass += 1
                if c["tol"] > 0:
                    margins.append(math.log10(
                        c["tol"] / max(c["rel_err"], 1e-17)))
        if res["trace"] is not None:
            dumps.append(res["trace"])
    return {"run_s": run_s, "setup_s": setup_s, "wall_run_s": wall_run_s,
            "wall_setup_s": wall_setup_s, "peak_rss_mb": rss_kb / 1024,
            "pass_frac": npass / nchecks if nchecks else 0.0,
            "margin_dec": min(margins, default=0.0), "check_ms": check_ms,
            "invocations": len(invocations), "failed": failed, "dumps": dumps,
            "probes": probes}


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def measure(invocations: Sequence[Invocation], seed: int, seconds: float,
            trace: bool, label: str) -> tuple:
    """Run passes for `seconds`; return (output lines, result object)."""
    if not (ROOT / "src" / "bcortho" / "cli.py").is_file():
        raise BenchError(f"no bcortho sources under {ROOT / 'src'}")
    t0 = time.perf_counter()
    deadline = t0 + BUDGET_S
    build = ROOT / ".bench_build" / "perfbench"
    build.mkdir(parents=True, exist_ok=True)
    log: List[str] = []
    plain: List[dict] = []
    traced: List[dict] = []
    with tempfile.TemporaryDirectory(dir=build) as tmp:
        work = Path(tmp)
        # untimed warm-up: byte-compiles the sources once, as an installed
        # copy would have, and loads numpy into the page cache
        run_child(Invocation(("--suite", "qracah", "--lmax", "0")), seed,
                  False, work, deadline)
        while True:
            kind = traced if trace and len(traced) < len(plain) else plain
            done = [p["wall"] for p in plain + traced]
            elapsed = time.perf_counter() - t0
            if plain and (not trace or traced) and (
                    elapsed + statistics.median(done) > seconds):
                break
            start = time.perf_counter()
            p = run_pass(invocations, seed, kind is traced, work, deadline,
                         log)
            p["wall"] = time.perf_counter() - start
            kind.append(p)
    lines = [f"workload {label}, seed {seed}: {len(plain)} untraced"
             + (f" and {len(traced)} traced" if trace else "")
             + f" passes of {len(invocations)} invocations"]
    lines += dict.fromkeys(log)  # each message once, in order
    probes = [x for p in plain + traced for x in p["probes"]]
    lines.append(f"speed probe: median {statistics.median(probes):.4g} s of "
                 f"{len(probes)}, nominal {PROBE_S} s; run_s and setup_s are "
                 f"wall times scaled by nominal / probe")
    metrics: Dict[str, dict] = {}
    if not trace:
        for name, unit in END_TO_END + [("wall_run_s", "s"),
                                        ("wall_setup_s", "s")]:
            vals = [p[name] for p in plain]
            q1, q3 = quartiles(vals)
            med = statistics.median(vals)
            lines.append(f"{name:14} {med:12.6g} {unit:8} "
                         f"q1 {q1:.6g} q3 {q3:.6g} n {len(vals)}")
            if not name.startswith("wall_"):
                metrics[name] = {"value": med, "unit": unit}
        # the same two figures in the form lower-is-better readers expect
        lines.append(f"fail_frac {1 - metrics['pass_frac']['value']:.6g} "
                     f"ratio (= 1 - pass_frac)")
        lines.append(f"worst_err_log10 {-metrics['margin_dec']['value']:.6g}"
                     f" decades (= -margin_dec)")
    else:
        metrics = trace_metrics(plain, traced, lines, label, seed, build)
    passes = plain + traced
    attempted = sum(p["invocations"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    return lines, result


def trace_metrics(plain: List[dict], traced: List[dict], lines: List[str],
                  label: str, seed: int, build: Path) -> Dict[str, dict]:
    """Per-layer metrics: medians over traced passes, plus trace_overhead."""
    per_pass = []
    for p in traced:
        merged = merge(p["dumps"])
        per_pass.append((merged, layer_metrics(merged, p["wall_run_s"],
                                               p["check_ms"])))
    untraced = statistics.median(p["run_s"] for p in plain)
    overhead = statistics.median(p["run_s"] for p in traced) / untraced - 1
    metrics: Dict[str, dict] = {}
    for name, unit, _better in PER_LAYER:
        if name == "trace_overhead":
            value = overhead
        else:
            value = statistics.median(m[name] for _merged, m in per_pass)
        metrics[name] = {"value": value, "unit": unit}
        lines.append(f"{name:32} {value:14.6g} {unit}")

    merged, _ = per_pass[-1]
    last = traced[-1]
    shares = layer_self_s(merged)
    total = sum(shares.values())
    lines.append("layer self-time shares of the last traced pass: " + ", ".join(
        f"{k} {v / total:.1%}" for k, v in
        sorted(shares.items(), key=lambda kv: -kv[1])))
    dumps = last["dumps"]
    zero = [name for name, unit, _b in PER_LAYER
            if unit == "count" and metrics[name]["value"] == 0]
    lines.append(
        f"trace check: {dumps[0]['wrapped']} functions wrapped, "
        f"{dumps[0]['rebound']} module bindings rebound, none left untraced; "
        f"qseries.scalar_calls {metrics['qseries.scalar_calls']['value']:.0f}"
        f", bcpoly.eval_calls {metrics['bcpoly.eval_calls']['value']:.0f}"
        f"; zero on this workload: {', '.join(zero) or 'none'}")
    spans_path = build / f"spans-{label}-seed{seed}.json"
    spans_path.write_text(json.dumps(
        [{"invocation": i, "spans": d["spans"]} for i, d in enumerate(dumps)]))
    lines.append(f"spans: {sum(len(d['spans']) for d in dumps)} in "
                 f"{spans_path.relative_to(ROOT)}")
    return metrics


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        lines, result = measure(WORKLOADS[args.workload], args.seed % 2 ** 32,
                                args.seconds, bool(args.trace), args.workload)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
