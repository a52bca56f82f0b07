"""Self-test of the benchmark; takes a few seconds.

Usage (from the root of a checkout): python3 perfbench/selftest.py

Runs one pass of `bcortho --suite qracah` plus `--suite qracah --tol -1`,
which exits 2, untraced and traced, and checks that every metric named in
BENCHMARK.json is printed with its unit, that the exit-2 invocation is
counted in pass_frac, that a newly failing check and a newly passing one
are both caught, and that the benchmark refuses to run without sources.
Exits 1 and lists what failed, or prints "selftest: ok".
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from tracer import PER_LAYER

QRACAH = ("--suite", "qracah")
SELFTEST = (run.Invocation(QRACAH),
            run.Invocation(QRACAH + ("--tol", "-1"), bad_config=True))


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures = []

    def expect(cond: bool, what: str) -> None:
        if not cond:
            failures.append(what)

    expect([(m["name"], m["unit"]) for m in bench["end_to_end"]]
           == run.END_TO_END, "BENCHMARK.json end_to_end != run.END_TO_END")
    expect([(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
           == PER_LAYER, "BENCHMARK.json per_layer != tracer.PER_LAYER")
    expect(sorted(w["name"] for w in bench["workloads"])
           == sorted(run.WORKLOADS), "BENCHMARK.json workloads differ")

    for trace, declared in ((False, bench["end_to_end"]),
                            (True, bench["per_layer"])):
        lines, result = run.measure(SELFTEST, 0, 0, trace, "selftest")
        printed = "\n".join(lines)
        metrics = result["metrics"]
        expect(set(metrics) == {m["name"] for m in declared},
               f"trace {int(trace)}: metric set differs from BENCHMARK.json")
        for m in declared:
            expect(metrics.get(m["name"], {}).get("unit") == m["unit"],
                   f"{m['name']}: unit missing from the result")
            expect(re.search(rf"^{re.escape(m['name'])}\s+\S+\s+"
                             rf"{re.escape(m['unit'])}\b", printed, re.M),
                   f"{m['name']}: not printed with its unit")
        expect(result["correct"] and result["failed"] == 0,
               f"trace {int(trace)}: expected verdicts reported as faults")
        if not trace:
            # five passing checks plus the exit-2 invocation
            expect(metrics["pass_frac"]["value"] == 5 / 6,
                   "the exit-2 invocation is not counted in pass_frac")
            expect(result["attempted"] == 2, "attempted != 2 invocations")
        else:
            expect(metrics["qracah.bilinear_calls"]["value"] > 0
                   and metrics["qseries.scalar_calls"]["value"] > 0,
                   "traced counters read zero")

    lines, result = run.measure(
        (run.Invocation(QRACAH, frozenset({"norms"})),
         run.Invocation(QRACAH + ("--tol", "1e-30"))), 0, 0, False,
        "selftest")
    expect(any(line.startswith("FIXED") and "norms" in line
               for line in lines), "a newly passing check is not reported")
    expect(not result["correct"] and result["failed"] == 1,
           "newly failing checks are not faults, or a fixed one is")

    with tempfile.TemporaryDirectory(
            dir=run.ROOT / ".bench_build" / "perfbench") as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", "torus",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60)
        expect(proc.returncode != 0 and "correct" not in proc.stdout,
               "the benchmark ran without bcortho sources")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
