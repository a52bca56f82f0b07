"""One timed bcortho CLI invocation, run in a fresh interpreter.

Usage: python3 child.py SRC REPORT TRACE [CLI ARGS...]

Imports ``bcortho.cli`` from SRC, calls ``main(args + ["--out", REPORT])``
and prints one JSON line on stdout with the perf_counter stamps after the
import, before ``main`` and after the report is written, the exit code,
the parsed report (null when none was written), the process's own peak
RSS and, with TRACE = 1, the tracer's counters and spans. perf_counter
reads CLOCK_MONOTONIC, so the parent can subtract its own spawn stamp
from ``t_imported``.

The speed of a shared machine drifts by up to a factor of two within
minutes, so the child also times a fixed pure-Python loop (``speed_probe``)
right after the import and again after the report is written; the parent
uses these to correct its times to a fixed machine speed.
"""

import json
import os
import sys
import time


def speed_probe() -> float:
    """Seconds taken by a fixed loop of complex arithmetic and dict stores,
    the operations the certifier's Python code spends its time on."""
    t0 = time.perf_counter()
    x, acc, table = 0.3 + 0.1j, 1.0, {}
    for i in range(200_000):
        acc *= 1.0 - x
        x *= 0.99999
        table[i & 255] = acc
        if abs(acc) < 1e-100:  # stay clear of slow subnormal arithmetic
            acc = 1.0
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """This process's own peak RSS. ru_maxrss is not used: a child spawned
    by vfork inherits the parent's high-water mark in it."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    src, report_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[4:]
    import bcortho.cli

    t_imported = time.perf_counter()
    where = os.path.dirname(os.path.realpath(bcortho.cli.__file__))
    if where != os.path.join(os.path.realpath(src), "bcortho"):
        print(f"bcortho was imported from {where}, not from {src}",
              file=sys.stderr)
        return 3
    probe_before = speed_probe()
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    t_run = time.perf_counter()
    try:
        code = bcortho.cli.main(cli_args + ["--out", report_path])
    except SystemExit as exc:  # argparse rejects its arguments this way
        code = exc.code if isinstance(exc.code, int) else 2
    t_done = time.perf_counter()
    probe_after = speed_probe()
    report = None
    if os.path.exists(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
        os.remove(report_path)
    print(json.dumps({
        "t_imported": t_imported,
        "t_run": t_run,
        "t_done": t_done,
        "probe": [probe_before, probe_after],
        "exit": code,
        "report": report,
        "maxrss_kb": peak_rss_kb(),
        "trace": tracer.dump() if tracer else None,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
