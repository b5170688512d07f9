"""One shard of a benchmark pass in a fresh interpreter.

    python3 bench/worker.py INPUTS.json TRACE     # TRACE is 0 or 1
    python3 bench/worker.py --setup-only

Imports ``sl2cohom`` from the checkout's ``src/`` and times that import
plus building the argument parser (the set-up every CLI call pays).  Then
runs each input through ``sl2cohom.cli.main(argv)`` in process with stdout
captured, one after the other, times each call, checks each report, and
prints one JSON object.  A fresh process keeps any table built by one
report (the finite-field cache) from serving a report of another shard or
pass.

Before the first report and after every report it also times a fixed
pure-Python loop, the speed probe.  The host's CPUs are shared, and its
speed swings by tens of percent within seconds; the probe times let the
runner (run.py) rescale each report to a fixed reference speed.
"""

import os
import sys
import time

_start = time.perf_counter()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
from sl2cohom import cli  # noqa: E402

cli.build_parser()
SETUP_S = time.perf_counter() - _start

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import checker  # noqa: E402
import tracing  # noqa: E402

PROBE_ROUNDS = 12000


def speed_probe() -> float:
    """Seconds taken by a fixed loop of tuple, dict, integer and string work,
    the operations the program spends its time on."""
    start = time.perf_counter()
    table: dict = {}
    for i in range(PROBE_ROUNDS):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + i * 3
        label = f"{i}:{key[0]}"
    del label
    return time.perf_counter() - start


def run_pass(inputs: list[dict], trace: bool) -> dict:
    recorder = None
    if trace:
        recorder = tracing.Recorder()
        tracing.install(recorder)
    reports = []
    components = report_bytes = 0
    probes = [speed_probe()]
    for i, item in enumerate(inputs):
        argv = item["argv"]
        if recorder is not None:
            recorder.report = i
        gc.collect()
        buf = io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except (Exception, SystemExit) as exc:  # the run goes on; the report fails
            rc = None
            error = traceback.format_exception_only(exc)[-1].strip()
        elapsed = time.perf_counter() - start
        probes.append(speed_probe())
        text = buf.getvalue()
        buf.close()
        if error is None:
            status, detail = checker.check(argv, rc, text, item["expect"], item["reference"])
        else:
            status, detail = "failed", f"exception escaped cli.main: {error}"
        components += text.count("\nCOMPONENT\t") + text.startswith("COMPONENT\t")
        report_bytes += len(text.encode())
        del text
        reports.append({"key": item["key"], "s": elapsed, "probe_s": (probes[-2] + probes[-1]) / 2,
                        "status": status, "detail": detail})
    out = {"reports": reports, "components": components,
           "report_bytes": report_bytes,
           "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
    if recorder is not None:
        out.update(spans=recorder.spans, counts=dict(recorder.counts),
                   shapes=len(recorder.shapes))
    return out


def main(argv: list[str]) -> int:
    loaded_from = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if loaded_from != SRC:
        print(f"sl2cohom was imported from {loaded_from}, not {SRC}", file=sys.stderr)
        return 2
    if argv == ["--setup-only"]:
        result = {"setup_s": SETUP_S, "probe_s": sorted(speed_probe() for _ in range(5))[2]}
    else:
        with open(argv[0], encoding="utf-8") as f:
            inputs = json.load(f)
        result = run_pass(inputs, argv[1] == "1")
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
