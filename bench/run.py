"""Benchmark runner: time the four sl2cohom CLI commands end to end.

    python3 bench/run.py --workload nf_classes --seed 1 --seconds 30 --trace 0

Generates the workload's inputs from the seed, measures set-up time in
fresh interpreters, then runs passes until the time is up.  A pass runs
every input once (closed loop, one client: each report starts when the
previous one returns) in fresh worker processes, and checks every report.
Prints each metric by name with its unit and sample count, and as the last
line one JSON object.  With ``--trace 1`` passes alternate between traced
and untraced, and the JSON holds the per-layer metrics of the traced
passes plus the tracing overhead; the spans (rescaled as below) are
written to ``.bench_work/spans-<workload>.jsonl``.

Times are rescaled to a reference host speed.  The host's CPUs are shared
with other machines' work, and identical runs a minute apart differ by up
to 40% in wall time.  Around every report the worker times a fixed loop,
the speed probe; a report's time is multiplied by REFERENCE_PROBE_S over
the probe's time next to it.  On an undisturbed host the factor is about 1;
the raw wall times are printed beside the rescaled ones.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
REFERENCES = HERE / "references.json"
# the speed probe's time on an undisturbed core of the recording host
# (Intel Xeon, Python 3.11)
REFERENCE_PROBE_S = 0.005
SETUP_PROBES = 9          # fresh interpreters timed for set-up, after one warm-up
RUN_LIMIT_S = 170         # a run must end within 180 s
MIN_REPORTS = 100         # each run holds at least this many timed reports

END_TO_END = (("pass_s", "s"), ("report_s_p50", "s"), ("report_s_p90", "s"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))


def worker(args: list[str], timeout: float) -> dict:
    proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout)


def shards(inputs: list[dict]) -> list[list[dict]]:
    """Split a pass so that no two reports in one process build the same
    finite field.  Elliptic inputs of a pass use distinct fields; every
    ``verify`` builds the fields up to 25, so each gets its own process."""
    out: list[list[dict]] = [[]]
    for item in inputs:
        if item["argv"][0] == "verify" and any(x["argv"][0] == "verify" for x in out[-1]):
            out.append([])
        out[-1].append(item)
    return out


def prepare(workload: str, seed: int, work: Path) -> tuple[list[Path], int]:
    """Write the datum files and each shard's input list; return their paths."""
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))[workload]
    inputs = workloads.generate(workload, seed)
    work.mkdir(parents=True)
    for item in inputs:
        if "datum" in item:
            path = work / item["datum"]["name"]
            path.write_text(item["datum"]["text"], encoding="utf-8")
            item["argv"] = [str(path) if a == "@" + path.name else a for a in item["argv"]]
        item["reference"] = references.get(item["key"])
    paths = []
    for i, part in enumerate(shards(inputs)):
        path = work / f"inputs-{i}.json"
        path.write_text(json.dumps(part), encoding="utf-8")
        paths.append(path)
    return paths, len(inputs)


def run_pass(paths: list[Path], trace: bool, budget_end: float) -> dict:
    """Run every shard of one pass and merge their results."""
    merged: dict = {"reports": [], "components": 0, "report_bytes": 0,
                    "peak_rss_kb": 0, "spans": [], "counts": {}, "shapes": 0}
    for path in paths:
        part = worker([str(path), "1" if trace else "0"], budget_end - time.perf_counter())
        offset_reports, offset_spans = len(merged["reports"]), len(merged["spans"])
        merged["reports"] += part["reports"]
        merged["components"] += part["components"]
        merged["report_bytes"] += part["report_bytes"]
        merged["peak_rss_kb"] = max(merged["peak_rss_kb"], part["peak_rss_kb"])
        for name, variant, report, parent, start, end in part.get("spans", ()):
            merged["spans"].append([name, variant, report + offset_reports,
                                    parent + offset_spans if parent >= 0 else -1, start, end])
        for key, value in part.get("counts", {}).items():
            merged["counts"][key] = merged["counts"].get(key, 0) + value
        merged["shapes"] += part.get("shapes", 0)
    factors = [REFERENCE_PROBE_S / r["probe_s"] for r in merged["reports"]]
    for r, factor in zip(merged["reports"], factors):
        r["t"] = r["s"] * factor
    for span in merged["spans"]:
        span[4] *= factors[span[2]]
        span[5] *= factors[span[2]]
    return merged


def quantile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sl2cohom" / "cli.py").is_file():
        print(f"no sl2cohom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    budget_end = time.perf_counter() + RUN_LIMIT_S
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    try:
        paths, per_pass = prepare(args.workload, args.seed, work)
        probes = [worker(["--setup-only"], RUN_LIMIT_S) for _ in range(SETUP_PROBES + 1)][1:]
        setup = [p["setup_s"] * REFERENCE_PROBE_S / p["probe_s"] for p in probes]
        raw_setup = [p["setup_s"] for p in probes]
        passes, traced = [], []
        deadline = time.perf_counter() + args.seconds
        walls: list[float] = []
        while True:
            now = time.perf_counter()
            need_more = len(passes) + len(traced) < (2 if args.trace else 1)
            if not need_more and now + statistics.median(walls) > deadline:
                break
            trace = args.trace == 1 and len(traced) <= len(passes)
            try:
                result = run_pass(paths, trace, budget_end)
            except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
                result = {"error": str(exc)}
            walls.append(time.perf_counter() - now)
            (traced if trace else passes).append(result)
            if budget_end - time.perf_counter() < 2 * walls[-1]:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return report(args, per_pass, setup, raw_setup, passes, traced)


def report(args, per_pass: int, setup: list[float], raw_setup: list[float],
           passes: list[dict], traced: list[dict]) -> int:
    attempted = failed = rejected = 0
    for result in passes + traced:
        attempted += per_pass
        if "error" in result:
            failed += per_pass
            print(f"FAILED pass: {result['error']}")
            continue
        for r in result["reports"]:
            rejected += r["status"] == "rejected"
            if r["status"] == "failed":
                failed += 1
                print(f"FAILED {r['key']}: {r['detail']}")
    good = [p for p in passes if "error" not in p]
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes of {per_pass} "
          f"reports, {len(traced)} traced passes; {attempted} reports attempted, "
          f"{rejected} rejected as expected, {failed} failed")
    if not good or (args.trace and not any("error" not in p for p in traced)):
        print("no complete pass to report", file=sys.stderr)
        return 1
    times = [r["t"] for p in good for r in p["reports"]]
    raw = [r["s"] for p in good for r in p["reports"]]
    pass_times = [sum(r["t"] for r in p["reports"]) for p in good]
    values = {
        "pass_s": statistics.median(pass_times),
        "report_s_p50": statistics.median(times),
        "report_s_p90": quantile90(times),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in good) / 1024,
    }
    raw_values = {
        "pass_s": statistics.median(sum(r["s"] for r in p["reports"]) for p in good),
        "report_s_p50": statistics.median(raw),
        "report_s_p90": quantile90(raw),
        "setup_s": statistics.median(raw_setup),
    }
    samples = {"pass_s": f"median of {len(pass_times)} passes",
               "report_s_p50": f"of {len(times)} reports",
               "report_s_p90": f"of {len(times)} reports",
               "setup_s": f"median of {len(setup)} fresh interpreters",
               "peak_rss_mb": f"median of {len(good)} passes, largest worker"}
    for name, unit in END_TO_END:
        wall = f"; raw wall {raw_values[name]:.6f} s" if name in raw_values else ""
        print(f"{name:<14} {values[name]:12.6f} {unit:<5} {samples[name]}{wall}")
    print(f"{'failed_frac':<14} {failed / attempted:12.6f} ratio {failed} of {attempted}")
    if not args.trace and len(times) < MIN_REPORTS:
        print(f"warning: {len(times)} timed reports, fewer than {MIN_REPORTS}")

    if args.trace:
        metrics = traced_metrics(args.workload, traced, values["pass_s"])
    else:
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def traced_metrics(workload: str, traced: list[dict], untraced_pass_s: float) -> dict:
    good = [p for p in traced if "error" not in p]
    per_pass = []
    spans_out = ROOT / ".bench_work" / f"spans-{workload}.jsonl"
    with spans_out.open("w", encoding="utf-8") as f:
        for k, p in enumerate(good):
            for name, variant, report, parent, start, end in p["spans"]:
                f.write(json.dumps({"pass": k, "report": report, "name": name,
                                    "variant": variant, "parent": parent,
                                    "start": start, "end": end}) + "\n")
            rejected = sum(r["status"] == "rejected" for r in p["reports"])
            per_pass.append(tracing.pass_metrics(p["spans"], p["counts"], p["shapes"],
                                                 p["components"], rejected,
                                                 p["report_bytes"]))
    traced_pass_s = statistics.median(sum(r["t"] for r in p["reports"]) for p in good)
    metrics = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.overhead":
            value = traced_pass_s / untraced_pass_s
        else:
            value = statistics.median(m[name] for m in per_pass)
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<52} {value:14.6f} {unit}")
    print(f"tracing overhead: traced pass_s {traced_pass_s:.4f} s / untraced pass_s "
          f"{untraced_pass_s:.4f} s; spans in {spans_out.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())
