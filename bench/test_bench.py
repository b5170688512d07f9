"""Tests of the benchmark itself: input generation, the checker, the worker.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import checker
import tracing
import workloads

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
from sl2cohom import cli  # noqa: E402

REFERENCES = json.loads((HERE / "references.json").read_text(encoding="utf-8"))


def profile(item: dict) -> tuple:
    """The properties a slot fixes, read off the generated input."""
    argv, expect = item["argv"], item["expect"]
    # class counts of written datums are only near the slot's target
    classes = tuple(f"{int(line.split()[1]):.0e}" for line in expect["lines"]
               if line.startswith("CCLASSES"))
    if argv[0] == "analyze-ff":
        q = int(argv[argv.index("--q") + 1])
        kind = argv[1]
        size = q if not workloads.is_prime(q) else len(str(q))
        elliptic = kind == "--curve" and argv[2] == "elliptic" and expect["rc"] == 0
        return (kind, expect["rc"], size if elliptic else 0)
    if argv[0] == "essential":
        return ("essential", expect["rc"], tuple(expect["lines"][:1]))
    if argv[0] == "verify":
        return ("verify",)
    rank = argv[argv.index("--unit-rank") + 1] if "--unit-rank" in argv else None
    fixture = argv[2] if argv[2] in workloads.FIXTURES else None
    return ("analyze-nf", expect["rc"], "--gate-n" in argv, "datum" in item, fixture, rank,
            classes)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_inputs_and_keeps_the_mix(workload):
    first = workloads.generate(workload, 7)
    assert workloads.generate(workload, 7) == first
    other = workloads.generate(workload, 8)
    assert [x["argv"] for x in other] != [x["argv"] for x in first]
    assert Counter(map(profile, other)) == Counter(map(profile, first))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_input_has_a_reference_or_is_a_rejection(workload):
    for item in workloads.universe(workload):
        assert item["expect"]["rc"] == 1 or item["key"] in REFERENCES[workload], item["key"]


def test_ff_inputs_use_each_field_once_per_pass():
    for seed in range(5):
        fields = [x["argv"][x["argv"].index("--q") + 1]
                  for x in workloads.generate("ff_elliptic", seed)
                  if "elliptic" in x["argv"] and x["expect"]["rc"] == 0]
        assert len(fields) == len(set(fields))


def run(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


SPLIT = ["analyze-nf", "--split-class-group", "6,6", "--unit-rank", "1", "--ell", "17"]


def split_item():
    for candidates in workloads.slots("nf_classes"):
        for item in candidates:
            if item["argv"] == SPLIT:
                return item
    raise AssertionError("the test input is no longer generated")


def test_checker_accepts_the_recorded_report():
    item = split_item()
    rc, text = run(SPLIT)
    assert checker.check(SPLIT, rc, text, item["expect"], REFERENCES["nf_classes"][item["key"]]) \
        == ("ok", "")


@pytest.mark.parametrize("corrupt", [
    lambda t: t.replace("KCLASSES\t20", "KCLASSES\t21"),
    lambda t: t.replace(",1\n", ",2\n", 1),
    lambda t: "".join(line for line in t.splitlines(True) if not line.startswith("COMPONENT\t3 ")),
    lambda t: t.replace("CHERN", "CHERN ", 1),
    lambda t: t + "ADVISORY\textra\n",
])
def test_checker_rejects_a_corrupted_report(corrupt):
    item = split_item()
    rc, text = run(SPLIT)
    bad = corrupt(text)
    assert bad != text
    status, _ = checker.check(SPLIT, rc, bad, item["expect"],
                              REFERENCES["nf_classes"][item["key"]])
    assert status == "failed"


def test_checker_accepts_reordered_components():
    item = split_item()
    rc, text = run(SPLIT)
    lines = text.splitlines()
    comps = [i for i, line in enumerate(lines) if line.startswith("COMPONENT\t")]
    frees = [i for i, line in enumerate(lines) if line.startswith("FREENESS\t")]
    order = list(range(1, len(comps))) + [0]
    reordered = list(lines)
    for new, old in enumerate(order):
        reordered[comps[new]] = lines[comps[old]].replace(f"\t{old} ", f"\t{new} ", 1)
        reordered[frees[new]] = lines[frees[old]].replace(f"component={old} ",
                                                          f"component={new} ", 1)
    shuffled = "\n".join(reordered) + "\n"
    assert shuffled != text
    assert checker.check(SPLIT, rc, shuffled, item["expect"],
                         REFERENCES["nf_classes"][item["key"]]) == ("ok", "")


def test_rejections_need_one_error_line():
    expect = {"rc": 1, "lines": [], "shapes": {}}
    argv = ["essential", "--ell", "3", "--rank", "7"]
    rc, text = run(argv)
    assert checker.check(argv, rc, text, expect, None) == ("rejected", "")
    assert checker.check(argv, rc, text + "ERROR\tagain\n", expect, None)[0] == "failed"
    assert checker.check(argv, 0, text, expect, None)[0] == "failed"


def test_traced_worker_counts_repeat(tmp_path):
    inputs = [dict(item, reference=REFERENCES["essential_ladder"].get(item["key"]))
              for item in workloads.slots("essential_ladder")[1]]  # essential --ell 2 --rank 2
    inputs += [dict(split_item(), reference=REFERENCES["nf_classes"][split_item()["key"]])]
    path = tmp_path / "inputs.json"
    path.write_text(json.dumps(inputs), encoding="utf-8")
    results = []
    for _ in range(2):
        out = subprocess.run([sys.executable, str(HERE / "worker.py"), str(path), "1"],
                             capture_output=True, text=True, check=True, timeout=120)
        p = json.loads(out.stdout)
        assert [r["status"] for r in p["reports"]] == ["ok", "ok"]
        results.append(tracing.pass_metrics(p["spans"], p["counts"], p["shapes"],
                                            p["components"], 0, p["report_bytes"]))
    first, second = results
    assert first["essential.subgroups"] == 3
    assert first["cli.main.calls"] == 2
    assert first["cohomengine.components"] == 20
    for name, unit in tracing.PER_LAYER:
        if unit == "count" and name in first:
            assert first[name] == second[name], name
    assert abs(sum(first[f"{layer}.self_share"] for layer in tracing.LAYERS) - 1) < 1e-9
