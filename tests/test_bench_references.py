"""Every benchmark input's report against its recorded reference.

``bench/references.json`` holds, per workload, the digest of the canonical
form of each report that any seed can pick, and ``bench/run.py`` checks
every pass against it.  This runs each of those inputs once, in process
and in machine mode, and checks it with the benchmark's own checker, so a
changed report fails here and not only in a benchmark run.
"""

import contextlib
import importlib.util
import io
import json
from pathlib import Path

import pytest

from sl2cohom import cli

BENCH = Path(__file__).resolve().parent.parent / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


checker = load_bench("checker")
workloads = load_bench("workloads")
REFERENCES = json.loads((BENCH / "references.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_input_matches_its_reference(tmp_path, workload):
    statuses, failed = [], []
    for item in workloads.universe(workload):
        argv = item["argv"]
        if "datum" in item:
            # written and named as bench/run.py writes them
            path = tmp_path / item["datum"]["name"]
            path.write_text(item["datum"]["text"], encoding="utf-8")
            argv = [str(path) if a == "@" + path.name else a for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        status, detail = checker.check(argv, rc, buf.getvalue(), item["expect"],
                                       REFERENCES[workload].get(item["key"]))
        statuses.append(status)
        if status == "failed":
            failed.append(f"{item['key']}: {detail}")
    assert not failed, failed
    assert "ok" in statuses
