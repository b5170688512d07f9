"""Record reference digests for every input any seed can pick.

    python3 bench/record.py [WORKLOAD ...]

Runs each input of the named workloads (default: all) once, in process,
checks it against the facts the benchmark derives itself, and writes the
digest of its canonical form to ``bench/references.json``.  Run it only on
a commit whose reports are known good; the benchmark then holds every later
commit to those reports.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
from pathlib import Path

import checker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"


def record(workload: str, work: Path) -> dict[str, str]:
    from sl2cohom import cli

    digests = {}
    for item in workloads.universe(workload):
        argv = item["argv"]
        if "datum" in item:
            path = work / item["datum"]["name"]
            path.write_text(item["datum"]["text"], encoding="utf-8")
            argv = [str(path) if a == "@" + path.name else a for a in argv]
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        text = buf.getvalue()
        if item["expect"]["rc"] == 1:
            status, detail = checker.check(argv, rc, text, item["expect"], None)
        else:
            ref = checker.digest(checker.canonical(io.StringIO(text)))
            status, detail = checker.check(argv, rc, text, item["expect"], ref)
            digests[item["key"]] = ref
        if status == "failed":
            raise SystemExit(f"{workload}: {item['key']}: {detail}")
    return digests


def main(names: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    existing = json.loads(REFERENCES.read_text(encoding="utf-8")) if REFERENCES.exists() else {}
    work = ROOT / ".bench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        for name in names or workloads.WORKLOADS:
            existing[name] = record(name, work)
            print(f"{name}: {len(existing[name])} references")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    REFERENCES.write_text(json.dumps(existing, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
