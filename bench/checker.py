"""Check a captured report against derived facts and a recorded reference.

A report is reduced to an order-insensitive canonical form: comment lines
of human mode are dropped, component indices are removed from COMPONENT and
FREENESS lines, and the remaining lines are counted.  Component order is
not part of the contract the benchmark pins, so a report whose components
are renumbered or reordered has the same canonical form.
"""

from __future__ import annotations

import hashlib
import io
import re
from collections import Counter

_INDEX = re.compile(r"^(COMPONENT\t)\d+ |^(FREENESS\t)component=\d+ ")
HUMAN_TITLES = {"analyze-nf": "# analyze-nf report", "analyze-ff": "# analyze-ff report",
                "essential": "# essential report", "verify": "# verification report"}


def canonical(lines) -> Counter:
    """Multiset of report lines without comments and component indices."""
    out: Counter = Counter()
    for line in lines:
        line = line.rstrip("\n")
        if line.startswith("#"):
            continue
        out[_INDEX.sub(lambda m: m.group(1) or m.group(2), line, count=1)] += 1
    return out


def digest(form: Counter) -> str:
    text = "\n".join(f"{count}\t{line}" for line, count in sorted(form.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def check(argv, rc, text: str, expect: dict, reference: str | None) -> tuple[str, str]:
    """Classify one report as ("ok" | "rejected" | "failed", detail).

    An expected rejection must exit 1 with a single ERROR line.  Any other
    report must exit as expected, carry every derived line and shape count,
    keep the human-mode frame when asked for, and match the reference.
    """
    if rc != expect["rc"]:
        return "failed", f"exit code {rc}, expected {expect['rc']}"
    if expect["rc"] == 1:
        if text.startswith("ERROR\t") and text.count("\n") == 1 and text.endswith("\n"):
            return "rejected", ""
        return "failed", "a rejection must print exactly one ERROR line"
    if "--mode" in argv and argv[argv.index("--mode") + 1] == "human":
        first, _, rest = text.partition("\n")
        if first != HUMAN_TITLES[argv[0]] or not rest.endswith("\n# end of report\n"):
            return "failed", "human-mode frame missing"
    # iterate rather than split: a report can hold 10^4 lines, and the
    # worker's peak memory is a metric
    form = canonical(io.StringIO(text))
    for line in expect["lines"]:
        if form[line] != 1:
            return "failed", f"expected exactly one line {line!r}"
    shapes = Counter()
    for line, count in form.items():
        if line.startswith("COMPONENT\t"):
            shapes[line.split()[1].removeprefix("shape=")] += count
    for shape, count in expect["shapes"].items():
        if shapes[shape] != count:
            return "failed", f"{shapes[shape]} {shape} components, expected {count}"
    if reference is None:
        return "failed", "no recorded reference for this input"
    if digest(form) != reference:
        return "failed", "canonical form differs from the recorded reference"
    return "ok", ""
