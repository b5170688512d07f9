"""The report grammar of README.md as a table: each line key and the form
of its value.  ``tests/test_golden.py`` checks every ``.out`` golden
against it, and ``tests/test_property.py`` every report it provokes.
``report_lines`` reads the items of the ``machine_lines_*`` functions
as lines."""

import re
from pathlib import Path

_N = r"\d+"
_INT = r"-?\d+"
_BOOL = r"(?:true|false)"
_WORD = r"[A-Za-z0-9_]+"
_DIMS = rf"dims\[-4\.\.{_N}\]={_N}(?:,{_N})*"
_MONOMIAL = r"(?:\d+\*)?[xy]\d+(?:\^\d+)?(?:\*[xy]\d+(?:\^\d+)?)*"
_HYPOTHESES = ("ell_prime", "n_less_than_ell", "zeta_ell_in_K", "S_contains_infinite_places",
               "S_contains_places_over_ell", "detection_on_finite_subgroups")
# the violated hypotheses: at least one, each at most once, in the order above,
# comma-separated (a name follows the '=' or a comma that does not)
_VIOLATED = "(?=[A-Za-z])" + "".join(rf"(?:(?:(?<==)|(?<!=),){name})?" for name in _HYPOTHESES)

VALUES = {
    "NONVANISHING": r"holds|fails",
    "CCLASSES": _N,
    "KCLASSES": _N,
    "COMPONENT": rf"{_N} shape=(?:(?:Invariant|NonInvariant) d|(?:MonomialFF|UnitsFF) r)"
                 rf"={_N} {_DIMS}",
    "FREENESS": rf"component={_N} basis_degrees={_INT}:{_N}(?:,{_INT}:{_N})* "
                rf"base=(?:laurent|polynomial) verified_up_to={_N}",
    "CHERN": rf"restriction=sum_of_squared_degree2_generators non_zero_divisor={_BOOL}",
    "DETECTION": rf"fails witness_degree={_INT}"
                 rf"|inconclusive note=(?:no_rank_excess_up_to_degree_{_N}|empty_decomposition)",
    "GATE": rf"inconclusive violated=|fails violated={_VIOLATED}",
    "ADVISORY": rf"{_WORD}(?:={_WORD})?(?: {_WORD}(?:={_WORD})?)*",
    "ESSENTIAL": rf"ell={_N} rank={_N} degree={_N} nonzero={_BOOL}",
    "PRODUCT": rf"0|{_MONOMIAL}(?: \+ {_MONOMIAL})*",
    "RESTRICTIONS": rf"all_proper_zero={_BOOL} proper_subgroups={_N}",
    "WEYL": rf"invariant={_BOOL}",
    "REGULARITY": rf"non_zero_divisor={_BOOL}",
    "SUITE": rf"{_WORD} (?:pass|fail) \(.*\)",
    "FIXTURE": r"\S.* (?:pass|fail \(.*\))",
    "VERIFY": r"pass|fail",
}
_PATTERNS = {key: re.compile(value) for key, value in VALUES.items()}


def readme_keys() -> list[str]:
    """The keys of README.md's report-grammar table, in its order."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Report grammar\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([A-Z]+)", section, flags=re.M)


def report_lines(items) -> list[str]:
    """The report lines of ``machine_lines_number_field`` or
    ``machine_lines_function_field``: each item is one or more whole
    lines joined by newlines."""
    return [line for item in items for line in item.split("\n")]


def bad_lines(report: str, mode: str = "machine") -> list[str]:
    """The lines of a report that break the grammar; human mode must wrap
    the machine lines in its two '#' lines."""
    lines = report.splitlines()
    if not report.endswith("\n"):
        return [report[-80:]]
    if mode == "human":
        if len(lines) < 2 or not lines[0].startswith("# ") or lines[-1] != "# end of report":
            return lines[:1]
        lines = lines[1:-1]
    bad = []
    for line in lines:
        key, tab, value = line.partition("\t")
        pattern = _PATTERNS.get(key)
        if not tab or pattern is None or not pattern.fullmatch(value):
            bad.append(line)
    return bad
