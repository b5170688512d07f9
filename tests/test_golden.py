"""Golden reports: CLI stdout compared byte for byte.

Each case runs ``sl2cohom.cli.main`` on fixed arguments and compares the
captured stdout with ``tests/golden/<name>.out``, or, for a case whose
golden file is ``tests/golden/<name>.sha256``, its sha256 with the digest
there.  A changed byte is a grammar decision: regenerate the files on
purpose with

    PYTHONPATH=src python tests/test_golden.py --regenerate

and document the change.  Regenerating keeps each file's form; to store a
new case as a digest, create its empty ``.sha256`` file first.

Three digests there are not cases here, and ``--regenerate`` leaves them
alone: ``essential_3_6.sha256``, ``split_1000_1000.sha256`` and
``split_100_unit_rank_2000.sha256``.  ``tests/test_cli.py`` runs those
reports in a child process, to bound their peak memory.  Rewrite them by hand, in the same form, from

    PYTHONPATH=src python -m sl2cohom.cli <arguments> | sha256sum

with the arguments in place of the ``-`` that ``sha256sum`` prints.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import pytest

from grammar import VALUES, bad_lines, readme_keys
from sl2cohom.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    "q_zeta23_machine": ["analyze-nf", "--datum", "q_zeta23.datum"],
    "q_zeta23_human": ["analyze-nf", "--datum", "q_zeta23.datum", "--mode", "human"],
    "q_zeta3_machine": ["analyze-nf", "--datum", "q_zeta3.datum"],
    "q_zeta3_human": ["analyze-nf", "--datum", "q_zeta3.datum", "--mode", "human"],
    "preset_p1_minus_infty": ["analyze-ff", "--preset", "p1_minus_infty", "--q", "7",
                              "--ell", "3"],
    "preset_p1_minus_0_infty": ["analyze-ff", "--preset", "p1_minus_0_infty", "--q", "7",
                                "--ell", "3"],
    "preset_p1_minus_01_infty": ["analyze-ff", "--preset", "p1_minus_01_infty", "--q", "7",
                                 "--ell", "3"],
    "split_2_4": ["analyze-nf", "--split-class-group", "2,4", "--unit-rank", "3",
                  "--ell", "5"],
    "q_zeta23_gate_2": ["analyze-nf", "--datum", "q_zeta23.datum", "--gate-n", "2"],
    "q_zeta3_gate_1": ["analyze-nf", "--datum", "q_zeta3.datum", "--gate-n", "1"],
    "split_2_4_gate_7_no_s_ell": ["analyze-nf", "--split-class-group", "2,4",
                                  "--unit-rank", "3", "--ell", "5", "--gate-n", "7",
                                  "--no-gate-s-ell"],
    "coker2": ["analyze-nf", "--datum", str(GOLDEN / "coker2.datum")],
    # a vanishing report: no components, and a detection note with no bound
    "coker2_no_trace_gate_1": ["analyze-nf", "--datum", str(GOLDEN / "coker2_no_trace.datum"),
                               "--gate-n", "1", "--degree-bound", "5"],
    # the detection note carries the degree bound
    "q_zeta3_gate_1_bound_0": ["analyze-nf", "--datum", "q_zeta3.datum", "--degree-bound", "0",
                               "--gate-n", "1"],
    "elliptic_0_2_q7": ["analyze-ff", "--curve", "elliptic", "--a", "0", "--b", "2",
                        "--q", "7", "--ell", "3"],
    "elliptic_7_1_q25": ["analyze-ff", "--curve", "elliptic", "--a", "7", "--b", "1",
                         "--q", "25", "--ell", "3"],
    "elliptic_50_200_q343": ["analyze-ff", "--curve", "elliptic", "--a", "50", "--b", "200",
                             "--q", "343", "--ell", "19"],
    "elliptic_1_1_q50653": ["analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "1",
                            "--q", "50653", "--ell", "3"],
    "elliptic_1_1_q59049": ["analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "1",
                            "--q", "59049", "--ell", "11"],
    # the largest P1 unit rank admitted, 2000, at the largest degree bound
    "p1_2001_punctures_q65521": ["analyze-ff", "--curve", "p1", "--punctures",
                                 ",".join(["1"] * 2001), "--q", "65521", "--ell", "3",
                                 "--degree-bound", "1000"],
    "essential_2_4": ["essential", "--ell", "2", "--rank", "4"],
    "essential_3_3": ["essential", "--ell", "3", "--rank", "3"],
    "essential_5_2_human": ["essential", "--ell", "5", "--rank", "2", "--mode", "human"],
    "essential_2_5": ["essential", "--ell", "2", "--rank", "5"],
    "essential_3_4": ["essential", "--ell", "3", "--rank", "4"],
    "essential_2_6": ["essential", "--ell", "2", "--rank", "6"],
    "essential_7_3": ["essential", "--ell", "7", "--rank", "3"],
    "essential_2_7": ["essential", "--ell", "2", "--rank", "7"],
    "essential_3_5": ["essential", "--ell", "3", "--rank", "5"],
    "essential_5_4": ["essential", "--ell", "5", "--rank", "4"],
    # the largest exponents of the ladder's rank-2 products: y2^110 and y2^506
    "essential_11_2": ["essential", "--ell", "11", "--rank", "2"],
    "essential_23_2": ["essential", "--ell", "23", "--rank", "2"],
    "verify_machine": ["verify"],
    "verify_human": ["verify", "--mode", "human"],
}


def report(argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    return code, buf.getvalue()


def golden(name) -> Path:
    digest = GOLDEN / f"{name}.sha256"
    return digest if digest.exists() else GOLDEN / f"{name}.out"


def stored(path, argv, out) -> str:
    """The golden file's text for the report ``out``: the report, or its digest."""
    if path.suffix == ".sha256":
        return f"{hashlib.sha256(out.encode('utf-8')).hexdigest()}  {' '.join(argv)}\n"
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    code, out = report(CASES[name])
    assert code == 0
    path = golden(name)
    assert stored(path, CASES[name], out) == path.read_text(encoding="utf-8")


def test_grammar_table_has_the_readme_keys():
    assert readme_keys() == list(VALUES)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.out")), ids=lambda path: path.stem)
def test_golden_lines_follow_the_grammar(path):
    mode = "human" if "human" in CASES[path.stem] else "machine"
    assert bad_lines(path.read_text(encoding="utf-8"), mode) == []


def test_grammar_refuses_malformed_lines():
    for line in ("COMPONENT\t0 shape=Bogus d=1 dims[-4..0]=1,0,0,1,1", "CCLASSES\t-1",
                 "NONVANISHING holds", "ERROR\tbad input", "VERIFY\tpass ", "PRODUCT\tx1 +",
                 "DETECTION\tinconclusive", "DETECTION\tinconclusive note=maybe", "GATE\tholds",
                 "GATE\tfails violated=", "GATE\tfails violated=,ell_prime",
                 "GATE\tfails violated=ell_prime,", "GATE\tfails violated=ell_primezeta_ell_in_K",
                 "GATE\tfails violated=zeta_ell_in_K,ell_prime",
                 "GATE\tfails violated=ell_prime,ell_prime", "GATE\tinconclusive violated=ell_prime"):
        assert bad_lines(line + "\n") == [line]
    assert bad_lines("VERIFY\tpass") == ["VERIFY\tpass"]  # no final newline
    assert bad_lines("VERIFY\tpass\n", "human") == ["VERIFY\tpass"]  # no '#' lines


if __name__ == "__main__" and sys.argv[1:] == ["--regenerate"]:
    for name, argv in CASES.items():
        path = golden(name)
        path.write_text(stored(path, argv, report(argv)[1]), encoding="utf-8")
