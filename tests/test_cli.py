import importlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sl2cohom
from sl2cohom.abelian import is_prime
from sl2cohom.cli import main
from sl2cohom.cohomengine import MAX_DEGREE_BOUND

FIXTURE_DIR = Path("src/sl2cohom/data")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_analyze_nf_fixture(capsys):
    code, out = run(capsys, "analyze-nf", "--datum", "q_zeta23.datum")
    assert code == 0
    assert "CCLASSES\t3" in out
    assert "KCLASSES\t2" in out
    assert "DETECTION\tfails witness_degree=" in out


def test_analyze_nf_inline_split_matches_fixture(capsys):
    code1, out1 = run(capsys, "analyze-nf", "--datum", "q_zeta23.datum")
    code2, out2 = run(capsys, "analyze-nf", "--split-class-group", "3",
                      "--unit-rank", "11", "--ell", "23")
    assert code1 == code2 == 0
    assert out1 == out2


def test_analyze_nf_gate(capsys):
    code, out = run(capsys, "analyze-nf", "--datum", "q_zeta23.datum", "--gate-n", "2")
    assert code == 0
    assert "GATE\tfails violated=detection_on_finite_subgroups" in out


def test_analyze_ff_doubly_punctured_line(capsys):
    code, out = run(capsys, "analyze-ff", "--curve", "p1", "--punctures", "1,1",
                    "--q", "7", "--ell", "3")
    assert code == 0
    assert "COMPONENT\t0 shape=MonomialFF r=1" in out


def test_analyze_ff_presets(capsys):
    code, out = run(capsys, "analyze-ff", "--preset", "p1_minus_infty",
                    "--q", "7", "--ell", "3")
    assert code == 0
    assert "shape=MonomialFF r=0" in out


def test_analyze_ff_advisory_for_many_punctures(capsys):
    code, out = run(capsys, "analyze-ff", "--curve", "p1", "--punctures", "1,1,1,1,1",
                    "--q", "7", "--ell", "3")
    assert code == 0
    assert "ADVISORY\tpunctures=5" in out


def test_essential_command(capsys):
    code, out = run(capsys, "essential", "--ell", "2", "--rank", "2")
    assert code == 0
    assert "PRODUCT\tx1*x2^2 + x1^2*x2" in out
    assert "RESTRICTIONS\tall_proper_zero=true" in out
    assert "WEYL\tinvariant=true" in out


@pytest.mark.parametrize("ell,rank,hyperplanes,subgroups", [
    (2, 1, 0, 0), (2, 4, 15, 65), (3, 3, 13, 26), (5, 2, 6, 6),
])
def test_essential_restricts_to_the_hyperplanes_only(monkeypatch, capsys, ell, rank,
                                                     hyperplanes, subgroups):
    from sl2cohom import cli

    listed = []
    enumerate_proper_subgroups = cli.enumerate_proper_subgroups

    def recording(spec):
        listed.extend(enumerate_proper_subgroups(spec))
        return listed

    # the printed count is the enumerator's, whose hyperplanes the theorem is about
    monkeypatch.setattr(cli, "enumerate_proper_subgroups", recording)
    code, out = run(capsys, "essential", "--ell", str(ell), "--rank", str(rank))
    assert code == 0
    assert sum(len(matrix[0]) == rank - 1 for matrix in listed) == hyperplanes
    assert (f"RESTRICTIONS\tall_proper_zero=true proper_subgroups={subgroups}\n") in out


@pytest.mark.parametrize("mode", ["machine", "human"])
@pytest.mark.parametrize("ell,rank", [(2, 4), (3, 3), (23, 2)])
def test_essential_report_restricts_no_element(monkeypatch, capsys, ell, rank, mode):
    from sl2cohom import essential
    from test_golden import GOLDEN

    def refuse(*args):
        raise AssertionError("the report path restricted an element")

    monkeypatch.setattr(essential, "restrict", refuse)
    monkeypatch.setattr(essential, "rank_mod", refuse)
    code, out = run(capsys, "essential", "--ell", str(ell), "--rank", str(rank), "--mode", mode)
    golden = (GOLDEN / f"essential_{ell}_{rank}.out").read_text(encoding="utf-8")
    if mode == "human":
        golden = f"# essential report\n{golden}# end of report\n"
    assert (code, out) == (0, golden)


@pytest.mark.parametrize("ell,rank,message", [
    (2, 8, "the report would list 417197 proper subgroups, over the subgroup bound 100000"),
    (2, 9, "the report would list 8283456 proper subgroups, over the subgroup bound 100000"),
    (2, 10, "group order 1024 exceeds the product bound 729"),
    (3, 7, "group order 2187 exceeds the product bound 729"),
    (3, 10000, "group order 3^10000 exceeds the product bound 729"),
    (3, 10000000, "group order 3^10000000 exceeds the product bound 729"),
])
def test_essential_guards_refuse_up_front(capsys, ell, rank, message):
    start = time.perf_counter()
    code, out = run(capsys, "essential", "--ell", str(ell), "--rank", str(rank))
    assert code == 1
    assert out == f"ERROR\t{message}\n"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("punctures,message", [
    (",".join(["1"] * 22), "has 8 closed points of degree 1, fewer than the 22 punctures"),
    (",".join(["2"] * 22), "has 21 closed points of degree 2, fewer than the 22 punctures"),
])
def test_punctures_that_do_not_exist_are_refused(capsys, punctures, message):
    start = time.perf_counter()
    code, out = run(capsys, "analyze-ff", "--curve", "p1", "--punctures", punctures,
                    "--q", "7", "--ell", "3")
    assert code == 1
    assert out.startswith("ERROR\tthe projective line over F_7 ") and out.count("\n") == 1
    assert message in out
    assert time.perf_counter() - start < 1.0


def test_every_rational_point_may_be_punctured(capsys):
    code, out = run(capsys, "analyze-ff", "--curve", "p1", "--punctures", ",".join(["1"] * 8),
                    "--q", "7", "--ell", "3")
    assert code == 0
    assert "shape=MonomialFF r=7 " in out


HUGE = str(10**18 + 3)  # prime, far beyond trial division


REJECTED = [
    ("analyze-ff", "--curve", "p1", "--punctures", "1,1", "--q", "5", "--ell", "3"),
    ("analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "0", "--q", "5", "--ell", "2"),
    ("analyze-nf", "--datum", "no_such_file.datum"),
    ("analyze-nf", "--split-class-group", "3", "--unit-rank", "11", "--ell", HUGE),
    ("essential", "--ell", HUGE, "--rank", "1"),
    ("analyze-ff", "--preset", "p1_minus_infty", "--q", HUGE, "--ell", "3"),
    ("analyze-ff", "--preset", "p1_minus_infty", "--q", "7", "--ell", HUGE),
    ("analyze-nf", "--datum", "q_zeta23.datum", "--degree-bound", "-1"),
    ("analyze-nf", "--datum", "q_zeta23.datum", "--degree-bound", str(MAX_DEGREE_BOUND + 1)),
    ("analyze-nf", "--datum", str(FIXTURE_DIR)),
]


def test_rejection_paths_exit_one(capsys):
    for argv in REJECTED:
        start = time.perf_counter()
        code, out = run(capsys, *argv)
        assert code == 1, argv
        assert out.startswith("ERROR\t") and out.count("\n") == 1, argv
        assert time.perf_counter() - start < 1.0, argv


def test_gate_rank_below_one_is_refused_before_the_datum(capsys):
    for n in ("0", "-1"):
        for source in (("--datum", "q_zeta3.datum"), ("--datum", "no_such_file.datum")):
            code, out = run(capsys, "analyze-nf", *source, "--gate-n", n)
            assert (code, out) == (1, f"ERROR\t--gate-n {n} must be at least 1\n")
    code, out = run(capsys, "analyze-nf", "--datum", "q_zeta3.datum", "--gate-n", "1")
    assert code == 0 and "GATE\t" in out


def test_bad_split_class_group_names_the_flag(capsys):
    # an empty entry is refused, as in --punctures; "2,,3" used to run as "2,3"
    for text in ("x", "3,x", "2.5", "2,,3", "2,", ",2"):
        code, out = run(capsys, "analyze-nf", "--split-class-group", text,
                        "--unit-rank", "1", "--ell", "3")
        assert (code, out) == (1, f"ERROR\tbad --split-class-group list {text!r}; "
                                  "expected comma-separated integers\n")
    # the empty list is the trivial group
    code, out = run(capsys, "analyze-nf", "--split-class-group", "", "--unit-rank", "1",
                    "--ell", "3")
    assert code == 0 and "CCLASSES\t1\n" in out


def test_unit_rank_bound_refuses_up_front(tmp_path, capsys):
    big = tmp_path / "big_rank.datum"
    good = (FIXTURE_DIR / "q_zeta23.datum").read_text()
    big.write_text(good.replace("unit_rank_K = 11", "unit_rank_K = 5000"))
    for argv, rank in [
        (("--split-class-group", "2", "--ell", "3", "--unit-rank", "2001"), 2001),
        (("--split-class-group", "2", "--ell", "3", "--unit-rank", "100000"), 100000),
        (("--datum", str(big)), 5000),
    ]:
        start = time.perf_counter()
        code, out = run(capsys, "analyze-nf", *argv)
        assert code == 1, argv
        assert out == (f"ERROR\tconsistency violation [unit_rank_bound]: unit rank {rank} "
                       f"exceeds the unit-rank bound 2000\n"), argv
        assert time.perf_counter() - start < 1.0, argv


def test_p1_unit_rank_bound_refuses_before_any_dimension(monkeypatch, capsys):
    # rank 2001 at --degree-bound 1000 took 22 s before the bound; the
    # largest admitted P1 report is a golden digest
    from sl2cohom import cohomengine

    def no_dimensions(*args):
        raise AssertionError("dimension work before the unit-rank bound")

    monkeypatch.setattr(cohomengine, "graded_dimension", no_dimensions)
    monkeypatch.setattr(cohomengine, "freeness_basis_degrees", no_dimensions)
    for punctures in (2002, 10000):
        code, out = run(capsys, "analyze-ff", "--curve", "p1",
                        "--punctures", ",".join(["1"] * punctures), "--q", "65521",
                        "--ell", "3", "--degree-bound", "1000")
        assert (code, out) == (1, f"ERROR\tunit rank {punctures - 1} (punctures - 1) "
                                  "exceeds the unit-rank bound 2000\n")


def test_degree_bound_range_is_inclusive(capsys):
    for bound in ("0", str(MAX_DEGREE_BOUND)):
        code, out = run(capsys, "analyze-ff", "--preset", "p1_minus_infty",
                        "--q", "7", "--ell", "3", "--degree-bound", bound)
        assert code == 0
        assert f"verified_up_to={bound}" in out


def test_internal_check_failure_exits_three(monkeypatch, capsys):
    from sl2cohom import cohomengine

    monkeypatch.setattr(cohomengine, "freeness_basis_degrees", lambda component: ((0, 1),))
    code, out = run(capsys, "analyze-nf", "--datum", "q_zeta23.datum")
    assert code == 3
    assert out.startswith("ERROR\t") and out.count("\n") == 1
    assert "freeness identity failed" in out


@pytest.mark.parametrize("mode", ["machine", "human"])
@pytest.mark.parametrize("module,name,argv", [
    ("cohomengine", "freeness_certificate", ("analyze-nf", "--datum", "q_zeta23.datum")),
    ("curve", "get_field", ("analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "1",
                            "--q", "13", "--ell", "3")),
    ("essential", "_product", ("essential", "--ell", "3", "--rank", "2")),
    ("arithdata", "kernel", ("verify",)),  # in the fixture loop, after the suites
])
def test_internal_value_error_exits_three(monkeypatch, capsys, module, name, argv, mode):
    # only an InputError is a refused input; any other ValueError is a bug
    def broken(*args):
        raise ValueError("injected invariant failure")

    monkeypatch.setattr(importlib.import_module(f"sl2cohom.{module}"), name, broken)
    code, out = run(capsys, *argv, "--mode", mode)
    assert (code, out) == (3, "ERROR\tinternal check failed: injected invariant failure\n")


def test_elliptic_report_does_no_scalar_multiplication(monkeypatch, capsys):
    from sl2cohom import curve

    def refuse(*args):
        raise AssertionError("the report path computed a scalar multiple")

    monkeypatch.setattr(curve, "ec_scalar", refuse)
    code, out = run(capsys, "analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "0",
                    "--q", "13", "--ell", "3")
    assert code == 0
    assert "KCLASSES\t12" in out


@pytest.mark.parametrize("a,b,expected", [
    (1, 1, None),
    (-3 * 5 ** 2 % 241, 2 * 5 ** 3 % 241, "ERROR\tdiscriminant 4a^3 + 27b^2 vanishes\n"),
])
def test_elliptic_report_over_a_prime_above_the_mestre_bound_builds_no_field(
        monkeypatch, capsys, a, b, expected):
    from sl2cohom import curve

    def refuse(*args):
        raise AssertionError("the report path built a field or took ec_scalar")

    monkeypatch.setattr(curve, "get_field", refuse)
    monkeypatch.setattr(curve, "ec_scalar", refuse)
    q = 241
    assert q > curve.MESTRE_BOUND
    code, out = run(capsys, "analyze-ff", "--curve", "elliptic", "--a", str(a), "--b", str(b),
                    "--q", str(q), "--ell", "3")
    if expected:  # a = -3t^2, b = 2t^3: x^3 + ax + b = (x - t)^2 (x + 2t)
        assert (code, out) == (1, expected)
        return
    # #E and #E[2] by Euler's criterion: (#E + #E[2]) / 2 classes
    values = [(x * x * x + a * x + b) % q for x in range(q)]
    order = q + 1 + sum(0 if v == 0 else 1 if pow(v, (q - 1) // 2, q) == 1 else -1
                        for v in values)
    assert code == 0
    assert f"KCLASSES\t{(order + 1 + values.count(0)) // 2}\n" in out


def test_elliptic_report_over_an_extension_field_does_no_digit_coding(monkeypatch, capsys):
    from sl2cohom import curve

    building = []
    build_tables = curve.FiniteField._build_tables

    def tracked_build(self):
        building.append(self.q)
        try:
            return build_tables(self)
        finally:
            building.pop()

    def only_while_building(method):
        def guarded(self, *args):
            if not building:
                raise AssertionError("the report path coded base-p digits")
            return method(self, *args)
        return guarded

    monkeypatch.setattr(curve.FiniteField, "_build_tables", tracked_build)
    for name in ("_decode", "_encode"):
        monkeypatch.setattr(curve.FiniteField, name,
                            only_while_building(getattr(curve.FiniteField, name)))
    code, out = run(capsys, "analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "1",
                    "--q", "243", "--ell", "11")
    assert code == 0
    assert "KCLASSES\t123\n" in out


def test_characteristic_two_is_refused_before_the_field_is_built(capsys):
    start = time.perf_counter()
    code, out = run(capsys, "analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "1",
                    "--q", "65536", "--ell", "3")
    assert code == 1
    assert out == "ERROR\ty^2 = x^3 + ax + b is singular in characteristic 2\n"
    assert time.perf_counter() - start < 0.3


@pytest.mark.parametrize("a,q,ell,message", [
    ("59049", "59049", "11", "coefficients must be encoded field elements"),
    ("-1", "65521", "3", "coefficients must be encoded field elements"),
    ("70000", "65536", "3", "y^2 = x^3 + ax + b is singular in characteristic 2"),
])
def test_out_of_range_coefficients_are_refused_before_the_field_is_built(monkeypatch, capsys,
                                                                         a, q, ell, message):
    from sl2cohom import curve

    def refuse(spec):
        raise AssertionError("the field was built")

    monkeypatch.setattr(curve, "get_field", refuse)
    code, out = run(capsys, "analyze-ff", "--curve", "elliptic", "--a", a, "--b", "1",
                    "--q", q, "--ell", ell)
    assert code == 1
    assert out == f"ERROR\t{message}\n"


def test_elliptic_report_walks_the_field_once(monkeypatch, capsys):
    from sl2cohom import curve

    calls = []
    cubic_values = curve._cubic_values

    def counting(*args):
        calls.append(args)
        return cubic_values(*args)

    monkeypatch.setattr(curve, "_cubic_values", counting)
    code, out = run(capsys, "analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "1",
                    "--q", "13", "--ell", "3")
    assert code == 0
    assert "KCLASSES\t10" in out
    assert len(calls) == 1


@pytest.mark.parametrize("forged,message", [
    (14 + 8, "Hasse bound"),  # (22 - 14)^2 = 64 > 4 * 13
    (17, "2-torsion count 2 is not 1, 2 or 4 dividing the point count 17"),
])
def test_forged_point_count_exits_three(monkeypatch, capsys, forged, message):
    from sl2cohom import curve

    # y^2 = x^3 + x + 1 over the 13-element field: 18 points, one root of the cubic
    monkeypatch.setattr(curve, "_point_tally", lambda c, field: (forged, 1))
    code, out = run(capsys, "analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "1",
                    "--q", "13", "--ell", "3")
    assert code == 3
    assert out.startswith("ERROR\tinternal check failed: ") and out.count("\n") == 1
    assert message in out


LARGE_REPORT = ("analyze-nf", "--split-class-group", "1000,1000", "--unit-rank", "3",
                "--ell", "5")  # 1 000 002 components, 91 MB


def cli_env():
    return dict(os.environ, PYTHONPATH=str(Path(sl2cohom.__file__).resolve().parents[1]))


@pytest.mark.parametrize("argv,first_line", [
    # the report is about 168 kB, more than a pipe holds, so the writer
    # meets the closed pipe
    (("analyze-nf", "--split-class-group", "2000", "--unit-rank", "1", "--ell", "3"),
     b"NONVANISHING\tholds\n"),
    (("analyze-nf", "--datum", "no_such.datum"), None),  # the ERROR line
    (LARGE_REPORT, b"NONVANISHING\tholds\n"),
])
def test_closed_stdout_exits_141_without_a_traceback(argv, first_line):
    proc = subprocess.Popen([sys.executable, "-m", "sl2cohom.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=cli_env())
    if first_line is not None:
        assert proc.stdout.readline() == first_line
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert stderr == b""


# run in a helper process: it pipes the report of one CLI process, its only
# child, through sha256 and prints the exit code, the digest and the
# child's peak RSS in KiB
MEASURE_CHILD = """
import hashlib, resource, subprocess, sys
proc = subprocess.Popen([sys.executable, "-m", "sl2cohom.cli", *sys.argv[1:]],
                        stdout=subprocess.PIPE)
digest = hashlib.sha256()
for block in iter(lambda: proc.stdout.read(1 << 16), b""):
    digest.update(block)
print(proc.wait(), digest.hexdigest(), resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def measure_child(argv):
    out = subprocess.run([sys.executable, "-c", MEASURE_CHILD, *argv], env=cli_env(),
                         capture_output=True, text=True, timeout=120, check=True)
    code, digest, peak_kib = out.stdout.split()
    return int(code), digest, int(peak_kib)


def recorded_digest(name):
    return (Path(__file__).parent / "golden" / f"{name}.sha256").read_text().split()[0]


@pytest.fixture(scope="module")
def large_report():
    return measure_child(LARGE_REPORT)


def test_large_report_matches_the_recorded_digest(large_report):
    code, digest, _ = large_report
    assert code == 0
    assert digest == recorded_digest("split_1000_1000")


def test_large_report_is_written_as_it_is_produced(large_report):
    code, _, peak_kib = large_report
    assert code == 0
    assert peak_kib < 60 * 1024


def test_long_lines_are_written_a_few_at_a_time():
    # 107 lines, 51 of them FREENESS lines of 0.88 MB: 45 MB in all, which
    # peaked at 148 MB when every write joined 256 lines
    code, digest, peak_kib = measure_child(("analyze-nf", "--split-class-group", "100",
                                            "--unit-rank", "2000", "--ell", "3",
                                            "--degree-bound", "0"))
    assert code == 0
    assert digest == recorded_digest("split_100_unit_rank_2000")
    assert peak_kib < 60 * 1024


def test_largest_essential_report():
    # (3,6), the largest admitted group, peaks at 70 MB (MiB, as the bound)
    # on a 2-core x86-64 host with Python 3.11; the bound leaves 22 MB for
    # other hosts and Python builds
    code, digest, peak_kib = measure_child(("essential", "--ell", "3", "--rank", "6"))
    assert code == 0
    assert digest == recorded_digest("essential_3_6")
    assert peak_kib < 92 * 1024


def test_degree_bound_belongs_to_the_analyze_commands(capsys):
    for argv in (("essential", "--ell", "2", "--rank", "2", "--degree-bound", "5"),
                 ("verify", "--degree-bound", "5")):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments: --degree-bound 5" in capsys.readouterr().err


def test_component_bound_refuses_before_any_line(capsys):
    # an over-bound group is named before a bad --ell or --unit-rank
    for extra in ((), ("--mode", "human"), ("--gate-n", "2"),
                  ("--gate-n", "2", "--mode", "human"), ("--ell", "4"),
                  ("--unit-rank", "5000")):
        code, out = run(capsys, "analyze-nf", "--split-class-group", "2000,2000",
                        "--unit-rank", "3", "--ell", "5", *extra)
        assert code == 1
        assert out == ("ERROR\tthe report would list 2000002 components, "
                       "over the component bound 1000000\n"), extra
    # (|Cl| + |Cl[2]|) / 2 with an odd order, the count the decomposition gives
    for orders, count in (("2000,1001", 1001001), ("1415,1,1415", 1001113)):
        code, out = run(capsys, "analyze-nf", "--split-class-group", orders,
                        "--unit-rank", "3", "--ell", "5")
        assert (code, out) == (1, f"ERROR\tthe report would list {count} components, "
                                  "over the component bound 1000000\n"), orders

    code, out = run(capsys, "analyze-ff", "--curve", "p1", "--punctures", "3000000",
                    "--q", "7", "--ell", "3")
    assert code == 1
    assert out.startswith("ERROR\t") and "component bound 1000000" in out

    # a count longer than Python writes out (4300 digits) is still a refusal
    huge = "1" + "0" * 2200
    code, out = run(capsys, "analyze-nf", "--split-class-group", f"{huge},{huge}",
                    "--unit-rank", "3", "--ell", "5")
    assert (code, out) == (1, "ERROR\tthe report would list at least 10^4300 components, "
                              "over the component bound 1000000\n")


def test_report_byte_bound_refuses_before_any_line(capsys):
    # every other bound admits this input; it wrote about 440 GB with exit 0
    start = time.perf_counter()
    code, out = run(capsys, "analyze-nf", "--split-class-group", "1000,1000",
                    "--unit-rank", "2000", "--ell", "3", "--degree-bound", "0")
    assert (code, out) == (1, "ERROR\tthe COMPONENT and FREENESS lines would take "
                              "440897035826 bytes, over the report byte bound 1073741824\n")
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv", [
    ("analyze-nf", "--split-class-group", "2,4", "--unit-rank", "1", "--ell", "3"),
    ("analyze-nf", "--split-class-group", "1234", "--unit-rank", "40", "--ell", "3",
     "--degree-bound", "30"),
    ("analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "1", "--q", "8011", "--ell", "3"),
    ("analyze-ff", "--curve", "p1", "--punctures", "1,2,2", "--q", "7", "--ell", "3"),
])
def test_report_byte_bound_counts_the_lines_exactly(monkeypatch, capsys, argv):
    from sl2cohom import cohomengine

    code, out = run(capsys, *argv)
    assert code == 0
    size = sum(len(line) + 1 for line in out.splitlines()
               if line.startswith(("COMPONENT\t", "FREENESS\t")))
    monkeypatch.setattr(cohomengine, "REPORT_BYTE_BOUND", size)
    assert run(capsys, *argv) == (0, out)
    monkeypatch.setattr(cohomengine, "REPORT_BYTE_BOUND", size - 1)
    assert run(capsys, *argv) == (1, f"ERROR\tthe COMPONENT and FREENESS lines would take "
                                     f"{size} bytes, over the report byte bound {size - 1}\n")


@pytest.mark.parametrize("factors", [120, 600])
def test_split_component_count_refuses_before_any_smith_form(factors):
    # 2^k components, counted from the orders; building the datum first
    # took 3.5 s at k = 120 and ran past 90 s at k = 600
    argv = ["analyze-nf", "--split-class-group", ",".join(["2"] * factors),
            "--unit-rank", "1", "--ell", "3"]
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "sl2cohom.cli", *argv], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    assert time.perf_counter() - start < 1.0
    assert (proc.returncode, proc.stderr) == (1, "")
    assert proc.stdout == (f"ERROR\tthe report would list {2 ** factors} components, "
                           "over the component bound 1000000\n")


def test_negative_or_zero_orders_keep_their_errors(capsys):
    primes = ",".join(str(p) for p in range(2, 2000) if is_prime(p))  # 303 of them
    for orders, message in (("2,-3", "cyclic orders must be nonnegative"),
                            ("2,0", "cl_K must be finite"),
                            ("0,-3", "cyclic orders must be nonnegative"),
                            # the Smith form of the orders ran for minutes here
                            ("0," + primes, "cl_K must be finite")):
        start = time.perf_counter()
        code, out = run(capsys, "analyze-nf", f"--split-class-group={orders}",
                        "--unit-rank", "1", "--ell", "3")
        assert (code, out) == (1, f"ERROR\t{message}\n")
        assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("argv,count", [
    # the map, and coker(sigma - 1); the orders take gcds and lcms, no
    # Smith form
    (("analyze-nf", "--split-class-group", "2,4", "--unit-rank", "3", "--ell", "5"), 2),
    (("analyze-nf", "--datum", "q_zeta23.datum"), 3),  # no orders
    (("verify",), 362),  # the oracle suites and two datum loads
])
def test_smith_forms_per_report(monkeypatch, capsys, argv, count):
    from sl2cohom import abelian

    calls = []
    snf = abelian._snf

    def counting(matrix, nrows, ncols):
        calls.append((nrows, ncols))
        return snf(matrix, nrows, ncols)

    monkeypatch.setattr(abelian, "_snf", counting)
    assert (run(capsys, *argv)[0], len(calls)) == (0, count)


def test_orders_of_one_are_the_trivial_group(capsys):
    # 600 orders 1 made a 600x600 Smith form, 4.9 s as a CLI process
    argv = ("analyze-nf", "--unit-rank", "1", "--ell", "3")
    _, trivial = run(capsys, *argv, "--split-class-group", "")
    start = time.perf_counter()
    assert run(capsys, *argv, "--split-class-group", ",".join(["1"] * 600)) == (0, trivial)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("mode", ["machine", "human"])
@pytest.mark.parametrize("argv", [
    ("analyze-nf", "--datum", "q_zeta23.datum", "--gate-n", "2"),
    ("analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "1", "--q", "13", "--ell", "3"),
])
def test_failed_freeness_check_is_the_only_line(monkeypatch, capsys, argv, mode):
    from sl2cohom import cohomengine

    def failing(decomposition, up_to):
        raise ArithmeticError("injected freeness failure")

    monkeypatch.setattr(cohomengine, "freeness_certificate", failing)
    code, out = run(capsys, *argv, "--mode", mode)
    assert code == 3
    assert out == "ERROR\tinternal check failed: injected freeness failure\n"


def test_bad_datum_reports_location(tmp_path, capsys):
    bad = tmp_path / "broken.datum"
    good = (FIXTURE_DIR / "q_zeta23.datum").read_text()
    bad.write_text(good.replace("ell = 23", "ell = banana"))
    code, out = run(capsys, "analyze-nf", "--datum", str(bad))
    assert code == 1
    assert "ERROR\t" in out
    assert "broken.datum:" in out  # file:line:column prefix


def test_datum_sizes_are_checked_before_the_kernel(tmp_path, capsys):
    # ker(nm0) of a free cl_A of rank 3000 costs seconds and hundreds of MB
    text = (FIXTURE_DIR / "q_zeta3.datum").read_text()
    head, tail = text.split("[cl_A]\n")
    text = head + "[cl_A]\n" + tail.replace("free_rank = 0", "free_rank = 3000", 1)
    bad = tmp_path / "free_cl_A.datum"
    bad.write_text(text)
    start = time.perf_counter()
    code, out = run(capsys, "analyze-nf", "--datum", str(bad))
    assert code == 1
    assert out == ("ERROR\tconsistency violation [cl_A_finite]: "
                   "class group of the extension must be finite\n")
    assert time.perf_counter() - start < 1.0
    # the prime is checked first, as when the datum is built in the program
    bad.write_text(text.replace("\nell = 3\n", "\nell = 2\n"))
    assert run(capsys, "analyze-nf", "--datum", str(bad)) == (
        1, "ERROR\tconsistency violation [ell_odd_prime]: ell = 2 is not an odd prime\n")

    # the checks run before nm0 is built: a free rank of 10^13 in cl_A, or in
    # cl_K beside a trivial cl_A, ended in a MemoryError traceback
    huge = "10000000000037"
    for section, invariant in (("[cl_A]\n", "cl_A_finite"), ("[cl_K]\n", "cl_K_finite")):
        head, tail = (FIXTURE_DIR / "q_zeta3.datum").read_text().split(section)
        bad.write_text(head + section + tail.replace("free_rank = 0", f"free_rank = {huge}", 1))
        code, out = run(capsys, "analyze-nf", "--datum", str(bad))
        assert (code, out.split(":")[0]) == (1, f"ERROR\tconsistency violation [{invariant}]")

    # many generators: cl_K = (Z/2)^k, cl_A = (Z/2)^2k under the sum map.  The
    # kernel's Smith form took 2.1 s at k = 120, and k = 200 without the trace
    # 6.3 s for a two-line report
    too_many = "consistency violation [generator_bound]: {} generators, over the generator bound 64"
    for k, trace, ell, expected in [
        (120, True, 3, too_many.format("cl_K has 120")),
        (200, False, 3, too_many.format("cl_K has 200")),
        (64, True, 3, too_many.format("cl_A has 128")),
        # the six earlier checks come first
        (120, True, 2, "consistency violation [ell_odd_prime]: ell = 2 is not an odd prime"),
        (32, False, 3, None),  # the largest admitted cl_A: a report
    ]:
        rows = " ; ".join(" ".join("1" if j // 2 == i else "0" for j in range(2 * k))
                          for i in range(k))
        sigma = " ; ".join(" ".join("1" if j == i else "0" for j in range(k)) for i in range(k))
        bad.write_text(
            f"[datum]\nell = {ell}\ntrace_in_K = {str(trace).lower()}\n"
            "split = false\nunit_rank_K = 1\nker_nm1_rank = 1\n"
            f"[cl_K]\nfree_rank = 0\ninvariant_factors = {','.join(['2'] * k)}\n"
            f"[cl_A]\nfree_rank = 0\ninvariant_factors = {','.join(['2'] * 2 * k)}\n"
            f"[nm0]\nmatrix = {rows}\n[steinitz]\ncoords = {','.join(['0'] * k)}\n"
            f"[coker_nm1]\nfree_rank = 0\ninvariant_factors =\n[sigma]\nmatrix = {sigma}\n")
        start = time.perf_counter()
        code, out = run(capsys, "analyze-nf", "--datum", str(bad))
        assert time.perf_counter() - start < 1.0, k
        if expected is None:
            assert (code, out.splitlines()[0]) == (0, "NONVANISHING\tfails"), k
        else:
            assert (code, out) == (1, f"ERROR\t{expected}\n"), k


@pytest.mark.parametrize("section,finite", [
    ("cl_K", "class group of the base must be finite"),
    ("cl_A", "class group of the extension must be finite"),
    ("coker_nm1", "coker(Nm1) must be finite"),
])
def test_each_free_rank_is_refused_by_its_own_line(tmp_path, capsys, section, finite):
    # every group a report reads is finite, so a datum's free_rank key must
    # read 0: a negative one is not canonical, a positive one not finite
    head, tail = (FIXTURE_DIR / "q_zeta3.datum").read_text().split(f"[{section}]\n")
    bad = tmp_path / "free.datum"
    for rank, invariant, message in [
        (-1, f"{section}_canonical", "free_rank must be nonnegative"),
        (2, f"{section}_finite", finite),
    ]:
        text = head + f"[{section}]\n" + tail.replace("free_rank = 0", f"free_rank = {rank}", 1)
        bad.write_text(text)
        expected = f"ERROR\tconsistency violation [{invariant}]: {message}\n"
        assert run(capsys, "analyze-nf", "--datum", str(bad)) == (1, expected), rank
        # a negative rank is refused as the group is read, before the prime
        # check; finiteness comes after the prime and before the unit ranks
        bad.write_text(text.replace("\nell = 3\n", "\nell = 2\n"))
        first = expected if rank < 0 else \
            "ERROR\tconsistency violation [ell_odd_prime]: ell = 2 is not an odd prime\n"
        assert run(capsys, "analyze-nf", "--datum", str(bad)) == (1, first), rank
        bad.write_text(text.replace("\nunit_rank_K = 1\n", "\nunit_rank_K = -1\n"))
        assert run(capsys, "analyze-nf", "--datum", str(bad)) == (1, expected), rank


def test_machine_output_deterministic(capsys):
    outputs = set()
    for _ in range(2):
        _, out = run(capsys, "analyze-nf", "--datum", "q_zeta23.datum",
                     "--mode", "machine")
        outputs.add(out)
    assert len(outputs) == 1


def test_human_mode_contains_machine_lines(capsys):
    _, machine = run(capsys, "analyze-ff", "--preset", "p1_minus_0_infty",
                     "--q", "7", "--ell", "3")
    _, human = run(capsys, "analyze-ff", "--preset", "p1_minus_0_infty",
                   "--q", "7", "--ell", "3", "--mode", "human")
    for line in machine.strip().splitlines():
        assert line in human
    assert human.startswith("#")


def test_verify_passes_on_shipped_fixtures(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    assert "VERIFY\tpass" in out
    assert out.count("SUITE\t") == 5
    assert "FIXTURE\tq_zeta23.datum pass" in out


def test_verify_fails_on_corrupted_fixture(tmp_path, capsys):
    bad = tmp_path / "corrupt.datum"
    good = (FIXTURE_DIR / "q_zeta23.datum").read_text()
    bad.write_text(good.replace("coords = 0", "coords = 5"))
    code, out = run(capsys, "verify", "--datum", str(bad))
    assert code == 2
    assert "fail" in out
    assert "steinitz_in_cl_K" in out


def test_sigma_that_is_not_an_involution_is_refused(tmp_path, capsys):
    bad = tmp_path / "zero_sigma.datum"
    good = (FIXTURE_DIR / "q_zeta23.datum").read_text()
    bad.write_text(good.replace("matrix = -1", "matrix = 0"))
    assert run(capsys, "analyze-nf", "--datum", str(bad)) == (
        1, "ERROR\tconsistency violation [sigma_involution]: "
        "map composed with itself is not the identity\n")


# each split-case rule, and nm0 a homomorphism, broken in the q_zeta23 fixture
DATUM_RULE_EDITS = [
    ([("trace_in_K = true", "trace_in_K = false")],
     "split_implies_trace", "split data have trace in K"),
    # Z/3 + Z/3 -> Z/9 kills no generator's order
    ([("invariant_factors = 3\n", "invariant_factors = 9\n")],
     "nm0_homomorphism", "matrix entry (0,0) does not define a homomorphism: "
     "order-3 generator must map to an order-dividing image"),
    ([("invariant_factors = 3,3", "invariant_factors = 9"), ("matrix = 1 1", "matrix = 1")],
     "split_cl_A", "in the split case cl_A must be cl_K + cl_K"),
    ([("invariant_factors =\n", "invariant_factors = 2\n")],
     "split_coker_nm1_trivial", "in the split case coker(Nm1) is trivial"),
    ([("ker_nm1_rank = 11", "ker_nm1_rank = 10")],
     "split_ker_nm1_rank", "in the split case ker(Nm1) has the base unit rank"),
    ([("matrix = 1 1", "matrix = 0 0"), ("matrix = -1", "matrix = -1 0 ; 0 -1")],
     "split_nm0_onto", "in the split case nm0 is onto"),
    # an onto map Z/2 + Z/2 + Z/4 + Z/4 -> Z/2 + Z/4 whose kernel is (Z/2)^3
    ([("invariant_factors = 3\n", "invariant_factors = 2,4\n"),
      ("invariant_factors = 3,3", "invariant_factors = 2,2,4,4"),
      ("matrix = 1 1", "matrix = 0 0 0 1 ; 0 0 1 0"), ("coords = 0", "coords = 0,0"),
      ("matrix = -1", "matrix = -1 0 0 ; 0 -1 0 ; 0 0 -1")],
     "split_ker_nm0", "in the split case ker(nm0) is a copy of cl_K"),
    ([("matrix = -1", "matrix = 1")],
     "split_sigma_negation", "in the split case sigma negates ker(nm0)"),
]


@pytest.mark.parametrize("edits,invariant,message", DATUM_RULE_EDITS,
                         ids=[invariant for _, invariant, _ in DATUM_RULE_EDITS])
def test_each_split_rule_refuses_its_datum(tmp_path, capsys, edits, invariant, message):
    text = (FIXTURE_DIR / "q_zeta23.datum").read_text()
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    bad = tmp_path / f"{invariant}.datum"
    bad.write_text(text)
    assert run(capsys, "analyze-nf", "--datum", str(bad)) == (
        1, f"ERROR\tconsistency violation [{invariant}]: {message}\n")


def test_a_datum_trial_divides_its_prime_once(monkeypatch, tmp_path, capsys):
    # 999999999989 is the largest prime below the trial-division bound
    from sl2cohom import abelian

    ell = 999999999989
    calls = []
    factorize = abelian.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    monkeypatch.setattr(abelian, "factorize", counting)
    path = tmp_path / "large_ell.datum"
    path.write_text((FIXTURE_DIR / "q_zeta23.datum").read_text().replace("ell = 23",
                                                                         f"ell = {ell}"))
    code, _ = run(capsys, "analyze-nf", "--datum", str(path))
    assert code == 0 and calls.count(ell) == 1


def test_verify_resolves_every_datum_before_the_suites(monkeypatch, capsys):
    # a missing file used to be named after all five suites had run (0.6 s)
    from sl2cohom import cli

    def refuse():
        raise AssertionError("the suites ran")

    monkeypatch.setattr(cli, "run_all_suites", refuse)
    code, out = run(capsys, "verify", "--datum", "q_zeta3.datum", "--datum", "nope.datum")
    assert (code, out) == (1, "ERROR\tdatum file not found: nope.datum\n")


@pytest.mark.parametrize("kind", ["directory", "not_utf8", "ell_past_trial_division"])
def test_a_refused_datum_is_a_failed_fixture(monkeypatch, tmp_path, capsys, kind):
    # each is the analyze-nf refusal; verify used to abort with exit 1 on the
    # last two, the second without the path
    from sl2cohom import cli

    good = (FIXTURE_DIR / "q_zeta23.datum").read_bytes()
    path = tmp_path / f"{kind}.datum"
    if kind == "directory":
        path.mkdir()
        reason = f"cannot read datum file {path}: Is a directory"
    elif kind == "not_utf8":
        path.write_bytes(b"# caf\xe9\n" + good)
        reason = (f"cannot read datum file {path}: 'utf-8' codec can't decode byte 0xe9 "
                  "in position 5: invalid continuation byte")
    else:
        path.write_bytes(good.replace(b"ell = 23", b"ell = 10000000000037"))
        reason = "10000000000037 exceeds the trial-division bound 1000000000000"
    assert run(capsys, "analyze-nf", "--datum", str(path)) == (1, f"ERROR\t{reason}\n")
    monkeypatch.setattr(cli, "run_all_suites", list)
    assert run(capsys, "verify", "--datum", "q_zeta3.datum", "--datum", str(path)) == (
        2, f"FIXTURE\tq_zeta3.datum pass\nFIXTURE\t{kind}.datum fail ({reason})\n"
           "VERIFY\tfail\n")


def test_verify_fails_on_injected_oracle_disagreement(monkeypatch, capsys):
    from sl2cohom import cli
    from sl2cohom.oracles import SuiteResult

    def broken_suites():
        return [SuiteResult("snf_reconstruction", False, "injected disagreement")]

    monkeypatch.setattr(cli, "run_all_suites", broken_suites)
    code, out = run(capsys, "verify")
    assert code == 2
    assert "SUITE\tsnf_reconstruction fail" in out
    assert "VERIFY\tfail" in out


def test_report_lines_conform_to_grammar(capsys):
    allowed = {"NONVANISHING", "CCLASSES", "KCLASSES", "COMPONENT", "FREENESS",
               "CHERN", "DETECTION", "GATE", "ADVISORY"}
    _, out = run(capsys, "analyze-nf", "--datum", "q_zeta23.datum", "--gate-n", "2")
    for line in out.strip().splitlines():
        key = line.split("\t", 1)[0]
        assert key in allowed


# ---------------------------------------------------------------------------
# one argument parser per process
# ---------------------------------------------------------------------------

COUNT_PARSERS_AT_IMPORT = """
import argparse
built = []
init = argparse.ArgumentParser.__init__
def counting(self, *args, **kwargs):
    built.append(1)
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting
import sl2cohom.cli
print(len(built))
"""


def test_import_builds_no_parser():
    out = subprocess.run([sys.executable, "-c", COUNT_PARSERS_AT_IMPORT], env=cli_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout == "0\n"


# the modules a CLI process loads for set-up, minus those the interpreter
# (and any site hook of the host) loaded before it
NEW_MODULES_AT_SETUP = """
import sys
before = set(sys.modules)
from sl2cohom import cli, oracles
cli.build_parser()
print(*sorted(set(sys.modules) - before))
"""


def test_setup_imports_neither_dataclasses_nor_inspect():
    out = subprocess.run([sys.executable, "-c", NEW_MODULES_AT_SETUP], env=cli_env(),
                         capture_output=True, text=True, timeout=60, check=True)
    loaded = set(out.stdout.split())
    assert "sl2cohom.oracles" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_main_calls_reuse_one_parser(monkeypatch, capsys):
    import argparse

    run(capsys, "essential", "--ell", "2", "--rank", "2")
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    calls = [
        ("analyze-nf", "--datum", "q_zeta3.datum"),
        ("analyze-nf", "--datum", "q_zeta23.datum", "--gate-n", "2"),
        ("analyze-nf", "--split-class-group", "2,4", "--unit-rank", "3", "--ell", "5"),
        ("analyze-nf", "--split-class-group", "3", "--unit-rank", "11", "--ell", "23",
         "--mode", "human"),
        ("analyze-nf", "--datum", "no_such_file.datum"),
        ("analyze-ff", "--preset", "p1_minus_infty", "--q", "7", "--ell", "3"),
        ("analyze-ff", "--preset", "p1_minus_0_infty", "--q", "7", "--ell", "3"),
        ("analyze-ff", "--curve", "p1", "--punctures", "1,2", "--q", "7", "--ell", "3"),
        ("analyze-ff", "--curve", "elliptic", "--a", "1", "--b", "1", "--q", "13",
         "--ell", "3"),
        ("analyze-ff", "--curve", "elliptic", "--a", "0", "--b", "2", "--q", "7",
         "--ell", "3", "--mode", "human"),
        ("essential", "--ell", "2", "--rank", "1"),
        ("essential", "--ell", "2", "--rank", "3"),
        ("essential", "--ell", "3", "--rank", "2"),
        ("essential", "--ell", "5", "--rank", "2", "--mode", "human"),
        ("essential", "--ell", "2", "--rank", "10"),
        ("verify",),
        ("analyze-nf", "--datum", "q_zeta3.datum", "--gate-n", "1"),
        ("analyze-ff", "--preset", "p1_minus_01_infty", "--q", "7", "--ell", "3"),
        ("essential", "--ell", "7", "--rank", "2"),
        ("analyze-nf", "--datum", "q_zeta23.datum", "--degree-bound", "3"),
    ]
    assert len(calls) == 20 and {argv[0] for argv in calls} == {
        "analyze-nf", "analyze-ff", "essential", "verify"}
    for argv in calls:
        run(capsys, *argv)
    assert built == []


def test_parser_keeps_no_state_between_calls(capsys):
    from sl2cohom.cli import build_parser

    parser = build_parser()
    assert build_parser() is parser
    argv = ["analyze-nf", "--split-class-group", "2,4", "--unit-rank", "3", "--ell", "5"]
    first = parser.parse_args(argv + ["--no-gate-s-ell", "--gate-n", "7"])
    second = parser.parse_args(argv)
    assert second is not first
    assert (second.gate_s_ell, second.gate_n) == (True, None)

    # append copies its list: a namespace's list is its own
    one = parser.parse_args(["verify", "--datum", "a.datum"])
    one.datum.append("b.datum")
    assert parser.parse_args(["verify", "--datum", "c.datum"]).datum == ["c.datum"]
    assert parser.parse_args(["verify"]).datum is None

    # a usage error exits 2 and leaves the parser as it was
    before = vars(parser.parse_args(argv))
    for bad in (["essential", "--ell", "2"], ["analyze-nf", "--gate-n", "x"], ["nope"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(bad)
        assert exc.value.code == 2
    capsys.readouterr()
    assert vars(parser.parse_args(argv)) == before


def alone(argv):
    """Exit code, stdout and stderr of ``argv`` run in a fresh CLI process."""
    proc = subprocess.run([sys.executable, "-m", "sl2cohom.cli", *argv], env=cli_env(),
                          capture_output=True, text=True, timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def test_calls_in_one_process_match_golden_or_fresh_runs(tmp_path, monkeypatch, capsys):
    from test_golden import CASES, GOLDEN

    # argparse wraps usage text to the terminal width; fix it for both sides
    monkeypatch.setenv("COLUMNS", "80")
    broken = tmp_path / "broken.datum"
    broken.write_text((FIXTURE_DIR / "q_zeta23.datum").read_text()
                      .replace("coords = 0", "coords = 5"))
    no_s_ell = CASES["split_2_4_gate_7_no_s_ell"]
    sequence = [
        "q_zeta23_gate_2", "q_zeta23_machine",
        "split_2_4_gate_7_no_s_ell", [a for a in no_s_ell if a != "--no-gate-s-ell"],
        "q_zeta23_human", "q_zeta23_machine",
        "essential_2_4", ["essential", "--ell", "2"], "preset_p1_minus_infty",
        ["verify", "--datum", str(broken)], "verify_machine",
    ]
    gates = []
    for item in sequence:
        argv = CASES[item] if isinstance(item, str) else item
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        if isinstance(item, str):
            expected = (0, (GOLDEN / f"{item}.out").read_text(), "")
        else:
            expected = alone(argv)
        assert (code, out, err) == expected, argv
        gates += [line for line in out.splitlines() if line.startswith("GATE\t")]
    # the call after --no-gate-s-ell does not inherit it: S holds the places over ell
    assert gates[1] != gates[2] and "S_contains_places_over_ell" not in gates[2]
