"""Seeded property test: every command line and every mutated datum file
gets a report in the README grammar, a refusal or a usage error, never a
fault.

Hypothesis draws the cases (derandomized, with no example database, so
every run draws the same ones).  One child process runs them all in
process through ``sl2cohom.cli.main``, one JSON line per case each way.
The child sets its own address-space limit and times each case with an
alarm, so neither limit touches the test process.  The drawn values are
boundary values of each check; reports stay at most a few MB, and the
largest admitted reports are covered by the golden digests.
"""

import functools
import hashlib
import json
import os
import select
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import sl2cohom
from grammar import bad_lines

ROOT = Path(__file__).parents[1]
DATUMS = [ROOT / "src/sl2cohom/data/q_zeta3.datum", ROOT / "src/sl2cohom/data/q_zeta23.datum",
          ROOT / "tests/golden/coker2.datum"]
CASE_SECONDS = 5
ADDRESS_SPACE = 2 << 30

CHILD = f"""
import contextlib, functools, io, json, resource, signal, sys
resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE}, {ADDRESS_SPACE}))
from sl2cohom import cli
# the suites are seeded and read no input: run them once per child
cli.run_all_suites = functools.cache(cli.run_all_suites)

class Timeout(BaseException):
    pass

def alarm(signum, frame):
    raise Timeout

signal.signal(signal.SIGALRM, alarm)
for request in sys.stdin:
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, {CASE_SECONDS})
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(json.loads(request))
            except SystemExit as exc:
                code = exc.code
    except Timeout:
        code = "timeout"
    except BaseException as exc:
        code = f"{{type(exc).__name__}}: {{exc}}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    sys.__stdout__.write(json.dumps([code, out.getvalue(), err.getvalue()]) + "\\n")
    sys.__stdout__.flush()
"""

# HUGE is prime and far past trial division; 10^4000 has about as many
# digits as Python reads from text, and two orders of 10^2500 make a
# component count longer than it writes out
HUGE = str(10**18 + 3)
BAD_ELLS = ["-3", "0", "1", "2", "4", "9", "65536", "10000000000037", HUGE, str(10**4000)]
DATUM_VALUES = ["-1", "0", "1", "2", "3", "5", "23", "65", "2000", "2001", "100000",
                "10000000000037", "x", "", "true", "1 1", "1;1", "3,3"]


def weighted(*choices):
    """Draw from one of the strategies, chosen in proportion to its weight."""
    return st.sampled_from([s for weight, s in choices for _ in range(weight)]).flatmap(
        lambda strategy: strategy)


def values(v):
    return v if isinstance(v, st.SearchStrategy) else st.sampled_from(v)


def pick(valid, invalid=None, missing=1):
    """A flag's value: valid, invalid or absent (None), in the ratio 4 : 2 : missing."""
    choices = [(4, values(valid)), (missing, st.none())]
    return weighted(*choices, *[(2, values(invalid))] * (invalid is not None))


def flag(name, value):
    return value.map(lambda v: [] if v is None else [f"{name}={v}"])


def flags(names):
    """Map a tuple of values to ``--name=value`` arguments, leaving out None."""
    return lambda values: [f"--{k}={v}" for k, v in zip(names, values) if v is not None]


def int_list(valid, invalid, max_size):
    """A comma-separated list, sometimes empty or with an invalid or malformed entry."""
    entry = weighted((4, st.sampled_from(valid)), (1, st.sampled_from(invalid)),
                     (1, st.sampled_from(["", "x", "2.5", " 2"])))
    return weighted((5, st.lists(entry, min_size=1, max_size=max_size)),
                    (1, st.just([]))).map(",".join)


@st.composite
def mutated_datum(draw):
    """A shipped or golden datum with one to three edits: a value replaced,
    a line dropped or repeated, or bytes that are not UTF-8."""
    lines = draw(st.sampled_from(DATUMS)).read_bytes().split(b"\n")
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["value", "value", "value", "drop", "repeat", "bytes"]))
        if edit == "value" and b"=" in lines[i]:
            key = lines[i].split(b"=", 1)[0]
            lines[i] = key + b"= " + draw(st.sampled_from(DATUM_VALUES)).encode()
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(i, lines[i])
        elif edit == "bytes":
            lines[i] += b" \xe9\xff"
    return b"\n".join(lines)


def datum_source(datum_dir):
    """A --datum argument: a shipped name, a mutated datum file written to
    ``datum_dir``, a missing file or a directory."""
    def write(content):
        path = datum_dir / f"{hashlib.sha256(content).hexdigest()[:16]}.datum"
        path.write_bytes(content)
        return str(path)
    return weighted((1, st.sampled_from(["q_zeta3.datum", "q_zeta23.datum"])),
                    (3, mutated_datum().map(write)),
                    (1, st.sampled_from(["no_such.datum", str(datum_dir)])))


def joined(*parts):
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


def analyze_nf(datum_dir):
    split = joined(
        flag("--split-class-group", pick(int_list(["1", "2", "3", "4", "6", "7", "1000"],
                                                  ["-3", "0", "2001", HUGE, str(10**2500)], 3))),
        flag("--unit-rank", pick(["0", "1", "3", "11", "200"], ["-1", "2001", "1000000"])),
        flag("--ell", pick(["3", "5", "7", "23"], BAD_ELLS)))
    return joined(st.just(["analyze-nf"]),
                  st.one_of(datum_source(datum_dir).map(lambda d: [f"--datum={d}"]), split),
                  flag("--gate-n", pick(["1", "2", "23"], ["0", "-1", HUGE], missing=4)),
                  st.sampled_from([[], [], ["--no-gate-s-ell"], ["--no-gate-s-infinite"]]),
                  flag("--degree-bound", pick(["0", "3", "1000"], ["-1", "1001"], missing=4)))


def analyze_ff():
    coefficient = pick(["0", "1", "2", "7", "50", "200"], ["-1", "65536"])
    curve = st.one_of(
        flag("--preset", pick(["p1_minus_infty", "p1_minus_0_infty", "p1_minus_01_infty"],
                              ["p1_minus_0", ""])),
        joined(st.just(["--curve=p1"]),
               flag("--punctures", pick(int_list(["1", "2", "3", "50"],
                                                 ["-1", "0", "3000000"], 6)))),
        joined(st.just(["--curve=elliptic"]), flag("--a", coefficient),
               flag("--b", coefficient)))
    admitted = [("7", "3"), ("13", "3"), ("19", "3"), ("25", "3"), ("27", "13"), ("49", "3"),
                ("343", "19"), ("343", "3")]
    field = weighted(
        (2, st.sampled_from(admitted)),
        (1, st.tuples(pick(["7", "9", "2", "4", "343"], ["-1", "0", "1", "65536", "65537", HUGE]),
                      pick(["3", "5", "7"], BAD_ELLS))))
    return joined(st.just(["analyze-ff"]), curve, field.map(flags(("q", "ell"))),
                  flag("--degree-bound", pick(["0", "3", "1000"], ["-1", "1001"], missing=4)))


def essential():
    admitted = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 1), (3, 2), (3, 3), (3, 4),
                (3, 5), (5, 2), (5, 3), (5, 4), (7, 2), (7, 3), (23, 2)]
    group = weighted(
        (2, st.sampled_from(admitted)),
        (1, st.tuples(pick(["2", "3", "5"], BAD_ELLS),
                      pick(["2", "8", "11"], ["-1", "0", "1000000"]))))
    return joined(st.just(["essential"]), group.map(flags(("ell", "rank"))))


def verify(datum_dir):
    datums = st.lists(datum_source(datum_dir), max_size=2)
    return joined(st.just(["verify"]), datums.map(lambda ds: [f"--datum={d}" for d in ds]))


@functools.cache  # one strategy per directory, not one per example
def command_lines(datum_dir):
    return joined(st.one_of(analyze_nf(datum_dir), analyze_ff(), essential(), verify(datum_dir)),
                  st.sampled_from([[], ["--mode=machine"], ["--mode=human"]]))


@pytest.fixture(scope="module")
def datum_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("datums")


@pytest.fixture(scope="module")
def child():
    env = dict(os.environ, PYTHONPATH=str(Path(sl2cohom.__file__).resolve().parents[1]),
               COLUMNS="80")
    proc = subprocess.Popen([sys.executable, "-c", CHILD], stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env)
    yield proc
    proc.kill()  # it may still be running a case that timed out here
    proc.wait(timeout=30)
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        pipe.close()


def run_in_child(child, argv):
    child.stdin.write(json.dumps(argv) + "\n")
    child.stdin.flush()
    ready, _, _ = select.select([child.stdout], [], [], 4 * CASE_SECONDS)
    assert ready, f"no answer within {4 * CASE_SECONDS} s: {argv}"
    line = child.stdout.readline()
    assert line, f"the child died on {argv}"
    return json.loads(line)


@settings(derandomize=True, database=None, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_every_input_gets_a_report_or_a_refusal(child, datum_dir, data):
    argv = data.draw(command_lines(datum_dir), label="argv")
    code, out, err = run_in_child(child, argv)
    # 3 (an internal check failed) is a bug; 141 needs a closed pipe
    assert code in (0, 1, 2), (code, out[:300], err[-300:])
    if code == 1:
        assert (out.startswith("ERROR\t") and out.count("\n") == 1 and out.endswith("\n"),
                err) == (True, ""), out
    elif code == 2 and not out:
        assert err.startswith("usage: sl2cohom"), err  # argparse
    else:
        assert err == ""
        assert bad_lines(out, "human" if "--mode=human" in argv else "machine") == []
        assert (code == 2) == (argv[0] == "verify" and "VERIFY\tfail\n" in out)
