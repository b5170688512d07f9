"""Command-line interface and verification harness.

Four commands: ``analyze-nf`` (number-field datum), ``analyze-ff``
(punctured curve over a finite field), ``essential`` (essential classes
of elementary abelian groups), ``verify`` (brute-force oracle suites and
fixture validation).  Machine mode emits only the line-oriented report
grammar; human mode adds '#' commentary around the same lines.  Output
is deterministic: identical inputs give byte-identical reports.

Exit codes: 0 success, 1 input refused by an ``InputError`` (single ERROR
line), 2 oracle or fixture verification failure (or an argparse usage
error, on stderr), 3 a failed self-check or any other ``ValueError``, a
bug (single ERROR line), 141 stdout closed before the whole report was
written (nothing on stderr).  Every check that can refuse or fail runs
before the first byte; the report is then written as it is produced.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from importlib import resources
from itertools import chain
from pathlib import Path

from .abelian import FinGenAbGroup, InputError, two_torsion_order
from .arithdata import ArithmeticDatum, build_split_datum, load_datum
from .cohomengine import (
    DEFAULT_DEGREE_BOUND,
    MAX_DEGREE_BOUND,
    check_component_bound,
    detection_verdict,
    decompose_number_field,
    gate_line,
    machine_lines_function_field,
    machine_lines_number_field,
    refined_gate,
)
from .curve import EllipticMinusPoint, P1Minus, field_spec_from_order
from .essential import (
    GradedAlgebraSpec,
    enumerate_proper_subgroups,
    essential_product,
)
from .oracles import run_all_suites

CURVE_PRESETS = {
    "p1_minus_infty": (1,),
    "p1_minus_0_infty": (1, 1),
    "p1_minus_01_infty": (1, 1, 1),
}

def _emit(items, mode: str, title: str) -> None:
    """Write the report as it is produced: each item, one or more whole
    lines (see ``cohomengine.ITEM_CHARS``), and a newline."""
    if mode == "human":
        items = chain((f"# {title}",), items, ("# end of report",))
    write = sys.stdout.write
    for item in items:
        write(item)
        write("\n")


def resolve_datum_path(name: str) -> Path:
    path = Path(name)
    if path.exists():
        return path
    shipped = resources.files("sl2cohom").joinpath("data", name)
    if shipped.is_file():
        return Path(str(shipped))
    raise InputError(f"datum file not found: {name}")


def _load_or_build_datum(args) -> ArithmeticDatum:
    if args.datum:
        return load_datum(resolve_datum_path(args.datum))
    if args.split_class_group is None or args.ell is None or args.unit_rank is None:
        raise InputError("provide --datum FILE or all of --split-class-group, "
                         "--unit-rank and --ell")
    text = args.split_class_group.strip()
    try:
        factors = tuple(int(v) for v in text.split(",")) if text else ()
    except ValueError:
        raise InputError(f"bad --split-class-group list {text!r}; "
                         "expected comma-separated integers") from None
    if any(o < 0 for o in factors):
        raise InputError("cyclic orders must be nonnegative")
    if 0 in factors:  # a copy of Z, refused before from_cyclic_orders' O(k^2) loop
        raise InputError("cl_K must be finite")
    # the components are the orbits of negation on the class group,
    # (|Cl| + |Cl[2]|) / 2, refused here before any Smith form
    check_component_bound((math.prod(factors) + two_torsion_order(factors)) // 2)
    cl_k = FinGenAbGroup.from_cyclic_orders(factors)
    return build_split_datum(cl_k, args.unit_rank, args.ell)


def _degree_bound(args) -> int:
    if not 0 <= args.degree_bound <= MAX_DEGREE_BOUND:
        raise InputError(f"--degree-bound {args.degree_bound} is outside "
                         f"[0, {MAX_DEGREE_BOUND}]")
    return args.degree_bound


def _cmd_analyze_nf(args) -> int:
    bound = _degree_bound(args)
    if args.gate_n is not None and args.gate_n < 1:
        raise InputError(f"--gate-n {args.gate_n} must be at least 1")
    datum = _load_or_build_datum(args)
    decomposition = decompose_number_field(datum)
    detection = detection_verdict(datum, decomposition, bound)
    lines = machine_lines_number_field(decomposition, detection, bound)
    if args.gate_n is not None:
        violated = refined_gate(datum.ell, args.gate_n, zeta_in_K=datum.split,
                                s_contains_infinite=args.gate_s_infinite,
                                s_contains_ell=args.gate_s_ell,
                                detection_fails=detection is not None)
        lines = chain(lines, (gate_line(violated),))
    _emit(lines, args.mode, "analyze-nf report")
    return 0


def _parse_punctures(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise InputError(f"bad puncture list {text!r}; expected comma-separated integers")


def _cmd_analyze_ff(args) -> int:
    bound = _degree_bound(args)
    if args.preset:
        if args.preset not in CURVE_PRESETS:
            raise InputError(f"unknown preset {args.preset!r}; "
                             f"choose from {', '.join(sorted(CURVE_PRESETS))}")
        curve = P1Minus(CURVE_PRESETS[args.preset])
    elif args.curve == "p1":
        if not args.punctures:
            raise InputError("--curve p1 needs --punctures d1,d2,...")
        curve = P1Minus(_parse_punctures(args.punctures))
    elif args.curve == "elliptic":
        if args.a is None or args.b is None:
            raise InputError("--curve elliptic needs --a and --b")
        curve = EllipticMinusPoint(args.a, args.b)
    else:
        raise InputError("choose --curve p1 or --curve elliptic, or a --preset")
    if args.q is None or args.ell is None:
        raise InputError("analyze-ff needs --q and --ell")
    spec = field_spec_from_order(args.q)
    lines = machine_lines_function_field(curve, spec, args.ell, bound)
    _emit(lines, args.mode, "analyze-ff report")
    return 0


def _cmd_essential(args) -> int:
    spec = GradedAlgebraSpec(args.ell, args.rank)
    product = essential_product(spec)  # refused (exit 3) if it vanished
    # theorems on the product of the ell^n - 1 nonzero linear forms (Dickson;
    # Wilkerson, "A primer on the Dickson invariants"): each form has degree 1
    # (ell = 2) or 2; each proper subgroup lies in a hyperplane whose line's
    # form is a factor; permuting coordinates permutes the forms; and a nonzero
    # element of a domain over which the whole algebra is free is no zero divisor
    degree = 2 ** spec.n - 1 if spec.ell == 2 else 2 * (spec.ell ** spec.n - 1)
    lines = [
        f"ESSENTIAL\tell={spec.ell} rank={spec.n} degree={degree} nonzero=true",
        f"PRODUCT\t{product}",
        "RESTRICTIONS\tall_proper_zero=true "
        f"proper_subgroups={len(enumerate_proper_subgroups(spec))}",
        "WEYL\tinvariant=true",
        "REGULARITY\tnon_zero_divisor=true",
    ]
    _emit(lines, args.mode, "essential report")
    return 0


def _cmd_verify(args) -> int:
    fixtures = list(args.datum) if args.datum else sorted(
        f.name for f in resources.files("sl2cohom").joinpath("data").iterdir()
        if f.name.endswith(".datum"))
    paths = [resolve_datum_path(name) for name in fixtures]  # before any suite runs
    lines = []
    ok = True
    for result in run_all_suites():
        lines.append(f"SUITE\t{result.name} {'pass' if result.passed else 'fail'} "
                     f"({result.detail})")
        ok = ok and result.passed
    for name, path in zip(fixtures, paths):
        try:
            load_datum(path)
        except InputError as exc:
            lines.append(f"FIXTURE\t{Path(name).name} fail ({exc})")
            ok = False
        else:
            lines.append(f"FIXTURE\t{Path(name).name} pass")
    lines.append(f"VERIFY\t{'pass' if ok else 'fail'}")
    _emit(lines, args.mode, "verification report")
    return 0 if ok else 2


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then shared by every
    ``main`` call in the process.  It holds no state between calls:
    ``parse_args`` returns a new namespace, ``append`` copies its list, and
    a usage error leaves the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="sl2cohom",
        description="Exact Farrell-Tate cohomology data for rank-one S-arithmetic groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, degree_bound=False):
        p.add_argument("--mode", choices=("human", "machine"), default="machine")
        if degree_bound:
            p.add_argument("--degree-bound", type=int, default=DEFAULT_DEGREE_BOUND)

    nf = sub.add_parser("analyze-nf", help="analyze a number-field datum")
    nf.add_argument("--datum", help="datum file (path or shipped fixture name)")
    nf.add_argument("--split-class-group",
                    help="comma-separated cyclic orders of the class group (split case)")
    nf.add_argument("--unit-rank", type=int, help="S-unit rank (split case)")
    nf.add_argument("--ell", type=int, help="odd prime (split case)")
    nf.add_argument("--gate-n", type=int,
                    help="also run the refined hypothesis gate for this rank (n >= 1)")
    nf.add_argument("--gate-s-infinite", action=argparse.BooleanOptionalAction,
                    default=True, help="S contains the infinite places")
    nf.add_argument("--gate-s-ell", action=argparse.BooleanOptionalAction,
                    default=True, help="S contains the places over ell")
    common(nf, degree_bound=True)
    nf.set_defaults(func=_cmd_analyze_nf)

    ff = sub.add_parser("analyze-ff", help="analyze a punctured curve over a finite field")
    ff.add_argument("--curve", choices=("p1", "elliptic"))
    ff.add_argument("--preset", help=f"one of: {', '.join(sorted(CURVE_PRESETS))}")
    ff.add_argument("--punctures", help="comma-separated degrees of removed closed points")
    ff.add_argument("--a", type=int, help="elliptic coefficient a (field encoding)")
    ff.add_argument("--b", type=int, help="elliptic coefficient b (field encoding)")
    ff.add_argument("--q", type=int, help="field size (prime power)")
    ff.add_argument("--ell", type=int, help="odd prime dividing q - 1")
    common(ff, degree_bound=True)
    ff.set_defaults(func=_cmd_analyze_ff)

    es = sub.add_parser("essential", help="essential classes of an elementary abelian group")
    es.add_argument("--ell", type=int, required=True)
    es.add_argument("--rank", type=int, required=True)
    common(es)
    es.set_defaults(func=_cmd_essential)

    vf = sub.add_parser("verify", help="run the brute-force oracle suites")
    vf.add_argument("--datum", action="append",
                    help="datum files to validate instead of the shipped fixtures")
    common(vf)
    vf.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            code = args.func(args)
        except InputError as exc:
            print(f"ERROR\t{exc}")
            code = 1
        except (ArithmeticError, ValueError) as exc:
            # a failed self-check (freeness identity, Hasse bound, 2-torsion,
            # tables) or a broken internal invariant
            print(f"ERROR\tinternal check failed: {exc}")
            code = 3
        sys.stdout.flush()  # a reader that closes early is caught here too
        return code
    except BrokenPipeError:
        # send what is still buffered to devnull, so that the flush at
        # shutdown does not fail again; 141 = 128 + SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
