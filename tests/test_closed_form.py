"""Differential tests: closed-form class counts against enumeration.

The engine counts subgroup classes and Picard inversion classes by
Burnside's lemma and builds each report once per component shape.  Here
every count and every report line is rebuilt the slow way on random data:
class sets are walked pair by pair, Picard groups point by point or with
``involution_orbits``, graded dimensions and basis degrees come from blind
monomial enumeration in ``brute.py``, and the expected report lists one
component per orbit in enumeration order.  Reports are compared as line
multisets with the component indices removed; the engine's own order
(fixed-class shape first, consecutive indices) is checked separately.
"""

import random
import re
from collections import Counter
from functools import lru_cache
from itertools import chain
from math import gcd

from sl2cohom.abelian import (
    FinGenAbGroup,
    GroupHom,
    InputError,
    Involution,
    involution_orbits,
    kernel,
)
from sl2cohom.arithdata import ArithmeticDatum, build_split_datum
from sl2cohom.cohomengine import (
    decompose_function_field,
    decompose_number_field,
    detection_verdict,
    machine_lines_function_field,
    machine_lines_number_field,
    nonvanishing,
)
from sl2cohom.curve import (
    EllipticMinusPoint,
    P1Minus,
    count_and_structure_elliptic,
    elliptic_points,
    field_spec_from_order,
    get_field,
    pic_p1_minus,
)
from brute import (
    all_hom_matrices,
    apply_matrix,
    basis_degrees_by_enumeration,
    group_elements,
    orbits_on_pairs,
    shape_dimension_by_enumeration,
)
from grammar import report_lines

BOUND = 12
LAURENT = ("NonInvariant", "Invariant")
FIXED = ("Invariant", "MonomialFF")
COKER_ADVISORY = ("ADVISORY\textension_model=product coker_nm1_nontrivial=true "
                  "orbit_counts_may_shift_under_unresolved_fiber_action")


# ---------------------------------------------------------------------------
# reference reports from enumeration
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def dimension(kind, rank, n):
    return shape_dimension_by_enumeration(kind, rank, n)


@lru_cache(maxsize=None)
def component_text(kind, rank):
    letter = "d" if kind in LAURENT else "r"
    dims = ",".join(str(dimension(kind, rank, n)) for n in range(-4, BOUND + 1))
    return f"shape={kind} {letter}={rank} dims[-4..{BOUND}]={dims}"


@lru_cache(maxsize=None)
def freeness_text(kind, rank):
    counts = Counter(basis_degrees_by_enumeration(kind, rank))
    degrees = ",".join(f"{d}:{m}" for d, m in sorted(counts.items()))
    base = "laurent" if kind in LAURENT else "polynomial"
    return f"basis_degrees={degrees} base={base} verified_up_to={BOUND}"


def component_block(components):
    """COMPONENT, FREENESS and CHERN lines, one component per orbit."""
    lines = [f"COMPONENT\t{i} {component_text(*c)}" for i, c in enumerate(components)]
    lines += [f"FREENESS\tcomponent={i} {freeness_text(*c)}" for i, c in enumerate(components)]
    lines.append("CHERN\trestriction=sum_of_squared_degree2_generators "
                 f"non_zero_divisor={'true' if components else 'false'}")
    return lines


def negate(group):
    return lambda x: tuple((-c) % d for c, d in zip(x, group.invariant_factors))


def enumerated_number_field(datum):
    """(components in enumeration order, expected report lines)."""
    cl_a = group_elements(datum.cl_A)
    image = {apply_matrix(datum.nm0.matrix, datum.cl_K.invariant_factors, x) for x in cl_a}
    holds = datum.trace_in_K and datum.steinitz in image
    lines = [f"NONVANISHING\t{'holds' if holds else 'fails'}"]
    components = []
    if holds:
        ker_size = sum(1 for x in cl_a
                       if not any(apply_matrix(datum.nm0.matrix, datum.cl_K.invariant_factors, x)))
        ker = datum.sigma.group
        assert ker.order == ker_size
        coker = group_elements(datum.coker_nm1)
        sigma = datum.sigma.hom.matrix
        orbits = orbits_on_pairs(
            coker, negate(datum.coker_nm1),
            group_elements(ker), lambda k: apply_matrix(sigma, ker.invariant_factors, k))
        components = [("Invariant" if len(o) == 1 else "NonInvariant", datum.ker_nm1_rank)
                      for o in orbits]
        lines.append(f"CCLASSES\t{len(coker) * ker_size}")
        lines.append(f"KCLASSES\t{len(orbits)}")
        lines += component_block(components)
    if not components:
        lines.append("DETECTION\tinconclusive note=empty_decomposition")
    else:
        for n in range(-BOUND, BOUND + 1):
            if (sum(dimension(k, r, n) for k, r in components)
                    > dimension("NonInvariant", datum.unit_rank_K, n)):
                lines.append(f"DETECTION\tfails witness_degree={n}")
                break
        else:
            lines.append(f"DETECTION\tinconclusive note=no_rank_excess_up_to_degree_{BOUND}")
    if holds and not datum.coker_nm1.is_trivial:
        lines.append(COKER_ADVISORY)
    return components, lines


def enumerated_function_field(curve, spec):
    """(components in enumeration order, expected report lines)."""
    pic = (pic_p1_minus(curve.puncture_degrees) if isinstance(curve, P1Minus)
           else count_and_structure_elliptic(curve, spec))
    orbits = involution_orbits(pic, Involution(GroupHom.negation(pic)))
    if isinstance(curve, P1Minus):
        g = 0
        for d in curve.puncture_degrees:
            g = gcd(g, d)
        assert pic.order == g
        fixed = [o.fixed for o in orbits]
        rank = curve.punctures - 1
    else:
        # inversion on the rational points themselves, (x, y) -> (x, -y)
        field = get_field(spec)
        points = elliptic_points(curve, field)
        point_orbits = orbits_on_pairs(
            points, lambda p: p and (p[0], field.mul(p[1], field.from_int(-1))), [()],
            lambda y: y)
        assert len(point_orbits) == len(orbits)
        assert sum(len(o) == 1 for o in point_orbits) == sum(o.fixed for o in orbits)
        fixed = [len(o) == 1 for o in point_orbits]
        rank = 0
    components = [("MonomialFF" if f else "UnitsFF", rank) for f in fixed]
    lines = [f"KCLASSES\t{len(components)}"] + component_block(components)
    if isinstance(curve, P1Minus) and curve.punctures >= 4:
        lines.append(f"ADVISORY\tpunctures={curve.punctures} threshold=4 "
                     "nondetectable_classes_possible=true "
                     "decomposition_covers_parabolic_part_only")
    return components, lines


_INDEX = re.compile(r"^(COMPONENT\t)\d+ |^(FREENESS\t)component=\d+ ")


def without_indices(lines):
    return Counter(_INDEX.sub(lambda m: m.group(1) or m.group(2), line) for line in lines)


def check_against_enumeration(dec, got, components, want):
    """Shape counts and the line multiset agree; indices follow the grammar.
    ``got`` is the report's items, read as lines."""
    got = report_lines(got)
    assert Counter({(s.kind, s.rank): n for s, n in dec.shapes}) == Counter(components)
    assert [s.kind in FIXED for s, _ in dec.shapes] == \
        sorted((s.kind in FIXED for s, _ in dec.shapes), reverse=True)
    assert without_indices(got) == without_indices(want)
    comps = [line for line in got if line.startswith("COMPONENT\t")]
    frees = [line for line in got if line.startswith("FREENESS\t")]
    assert [int(line.split()[1]) for line in comps] == list(range(len(comps)))
    assert [line.split()[1] for line in frees] == [f"component={i}" for i in range(len(comps))]
    fixed = [line.split()[2].removeprefix("shape=") in FIXED for line in comps]
    assert fixed == sorted(fixed, reverse=True)


# ---------------------------------------------------------------------------
# random number-field data
# ---------------------------------------------------------------------------

CL_A = [(), (2,), (3,), (4,), (5,), (6,), (8,), (2, 2), (2, 4), (2, 6), (3, 3), (3, 6),
        (4, 4), (2, 2, 2)]
CL_K = [(), (), (2,), (3,), (4,), (2, 2)]
COKER = [(), (2,), (3,), (4,), (6,), (2, 2), (2, 4)]


@lru_cache(maxsize=None)
def involutions(group):
    """Every involution of a small group, non-diagonal ones first."""
    found = []
    for m in all_hom_matrices(group, group):
        try:
            found.append(Involution(GroupHom(group, group, m)))
        except ValueError:
            continue
    off_diagonal = [s for s in found
                    if any(v for i, row in enumerate(s.hom.matrix)
                           for j, v in enumerate(row) if i != j)]
    return off_diagonal, found


def random_non_split_datum(rng, sigma_mode):
    cl_a = FinGenAbGroup(rng.choice(CL_A))
    cl_k = FinGenAbGroup(rng.choice(CL_K))
    nm0 = GroupHom(cl_a, cl_k, rng.choice(list(all_hom_matrices(cl_a, cl_k))))
    if rng.random() < 0.7:
        x = rng.choice(group_elements(cl_a))
        steinitz = apply_matrix(nm0.matrix, cl_k.invariant_factors, x)
    else:
        steinitz = rng.choice(group_elements(cl_k))
    ker, _ = kernel(nm0)
    if sigma_mode == "negation":
        sigma = Involution(GroupHom.negation(ker))
    elif sigma_mode == "identity":
        sigma = Involution(GroupHom.identity(ker))
    else:
        off_diagonal, found = involutions(ker)
        sigma = rng.choice(off_diagonal or found)
    return ArithmeticDatum(
        ell=rng.choice((3, 5, 7)), trace_in_K=rng.random() < 0.85, split=False,
        cl_K=cl_k, cl_A=cl_a, nm0=nm0, steinitz=steinitz,
        unit_rank_K=rng.randint(0, 3), ker_nm1_rank=rng.randint(0, 3),
        coker_nm1=FinGenAbGroup(rng.choice(COKER)), sigma=sigma, ker_nm0=ker)


def non_split_data():
    """The random non-split data of these tests, each after its sigma mode."""
    rng = random.Random(20261017)
    for trial in range(90):
        mode = ("negation", "identity", "any")[trial % 3]
        yield mode, random_non_split_datum(rng, mode)


def split_data():
    """The random split data of these tests, class groups of order at most 64."""
    rng = random.Random(5)
    for _ in range(25):
        cl = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 8) for _ in range(rng.randint(0, 3))])
        if cl.order <= 64:
            yield build_split_datum(cl, rng.randint(0, 4), rng.choice((3, 5, 7, 11)))


def test_non_split_reports_match_enumeration():
    seen = Counter()
    for mode, datum in non_split_data():
        components, want = enumerated_number_field(datum)
        dec = decompose_number_field(datum)
        got = machine_lines_number_field(dec, detection_verdict(datum, dec, BOUND), BOUND)
        check_against_enumeration(dec, got, components, want)
        if dec.shapes:
            seen[mode] += 1
            seen["coker"] += not datum.coker_nm1.is_trivial
            seen["paired and fixed"] += len(dec.shapes) == 2
            off_diagonal, _ = involutions(datum.sigma.group)
            seen["off-diagonal"] += datum.sigma in off_diagonal
        else:
            seen["vanishing"] += 1
    # the random data reach every case the closed form distinguishes
    cases = ("negation", "identity", "any", "coker", "paired and fixed", "off-diagonal",
             "vanishing")
    assert all(seen[case] >= 5 for case in cases), seen


def test_split_reports_match_enumeration():
    for datum in split_data():
        components, want = enumerated_number_field(datum)
        dec = decompose_number_field(datum)
        got = machine_lines_number_field(dec, detection_verdict(datum, dec, BOUND), BOUND)
        check_against_enumeration(dec, got, components, want)


# ---------------------------------------------------------------------------
# random function-field data
# ---------------------------------------------------------------------------

P1_SPEC = field_spec_from_order(13)


def punctured_lines():
    """The random punctured projective lines of these tests, over GF(13)."""
    rng = random.Random(11)
    for _ in range(30):
        yield P1Minus(tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 6))))


def elliptic_curves():
    """The random (curve, field, ell) elliptic cases of these tests."""
    rng = random.Random(3)
    fields = {7: 3, 11: 5, 13: 3, 19: 3, 23: 11, 25: 3}
    for q, ell in fields.items():
        spec = field_spec_from_order(q)
        for _ in range(6):
            yield EllipticMinusPoint(rng.randrange(q), rng.randrange(q)), spec, ell


def test_punctured_line_reports_match_enumeration():
    for curve in punctured_lines():
        components, want = enumerated_function_field(curve, P1_SPEC)
        dec = decompose_function_field(curve, P1_SPEC, 3)
        got = machine_lines_function_field(curve, P1_SPEC, 3)
        check_against_enumeration(dec, got, components, want)


def test_elliptic_reports_match_enumeration():
    checked = 0
    for curve, spec, ell in elliptic_curves():
        try:
            components, want = enumerated_function_field(curve, spec)
        except InputError:
            continue
        dec = decompose_function_field(curve, spec, ell)
        got = machine_lines_function_field(curve, spec, ell)
        check_against_enumeration(dec, got, components, want)
        checked += 1
    assert checked >= 25


# ---------------------------------------------------------------------------
# the empty decomposition
# ---------------------------------------------------------------------------

def test_shapes_are_empty_exactly_when_the_cohomology_vanishes():
    # the report reads non-vanishing off the shapes: the class of zero is
    # always a fixed orbit, so nonzero cohomology has a component
    seen = Counter()
    for datum in chain((datum for _, datum in non_split_data()), split_data()):
        vanishes = bool(nonvanishing(datum))
        assert (decompose_number_field(datum).shapes == ()) == vanishes
        seen[vanishes] += 1
    assert seen[True] >= 5 and seen[False] >= 5, seen
    for curve, spec, ell in chain(((curve, P1_SPEC, 3) for curve in punctured_lines()),
                                  elliptic_curves()):
        try:
            dec = decompose_function_field(curve, spec, ell)
        except InputError:  # a singular curve
            continue
        assert dec.shapes != ()
        seen["function field"] += 1
    assert seen["function field"] >= 55, seen
