"""Structure of Farrell-Tate cohomology for rank-one S-arithmetic groups.

Given an arithmetic datum, this module decides non-vanishing, counts
conjugacy classes of odd-prime-order elements and of the cyclic subgroups
they generate, builds the component rings of the direct-sum decomposition
indexed by those subgroup classes, extracts graded dimensions, certifies
freeness over the degree-4 periodic subring hit by the second Chern
class, and runs the rank-comparison detection test.  The function-field
analogue decomposes along inversion classes of the Picard group of a
punctured curve.  Classes are counted in closed form, never listed: a
decomposition is a count per component shape, and all shape-dependent
work is done once per shape.

Component-ring shapes (all over the field with ell elements):

* ``NonInvariant(d)``  Laurent algebra on one degree-2 generator tensor an
  exterior algebra on d degree-1 generators.
* ``Invariant(d)``     the subring of ``NonInvariant(d)`` fixed by the sign
  action negating every generator.
* ``UnitsFF(r)``       polynomial on one degree-2 generator tensor exterior
  on one degree-1 generator and r further degree-1 generators (ordinary
  cohomology of the unit group of the coordinate ring).
* ``MonomialFF(r)``    the sign-fixed subring of ``UnitsFF(r)`` (cohomology
  of the monomial-matrix subgroup).
"""

from __future__ import annotations

import sys
from collections.abc import Iterator
from functools import lru_cache
from itertools import chain

from .abelian import (InputError, Record, contains_in_image, fixed_point_count, is_prime,
                      two_torsion_order)
from .arithdata import MAX_UNIT_RANK, ArithmeticDatum
from .curve import (
    CurveSpec,
    FiniteFieldSpec,
    P1Minus,
    check_punctures_exist,
    elliptic_order_and_two_torsion,
    pic_p1_minus,
)

DEFAULT_DEGREE_BOUND = 12
# the largest --degree-bound a report accepts (a report's cost grows with it)
MAX_DEGREE_BOUND = 1000
# the most components a report may list; larger reports are refused up front
COMPONENT_BOUND = 10**6
# the most bytes the COMPONENT and FREENESS lines of one report may take.
# 2^30 admits the largest report the rank and component bounds were set
# for, 442 MB at unit rank 2000 over 1000 classes, and refuses the same
# rank over 10^6 classes (about 440 GB), which passes both of them
REPORT_BYTE_BOUND = 1 << 30
# about the most characters in one report item (one write), unless the item
# is a single line; larger items raise the peak memory
ITEM_CHARS = 1 << 14

FARRELL_TATE_SHAPES = ("NonInvariant", "Invariant")
FUNCTION_FIELD_SHAPES = ("UnitsFF", "MonomialFF")
ALL_SHAPES = FARRELL_TATE_SHAPES + FUNCTION_FIELD_SHAPES


def check_component_bound(count: int) -> None:
    """Refuse a report of ``count`` components if that is over ``COMPONENT_BOUND``."""
    if count > COMPONENT_BOUND:
        try:
            shown = str(count)
        except ValueError:  # more digits than Python writes out
            shown = f"at least 10^{sys.get_int_max_str_digits()}"
        raise InputError(f"the report would list {shown} components, "
                         f"over the component bound {COMPONENT_BOUND}")


def _digits_below(stop: int) -> int:
    """The digits of the indices 0..stop-1 written out: one each, and one
    more for each index of at least 10^k, for every k >= 1."""
    total, power = stop, 10
    while power < stop:
        total += stop - power
        power *= 10
    return total


def check_report_bytes(runs) -> None:
    """Refuse the report lines ``f"{prefix}{i}{suffix}"`` of the
    (prefix, indices, suffix) runs if they would take more than
    ``REPORT_BYTE_BOUND`` bytes, each with its newline, counted exactly."""
    size = sum((len(prefix) + len(suffix) + 1) * len(indices)
               + _digits_below(indices.stop) - _digits_below(indices.start)
               for prefix, indices, suffix in runs)
    if size > REPORT_BYTE_BOUND:
        raise InputError(f"the COMPONENT and FREENESS lines would take {size} bytes, "
                         f"over the report byte bound {REPORT_BYTE_BOUND}")


# ---------------------------------------------------------------------------
# component rings and graded dimensions
# ---------------------------------------------------------------------------

class ComponentRing(Record):
    _fields = ("kind", "rank")

    def __init__(self, kind: str, rank: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rank", rank)
        if kind not in ALL_SHAPES:
            raise ValueError(f"unknown component shape {kind!r}")
        if rank < 0:
            raise ValueError("rank must be nonnegative")

    @property
    def is_laurent(self) -> bool:
        return self.kind in FARRELL_TATE_SHAPES

    @property
    def rank_letter(self) -> str:
        return "d" if self.is_laurent else "r"


def graded_dimension(component: ComponentRing, n: int) -> int:
    """Dimension of the component ring in cohomological degree n.

    It is a sum of binomials C(rank, k) over the k in the classes mod 4
    that the shape and n select, read off running prefix sums: over
    all k for the Laurent shapes, which are nonzero in negative degrees
    and 4-periodic, and over k <= n for the ordinary-cohomology shapes,
    which vanish below degree 0.  A monomial x_T has |T| = k.
    """
    if n < 0 and not component.is_laurent:
        return 0
    d = component.rank
    sums = _binomial_sums(d)[d if component.is_laurent else min(d, n)]
    if component.kind == "NonInvariant":  # (degree-2 gen)^m x_T with 2m + k = n
        return sums[n % 2] + sums[n % 2 + 2]
    if component.kind == "Invariant":  # kept when m + k is even: n + k = 0 mod 4
        return sums[-n % 4]
    if component.kind == "UnitsFF":  # b^m a^delta x_T, one (m, delta) for each k <= n
        return sum(sums)
    # MonomialFF: kept when m + delta + k = ceil((n - k) / 2) + k is even,
    # which is k = -n or 3 - n mod 4
    return sums[-n % 4] + sums[(3 - n) % 4]


@lru_cache(maxsize=16)
def _binomials(d: int) -> tuple[int, ...]:
    """C(d, k) for k = 0..d, each from the one before."""
    row = [1]
    for k in range(d):
        row.append(row[-1] * (d - k) // (k + 1))
    return tuple(row)


@lru_cache(maxsize=16)
def _binomial_sums(d: int) -> tuple[tuple[int, int, int, int], ...]:
    """Row j holds the sums of C(d, k) over k <= j, by k mod 4."""
    rows = []
    sums = [0, 0, 0, 0]
    for k, c in enumerate(_binomials(d)):
        sums[k % 4] += c
        rows.append(tuple(sums))
    return tuple(rows)


def freeness_basis_degrees(component: ComponentRing) -> tuple[tuple[int, int], ...]:
    """Degrees of a module basis over the degree-4 periodic base ring, as
    (degree, multiplicity) pairs in ascending degree, at most rank + 4.

    Laurent shapes are free over the Laurent subring generated by the
    square of the degree-2 generator, with basis the monomials whose
    degree-2 exponent is 0 or 1; the ordinary shapes are free over the
    polynomial subring on that square.  Sign-fixed shapes keep the basis
    monomials with even total sign weight.
    """
    binomials = _binomials(component.rank)
    sign_fixed = component.kind in ("Invariant", "MonomialFF")
    counts: dict[int, int] = {}
    for eps in (0, 1):
        for delta in (0,) if component.is_laurent else (0, 1):
            for k, c in enumerate(binomials):
                if sign_fixed and (eps + delta + k) % 2:
                    continue
                degree = 2 * eps + delta + k
                counts[degree] = counts.get(degree, 0) + c
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# decompositions
# ---------------------------------------------------------------------------

class Decomposition(Record):
    """The direct-sum decomposition, stored as a count per component shape.

    ``shapes`` pairs each distinct component ring with its multiplicity,
    the fixed-class shape (``Invariant``/``MonomialFF``) first; component
    indices run consecutively through the shapes in that order.  The
    class of zero is always a fixed orbit, so the shapes are empty exactly
    when the cohomology vanishes.  For a number field ``classes`` is the
    number of conjugacy classes the components are counted on.
    """

    _fields = ("shapes", "advisories", "classes")

    def __init__(self, shapes: tuple[tuple[ComponentRing, int], ...],
                 advisories: tuple[str, ...] = (), classes: int | None = None):
        object.__setattr__(self, "shapes", shapes)
        object.__setattr__(self, "advisories", advisories)
        object.__setattr__(self, "classes", classes)
        if any(count < 1 for _, count in shapes):
            raise ValueError("shape multiplicities must be positive")
        if len({shape for shape, _ in shapes}) != len(shapes):
            raise ValueError("each shape is listed once, with its multiplicity")

    @property
    def count(self) -> int:
        """Number of components (subgroup or Picard inversion classes)."""
        return sum(count for _, count in self.shapes)


# ---------------------------------------------------------------------------
# number-field operations
# ---------------------------------------------------------------------------

def nonvanishing(datum: ArithmeticDatum) -> tuple[str, ...]:
    """The violated conditions for nonzero cohomology, none if it is nonzero:
    the trace lies in K, and then the Steinitz class is a norm."""
    if not datum.trace_in_K:
        return ("trace_in_K",)
    if not contains_in_image(datum.nm0, datum.steinitz):
        return ("steinitz_in_image_nm0",)
    return ()


def conjugacy_classes(datum: ArithmeticDatum, violated: tuple[str, ...]) -> int:
    """Number of conjugacy classes of order-ell elements, |coker(Nm1)| * |ker(nm0)|.

    The class set is an extension of ker(nm0) by coker(Nm1).  Only its
    cardinality and the orbit counts of the order-two symmetry are used,
    so it is modeled as the product of the two groups, counted but never
    listed, and the extension class is left unresolved.  Requires
    non-vanishing: ``violated`` is what ``nonvanishing`` returns for the
    datum, and must be empty.
    """
    if violated:
        raise ValueError("conjugacy classes require non-vanishing cohomology")
    return datum.coker_nm1.order * datum.ker_nm0.order


def _orbit_shapes(fixed_kind: str, paired_kind: str, rank: int,
                  order: int, fixed: int) -> tuple[tuple[ComponentRing, int], ...]:
    """Orbits of an involution with ``fixed`` fixed points on ``order``
    elements, by Burnside's lemma: the fixed singletons, then the pairs."""
    counts = ((fixed_kind, fixed), (paired_kind, (order - fixed) // 2))
    return tuple((ComponentRing(kind, rank), n) for kind, n in counts if n)


def subgroup_classes(datum: ArithmeticDatum,
                     classes: int) -> tuple[tuple[ComponentRing, int], ...]:
    """Orbits of the order-two symmetry on the ``classes`` conjugacy classes.

    The symmetry acts componentwise on the product model: by negation on
    coker(Nm1) and by the datum's sigma on ker(nm0).  Its fixed set is
    coker[2] x ker(sigma - 1), which gives the invariant subgroup classes;
    the other classes pair up into non-invariant ones.
    """
    fixed = (two_torsion_order(datum.coker_nm1.invariant_factors)
             * fixed_point_count(datum.sigma))
    return _orbit_shapes("Invariant", "NonInvariant", datum.ker_nm1_rank, classes, fixed)


def decompose_number_field(datum: ArithmeticDatum) -> Decomposition:
    """Direct-sum decomposition indexed by subgroup classes (empty if zero)."""
    violated = nonvanishing(datum)
    if violated:
        return Decomposition(shapes=())
    advisories = []
    if not datum.coker_nm1.is_trivial:
        advisories.append(
            "extension_model=product coker_nm1_nontrivial=true "
            "orbit_counts_may_shift_under_unresolved_fiber_action")
    classes = conjugacy_classes(datum, violated)
    return Decomposition(shapes=subgroup_classes(datum, classes),
                         advisories=tuple(advisories), classes=classes)


# ---------------------------------------------------------------------------
# function-field operations
# ---------------------------------------------------------------------------

def decompose_function_field(curve: CurveSpec, field_spec: FiniteFieldSpec,
                             ell: int) -> Decomposition:
    """One component per inversion orbit of the Picard group.

    Requires ell | q - 1 and ell an odd prime.  Divisibility is checked
    first, so an ell too large to factor never reaches trial division.
    Self-inverse classes give the monomial-matrix shape, the others the
    unit-group shape.  Inversion is negation, so the self-inverse classes
    are the 2-torsion Pic[2]; an elliptic report counts #E and #E[2] and
    never computes the group structure.  The shapes' rank is the free rank
    of the unit group of the coordinate ring: s - 1 for the projective
    line minus s closed points (constants times s - 1 independent rational
    functions), 0 for a once-punctured elliptic curve (constant units only).
    """
    if ell > 2 and (field_spec.q - 1) % ell:
        raise InputError(f"ell = {ell} must divide q - 1 = {field_spec.q - 1}")
    if not is_prime(ell) or ell == 2:
        raise InputError("ell must be an odd prime")
    advisories = ()
    if isinstance(curve, P1Minus):
        check_punctures_exist(curve, field_spec.q)
        rank = curve.punctures - 1
        if rank > MAX_UNIT_RANK:
            raise InputError(f"unit rank {rank} (punctures - 1) exceeds "
                             f"the unit-rank bound {MAX_UNIT_RANK}")
        pic = pic_p1_minus(curve.puncture_degrees)
        order, fixed = pic.order, two_torsion_order(pic.invariant_factors)
        if curve.punctures >= 4:
            advisories = (
                f"punctures={curve.punctures} threshold=4 "
                "nondetectable_classes_possible=true decomposition_covers_parabolic_part_only",)
    else:
        order, fixed = elliptic_order_and_two_torsion(curve, field_spec)
        rank = 0
    return Decomposition(shapes=_orbit_shapes("MonomialFF", "UnitsFF", rank, order, fixed),
                         advisories=advisories)


# ---------------------------------------------------------------------------
# freeness, detection, hypothesis gate
# ---------------------------------------------------------------------------

def freeness_certificate(decomposition: Decomposition,
                         up_to: int = DEFAULT_DEGREE_BOUND) -> list[tuple[tuple[int, int], ...]]:
    """The basis degrees of each component shape, in the order of
    ``decomposition.shapes``, each checked degreewise on [-up_to, up_to].

    For every scanned degree n the dimension of the shape equals the
    number of basis degrees congruent to n mod 4 (for a polynomial base,
    also at most n).  The basis is counted by degree mod 4 as n rises, a
    degree joining the counts once n reaches it (at once, for a Laurent
    base), so the check costs the degrees scanned plus the basis degrees.
    """
    certificate = []
    for shape, _ in decomposition.shapes:
        degrees = freeness_basis_degrees(shape)
        counted = [0, 0, 0, 0]
        joined = 0
        for n in range(-up_to, up_to + 1):
            while joined < len(degrees) and (shape.is_laurent or degrees[joined][0] <= n):
                d, m = degrees[joined]
                counted[d % 4] += m
                joined += 1
            expected, got = graded_dimension(shape, n), counted[n % 4]
            if expected != got:
                raise ArithmeticError(
                    f"freeness identity failed for shape {shape.kind}({shape.rank}) "
                    f"in degree {n}: dimension {expected}, basis count {got}")
        certificate.append(degrees)
    return certificate


def detection_verdict(datum: ArithmeticDatum, decomposition: Decomposition,
                      up_to: int = DEFAULT_DEGREE_BOUND) -> tuple[int, int, int] | None:
    """Rank comparison against one copy of the diagonal-torus cohomology.

    The torus model is the non-invariant shape on the S-unit rank.  If the
    summed component dimensions exceed the torus dimensions in some degree
    n, restriction to the torus cannot be injective and detection fails:
    the witness (n, summed dimension, torus dimension) is returned.  The
    comparison can never prove detection, so otherwise it is inconclusive
    and gives None, at once for an empty decomposition.
    """
    if not decomposition.shapes:
        return None
    target = ComponentRing(kind="NonInvariant", rank=datum.unit_rank_K)
    for n in range(-up_to, up_to + 1):
        total = sum(count * graded_dimension(shape, n)
                    for shape, count in decomposition.shapes)
        torus = graded_dimension(target, n)
        if total > torus:
            return n, total, torus
    return None


def refined_gate(ell: int, n: int, *, zeta_in_K: bool, s_contains_infinite: bool,
                 s_contains_ell: bool, detection_fails: bool) -> tuple[str, ...]:
    """The violated hypotheses of the refined freeness conjecture in rank n,
    in a fixed order.

    The hypotheses are that ell is prime, n < ell, the ell-th root of
    unity lies in K, S contains the infinite places and the places over
    ell, and detection on finite subgroups, which the rank comparison can
    refute (``detection_fails``) but never prove.
    """
    held = {"ell_prime": is_prime(ell), "n_less_than_ell": n < ell, "zeta_ell_in_K": zeta_in_K,
            "S_contains_infinite_places": s_contains_infinite,
            "S_contains_places_over_ell": s_contains_ell,
            "detection_on_finite_subgroups": not detection_fails}
    return tuple(name for name, holds in held.items() if not holds)


# ---------------------------------------------------------------------------
# machine report
# ---------------------------------------------------------------------------

def _dims_field(component: ComponentRing, bound: int) -> str:
    values = ",".join(str(graded_dimension(component, n)) for n in range(-4, bound + 1))
    return f"dims[-4..{bound}]={values}"


# the index endings of a group of 100 or 10 lines: the last digits of a
# padded index ("00".."99"), and the whole index in the first group
_ENDINGS = {size: ([str(size + j)[1:] for j in range(size)], [str(j) for j in range(size)])
            for size in (100, 10)}


def _runs(prefix: str, indices: range, suffix: str) -> Iterator[str]:
    """The lines ``f"{prefix}{i}{suffix}"`` for i in ``indices``, as items
    of whole lines joined by newlines.

    An item is a run of indices that share i // size, for a size of 100
    or 10 lines, the larger that fits the lines in ``ITEM_CHARS``; the
    run is one join over the table of index endings, so no work is done
    per line.  Lines too long for 10 in an item go one per item.  Runs of
    10 keep lines of about 160 to 1 600 characters off that per-line
    path, which takes half as long again for a report of such lines.
    """
    if not indices:
        return
    width = len(prefix) + len(str(indices[-1])) + len(suffix) + 1
    size = next((size for size in (100, 10) if size * width <= ITEM_CHARS), None)
    if size is None:
        for i in indices:
            yield f"{prefix}{i}{suffix}"
        return
    padded, whole = _ENDINGS[size]
    for group in range(indices.start // size, (indices.stop - 1) // size + 1):
        base = group * size
        lo, hi = max(indices.start - base, 0), min(indices.stop - base, size)
        head, endings = (f"{prefix}{group}", padded) if group else (prefix, whole)
        yield head + (suffix + "\n" + head).join(endings[lo:hi]) + suffix


def _component_lines(decomposition: Decomposition, bound: int) -> Iterator[str]:
    """COMPONENT, FREENESS and CHERN lines, produced lazily in items of
    up to 100 lines (see ``_runs``).

    A report over ``COMPONENT_BOUND`` components is refused, the
    freeness certificate is checked, and lines over ``REPORT_BYTE_BOUND``
    bytes are refused, before the iterator is returned.
    Everything that depends on the shape (graded dimensions, basis
    degrees, line suffixes) is built once per shape.
    """
    check_component_bound(decomposition.count)
    certificate = freeness_certificate(decomposition, bound)
    component_runs, freeness_runs = [], []
    start = 0
    for (shape, count), basis_degrees in zip(decomposition.shapes, certificate):
        degrees = ",".join(f"{d}:{m}" for d, m in basis_degrees)
        ring = f"shape={shape.kind} {shape.rank_letter}={shape.rank} {_dims_field(shape, bound)}"
        base = "laurent" if shape.is_laurent else "polynomial"
        basis = f"basis_degrees={degrees} base={base} verified_up_to={bound}"
        indices = range(start, start + count)
        component_runs.append(("COMPONENT\t", indices, f" {ring}"))
        freeness_runs.append(("FREENESS\tcomponent=", indices, f" {basis}"))
        start += count
    runs = component_runs + freeness_runs
    check_report_bytes(runs)
    # c2 restricts to the sum of the components' squared degree-2
    # generators, a non-zero-divisor whenever there is a component
    chern = ("CHERN\trestriction=sum_of_squared_degree2_generators "
             f"non_zero_divisor={'true' if decomposition.shapes else 'false'}")

    def lines():
        for run in runs:
            yield from _runs(*run)
        yield chern

    return lines()


def machine_lines_number_field(decomposition: Decomposition, detection: tuple | None,
                               bound: int) -> Iterator[str]:
    """Report lines, one fact per line, for a number-field analysis: its
    decomposition and the witness of ``detection_verdict`` up to degree
    ``bound``, or None.  Every check that can refuse or fail runs before
    the iterator is returned; the lines themselves are produced lazily,
    as items of one or more whole lines joined by newlines.
    """
    head = [f"NONVANISHING\t{'holds' if decomposition.shapes else 'fails'}"]
    components = ()
    if decomposition.shapes:
        head += [f"CCLASSES\t{decomposition.classes}", f"KCLASSES\t{decomposition.count}"]
        components = _component_lines(decomposition, bound)
    if detection:
        tail = [f"DETECTION\tfails witness_degree={detection[0]}"]
    elif decomposition.shapes:
        tail = [f"DETECTION\tinconclusive note=no_rank_excess_up_to_degree_{bound}"]
    else:
        tail = ["DETECTION\tinconclusive note=empty_decomposition"]
    tail.extend(f"ADVISORY\t{advisory}" for advisory in decomposition.advisories)
    return chain(head, components, tail)


def machine_lines_function_field(curve: CurveSpec, field_spec: FiniteFieldSpec, ell: int,
                                 bound: int = DEFAULT_DEGREE_BOUND) -> Iterator[str]:
    """Report lines for a function-field analysis, produced lazily after
    every check has run, as items of one or more whole lines joined by
    newlines."""
    decomposition = decompose_function_field(curve, field_spec, ell)
    return chain((f"KCLASSES\t{decomposition.count}",),
                 _component_lines(decomposition, bound),
                 (f"ADVISORY\t{advisory}" for advisory in decomposition.advisories))


def gate_line(violated: tuple[str, ...]) -> str:
    """The GATE line of ``refined_gate``'s violations; with none it is
    inconclusive, as detection is never proved."""
    return f"GATE\t{'fails' if violated else 'inconclusive'} violated={','.join(violated)}"
