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

from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from math import comb

from .abelian import contains_in_image, fixed_subgroup, is_prime, two_torsion_order
from .arithdata import ArithmeticDatum
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

FARRELL_TATE_SHAPES = ("NonInvariant", "Invariant")
FUNCTION_FIELD_SHAPES = ("UnitsFF", "MonomialFF")
ALL_SHAPES = FARRELL_TATE_SHAPES + FUNCTION_FIELD_SHAPES


class ComponentBoundExceeded(Exception):
    """A report would list more components than ``COMPONENT_BOUND``."""


def check_component_bound(count: int) -> None:
    """Refuse a report of ``count`` components if that is over ``COMPONENT_BOUND``."""
    if count > COMPONENT_BOUND:
        raise ComponentBoundExceeded(
            f"the report would list {count} components, "
            f"over the component bound {COMPONENT_BOUND}")


# ---------------------------------------------------------------------------
# component rings and graded dimensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComponentRing:
    kind: str
    rank: int

    def __post_init__(self):
        if self.kind not in ALL_SHAPES:
            raise ValueError(f"unknown component shape {self.kind!r}")
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")

    @property
    def is_laurent(self) -> bool:
        return self.kind in FARRELL_TATE_SHAPES

    @property
    def rank_letter(self) -> str:
        return "d" if self.is_laurent else "r"


def graded_dimension(component: ComponentRing, n: int) -> int:
    """Dimension of the component ring in cohomological degree n.

    The Laurent shapes are nonzero in negative degrees and 4-periodic,
    so they are summed once per residue of n mod 4; the
    ordinary-cohomology shapes vanish below degree 0.
    """
    if component.is_laurent:
        return _laurent_dimension(component, n % 4)
    d = component.rank
    if n < 0:
        return 0
    if component.kind == "UnitsFF":
        return sum(comb(d, k) for k in range(min(d, n) + 1))
    # MonomialFF: monomial b^m a^delta x_T with 2m + delta + |T| = n,
    # kept when m + delta + |T| is even
    total = 0
    for k in range(min(d, n) + 1):
        delta = (n - k) % 2
        m = (n - k - delta) // 2
        if m >= 0 and (m + delta + k) % 2 == 0:
            total += comb(d, k)
    return total


@lru_cache(maxsize=1024)
def _laurent_dimension(component: ComponentRing, residue: int) -> int:
    d = component.rank
    if component.kind == "NonInvariant":
        return sum(comb(d, k) for k in range(d + 1) if (residue - k) % 2 == 0)
    # Invariant: monomial (degree-2 gen)^m x_T invariant iff m + |T| even,
    # which for 2m + |T| = n means n + |T| = 0 mod 4
    return sum(comb(d, k) for k in range(d + 1) if (residue + k) % 4 == 0)


def freeness_basis_degrees(component: ComponentRing) -> tuple[tuple[int, int], ...]:
    """Degrees of a module basis over the degree-4 periodic base ring, as
    (degree, multiplicity) pairs in ascending degree, at most rank + 4.

    Laurent shapes are free over the Laurent subring generated by the
    square of the degree-2 generator, with basis the monomials whose
    degree-2 exponent is 0 or 1; the ordinary shapes are free over the
    polynomial subring on that square.  Sign-fixed shapes keep the basis
    monomials with even total sign weight.
    """
    d = component.rank
    sign_fixed = component.kind in ("Invariant", "MonomialFF")
    counts: dict[int, int] = {}
    for eps in (0, 1):
        for delta in (0,) if component.is_laurent else (0, 1):
            for k in range(d + 1):
                if sign_fixed and (eps + delta + k) % 2:
                    continue
                degree = 2 * eps + delta + k
                counts[degree] = counts.get(degree, 0) + comb(d, k)
    return tuple(sorted(counts.items()))


# ---------------------------------------------------------------------------
# decompositions and verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    outcome: str  # holds | fails | inconclusive
    witness: tuple | None = None
    note: str = ""

    def __post_init__(self):
        if self.outcome not in ("holds", "fails", "inconclusive"):
            raise ValueError(f"unknown outcome {self.outcome!r}")
        if self.outcome == "fails" and self.witness is None:
            raise ValueError("a failing verdict must carry a witness")


@dataclass(frozen=True)
class Decomposition:
    """The direct-sum decomposition, stored as a count per component shape.

    ``shapes`` pairs each distinct component ring with its multiplicity,
    the fixed-class shape (``Invariant``/``MonomialFF``) first; component
    indices run consecutively through the shapes in that order.  For a
    number field ``classes`` is the number of conjugacy classes the
    components are counted on.
    """

    shapes: tuple[tuple[ComponentRing, int], ...]
    nonvanishing: bool
    advisories: tuple[str, ...] = ()
    classes: int | None = None

    def __post_init__(self):
        if not self.nonvanishing and self.shapes:
            raise ValueError("a vanishing decomposition must have no components")
        if any(count < 1 for _, count in self.shapes):
            raise ValueError("shape multiplicities must be positive")
        if len({shape for shape, _ in self.shapes}) != len(self.shapes):
            raise ValueError("each shape is listed once, with its multiplicity")

    @property
    def count(self) -> int:
        """Number of components (subgroup or Picard inversion classes)."""
        return sum(count for _, count in self.shapes)


# ---------------------------------------------------------------------------
# number-field operations
# ---------------------------------------------------------------------------

def nonvanishing(datum: ArithmeticDatum) -> Verdict:
    """Cohomology is nonzero iff the trace lies in K and the Steinitz class
    is a norm."""
    violated = []
    if not datum.trace_in_K:
        violated.append("trace_in_K")
    elif not contains_in_image(datum.nm0, datum.steinitz):
        violated.append("steinitz_in_image_nm0")
    if violated:
        return Verdict(outcome="fails", witness=tuple(violated))
    return Verdict(outcome="holds")


def conjugacy_classes(datum: ArithmeticDatum, verdict: Verdict | None = None) -> int:
    """Number of conjugacy classes of order-ell elements, |coker(Nm1)| * |ker(nm0)|.

    The class set is an extension of ker(nm0) by coker(Nm1).  Only its
    cardinality and the orbit counts of the order-two symmetry are used,
    so it is modeled as the product of the two groups, counted but never
    listed, and the extension class is left unresolved.  Requires
    non-vanishing; ``verdict`` is the datum's non-vanishing verdict when
    the caller already has it.
    """
    if (verdict or nonvanishing(datum)).outcome != "holds":
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
    fixed = two_torsion_order(datum.coker_nm1) * fixed_subgroup(datum.sigma).order
    return _orbit_shapes("Invariant", "NonInvariant", datum.ker_nm1_rank, classes, fixed)


def decompose_number_field(datum: ArithmeticDatum) -> Decomposition:
    """Direct-sum decomposition indexed by subgroup classes (empty if zero)."""
    verdict = nonvanishing(datum)
    if verdict.outcome != "holds":
        return Decomposition(shapes=(), nonvanishing=False)
    advisories = []
    if not datum.coker_nm1.is_trivial:
        advisories.append(
            "extension_model=product coker_nm1_nontrivial=true "
            "orbit_counts_may_shift_under_unresolved_fiber_action")
    classes = conjugacy_classes(datum, verdict)
    return Decomposition(shapes=subgroup_classes(datum, classes), nonvanishing=True,
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
        raise ValueError(f"ell = {ell} must divide q - 1 = {field_spec.q - 1}")
    if not is_prime(ell) or ell == 2:
        raise ValueError("ell must be an odd prime")
    advisories = ()
    if isinstance(curve, P1Minus):
        check_punctures_exist(curve, field_spec.q)
        pic = pic_p1_minus(curve.puncture_degrees)
        order, fixed, rank = pic.order, two_torsion_order(pic), curve.punctures - 1
        if curve.punctures >= 4:
            advisories = (
                f"punctures={curve.punctures} threshold=4 "
                "nondetectable_classes_possible=true decomposition_covers_parabolic_part_only",)
    else:
        order, fixed = elliptic_order_and_two_torsion(curve, field_spec)
        rank = 0
    return Decomposition(shapes=_orbit_shapes("MonomialFF", "UnitsFF", rank, order, fixed),
                         nonvanishing=True, advisories=advisories)


# ---------------------------------------------------------------------------
# freeness, detection, hypothesis gate
# ---------------------------------------------------------------------------

def freeness_certificate(decomposition: Decomposition,
                         up_to: int = DEFAULT_DEGREE_BOUND) -> list[tuple[tuple[int, int], ...]]:
    """The basis degrees of each component shape, in the order of
    ``decomposition.shapes``, each checked degreewise on [-up_to, up_to].

    For every scanned degree n the dimension of the shape equals the
    number of basis degrees congruent to n mod 4 (for a polynomial base,
    also at most n).
    """
    certificate = []
    for shape, _ in decomposition.shapes:
        degrees = freeness_basis_degrees(shape)
        laurent = shape.is_laurent
        for n in range(-up_to, up_to + 1):
            expected = graded_dimension(shape, n)
            got = sum(m for d, m in degrees if (d - n) % 4 == 0 and (laurent or d <= n))
            if expected != got:
                raise ArithmeticError(
                    f"freeness identity failed for shape {shape.kind}({shape.rank}) "
                    f"in degree {n}: dimension {expected}, basis count {got}")
        certificate.append(degrees)
    return certificate


def detection_verdict(datum: ArithmeticDatum, decomposition: Decomposition,
                      up_to: int = DEFAULT_DEGREE_BOUND) -> Verdict:
    """Rank comparison against one copy of the diagonal-torus cohomology.

    The torus model is the non-invariant shape on the S-unit rank.  If the
    summed component dimensions exceed the torus dimensions in some degree,
    restriction to the torus cannot be injective and detection fails; the
    comparison can never prove detection, so the other outcome is
    inconclusive.
    """
    if not decomposition.shapes:
        return Verdict(outcome="inconclusive",
                       note="empty decomposition: nothing to detect")
    target = ComponentRing(kind="NonInvariant", rank=datum.unit_rank_K)
    for n in range(-up_to, up_to + 1):
        total = sum(count * graded_dimension(shape, n)
                    for shape, count in decomposition.shapes)
        torus = graded_dimension(target, n)
        if total > torus:
            return Verdict(outcome="fails", witness=(n, total, torus))
    return Verdict(outcome="inconclusive",
                   note=f"no rank excess up to degree {up_to}")


def refined_gate(ell: int, n: int, *, zeta_in_K: bool, s_contains_infinite: bool,
                 s_contains_ell: bool, detection_hypothesis: str) -> Verdict:
    """Hypothesis gate for the refined freeness conjecture in rank n.

    Checks that ell is prime, n < ell, the ell-th root of unity lies in K,
    S contains the infinite places and the places over ell, and that the
    detection hypothesis holds; ``detection_hypothesis`` is holds, fails or
    unknown.  Violations are listed; an unknown detection hypothesis with
    everything else satisfied is inconclusive.
    """
    if detection_hypothesis not in ("holds", "fails", "unknown"):
        raise ValueError("detection_hypothesis must be holds, fails or unknown")
    violated = []
    if not is_prime(ell):
        violated.append("ell_prime")
    if not n < ell:
        violated.append("n_less_than_ell")
    if not zeta_in_K:
        violated.append("zeta_ell_in_K")
    if not s_contains_infinite:
        violated.append("S_contains_infinite_places")
    if not s_contains_ell:
        violated.append("S_contains_places_over_ell")
    if detection_hypothesis == "fails":
        violated.append("detection_on_finite_subgroups")
    if violated:
        return Verdict(outcome="fails", witness=tuple(violated))
    if detection_hypothesis == "unknown":
        return Verdict(outcome="inconclusive",
                       note="detection hypothesis unknown")
    return Verdict(outcome="holds")


# ---------------------------------------------------------------------------
# machine report
# ---------------------------------------------------------------------------

def _dims_field(component: ComponentRing, bound: int) -> str:
    values = ",".join(str(graded_dimension(component, n)) for n in range(-4, bound + 1))
    return f"dims[-4..{bound}]={values}"


def _component_lines(decomposition: Decomposition, bound: int) -> Iterator[str]:
    """COMPONENT, FREENESS and CHERN lines, produced lazily.

    A report over ``COMPONENT_BOUND`` components is refused, and the
    freeness certificate is checked, before the iterator is returned.
    Everything that depends on the shape (graded dimensions, basis
    degrees, line suffixes) is built once per shape, so a line costs only
    its index.
    """
    check_component_bound(decomposition.count)
    certificate = freeness_certificate(decomposition, bound)
    blocks = []
    start = 0
    for (shape, count), basis_degrees in zip(decomposition.shapes, certificate):
        degrees = ",".join(f"{d}:{m}" for d, m in basis_degrees)
        ring = f"shape={shape.kind} {shape.rank_letter}={shape.rank} {_dims_field(shape, bound)}"
        base = "laurent" if shape.is_laurent else "polynomial"
        basis = f"basis_degrees={degrees} base={base} verified_up_to={bound}"
        blocks.append((range(start, start + count), ring, basis))
        start += count
    # c2 restricts to the sum of the components' squared degree-2
    # generators, a non-zero-divisor whenever there is a component
    chern = ("CHERN\trestriction=sum_of_squared_degree2_generators "
             f"non_zero_divisor={'true' if decomposition.shapes else 'false'}")

    def lines():
        for indices, ring, _ in blocks:
            for i in indices:
                yield f"COMPONENT\t{i} {ring}"
        for indices, _, basis in blocks:
            for i in indices:
                yield f"FREENESS\tcomponent={i} {basis}"
        yield chern

    return lines()


def machine_lines_number_field(datum: ArithmeticDatum,
                               bound: int = DEFAULT_DEGREE_BOUND,
                               decomposition: Decomposition | None = None,
                               detection: Verdict | None = None) -> Iterator[str]:
    """Report lines, one fact per line, for a number-field analysis.

    ``decomposition`` and ``detection`` are the datum's decomposition and
    detection verdict (up to ``bound``) when the caller already has them.
    Every check that can refuse or fail runs before the iterator is
    returned; the lines themselves are produced lazily.
    """
    if decomposition is None:
        decomposition = decompose_number_field(datum)
    head = [f"NONVANISHING\t{'holds' if decomposition.nonvanishing else 'fails'}"]
    components = ()
    if decomposition.nonvanishing:
        head.append(f"CCLASSES\t{decomposition.classes}")
        head.append(f"KCLASSES\t{decomposition.count}")
        components = _component_lines(decomposition, bound)
    if detection is None:
        detection = detection_verdict(datum, decomposition, bound)
    if detection.outcome == "fails":
        tail = [f"DETECTION\tfails witness_degree={detection.witness[0]}"]
    else:
        note = f" note={detection.note.split(':')[0].replace(' ', '_')}" if detection.note else ""
        tail = [f"DETECTION\tinconclusive{note}"]
    tail.extend(f"ADVISORY\t{advisory}" for advisory in decomposition.advisories)
    return chain(head, components, tail)


def machine_lines_function_field(curve: CurveSpec, field_spec: FiniteFieldSpec, ell: int,
                                 bound: int = DEFAULT_DEGREE_BOUND) -> Iterator[str]:
    """Report lines for a function-field analysis, produced lazily after
    every check has run."""
    decomposition = decompose_function_field(curve, field_spec, ell)
    return chain((f"KCLASSES\t{decomposition.count}",),
                 _component_lines(decomposition, bound),
                 (f"ADVISORY\t{advisory}" for advisory in decomposition.advisories))


def gate_line(verdict: Verdict) -> str:
    if verdict.outcome == "fails":
        return f"GATE\tfails violated={','.join(verdict.witness)}"
    if verdict.outcome == "inconclusive":
        return "GATE\tinconclusive violated="
    return "GATE\tholds"
