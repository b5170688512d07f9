import itertools
import random
from collections import Counter
from math import comb

import pytest

from sl2cohom.abelian import FinGenAbGroup, GroupHom, InputError, Involution
from sl2cohom.arithdata import ArithmeticDatum, build_split_datum, load_datum
from sl2cohom.cohomengine import (
    COMPONENT_BOUND,
    ITEM_CHARS,
    ComponentRing,
    Decomposition,
    conjugacy_classes,
    decompose_function_field,
    decompose_number_field,
    detection_verdict,
    freeness_basis_degrees,
    freeness_certificate,
    gate_line,
    graded_dimension,
    machine_lines_function_field,
    machine_lines_number_field,
    nonvanishing,
    refined_gate,
    _runs,
    subgroup_classes,
)
from sl2cohom.curve import EllipticMinusPoint, FiniteFieldSpec, P1Minus
from brute import (
    antiinvariant_dimension_by_enumeration,
    basis_degrees_by_enumeration,
    identity_hom,
    shape_dimension_by_enumeration,
)
from grammar import bad_lines, report_lines

QZETA23 = "src/sl2cohom/data/q_zeta23.datum"
QZETA3 = "src/sl2cohom/data/q_zeta3.datum"


def number_field_lines(datum, bound=12):
    """The report lines of ``datum`` up to degree ``bound``, as ``analyze-nf``
    builds them."""
    dec = decompose_number_field(datum)
    return report_lines(
        machine_lines_number_field(dec, detection_verdict(datum, dec, bound), bound))


def zero_hom(domain, codomain):
    return GroupHom(domain, codomain, [[0] * domain.ngens for _ in range(codomain.ngens)])


def synthetic_datum(*, trace=True, cl_K=None, cl_A=None, nm0=None, steinitz=None,
                    coker=None, unit_rank=2, ker_rank=2, ell=3, sigma=None):
    """A hand-assembled non-split datum for exercising edge cases."""
    cl_K = cl_K if cl_K is not None else FinGenAbGroup()
    cl_A = cl_A if cl_A is not None else FinGenAbGroup()
    nm0 = nm0 if nm0 is not None else zero_hom(cl_A, cl_K)
    steinitz = steinitz if steinitz is not None else cl_K.zero()
    coker = coker if coker is not None else FinGenAbGroup()
    from sl2cohom.abelian import kernel
    k, _ = kernel(nm0)
    sigma = sigma if sigma is not None else Involution(GroupHom.negation(k))
    return ArithmeticDatum(
        ell=ell, trace_in_K=trace, split=False, cl_K=cl_K, cl_A=cl_A, nm0=nm0,
        steinitz=steinitz, unit_rank_K=unit_rank, ker_nm1_rank=ker_rank,
        coker_nm1=coker, sigma=sigma, ker_nm0=k)


# ---------------------------------------------------------------------------
# graded dimensions
# ---------------------------------------------------------------------------

def test_noninvariant_rank1_is_constant_one():
    comp = ComponentRing("NonInvariant", 1)
    assert [graded_dimension(comp, n) for n in range(-4, 8)] == [1] * 12


def test_invariant_rank0_period_four():
    comp = ComponentRing("Invariant", 0)
    assert [graded_dimension(comp, n) for n in range(5)] == [1, 0, 0, 0, 1]
    assert graded_dimension(comp, -4) == 1 and graded_dimension(comp, -2) == 0


def test_monomial_ff_rank1_table():
    comp = ComponentRing("MonomialFF", 1)
    assert [graded_dimension(comp, n) for n in range(8)] == [1, 0, 1, 2, 1, 0, 1, 2]


def test_ff_shapes_vanish_in_negative_degrees():
    assert graded_dimension(ComponentRing("UnitsFF", 3), -1) == 0
    assert graded_dimension(ComponentRing("MonomialFF", 2), -4) == 0


def test_noninvariant_constant_two_power():
    for d in range(1, 7):
        comp = ComponentRing("NonInvariant", d)
        for n in range(-4, 13):
            assert graded_dimension(comp, n) == 2 ** (d - 1)


def test_dimensions_match_blind_enumeration():
    for kind in ("NonInvariant", "Invariant", "UnitsFF", "MonomialFF"):
        for rank in range(4):
            comp = ComponentRing(kind, rank)
            for n in range(-4, 13):
                assert graded_dimension(comp, n) == \
                    shape_dimension_by_enumeration(kind, rank, n)


def test_prefix_sums_match_one_binomial_sum_per_degree():
    # the monomials of each shape in degree n, counted by |T| = k and
    # summed with math.comb for every degree
    def kept(kind, n, k):
        m2, delta = divmod(n - k, 2)  # 2m + delta = n - k
        return {"NonInvariant": delta == 0, "Invariant": delta == 0 and (m2 + k) % 2 == 0,
                "UnitsFF": True, "MonomialFF": (m2 + delta + k) % 2 == 0}[kind]

    for d in (5, 13, 64, 301):
        for kind in ("NonInvariant", "Invariant", "UnitsFF", "MonomialFF"):
            laurent = kind in ("NonInvariant", "Invariant")
            for n in [*range(-9, 20), d - 1, d, d + 1, d + 2, d + 7]:
                top = d if laurent else min(d, n)
                want = sum(comb(d, k) for k in range(top + 1) if kept(kind, n, k))
                assert graded_dimension(ComponentRing(kind, d), n) == want, (kind, d, n)


def test_invariant_plus_antiinvariant_equals_full():
    for d in range(5):
        for n in range(-12, 13):
            full = graded_dimension(ComponentRing("NonInvariant", d), n)
            inv = graded_dimension(ComponentRing("Invariant", d), n)
            anti = antiinvariant_dimension_by_enumeration(d, n)
            assert inv + anti == full


def test_laurent_shapes_four_periodic():
    for kind in ("NonInvariant", "Invariant"):
        for d in range(7):
            comp = ComponentRing(kind, d)
            for n in range(-12, 9):
                assert graded_dimension(comp, n) == graded_dimension(comp, n + 4)


# ---------------------------------------------------------------------------
# non-vanishing
# ---------------------------------------------------------------------------

def test_nonvanishing_for_split_fixture():
    assert nonvanishing(load_datum(QZETA23)) == ()


def test_nonvanishing_fails_without_trace():
    assert nonvanishing(synthetic_datum(trace=False)) == ("trace_in_K",)


def test_nonvanishing_fails_when_steinitz_not_a_norm():
    cl_K = FinGenAbGroup((2,))
    datum = synthetic_datum(cl_K=cl_K, steinitz=(1,))
    assert nonvanishing(datum) == ("steinitz_in_image_nm0",)


def test_nonvanishing_truth_table_random():
    rng = random.Random(42)
    from math import gcd
    for _ in range(60):
        cl_K = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 8) for _ in range(rng.randint(0, 2))])
        cl_A = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 8) for _ in range(rng.randint(0, 2))])
        rows = []
        for p in cl_K.invariant_factors:
            row = []
            for o in cl_A.invariant_factors:
                g = gcd(p, o)
                row.append((p // g) * rng.randrange(g))
            rows.append(row)
        nm0 = GroupHom(cl_A, cl_K, rows)
        steinitz = tuple(rng.randrange(d) for d in cl_K.invariant_factors)
        trace = rng.random() < 0.5
        datum = synthetic_datum(trace=trace, cl_K=cl_K, cl_A=cl_A, nm0=nm0,
                                steinitz=steinitz)
        image = {nm0.apply(x) for x in cl_A.elements()}
        expected = trace and steinitz in image
        assert (not nonvanishing(datum)) == expected


# ---------------------------------------------------------------------------
# class sets and decomposition
# ---------------------------------------------------------------------------

def test_three_conjugacy_classes_for_cyclotomic_fixture():
    datum = load_datum(QZETA23)
    assert conjugacy_classes(datum) == 3
    assert decompose_number_field(datum).classes == 3


def test_conjugacy_classes_trivial_case():
    datum = build_split_datum(FinGenAbGroup(), 1, 3)
    assert conjugacy_classes(datum) == 1


def test_conjugacy_classes_multiplicative():
    datum = synthetic_datum(
        cl_A=FinGenAbGroup((3,)), cl_K=FinGenAbGroup(),
        nm0=GroupHom(FinGenAbGroup((3,)), FinGenAbGroup(), []),
        coker=FinGenAbGroup((2,)))
    assert conjugacy_classes(datum) == 6


def test_conjugacy_classes_require_nonvanishing():
    datum = synthetic_datum(trace=False)
    assert decompose_number_field(datum).classes is None


def test_split_data_have_class_number_many_conjugacy_classes():
    rng = random.Random(8)
    for _ in range(20):
        cl = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 6) for _ in range(rng.randint(0, 2))])
        datum = build_split_datum(cl, rng.randint(0, 3), 5)
        assert conjugacy_classes(datum) == cl.order


def shape_counts(shapes):
    return [(shape.kind, shape.rank, count) for shape, count in shapes]


def test_two_subgroup_classes_for_cyclotomic_fixture():
    datum = load_datum(QZETA23)
    shapes = subgroup_classes(datum, conjugacy_classes(datum))
    assert shape_counts(shapes) == [("Invariant", 11, 1), ("NonInvariant", 11, 1)]


def test_subgroup_classes_on_cyclic5_kernel():
    datum = build_split_datum(FinGenAbGroup((5,)), 2, 7)
    shapes = subgroup_classes(datum, conjugacy_classes(datum))
    assert sum(count for _, count in shapes) == 3
    assert shape_counts(shapes) == [("Invariant", 2, 1), ("NonInvariant", 2, 2)]


def test_subgroup_classes_fixed_first_with_sigma_identity_and_coker():
    # sigma = +1 on ker(nm0) = Z/3 fixes it; negation on coker = Z/4 fixes
    # 0 and 2: 6 fixed classes, the other 6 of the 12 pair into 3
    cl_A = FinGenAbGroup((3,))
    datum = synthetic_datum(cl_A=cl_A, nm0=zero_hom(cl_A, FinGenAbGroup()),
                            coker=FinGenAbGroup((4,)), ker_rank=1,
                            sigma=Involution(identity_hom(cl_A)))
    shapes = subgroup_classes(datum, conjugacy_classes(datum))
    assert shape_counts(shapes) == [("Invariant", 1, 6), ("NonInvariant", 1, 3)]


def test_decomposition_of_cyclotomic_fixture():
    dec = decompose_number_field(load_datum(QZETA23))
    assert shape_counts(dec.shapes) == [("Invariant", 11, 1), ("NonInvariant", 11, 1)]
    assert dec.count == 2


def test_decomposition_empty_when_vanishing():
    dec = decompose_number_field(synthetic_datum(trace=False))
    assert dec.shapes == () and dec.count == 0 and dec.classes is None


def test_decomposition_of_small_split_fixture():
    dec = decompose_number_field(load_datum(QZETA3))
    assert shape_counts(dec.shapes) == [("Invariant", 1, 1)]


def test_decomposition_rejects_repeated_or_empty_shapes():
    comp = ComponentRing("Invariant", 1)
    with pytest.raises(ValueError):
        Decomposition(shapes=((comp, 1), (comp, 2)))
    with pytest.raises(ValueError):
        Decomposition(shapes=((comp, 0),))


def test_nontrivial_coker_emits_advisory():
    datum = synthetic_datum(coker=FinGenAbGroup((2,)))
    dec = decompose_number_field(datum)
    assert any("coker_nm1_nontrivial" in a for a in dec.advisories)


# ---------------------------------------------------------------------------
# function-field decomposition
# ---------------------------------------------------------------------------

def test_doubly_punctured_line_single_monomial_component():
    dec = decompose_function_field(P1Minus((1, 1)), FiniteFieldSpec(7), 3)
    assert shape_counts(dec.shapes) == [("MonomialFF", 1, 1)]


def test_once_punctured_line_single_component_rank0():
    dec = decompose_function_field(P1Minus((1,)), FiniteFieldSpec(7), 3)
    assert shape_counts(dec.shapes) == [("MonomialFF", 0, 1)]


def test_triple_punctured_line():
    dec = decompose_function_field(P1Minus((1, 1, 1)), FiniteFieldSpec(7), 3)
    assert shape_counts(dec.shapes) == [("MonomialFF", 2, 1)]


def test_ell_must_divide_q_minus_one():
    with pytest.raises(ValueError):
        decompose_function_field(P1Minus((1, 1)), FiniteFieldSpec(5), 3)
    with pytest.raises(ValueError):
        decompose_function_field(EllipticMinusPoint(1, 0), FiniteFieldSpec(5), 2)


def test_elliptic_function_field_components():
    # y^2 = x^3 + 2 over the 7-element field has 9 points; inversion fixes
    # only the trivial class, so there are 5 classes, 4 of them paired
    dec = decompose_function_field(EllipticMinusPoint(0, 2), FiniteFieldSpec(7), 3)
    assert dec.count == 5
    assert shape_counts(dec.shapes) == [("MonomialFF", 0, 1), ("UnitsFF", 0, 4)]


def test_many_punctures_advisory():
    dec = decompose_function_field(P1Minus((1, 1, 1, 1)), FiniteFieldSpec(7), 3)
    assert any("punctures=4" in a for a in dec.advisories)
    dec3 = decompose_function_field(P1Minus((1, 1, 1)), FiniteFieldSpec(7), 3)
    assert dec3.advisories == ()


# ---------------------------------------------------------------------------
# freeness certificates
# ---------------------------------------------------------------------------

def test_basis_degrees_small_cases():
    assert freeness_basis_degrees(ComponentRing("Invariant", 0)) == ((0, 1),)
    assert freeness_basis_degrees(ComponentRing("NonInvariant", 0)) == ((0, 1), (2, 1))
    assert freeness_basis_degrees(ComponentRing("Invariant", 1)) == ((0, 1), (3, 1))


def test_basis_multiset_size():
    for d in range(5):
        for kind, size in (("NonInvariant", 2 ** (d + 1)), ("Invariant", 2 ** d)):
            assert sum(m for _, m in freeness_basis_degrees(ComponentRing(kind, d))) == size


def test_basis_degrees_are_a_count_per_degree():
    for kind in ("NonInvariant", "Invariant", "UnitsFF", "MonomialFF"):
        for d in range(7):
            pairs = freeness_basis_degrees(ComponentRing(kind, d))
            assert [deg for deg, _ in pairs] == sorted({deg for deg, _ in pairs})
            assert len(pairs) <= d + 4
            assert Counter(dict(pairs)) == Counter(basis_degrees_by_enumeration(kind, d))
    # rank 1000 has 2^1001 basis monomials but only 1003 distinct degrees
    assert len(freeness_basis_degrees(ComponentRing("NonInvariant", 1000))) == 1003


def test_certificate_for_fixture_and_ff_cases():
    datum = load_datum(QZETA23)
    dec = decompose_number_field(datum)
    assert freeness_certificate(dec) == [freeness_basis_degrees(s) for s, _ in dec.shapes]
    lines = list(number_field_lines(datum))
    assert all(line.endswith(" verified_up_to=12")
               for line in lines if line.startswith("FREENESS"))
    assert "CHERN\trestriction=sum_of_squared_degree2_generators non_zero_divisor=true" in lines
    for punctures in [(1,), (1, 1), (1, 1, 1)]:
        dec = decompose_function_field(P1Minus(punctures), FiniteFieldSpec(7), 3)
        (shape, _), = dec.shapes
        assert freeness_certificate(dec) == [freeness_basis_degrees(shape)]
        lines = report_lines(
            machine_lines_function_field(P1Minus(punctures), FiniteFieldSpec(7), 3))
        assert lines[-1].endswith(" non_zero_divisor=true")


def test_certificate_identity_random_shapes():
    rng = random.Random(123)
    kinds = ("NonInvariant", "Invariant", "UnitsFF", "MonomialFF")
    for _ in range(100):
        comps = tuple(
            ComponentRing(rng.choice(kinds), rng.randint(0, 6))
            for _ in range(rng.randint(1, 4)))
        dec = Decomposition(shapes=tuple(Counter(comps).items()))
        cert = freeness_certificate(dec)
        assert len(cert) == len(Counter(comps))
        for comp, basis_degrees in zip(Counter(comps), cert):
            assert basis_degrees == freeness_basis_degrees(comp)
            for n in range(-12, 13):
                want = graded_dimension(comp, n)
                if comp.is_laurent:
                    got = sum(m for d, m in basis_degrees if (d - n) % 4 == 0)
                else:
                    got = sum(m for d, m in basis_degrees if (d - n) % 4 == 0 and d <= n)
                assert want == got


def test_certificate_refuses_what_a_full_recount_refuses(monkeypatch):
    # a basis with one multiplicity raised or one degree moved: the
    # certificate's running counts must agree with recounting every basis
    # degree for every scanned degree
    from sl2cohom import cohomengine

    true_basis = cohomengine.freeness_basis_degrees
    refused = 0
    for kind in ("NonInvariant", "Invariant", "UnitsFF", "MonomialFF"):
        shape = ComponentRing(kind, 5)
        dec = Decomposition(shapes=((shape, 1),))
        basis = true_basis(shape)
        for i, (d, m) in enumerate(basis):
            for moved in ((d, m + 1), (d + 1, m), (d + 4, m), (d + 12, m)):
                forged = tuple(sorted(basis[:i] + (moved,) + basis[i + 1:]))
                monkeypatch.setattr(cohomengine, "freeness_basis_degrees",
                                    lambda component, forged=forged: forged)
                recount = [sum(mult for deg, mult in forged if (deg - n) % 4 == 0
                               and (shape.is_laurent or deg <= n)) for n in range(-12, 13)]
                if recount == [graded_dimension(shape, n) for n in range(-12, 13)]:
                    assert freeness_certificate(dec, 12) == [forged]
                else:
                    refused += 1
                    with pytest.raises(ArithmeticError, match="freeness identity failed"):
                        freeness_certificate(dec, 12)
    assert refused > 0


def test_empty_decomposition_certificate():
    dec = Decomposition(shapes=())
    assert freeness_certificate(dec) == []


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def test_detection_fails_for_cyclotomic_fixture():
    datum = load_datum(QZETA23)
    degree, total, torus = detection_verdict(datum, decompose_number_field(datum))
    assert total > torus
    assert -12 <= degree <= 12


def test_detection_inconclusive_for_balanced_decomposition():
    datum = build_split_datum(FinGenAbGroup(), 3, 5)
    dec = decompose_number_field(datum)
    # single component on the same rank as the torus would be needed for
    # equality; the split datum with trivial class group gives the invariant
    # shape, whose dimensions never exceed the torus
    assert detection_verdict(datum, dec) is None
    lines = number_field_lines(datum)
    assert lines[-1] == "DETECTION\tinconclusive note=no_rank_excess_up_to_degree_12"


def test_detection_inconclusive_on_empty_decomposition():
    datum = synthetic_datum(trace=False)
    assert detection_verdict(datum, decompose_number_field(datum)) is None
    assert number_field_lines(datum)[-1] == "DETECTION\tinconclusive note=empty_decomposition"


def test_detection_never_holds():
    rng = random.Random(31)
    for _ in range(40):
        cl = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 5) for _ in range(rng.randint(0, 2))])
        datum = build_split_datum(cl, rng.randint(0, 4), 7)
        witness = detection_verdict(datum, decompose_number_field(datum))
        # a witness refutes detection; nothing can prove it
        assert witness is None or witness[1] > witness[2]


# ---------------------------------------------------------------------------
# hypothesis gate
# ---------------------------------------------------------------------------

# the gate's hypotheses, in the order the GATE line names their violations
GATE_HYPOTHESES = ("ell_prime", "n_less_than_ell", "zeta_ell_in_K",
                   "S_contains_infinite_places", "S_contains_places_over_ell",
                   "detection_on_finite_subgroups")


def gate(ell, n, detection_fails, **flags):
    """The gate with every place and root-of-unity flag true unless given."""
    flags = {"zeta_in_K": True, "s_contains_infinite": True, "s_contains_ell": True, **flags}
    return refined_gate(ell, n, detection_fails=detection_fails, **flags)


def test_gate_rejects_rank_not_less_than_ell():
    assert gate(3, 3, False) == ("n_less_than_ell",)


def test_gate_rejects_failing_detection():
    assert gate(23, 2, True) == ("detection_on_finite_subgroups",)


def test_gate_inconclusive_on_unknown_detection():
    # detection is never proved, so a gate with no violation is inconclusive
    assert gate(23, 2, False) == ()
    assert gate_line(gate(23, 2, False)) == "GATE\tinconclusive violated="


def test_gate_flags_are_keyword_only():
    with pytest.raises(TypeError):
        refined_gate(23, 2, True, True, True, False)


def test_gate_lists_all_violations():
    # all 32 combinations of the hypotheses the gate decides or is given; ell
    # must be prime (the datum builders refuse any other), so ell_prime holds
    for held in itertools.product((True, False), repeat=5):
        n_below_ell, zeta_in_K, s_infinite, s_ell, detected = held
        violated = refined_gate(7, 2 if n_below_ell else 7, zeta_in_K=zeta_in_K,
                                s_contains_infinite=s_infinite, s_contains_ell=s_ell,
                                detection_fails=not detected)
        names = ",".join(name for name, h in zip(GATE_HYPOTHESES[1:], held) if not h)
        outcome = "fails" if names else "inconclusive"
        assert gate_line(violated) == f"GATE\t{outcome} violated={names}", held
        assert bad_lines(gate_line(violated) + "\n") == []


def test_failing_verdict_requires_witness():
    # a failing detection verdict is its witness, and is printed with its degree
    rng = random.Random(17)
    for _ in range(40):
        cl = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 5) for _ in range(rng.randint(0, 2))])
        datum = build_split_datum(cl, rng.randint(0, 4), 7)
        witness = detection_verdict(datum, decompose_number_field(datum))
        detection, = (line for line in number_field_lines(datum)
                      if line.startswith("DETECTION\t"))
        if witness is None:
            assert detection == "DETECTION\tinconclusive note=no_rank_excess_up_to_degree_12"
        else:
            assert detection == f"DETECTION\tfails witness_degree={witness[0]}"


# ---------------------------------------------------------------------------
# machine report
# ---------------------------------------------------------------------------

def test_number_field_report_lines():
    lines = list(number_field_lines(load_datum(QZETA23)))
    assert "NONVANISHING\tholds" in lines
    assert "CCLASSES\t3" in lines
    assert "KCLASSES\t2" in lines
    assert any(line.startswith("COMPONENT\t0 shape=Invariant d=11") for line in lines)
    assert any(line.startswith("COMPONENT\t1 shape=NonInvariant d=11") for line in lines)
    assert any(line.startswith("DETECTION\tfails witness_degree=") for line in lines)
    assert any(line.startswith("FREENESS\tcomponent=0") for line in lines)
    assert any(line.startswith("CHERN\t") for line in lines)


def test_number_field_report_vanishing_case():
    lines = list(number_field_lines(synthetic_datum(trace=False)))
    assert "NONVANISHING\tfails" in lines
    assert not any(line.startswith("CCLASSES") for line in lines)
    assert any(line.startswith("DETECTION\tinconclusive") for line in lines)


def test_function_field_report_lines():
    lines = report_lines(machine_lines_function_field(P1Minus((1, 1)), FiniteFieldSpec(7), 3))
    assert "KCLASSES\t1" in lines
    assert any(line.startswith("COMPONENT\t0 shape=MonomialFF r=1") for line in lines)


def test_report_checks_run_before_the_lines_are_returned(monkeypatch):
    # the lines are produced lazily, so every refusal and failed check must
    # be raised by the call itself, before any line is read
    from sl2cohom import cohomengine

    datum = load_datum(QZETA23)
    shape = ComponentRing("Invariant", 11)
    oversized = Decomposition(shapes=((shape, COMPONENT_BOUND + 1),),
                              classes=COMPONENT_BOUND + 1)
    with pytest.raises(InputError, match="over the component bound"):
        machine_lines_number_field(oversized, None, 12)

    def failing(decomposition, up_to):
        raise ArithmeticError("injected freeness failure")

    monkeypatch.setattr(cohomengine, "freeness_certificate", failing)
    dec = decompose_number_field(datum)
    with pytest.raises(ArithmeticError, match="injected"):
        machine_lines_number_field(dec, detection_verdict(datum, dec, 12), 12)
    with pytest.raises(ArithmeticError, match="injected"):
        machine_lines_function_field(P1Minus((1, 1)), FiniteFieldSpec(7), 3)


# index ranges across 9 -> 10, 99 -> 100, 999 -> 1000 and 9 999 -> 10 000,
# ranges that start mid-group, one index and none
RUN_RANGES = [range(0, 12), range(95, 105), range(990, 1010), range(9990, 10010),
              range(0, 100), range(100, 200), range(4, 1005), range(123456, 123790),
              range(7, 8), range(0, 1), range(1000, 1001), range(5, 5)]


# suffix lengths that select each group size for indices of 1 to 6 digits
# (lines of 21 to 26 characters more), next to each edge, and lines longer
# than the item bound
@pytest.mark.parametrize("suffix_chars,size", [
    (20, 100), (137, 100), (143, 10), (1612, 10), (1618, 1), (20000, 1)])
@pytest.mark.parametrize("indices", RUN_RANGES, ids=lambda r: f"{r.start}-{r.stop}")
def test_runs_match_the_lines_one_by_one(indices, suffix_chars, size):
    prefix = "FREENESS\tcomponent="
    suffix = " " + "x" * (suffix_chars - 1)
    items = list(_runs(prefix, indices, suffix))
    assert report_lines(items) == [f"{prefix}{i}{suffix}" for i in indices]
    # an item is the run of indices that share i // size
    assert len(items) == len({i // size for i in indices})
    assert all(len(item) <= ITEM_CHARS for item in items if "\n" in item)


@pytest.mark.parametrize("suffix_chars,items", [(139, 2), (140, 11)])
def test_runs_size_their_groups_by_the_widest_line(suffix_chars, items):
    # with index 1099, 100 lines of 139 + 24 characters fit in an item and
    # 100 of 140 + 24 do not, though the lines of 990..999 would
    suffix = " " + "x" * (suffix_chars - 1)
    got = list(_runs("FREENESS\tcomponent=", range(990, 1100), suffix))
    assert len(got) == items
    assert max(map(len, got)) <= ITEM_CHARS


def test_report_grammar_keys():
    allowed = {"NONVANISHING", "CCLASSES", "KCLASSES", "COMPONENT",
               "FREENESS", "CHERN", "DETECTION", "GATE", "ADVISORY"}
    for lines in (
            number_field_lines(load_datum(QZETA23)),
            report_lines(machine_lines_function_field(P1Minus((1, 1, 1, 1)),
                                                      FiniteFieldSpec(7), 3))):
        for line in lines:
            key = line.split("\t", 1)[0]
            assert key in allowed
