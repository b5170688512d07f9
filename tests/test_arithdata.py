import random

import pytest

from brute import congruence_by_extended_euclid, is_reduced
from sl2cohom import arithdata
from sl2cohom.abelian import FinGenAbGroup, involution_orbits, kernel
from sl2cohom.arithdata import (
    ArithmeticDatum,
    DatumConsistencyError,
    DatumParseError,
    MAX_UNIT_RANK,
    QuadraticForm,
    build_split_datum,
    class_group_imaginary_quadratic,
    compose,
    is_fundamental_discriminant,
    load_datum,
    principal_form,
    reduce_form,
    reduced_forms,
)


# ---------------------------------------------------------------------------
# binary quadratic forms
# ---------------------------------------------------------------------------

def test_reduced_forms_disc_minus_23():
    forms = {(f.a, f.b, f.c) for f in reduced_forms(-23)}
    assert forms == {(1, 1, 6), (2, 1, 3), (2, -1, 3)}


def test_reduced_forms_disc_minus_4():
    assert [(f.a, f.b, f.c) for f in reduced_forms(-4)] == [(1, 0, 1)]


def test_reduced_forms_disc_minus_84():
    forms = {(f.a, f.b, f.c) for f in reduced_forms(-84)}
    assert forms == {(1, 0, 21), (2, 2, 11), (3, 0, 7), (5, 4, 5)}


def test_class_group_orders_and_structure():
    assert class_group_imaginary_quadratic(-23) == FinGenAbGroup((3,))
    assert class_group_imaginary_quadratic(-4).is_trivial
    assert class_group_imaginary_quadratic(-84) == FinGenAbGroup((2, 2))
    assert class_group_imaginary_quadratic(-47) == FinGenAbGroup((5,))
    assert class_group_imaginary_quadratic(-163).is_trivial


def test_class_group_rejects_bad_discriminants():
    with pytest.raises(ValueError):
        class_group_imaginary_quadratic(-18)  # not fundamental (= 4 * -4.5 ...)
    with pytest.raises(ValueError):
        class_group_imaginary_quadratic(5)
    with pytest.raises(ValueError):
        class_group_imaginary_quadratic(-12)  # 4 * (-3), -3 is 1 mod 4


def test_reduction_preserves_discriminant_and_reduces():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randint(1, 30)
        b = rng.randint(-40, 40)
        cmin = (b * b + 3) // (4 * a) + 1
        c = rng.randint(cmin, cmin + 40)
        form = QuadraticForm(a, b, c)
        red = reduce_form(form)
        assert red.discriminant == form.discriminant
        assert is_reduced(red)


def test_composition_identity_and_inverse():
    for d in (-23, -84, -47, -71):
        forms = reduced_forms(d)
        e = reduce_form(principal_form(d))
        for f in forms:
            assert compose(e, f) == f
            inverse = reduce_form(QuadraticForm(f.a, -f.b, f.c))
            assert compose(f, inverse) == e


def test_composition_rows_are_permutations_small_range():
    for d in range(-3, -301, -1):
        if not is_fundamental_discriminant(d):
            continue
        forms = reduced_forms(d)
        group = class_group_imaginary_quadratic(d)
        assert group.order == len(forms)
        for f in forms:
            row = sorted((compose(f, g).a, compose(f, g).b) for g in forms)
            assert row == [(g.a, g.b) for g in forms]


def test_composition_associative_spot_checks():
    rng = random.Random(5)
    for d in (-23, -84, -120, -231):
        forms = reduced_forms(d)
        for _ in range(30):
            f, g, h = (forms[rng.randrange(len(forms))] for _ in range(3))
            assert compose(compose(f, g), h) == compose(f, compose(g, h))


def test_linear_congruences_match_enumeration():
    for m in range(1, 25):
        for a in range(-m, 2 * m):
            for b in range(-m, m):
                want = [x for x in range(m) if (a * x - b) % m == 0]
                for solve in (arithdata._solve_linear_congruence,
                              congruence_by_extended_euclid):
                    if not want:
                        with pytest.raises(ArithmeticError):
                            solve(a, b, m)
                        continue
                    x0, step = solve(a, b, m)
                    assert 0 <= x0 < m and m % step == 0
                    assert want == list(range(x0 % step, m, step)), (solve, a, b, m)


def test_composing_triples_matches_composing_forms():
    for d in range(-3, -401, -1):
        if not is_fundamental_discriminant(d):
            continue
        forms = reduced_forms(d)
        for f in forms:
            for g in forms:
                h = compose(f, g)
                assert h.discriminant == d and is_reduced(h)
                assert arithdata._compose_triples(f.a, f.b, f.c, g.a, g.b) == (h.a, h.b, h.c)


def test_composition_is_unchanged_by_the_solver(monkeypatch):
    # the inverse modulo m // g gives other representatives than Bezout
    # coefficients modulo m; the reduced composite must be the same form
    discriminants = [d for d in range(-3, -401, -1) if is_fundamental_discriminant(d)]
    table = {d: [compose(f, g) for f in reduced_forms(d) for g in reduced_forms(d)]
             for d in discriminants}
    monkeypatch.setattr(arithdata, "_solve_linear_congruence", congruence_by_extended_euclid)
    for d in discriminants:
        assert [compose(f, g) for f in reduced_forms(d) for g in reduced_forms(d)] == table[d]


# ---------------------------------------------------------------------------
# split datum construction
# ---------------------------------------------------------------------------

def test_split_datum_cyclic3():
    datum = build_split_datum(FinGenAbGroup((3,)), 11, 23)
    k, _ = kernel(datum.nm0)
    assert k.order == 3
    assert datum.coker_nm1.is_trivial
    orbits = involution_orbits(k, datum.sigma)
    assert len(orbits) == 2


def test_split_datum_trivial_class_group():
    datum = build_split_datum(FinGenAbGroup.trivial(), 1, 3)
    k, _ = kernel(datum.nm0)
    assert k.order == 1
    orbits = involution_orbits(k, datum.sigma)
    assert len(orbits) == 1 and orbits[0].fixed


def test_split_datum_two_torsion_orbits_all_fixed():
    datum = build_split_datum(FinGenAbGroup((2, 2)), 2, 5)
    k, _ = kernel(datum.nm0)
    orbits = involution_orbits(k, datum.sigma)
    assert len(orbits) == 4 and all(o.fixed for o in orbits)


def test_unit_rank_bound_is_inclusive():
    assert build_split_datum(FinGenAbGroup.trivial(), MAX_UNIT_RANK, 3).unit_rank_K == 2000
    with pytest.raises(DatumConsistencyError, match="unit rank 2001 exceeds") as err:
        build_split_datum(FinGenAbGroup.trivial(), MAX_UNIT_RANK + 1, 3)
    assert err.value.invariant == "unit_rank_bound"


def test_split_datum_kernel_size_matches_class_number():
    rng = random.Random(3)
    for _ in range(20):
        cl = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 6) for _ in range(rng.randint(0, 2))])
        datum = build_split_datum(cl, rng.randint(0, 5), 7)
        k, _ = kernel(datum.nm0)
        assert k.order == cl.order


def test_datum_rejects_even_ell():
    with pytest.raises(DatumConsistencyError):
        build_split_datum(FinGenAbGroup.trivial(), 1, 2)


# ---------------------------------------------------------------------------
# datum files
# ---------------------------------------------------------------------------

FIXTURE = "src/sl2cohom/data/q_zeta23.datum"


def test_fixture_matches_built_datum():
    loaded = load_datum(FIXTURE)
    built = build_split_datum(FinGenAbGroup((3,)), 11, 23)
    assert loaded == built


def test_rejects_even_ell_file(tmp_path):
    text = (FIXTURE_TEMPLATE.replace("ell = 23", "ell = 2"))
    path = tmp_path / "bad.datum"
    path.write_text(text)
    with pytest.raises(DatumConsistencyError, match="ell_odd_prime"):
        load_datum(path)


def test_rejects_split_with_nonzero_steinitz(tmp_path):
    text = FIXTURE_TEMPLATE.replace("coords = 0", "coords = 1")
    path = tmp_path / "bad.datum"
    path.write_text(text)
    with pytest.raises(DatumConsistencyError, match="split_steinitz_zero"):
        load_datum(path)


def test_rejects_steinitz_out_of_range(tmp_path):
    text = FIXTURE_TEMPLATE.replace("coords = 0", "coords = 5")
    path = tmp_path / "bad.datum"
    path.write_text(text)
    with pytest.raises(DatumConsistencyError, match="steinitz_in_cl_K"):
        load_datum(path)


def test_parse_error_reports_line_and_column(tmp_path):
    text = FIXTURE_TEMPLATE.replace("ell = 23", "ell = twenty-three")
    path = tmp_path / "bad.datum"
    path.write_text(text)
    with pytest.raises(DatumParseError) as err:
        load_datum(path)
    assert err.value.line == 2
    assert err.value.column > 0
    assert str(path) in str(err.value)


def test_missing_key_reported(tmp_path):
    text = FIXTURE_TEMPLATE.replace("unit_rank_K = 11\n", "")
    path = tmp_path / "bad.datum"
    path.write_text(text)
    with pytest.raises(DatumParseError, match="unit_rank_K"):
        load_datum(path)


def test_unknown_key_rejected(tmp_path):
    text = FIXTURE_TEMPLATE + "mystery = 1\n"
    path = tmp_path / "bad.datum"
    path.write_text(text)
    with pytest.raises(DatumParseError, match="mystery"):
        load_datum(path)


FIXTURE_TEMPLATE = """\
[datum]
ell = 23
trace_in_K = true
split = true
unit_rank_K = 11
ker_nm1_rank = 11
[cl_K]
free_rank = 0
invariant_factors = 3
[cl_A]
free_rank = 0
invariant_factors = 3,3
[nm0]
matrix = 1 1
[steinitz]
coords = 0
[coker_nm1]
free_rank = 0
invariant_factors =
[sigma]
matrix = -1
"""
