import random
from itertools import combinations_with_replacement

import pytest

from brute import class_group_by_relations, congruence_by_extended_euclid, is_reduced
from sl2cohom import arithdata
from sl2cohom.abelian import FinGenAbGroup, GroupHom, involution_orbits, kernel
from sl2cohom.arithdata import (
    ArithmeticDatum,
    DatumConsistencyError,
    DatumParseError,
    MAX_UNIT_RANK,
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

def discriminant(form):
    a, b, c = form
    return b * b - 4 * a * c


def test_reduced_forms_disc_minus_23():
    assert reduced_forms(-23) == ((1, 1, 6), (2, -1, 3), (2, 1, 3))


def test_reduced_forms_disc_minus_4():
    assert reduced_forms(-4) == ((1, 0, 1),)


def test_reduced_forms_disc_minus_84():
    assert reduced_forms(-84) == ((1, 0, 21), (2, 2, 11), (3, 0, 7), (5, 4, 5))


def class_group(d):
    """The class group of a fundamental discriminant, as ``verify`` reaches it."""
    assert is_fundamental_discriminant(d), d
    return class_group_imaginary_quadratic(d, reduced_forms(d))


def test_class_group_orders_and_structure():
    assert class_group(-23) == FinGenAbGroup((3,))
    assert class_group(-4).is_trivial
    assert class_group(-84) == FinGenAbGroup((2, 2))
    assert class_group(-47) == FinGenAbGroup((5,))
    assert class_group(-163).is_trivial


def test_class_groups_match_the_relation_matrix_oracle():
    # the order walk against the Smith form of greedy relations, for all 611
    # fundamental discriminants down to -2000; (Z/2)^3 first appears at -420
    ds = [d for d in range(-3, -2001, -1) if is_fundamental_discriminant(d)]
    assert len(ds) == 611
    for d in ds:
        assert class_group(d) == class_group_by_relations(d), d
    assert class_group(-420) == FinGenAbGroup((2, 2, 2))


def test_class_group_rejects_bad_discriminants():
    # the callers' gate, which verify's suite runs before a class group
    assert not is_fundamental_discriminant(-18)  # 2 mod 4
    assert not is_fundamental_discriminant(5)
    assert not is_fundamental_discriminant(-12)  # 4 * (-3), -3 is 1 mod 4
    with pytest.raises(ValueError, match="discriminant must be negative"):
        reduced_forms(5)


def test_reduction_preserves_discriminant_and_reduces():
    rng = random.Random(11)
    for _ in range(200):
        a = rng.randint(1, 30)
        b = rng.randint(-40, 40)
        cmin = (b * b + 3) // (4 * a) + 1
        c = rng.randint(cmin, cmin + 40)
        red = reduce_form(a, b, c)
        assert discriminant(red) == b * b - 4 * a * c
        assert is_reduced(red)


def test_composition_identity_and_inverse():
    for d in (-23, -84, -47, -71):
        forms = reduced_forms(d)
        e = reduce_form(*principal_form(d))
        for a, b, c in forms:
            assert compose(*e, a, b) == (a, b, c)
            inverse = reduce_form(a, -b, c)
            assert compose(a, b, c, *inverse[:2]) == e


def test_composition_rows_are_permutations_small_range():
    for d in range(-3, -301, -1):
        if not is_fundamental_discriminant(d):
            continue
        forms = reduced_forms(d)
        group = class_group_imaginary_quadratic(d, forms)
        assert group.order == len(forms)
        for f in forms:
            assert sorted(compose(*f, a, b) for a, b, _ in forms) == list(forms)


def test_composition_associative_spot_checks():
    rng = random.Random(5)
    for d in (-23, -84, -120, -231):
        forms = reduced_forms(d)
        for _ in range(30):
            f, g, h = (forms[rng.randrange(len(forms))] for _ in range(3))
            fg, gh = compose(*f, *g[:2]), compose(*g, *h[:2])
            assert compose(*fg, *h[:2]) == compose(*f, *gh[:2])


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


def test_composites_are_reduced_forms_of_the_discriminant():
    for d in range(-3, -401, -1):
        if not is_fundamental_discriminant(d):
            continue
        forms = reduced_forms(d)
        for f in forms:
            for a, b, _ in forms:
                h = compose(*f, a, b)
                assert discriminant(h) == d and is_reduced(h)


def test_composition_is_unchanged_by_the_solver(monkeypatch):
    # the inverse modulo m // g gives other representatives than Bezout
    # coefficients modulo m; the reduced composite must be the same form
    discriminants = [d for d in range(-3, -401, -1) if is_fundamental_discriminant(d)]
    def table(d):
        return [compose(*f, a, b) for f in reduced_forms(d) for a, b, _ in reduced_forms(d)]

    before = {d: table(d) for d in discriminants}
    monkeypatch.setattr(arithdata, "_solve_linear_congruence", congruence_by_extended_euclid)
    for d in discriminants:
        assert table(d) == before[d]


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
    datum = build_split_datum(FinGenAbGroup(), 1, 3)
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
    assert build_split_datum(FinGenAbGroup(), MAX_UNIT_RANK, 3).unit_rank_K == 2000
    with pytest.raises(DatumConsistencyError, match="unit rank 2001 exceeds") as err:
        build_split_datum(FinGenAbGroup(), MAX_UNIT_RANK + 1, 3)
    assert err.value.invariant == "unit_rank_bound"


def test_split_datum_kernel_size_matches_class_number():
    rng = random.Random(3)
    for _ in range(20):
        cl = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 6) for _ in range(rng.randint(0, 2))])
        datum = build_split_datum(cl, rng.randint(0, 5), 7)
        k, _ = kernel(datum.nm0)
        assert k.order == cl.order


def test_split_kernel_is_the_class_group():
    # the builder passes cl_K as ker(nm0), with no Smith form: the sum map's
    # kernel {(x, -x)} is a copy of cl_K, on which the swap is negation
    shapes = {FinGenAbGroup.from_cyclic_orders(orders)
              for k in range(4) for orders in combinations_with_replacement(range(1, 13), k)}
    shapes |= {FinGenAbGroup.from_cyclic_orders(orders)
               for orders in ((6, 6), (2, 2, 2, 2), (2, 3, 4, 5, 6, 7))}
    for cl_K in shapes:
        datum = build_split_datum(cl_K, 1, 3)
        assert kernel(datum.nm0)[0] == datum.ker_nm0 == cl_K, cl_K
        assert datum.sigma.hom == GroupHom.negation(cl_K), cl_K


def test_datum_rejects_even_ell():
    with pytest.raises(DatumConsistencyError):
        build_split_datum(FinGenAbGroup(), 1, 2)


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


@pytest.mark.parametrize("line,column", [
    ("ell = banana", 7),
    ("ell =  banana", 8),
    ("  ell = banana", 9),
    ("ell=banana", 5),
    ("ell =", 6),
    ("ell =   # no value", 6),
])
def test_parse_error_names_the_column_of_the_value(tmp_path, line, column):
    # an empty value is named just after '='
    path = tmp_path / "bad.datum"
    path.write_text(FIXTURE_TEMPLATE.replace("ell = 23", line))
    with pytest.raises(DatumParseError) as err:
        load_datum(path)
    assert (err.value.line, err.value.column) == (2, column)
    assert str(err.value).startswith(f"{path}:2:{column}: expected an integer")


@pytest.mark.parametrize("old,new,line,column,message", [
    ("invariant_factors = 3,3", "invariant_factors = 3,q", 12, 23,
     "expected an integer, got 'q'"),
    ("invariant_factors = 3,3", "invariant_factors = 3,  q", 12, 25,
     "expected an integer, got 'q'"),
    ("invariant_factors = 3,3", "invariant_factors = 3,,3", 12, 23,
     "expected an integer, got ''"),
    ("matrix = 1 1", "matrix = 1 x", 14, 12, "bad matrix entry in '1 x'"),
    ("matrix = 1 1", "matrix = 1 1; 2  y", 14, 18, "bad matrix entry in ' 2  y'"),
    ("coords = 0", "coords = 0, z", 16, 13, "expected an integer, got 'z'"),
], ids=["list", "list_spaced", "list_empty_entry", "matrix", "matrix_second_row", "coords"])
def test_parse_error_names_the_column_of_the_bad_entry(tmp_path, old, new, line, column,
                                                       message):
    path = tmp_path / "bad.datum"
    path.write_text(FIXTURE_TEMPLATE.replace(old, new))
    with pytest.raises(DatumParseError) as err:
        load_datum(path)
    assert str(err.value) == f"{path}:{line}:{column}: {message}"


WIDTH_ZERO_NM0 = """\
[datum]
ell = 3
trace_in_K = false
split = false
unit_rank_K = 1
ker_nm1_rank = 1
[cl_K]
free_rank = 0
invariant_factors = 3
[cl_A]
free_rank = 0
invariant_factors =
[nm0]
matrix = {}
[steinitz]
coords = 0
[coker_nm1]
free_rank = 0
invariant_factors =
[sigma]
matrix =
"""


def test_a_width_zero_matrix_admits_only_no_entries(tmp_path):
    # cl_A trivial and cl_K = Z/3, so nm0 is 1x0
    path = tmp_path / "width_zero.datum"
    path.write_text(WIDTH_ZERO_NM0.format(""))
    datum = load_datum(path)
    assert datum.nm0.matrix == ((),) and datum.ker_nm0.is_trivial
    for value in ("7 7 7", "1 ; 2", "0", "; 5"):
        path.write_text(WIDTH_ZERO_NM0.format(value))
        with pytest.raises(DatumParseError) as err:
            load_datum(path)
        assert str(err.value) == f"{path}:14:10: matrix must be 1x0 (rows separated by ';')"


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
