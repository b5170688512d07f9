"""The ``verify`` oracles against the test suite's own brute force."""

import random
from collections import Counter
from itertools import product as cartesian

import pytest

from brute import (
    brute_structure_from_elements,
    group_add,
    monomial_count_by_window_scan,
    shape_dimension_by_enumeration,
    structure_from_element_set,
)
from sl2cohom import curve, oracles
from sl2cohom.abelian import FinGenAbGroup, GroupHom, InputError, kernel, cokernel
from sl2cohom.oracles import random_finite_group, random_hom


def test_torsion_counts_match_brute_force_on_groups():
    rng = random.Random(4711)
    for _ in range(40):
        group = random_finite_group(rng)
        elements = list(group.elements())
        by_multiples = brute_structure_from_elements(
            elements, lambda x, n: tuple(n * v % o for v, o in zip(x, group.invariant_factors)),
            group.zero())
        by_sums = structure_from_element_set(elements, group_add(group), group.zero())
        assert by_multiples == by_sums == group


def test_torsion_counts_match_brute_force_on_quotients():
    # Z/a + Z/b modulo the cyclic subgroup <g>, each coset named by its least member
    rng = random.Random(815)
    for _ in range(40):
        a, b = rng.randint(1, 14), rng.randint(1, 14)
        g = (rng.randrange(a), rng.randrange(b))
        subgroup = {(k * g[0] % a, k * g[1] % b) for k in range(a * b)}
        rep_of = {}
        for x, y in cartesian(range(a), range(b)):
            rep_of[x, y] = min(((x + s) % a, (y + t) % b) for s, t in subgroup)
        reps = sorted(set(rep_of.values()))
        zero = rep_of[0, 0]
        by_multiples = brute_structure_from_elements(
            reps, lambda u, n: rep_of[n * u[0] % a, n * u[1] % b], zero)
        by_sums = structure_from_element_set(
            reps, lambda u, v: rep_of[(u[0] + v[0]) % a, (u[1] + v[1]) % b], zero)
        assert by_multiples == by_sums
        assert by_multiples.order * len(subgroup) == a * b


def all_three_structures(elements, orders, add, zero):
    """The structure read from the element orders, by repeated multiples and
    by repeated sums."""
    def times(x, n):
        acc = zero
        for _ in range(n):
            acc = add(acc, x)
        return acc

    return (oracles.structure_from_element_orders(orders),
            brute_structure_from_elements(elements, times, zero),
            structure_from_element_set(elements, add, zero))


@pytest.mark.parametrize("orders", [(4, 2, 9), (8,), (2, 2, 2), (7,), (61,), (), None])
def test_structure_from_element_orders_matches_both_references(orders):
    # a group (random for None), and the kernels and the quotients by the
    # images of a random map and of multiplication by 0..3.  In Z/8 modulo
    # its doubles, the coset of 1 has order 2: ord(1) = 8 is divided by 2 twice
    rng = random.Random(31)
    for _ in range(8 if orders is None else 1):
        group = random_finite_group(rng) if orders is None \
            else FinGenAbGroup.from_cyclic_orders(orders)
        elements = list(group.elements())
        assert all_three_structures(
            elements, [oracles.element_order(x, group.invariant_factors) for x in elements],
            group_add(group), group.zero()) == (group,) * 3
        n = group.ngens
        for f in [random_hom(rng, group, random_finite_group(rng))] + [
                GroupHom(group, group, [[m * (i == j) for j in range(n)] for i in range(n)])
                for m in range(4)]:
            target = f.codomain
            kernel_set = [x for x in elements if f.apply(x) == target.zero()]
            k = all_three_structures(
                kernel_set, [oracles.element_order(x, group.invariant_factors) for x in kernel_set],
                group_add(group), group.zero())
            assert k[0] == k[1] == k[2], (group, f.matrix)
            image = {f.apply(x) for x in elements}
            add = group_add(target)
            rep_of = {y: min(add(y, s) for s in image) for y in target.elements()}
            reps = sorted(set(rep_of.values()))
            c = all_three_structures(
                reps, [oracles.coset_order(y, target.invariant_factors, image) for y in reps],
                lambda u, v: rep_of[add(u, v)], rep_of[target.zero()])
            assert c[0] == c[1] == c[2], (group, target, f.matrix)
            assert k[0].order * len(image) == group.order
            assert c[0].order * len(image) == target.order


def bumped(group):
    """The group with its largest invariant factor doubled (Z/2 if trivial)."""
    factors = group.invariant_factors
    return FinGenAbGroup(factors[:-1] + (2 * factors[-1],) if factors else (2,))


@pytest.mark.parametrize("name,fast", [("kernel", kernel), ("cokernel", cokernel)])
def test_kernel_cokernel_suite_catches_a_wrong_structure(monkeypatch, name, fast):
    def wrong(f):
        group, hom = fast(f)
        return bumped(group), hom

    assert oracles.suite_kernel_cokernel_enumeration().passed
    monkeypatch.setattr(oracles, name, wrong)
    result = oracles.suite_kernel_cokernel_enumeration()
    assert not result.passed and "mismatch" in result.detail


@pytest.mark.parametrize("kind", ["NonInvariant", "Invariant", "UnitsFF", "MonomialFF"])
def test_monomial_count_oracle_matches_enumeration(kind):
    for rank in range(7):
        for degree in range(-4, 13):
            assert (oracles.monomial_count_oracle(kind, rank, degree)
                    == shape_dimension_by_enumeration(kind, rank, degree)), (rank, degree)


@pytest.mark.parametrize("kind", ["NonInvariant", "Invariant", "UnitsFF", "MonomialFF"])
def test_monomial_count_oracle_matches_the_window_scan(kind):
    # degrees beyond both edges of the +-40 window, ranks past the suite's 6
    for rank in range(9):
        for degree in range(-100, 101):
            assert (oracles.monomial_count_oracle(kind, rank, degree)
                    == monomial_count_by_window_scan(kind, rank, degree)), (rank, degree)


def test_class_group_suite_catches_a_wrong_row_composition(monkeypatch):
    # (2, 1, 3) composed with itself is (2, -1, 3) at discriminant -23
    fast = oracles.compose

    def wrong(a1, b1, c1, a2, b2):
        if (a1, b1, c1, a2, b2) == (2, 1, 3, 2, 1):
            return 1, 1, 6
        return fast(a1, b1, c1, a2, b2)

    monkeypatch.setattr(oracles, "compose", wrong)
    result = oracles.suite_class_group_forms()
    assert not result.passed and result.detail.startswith("-23: row of")


def test_class_group_suite_catches_a_wrong_identity_composition(monkeypatch):
    # at discriminant -23, (2, 1, 3) composed with the identity (1, 1, 6) and
    # with itself give each other's results, so its row stays a permutation
    fast = oracles.compose
    swapped = {(2, 1, 3, 1, 1): (2, 1, 3, 2, 1), (2, 1, 3, 2, 1): (2, 1, 3, 1, 1)}

    def wrong(*args):
        return fast(*swapped.get(args, args))

    monkeypatch.setattr(oracles, "compose", wrong)
    result = oracles.suite_class_group_forms()
    assert not result.passed and result.detail.startswith("-23: identity fails")


def test_graded_dimension_suite_catches_one_wrong_degree(monkeypatch):
    fast = oracles.graded_dimension

    def wrong(comp, n):
        return fast(comp, n) + (comp.kind == "UnitsFF" and comp.rank == 3 and n == 5)

    monkeypatch.setattr(oracles, "graded_dimension", wrong)
    result = oracles.suite_graded_dimension_oracle()
    assert not result.passed and result.detail.startswith("UnitsFF(3) degree 5:")


def test_elliptic_suite_catches_one_wrong_count(monkeypatch):
    fast = oracles.count_points_elliptic

    def wrong(curve, field):
        return fast(curve, field) + 2 * (field.q == 13 and (curve.a, curve.b) == (1, 1))

    monkeypatch.setattr(oracles, "count_points_elliptic", wrong)
    result = oracles.suite_elliptic_point_recount()
    assert not result.passed and result.detail.startswith("q=13 a=1 b=1:")


def test_elliptic_suite_catches_a_wrong_cubic_evaluation(monkeypatch):
    # the point tally reads x^3 + ax + b off logs; for b = 0 over GF(p^e) add 2
    # to each log, with -1 the log of 0 as in _cubic_values: the roots
    # x^2 = -a turn into nonsquares, which only a recount by field operations sees
    fast = curve._cubic_values

    def wrong(c, field):
        values = fast(c, field)
        if field.e == 1 or c.b:
            return values
        n = field.q - 1
        return [0] + [field.exp[((field.log[v] if v else -1) + 2) % n] for v in values[1:]]

    monkeypatch.setattr(curve, "_cubic_values", wrong)
    result = oracles.suite_elliptic_point_recount()
    assert not result.passed and result.detail == "q=9 a=1 b=0: 16 vs 14"


def test_elliptic_suite_catches_cubic_values_off_by_a_square(monkeypatch):
    # each nonzero x^3 + ax + b times g^2, in every field: every quadratic
    # character and so every point count stays right, and only the cubic
    # values compared with field operations show the fault (GF(3) cannot:
    # there g^2 = 1)
    fast = curve._cubic_values

    def wrong(c, field):
        n = field.q - 1
        return [field.exp[(field.log[v] + 2) % n] if v else 0 for v in fast(c, field)]

    monkeypatch.setattr(curve, "_cubic_values", wrong)
    result = oracles.suite_elliptic_point_recount()
    assert not result.passed and result.detail == "q=5 a=0 b=1: cubic value at x=0"


def test_elliptic_suite_takes_no_square_root_and_lists_no_points(monkeypatch):
    # the recount reads square roots from its own table of y*y, so it
    # shares no point list with the structure oracle
    def refuse(*args):
        raise AssertionError("the recount must not call this")

    monkeypatch.setattr(curve, "elliptic_points", refuse)
    result = oracles.suite_elliptic_point_recount()
    assert result.passed, result.detail


def test_elliptic_suite_fails_when_a_nonsingular_curve_is_refused(monkeypatch):
    # 4 * 2^3 + 27 * 3^2 = 275 is 2 mod 7: the suite, not the fast path,
    # decides which curves are singular
    fast = oracles.count_points_elliptic

    def refusing(c, field):
        if field.q == 7 and (c.a, c.b) == (2, 3):
            raise InputError("discriminant 4a^3 + 27b^2 vanishes")
        return fast(c, field)

    monkeypatch.setattr(oracles, "count_points_elliptic", refusing)
    result = oracles.suite_elliptic_point_recount()
    assert not result.passed and result.detail.startswith("q=7 a=2 b=3: refused")


def test_kernel_cokernel_suite_catches_one_wrong_membership(monkeypatch):
    fast = oracles.contains_in_image
    calls = []

    def wrong(f, y):
        calls.append(y)
        return fast(f, y) != (len(calls) == 300)

    monkeypatch.setattr(oracles, "contains_in_image", wrong)
    result = oracles.suite_kernel_cokernel_enumeration()
    assert not result.passed and "membership mismatch" in result.detail
    assert len(calls) == 300


def test_the_suites_do_the_same_work(monkeypatch):
    # the calls one verify pass made before its suites moved to raw
    # coordinates and form triples: the table rows and the identity checks
    # are 7 326 calls of compose (6 590 and 736); 320 groups are listed
    # element by element.  The point recount
    # reads square roots from a table per field, so it lists no points
    calls = Counter()

    def counting(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("kernel", "cokernel", "contains_in_image", "count_points_elliptic",
                 "graded_dimension", "smith_normal_form", "compose"):
        counting(oracles, name)
    counting(curve, "elliptic_points")
    counting(FinGenAbGroup, "elements")
    assert all(result.passed for result in oracles.run_all_suites())
    assert calls == Counter({
        "kernel": 80, "cokernel": 80, "contains_in_image": 1167,
        "count_points_elliptic": 2126, "elliptic_points": 0,
        "graded_dimension": 476, "smith_normal_form": 200,
        "compose": 7326, "elements": 320,
    })
