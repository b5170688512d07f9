"""The ``verify`` oracles against the test suite's own brute force."""

import random
from itertools import product as cartesian

import pytest

from brute import shape_dimension_by_enumeration, structure_from_element_set
from sl2cohom import oracles
from sl2cohom.abelian import FinGenAbGroup, kernel, cokernel
from sl2cohom.oracles import brute_structure_from_elements, random_finite_group


def test_torsion_counts_match_brute_force_on_groups():
    rng = random.Random(4711)
    for _ in range(40):
        group = random_finite_group(rng)
        elements = list(group.elements())
        fast = brute_structure_from_elements(
            elements, lambda x, n: group.reduce_element([n * v for v in x]), group.zero())
        assert fast == structure_from_element_set(elements, group.add, group.zero()) == group


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
        fast = brute_structure_from_elements(
            reps, lambda u, n: rep_of[n * u[0] % a, n * u[1] % b], zero)
        slow = structure_from_element_set(
            reps, lambda u, v: rep_of[(u[0] + v[0]) % a, (u[1] + v[1]) % b], zero)
        assert fast == slow
        assert fast.order * len(subgroup) == a * b


def bumped(group):
    """The group with its largest invariant factor doubled (Z/2 if trivial)."""
    factors = group.invariant_factors
    return FinGenAbGroup(group.free_rank, factors[:-1] + (2 * factors[-1],) if factors else (2,))


@pytest.mark.parametrize("name,fast", [("kernel", kernel), ("cokernel", cokernel)])
def test_kernel_cokernel_suite_catches_a_wrong_structure(monkeypatch, name, fast):
    def wrong(f):
        group, hom = fast(f)
        return bumped(group), hom

    assert oracles.suite_kernel_cokernel_enumeration(count=10).passed
    monkeypatch.setattr(oracles, name, wrong)
    result = oracles.suite_kernel_cokernel_enumeration()
    assert not result.passed and "mismatch" in result.detail


@pytest.mark.parametrize("kind", ["NonInvariant", "Invariant", "UnitsFF", "MonomialFF"])
def test_monomial_count_oracle_matches_enumeration(kind):
    for rank in range(7):
        for degree in range(-4, 13):
            assert (oracles.monomial_count_oracle(kind, rank, degree)
                    == shape_dimension_by_enumeration(kind, rank, degree)), (rank, degree)
