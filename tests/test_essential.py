import pytest

from sl2cohom.essential import (
    GradedAlgebraSpec,
    GradedElement,
    enumerate_proper_subgroups,
    essential_product,
    regularity_check,
    restrict,
    weyl_invariance,
)


def unit(spec, i):
    return [1 if j == i else 0 for j in range(spec.n)]


def x(spec, i):
    """The i-th degree-1 generator."""
    if spec.ell == 2:
        return GradedElement.polynomial_linear_form(spec, unit(spec, i))
    return GradedElement.exterior_linear_form(spec, unit(spec, i))


def y(spec, i):
    """The i-th degree-2 generator (odd ell)."""
    return GradedElement.polynomial_linear_form(spec, unit(spec, i))


# ---------------------------------------------------------------------------
# the essential product
# ---------------------------------------------------------------------------

def test_product_rank2_mod2():
    spec = GradedAlgebraSpec(2, 2)
    product = essential_product(spec)
    x1, x2 = x(spec, 0), x(spec, 1)
    assert product == x1 * x1 * x2 + x1 * x2 * x2
    assert product.degree() == 3


def test_product_rank1_mod2_is_the_generator():
    spec = GradedAlgebraSpec(2, 1)
    assert essential_product(spec) == x(spec, 0)


def test_product_rank1_mod3():
    spec = GradedAlgebraSpec(3, 1)
    y1 = y(spec, 0)
    assert essential_product(spec) == (y1 * y1).scaled(2)


@pytest.mark.parametrize("ell,n,expected_degree", [
    (2, 1, 1), (2, 2, 3), (2, 3, 7), (3, 1, 4), (3, 2, 16), (5, 1, 8),
])
def test_product_degrees(ell, n, expected_degree):
    spec = GradedAlgebraSpec(ell, n)
    product = essential_product(spec)
    assert not product.is_zero
    assert product.degree() == expected_degree


def test_product_size_guard():
    with pytest.raises(ValueError):
        essential_product(GradedAlgebraSpec(3, 7))


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

def test_restriction_kills_product_on_all_proper_subgroups():
    for ell, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        spec = GradedAlgebraSpec(ell, n)
        product = essential_product(spec)
        for matrix in enumerate_proper_subgroups(spec):
            assert restrict(product, matrix).is_zero


def test_restriction_along_identity_is_identity():
    spec = GradedAlgebraSpec(3, 2)
    element = y(spec, 0) * x(spec, 1) + x(spec, 0) * x(spec, 1)
    identity = [[1, 0], [0, 1]]
    assert restrict(element, identity) == element


def test_restriction_to_diagonal_substitutes():
    spec = GradedAlgebraSpec(3, 2)
    element = y(spec, 0) * y(spec, 1)
    target = GradedAlgebraSpec(3, 1)
    restricted = restrict(element, [[1], [1]])
    y1 = y(target, 0)
    assert restricted == y1 * y1


def test_restriction_rank_check():
    spec = GradedAlgebraSpec(2, 2)
    with pytest.raises(ValueError):
        restrict(x(spec, 0), [[1, 1], [1, 1]])  # rank 1, not 2


def test_exterior_restriction_sign():
    # swapping the two exterior generators flips the sign of x1*x2
    spec = GradedAlgebraSpec(3, 2)
    swap = [[0, 1], [1, 0]]
    element = x(spec, 0) * x(spec, 1)
    assert restrict(element, swap) == -element


def test_subgroup_enumeration_counts():
    # rank-1 subspaces of a 2-dim space over GF(3): (9-1)/(3-1) = 4
    assert len(enumerate_proper_subgroups(GradedAlgebraSpec(3, 2))) == 4
    # GF(2)^3: 7 lines + 7 planes
    assert len(enumerate_proper_subgroups(GradedAlgebraSpec(2, 3))) == 14


# ---------------------------------------------------------------------------
# symmetry and regularity
# ---------------------------------------------------------------------------

def test_product_is_weyl_invariant():
    for ell, n in [(2, 2), (2, 3), (3, 2)]:
        spec = GradedAlgebraSpec(ell, n)
        assert weyl_invariance(essential_product(spec), spec)


def test_product_fixed_by_every_permutation():
    from itertools import permutations
    for ell, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        spec = GradedAlgebraSpec(ell, n)
        product = essential_product(spec)
        for perm in permutations(range(n)):
            matrix = [[1 if perm[i] == j else 0 for j in range(n)] for i in range(n)]
            assert restrict(product, matrix) == product


def test_single_generator_is_not_weyl_invariant():
    spec = GradedAlgebraSpec(2, 2)
    assert not weyl_invariance(x(spec, 0), spec)


def test_symmetric_sum_is_weyl_invariant():
    spec = GradedAlgebraSpec(2, 2)
    assert weyl_invariance(x(spec, 0) + x(spec, 1), spec)


def test_square_of_mod2_product_is_weyl_invariant():
    spec = GradedAlgebraSpec(2, 3)
    product = essential_product(spec)
    assert weyl_invariance(product * product, spec)


def test_regularity():
    spec32 = GradedAlgebraSpec(3, 2)
    assert regularity_check(essential_product(spec32), spec32)
    spec31 = GradedAlgebraSpec(3, 1)
    assert not regularity_check(x(spec31, 0), spec31)
    assert not regularity_check(GradedElement.zero(spec31), spec31)
    spec22 = GradedAlgebraSpec(2, 2)
    assert regularity_check(essential_product(spec22), spec22)


def test_exterior_generators_square_to_zero():
    spec = GradedAlgebraSpec(5, 2)
    x1 = x(spec, 0)
    assert (x1 * x1).is_zero


def test_coefficients_reduced_mod_ell():
    spec = GradedAlgebraSpec(3, 1)
    y1 = y(spec, 0)
    assert (y1 + y1 + y1).is_zero


def test_nonhomogeneous_degree_raises():
    spec = GradedAlgebraSpec(3, 2)
    with pytest.raises(ValueError):
        (y(spec, 0) + x(spec, 0)).degree()
