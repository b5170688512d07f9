import contextlib
import io
import random
from itertools import permutations

import pytest

from brute import (
    column_span,
    gaussian_binomial,
    homogeneous_degree,
    moore_power,
    multiplied_out_product,
    polynomial_linear_form,
    proper_subgroup_spans,
    substituted,
    term_sum,
    tuple_product,
)
from sl2cohom.abelian import is_prime, smith_normal_form
from sl2cohom.cli import main
from sl2cohom.essential import (
    MAX_GROUP_ORDER,
    MAX_PROPER_SUBGROUPS,
    GradedAlgebraSpec,
    GradedElement,
    enumerate_proper_subgroups,
    essential_product,
    product_terms,
    rank_mod,
    restrict,
    weyl_invariance,
)


def gen(spec, i):
    """The i-th polynomial generator (degree 1 for ell = 2, degree 2 otherwise)."""
    return polynomial_linear_form(spec, [1 if j == i else 0 for j in range(spec.n)])


def random_homogeneous(rng, spec, degree, terms):
    """A sum of random monomials of one polynomial degree, random coefficients."""
    out = {}
    for _ in range(terms):
        exps = [0] * spec.n
        for _ in range(degree):
            exps[rng.randrange(spec.n)] += 1
        out[tuple(exps)] = rng.randrange(spec.ell)
    return GradedElement(spec, out)


def nonzero_forms(spec):
    vectors = [[(v // spec.ell ** i) % spec.ell for i in range(spec.n)]
               for v in range(1, spec.ell ** spec.n)]
    return [polynomial_linear_form(spec, v) for v in vectors]


def one(spec):
    return GradedElement(spec, {(0,) * spec.n: 1})


def permutation_matrix(perm):
    return [[1 if perm[i] == j else 0 for j in range(len(perm))] for i in range(len(perm))]


# pairs small enough to restrict to every proper subgroup
SMALL = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 2)]


# ---------------------------------------------------------------------------
# the essential product
# ---------------------------------------------------------------------------

def test_product_rank2_mod2():
    spec = GradedAlgebraSpec(2, 2)
    product = essential_product(spec)
    x1, x2 = gen(spec, 0), gen(spec, 1)
    summands = [(x1 * x1 * x2).terms, (x1 * x2 * x2).terms]
    assert product == GradedElement(spec, term_sum(summands, 2))
    assert homogeneous_degree(product) == 3


def test_product_rank1_mod2_is_the_generator():
    spec = GradedAlgebraSpec(2, 1)
    assert essential_product(spec) == gen(spec, 0)


def test_product_rank1_mod3():
    spec = GradedAlgebraSpec(3, 1)
    # the two nonzero forms are y1 and 2*y1
    assert essential_product(spec) == gen(spec, 0) * polynomial_linear_form(spec, [2])
    assert essential_product(spec) == GradedElement(spec, {(2,): 2})


@pytest.mark.parametrize("ell,n,expected_degree", [
    (2, 1, 1), (2, 2, 3), (2, 3, 7), (3, 1, 4), (3, 2, 16), (5, 1, 8),
])
def test_product_degrees(ell, n, expected_degree):
    spec = GradedAlgebraSpec(ell, n)
    product = essential_product(spec)
    assert not product.is_zero
    assert homogeneous_degree(product) == expected_degree


# every (ell, n) with ell^n <= 81 but (2, 6), whose multiplied-out product alone takes seconds
MOORE = [(ell, n) for ell in range(2, 82) if is_prime(ell)
         for n in range(1, 7) if ell ** n <= 81 and (ell, n) != (2, 6)]


@pytest.mark.parametrize("ell,n", MOORE)
def test_moore_product_matches_multiplied_out_product(ell, n):
    # the closed form against the product of the linear forms, one at a time
    spec = GradedAlgebraSpec(ell, n)
    expected = multiplied_out_product(spec)
    assert dict(product_terms(spec)) == essential_product(spec).terms == expected


# the benchmark's essential ladder, and larger products with more terms or exponents
LADDER = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
          (5, 2), (7, 2), (11, 2), (13, 2), (17, 2), (19, 2), (23, 2)]


@pytest.mark.parametrize("ell,n", LADDER + [(5, 4), (7, 3), (2, 7), (3, 5)])
def test_packed_product_matches_the_tuple_product(ell, n):
    # the closed form against the Moore power, multiplied out on exponent
    # tuples; the id is the one this test had when the product was so built
    spec = GradedAlgebraSpec(ell, n)
    terms = list(product_terms(spec))
    expected = moore_power(spec)
    assert dict(terms) == expected and len(terms) == len(expected)
    assert [key for key, _ in terms] == sorted(expected)  # generated in order
    assert essential_product(spec).terms == expected


@pytest.mark.parametrize("ell,n", [(2, 3), (3, 2), (5, 3), (7, 1)])
def test_random_products_match_the_tuple_product(ell, n):
    spec = GradedAlgebraSpec(ell, n)
    rng = random.Random(f"repack:{ell}:{n}")
    for _ in range(20):
        left = random_homogeneous(rng, spec, rng.choice([1, 2, 3, 6, 7, 14, 15]), 4)
        right = random_homogeneous(rng, spec, rng.choice([1, 2, 3, 6, 7, 14, 15]), 4)
        product = left * right
        assert product.terms == tuple_product(left.terms, right.terms, ell)
        assert product == GradedElement(spec, product.terms)
        if not product.is_zero:
            assert homogeneous_degree(product) == (
                homogeneous_degree(left) + homogeneous_degree(right))
    chain, expected = one(spec), {(0,) * n: 1}
    for _ in range(12):
        factor = random_homogeneous(rng, spec, rng.randrange(1, 4), 3)
        chain, expected = chain * factor, tuple_product(expected, factor.terms, ell)
        assert chain.terms == expected


def test_equality_of_built_and_multiplied_elements():
    spec = GradedAlgebraSpec(3, 2)
    y1, y2 = gen(spec, 0), gen(spec, 1)
    cube = y1 * y1 * y1
    assert GradedElement(spec, {(1, 0): 1}) == y1
    assert GradedElement(spec, {(1, 0): 4}) == y1  # coefficients mod ell
    assert cube != y1 * y2 * y2 and cube == GradedElement(spec, {(3, 0): 1})
    assert cube != GradedElement(GradedAlgebraSpec(5, 2), {(3, 0): 1})


def test_product_size_guard():
    with pytest.raises(ValueError, match="group order 2187 exceeds the product bound 729"):
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
    # larger groups on every hyperplane, which is enough: each proper subgroup
    # lies in one, and restriction is transitive
    for ell, n in [(2, 4), (2, 5), (3, 3), (3, 4), (5, 3), (7, 2), (23, 2)]:
        spec = GradedAlgebraSpec(ell, n)
        product = essential_product(spec)
        hyperplanes = [m for m in enumerate_proper_subgroups(spec) if len(m[0]) == n - 1]
        assert len(hyperplanes) == gaussian_binomial(n, n - 1, ell)
        for matrix in hyperplanes:
            assert restrict(product, matrix).is_zero, (ell, n, matrix)


# every (ell, n) the essential guards admit: the order bound, and the subgroup
# bound, which refuses (2, 8) and (2, 9) only
ADMITTED = [(ell, n) for ell in range(2, MAX_GROUP_ORDER + 1) if is_prime(ell)
            for n in range(1, MAX_GROUP_ORDER.bit_length() + 1)
            if ell ** n <= MAX_GROUP_ORDER and (ell, n) not in ((2, 8), (2, 9))]


def test_enumerator_lists_echelon_hyperplanes_on_every_admitted_input():
    # the printed all_proper_zero=true rests on this shape: a hyperplane basis M
    # in reduced column-echelon form is killed by the line that is 1 on the row
    # r that is no pivot and -M[r][j] on column j's pivot row
    totals = {(ell, n): sum(gaussian_binomial(n, k, ell) for k in range(1, n))
              for ell, n in ADMITTED + [(2, 8), (2, 9)]}
    assert len(ADMITTED) == 150
    assert [pair for pair, total in totals.items() if total > MAX_PROPER_SUBGROUPS] == [
        (2, 8), (2, 9)]
    for ell, n in ADMITTED:
        subgroups = enumerate_proper_subgroups(GradedAlgebraSpec(ell, n))
        assert len(set(subgroups)) == len(subgroups) == totals[ell, n], (ell, n)
        hyperplanes = [m for m in subgroups if len(m[0]) == n - 1]
        # for n = 1 the one hyperplane is the zero subgroup, which is not listed
        assert len(hyperplanes) == ((ell ** n - 1) // (ell - 1) if n > 1 else 0), (ell, n)
        for matrix in hyperplanes:
            assert len(matrix) == n and all(len(row) == n - 1 for row in matrix), matrix
            for column in zip(*matrix):
                pivot = next(i for i, v in enumerate(column) if v)
                assert column[pivot] == 1 and matrix[pivot].count(0) == n - 2, matrix


def test_printed_theorems_hold_on_every_admitted_product():
    # the essential report prints degree=, nonzero=true, WEYL invariant=true
    # and REGULARITY non_zero_divisor=true from (ell, n) alone, as theorems on
    # the product of the ell^n - 1 nonzero linear forms; check them on it.  It
    # formats the closed form's terms as they are generated; they come in
    # strictly increasing order, so the printed PRODUCT is the element's text
    for ell, n in ADMITTED:
        spec = GradedAlgebraSpec(ell, n)
        product = essential_product(spec)
        assert not product.is_zero, (ell, n)
        degree = 2 ** n - 1 if ell == 2 else 2 * (ell ** n - 1)
        assert homogeneous_degree(product) == degree, (ell, n)
        assert weyl_invariance(product, spec), (ell, n)
        keys = list(product.terms)
        assert all(a < b for a, b in zip(keys, keys[1:])), (ell, n)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["essential", "--ell", str(ell), "--rank", str(n)]) == 0
        printed, = (line for line in out.getvalue().splitlines()
                    if line.startswith("PRODUCT\t"))
        assert printed == f"PRODUCT\t{product}", (ell, n)


def test_restriction_along_identity_is_identity():
    spec = GradedAlgebraSpec(3, 2)
    element = GradedElement(spec, {(1, 1): 1, (2, 0): 2})
    identity = [[1, 0], [0, 1]]
    assert restrict(element, identity) == element


def test_restriction_to_diagonal_substitutes():
    spec = GradedAlgebraSpec(3, 2)
    element = gen(spec, 0) * gen(spec, 1)
    target = GradedAlgebraSpec(3, 1)
    restricted = restrict(element, [[1], [1]])
    y1 = gen(target, 0)
    assert restricted == y1 * y1


def test_restriction_rank_check():
    spec = GradedAlgebraSpec(2, 2)
    with pytest.raises(ValueError):
        restrict(gen(spec, 0), [[1, 1], [1, 1]])  # rank 1, not 2


def test_restriction_rank_is_taken_mod_ell():
    spec = GradedAlgebraSpec(3, 2)
    with pytest.raises(ValueError, match="full column rank"):
        restrict(gen(spec, 0), [[1, 2], [2, 1]])  # determinant -3: rank 2 over Z, 1 mod 3


@pytest.mark.parametrize("ell", [2, 3, 5, 7])
def test_rank_mod_ell_matches_the_smith_form(ell):
    rng = random.Random(f"rank:{ell}")
    ranks = set()
    for _ in range(150):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        inner = rng.randint(1, 6)  # a product through this many columns has rank <= inner
        left = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)]
        right = [[rng.randint(-9, 9) * rng.choice([1, 1, ell]) for _ in range(cols)]
                 for _ in range(inner)]
        matrix = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)] for row in left]
        expected = sum(1 for d in smith_normal_form(matrix)[1] if d % ell)
        assert rank_mod(matrix, ell) == expected, (ell, matrix)
        ranks.add(expected < min(rows, cols))
    assert ranks == {True, False}
    assert rank_mod([[1, 2], [2, 1]], 3) == 1 and rank_mod([[1, 2], [2, 1]], 5) == 2


def test_restriction_matches_substitution_on_random_matrices():
    rng = random.Random("substitution")
    for ell, n in [(2, 4), (3, 3), (5, 3), (7, 2), (11, 2)]:
        spec = GradedAlgebraSpec(ell, n)
        for _ in range(15):
            k = rng.randint(1, n)
            matrix = [[rng.randrange(ell) for _ in range(k)] for _ in range(n)]
            element = random_homogeneous(rng, spec, rng.randrange(0, 7), rng.randrange(1, 6))
            if sum(1 for d in smith_normal_form(matrix)[1] if d % ell) < k:
                with pytest.raises(ValueError, match="full column rank"):
                    restrict(element, matrix)
                continue
            assert restrict(element, matrix).terms == substituted(element.terms, matrix, ell)


def test_subgroup_enumeration_counts():
    # rank-1 subspaces of a 2-dim space over GF(3): (9-1)/(3-1) = 4
    assert len(enumerate_proper_subgroups(GradedAlgebraSpec(3, 2))) == 4
    # GF(2)^3: 7 lines + 7 planes
    assert len(enumerate_proper_subgroups(GradedAlgebraSpec(2, 3))) == 14


@pytest.mark.parametrize("ell,n", [(ell, n) for ell in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
                                                        31, 37, 41, 43, 47, 53, 59, 61)
                                   for n in range(1, 7) if ell ** n <= 64])
def test_echelon_enumeration_matches_span_sets(ell, n):
    spec = GradedAlgebraSpec(ell, n)
    matrices = enumerate_proper_subgroups(spec)
    spans = []
    for matrix in matrices:
        k = len(matrix[0])
        assert len(matrix) == n and all(len(row) == k for row in matrix)
        span = column_span(ell, matrix)
        assert len(span) == ell ** k  # the columns are independent
        spans.append(span)
    assert len(set(spans)) == len(spans)  # each subgroup once
    assert set(spans) == proper_subgroup_spans(ell, n)
    assert len(matrices) == sum(gaussian_binomial(n, k, ell) for k in range(1, n))
    hyperplanes = [m for m in matrices if len(m[0]) == n - 1]
    assert len(hyperplanes) == (gaussian_binomial(n, n - 1, ell) if n > 1 else 0)


def _zero_on(element, matrices):
    return all(restrict(element, m).is_zero for m in matrices)


@pytest.mark.parametrize("ell,n", SMALL)
def test_restriction_matches_substitution_on_every_subgroup(ell, n):
    spec = GradedAlgebraSpec(ell, n)
    rng = random.Random(f"subgroups:{ell}:{n}")
    elements = [essential_product(spec)] + [
        random_homogeneous(rng, spec, rng.randrange(1, 6), rng.randrange(1, 5)) for _ in range(3)]
    for matrix in enumerate_proper_subgroups(spec):
        for element in elements:
            assert restrict(element, matrix).terms == substituted(element.terms, matrix, ell)


@pytest.mark.parametrize("ell,n", SMALL)
def test_hyperplanes_decide_all_proper_subgroups(ell, n):
    spec = GradedAlgebraSpec(ell, n)
    subgroups = enumerate_proper_subgroups(spec)
    hyperplanes = [m for m in subgroups if len(m[0]) == n - 1]
    rng = random.Random(f"hyperplanes:{ell}:{n}")
    forms = nonzero_forms(spec)
    product = essential_product(spec)
    elements = [product, gen(spec, 0), GradedElement(spec)]
    for left_out in rng.sample(range(len(forms)), min(4, len(forms))):
        # the product with one factor left out
        partial = one(spec)
        for i, form in enumerate(forms):
            if i != left_out:
                partial = partial * form
        elements.append(partial)
    for _ in range(6):  # products of random sets of factors
        chosen = one(spec)
        for form in rng.sample(forms, rng.randrange(1, len(forms) + 1)):
            chosen = chosen * form
        elements.append(chosen)
    for _ in range(6):
        element = random_homogeneous(rng, spec, rng.randrange(1, 6), rng.randrange(1, 5))
        elements += [element, element * product]
    verdicts = set()
    for element in elements:
        on_hyperplanes = _zero_on(element, hyperplanes)
        assert on_hyperplanes == _zero_on(element, subgroups), (ell, n, element)
        verdicts.add(on_hyperplanes)
    assert verdicts == ({True} if n == 1 else {True, False})


def normalized_lines(spec):
    """Nonzero vectors whose first nonzero entry is 1, one per line."""
    vectors = [tuple((v // spec.ell ** i) % spec.ell for i in range(spec.n))
               for v in range(1, spec.ell ** spec.n)]
    return {v for v in vectors if next(c for c in v if c) == 1}


@pytest.mark.parametrize("ell,n", [pair for pair in SMALL if pair[1] > 1])
def test_each_hyperplane_is_killed_by_its_own_line_factor(ell, n):
    # Dickson's factorization behind the printed all_proper_zero=true: the
    # product has one linear factor per line, and that factor alone kills the
    # hyperplane it annihilates; the other lines' factors do not
    spec = GradedAlgebraSpec(ell, n)
    lines = normalized_lines(spec)
    forms = {line: polynomial_linear_form(spec, line) for line in lines}
    hyperplanes = [m for m in enumerate_proper_subgroups(spec) if len(m[0]) == n - 1]
    own_lines = []
    for matrix in hyperplanes:
        own = [line for line in lines if restrict(forms[line], matrix).is_zero]
        assert len(own) == 1, (ell, n, matrix)
        own_lines += own
        partial = one(spec)
        for line in lines - set(own):
            partial = partial * forms[line]
        assert not restrict(partial, matrix).is_zero
    assert sorted(own_lines) == sorted(lines)  # one hyperplane per line


@pytest.mark.parametrize("ell,n", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 3)])
def test_weyl_check_matches_permutation_matrices(ell, n):
    spec = GradedAlgebraSpec(ell, n)
    rng = random.Random(f"weyl:{ell}:{n}")
    perms = list(permutations(range(n)))
    verdicts = set()
    for _ in range(12):
        element = random_homogeneous(rng, spec, rng.randrange(1, 6), rng.randrange(1, 6))
        # symmetrized over all permutations, over one transposition, or not at all
        orbit = rng.choice([perms, [tuple(range(n)), perms[1]], [tuple(range(n))]])
        symmetrized = GradedElement(spec, term_sum(
            [restrict(element, permutation_matrix(perm)).terms for perm in orbit], ell))
        fixed = all(restrict(symmetrized, permutation_matrix(p)) == symmetrized
                    for p in perms)
        assert weyl_invariance(symmetrized, spec) == fixed, (ell, n, symmetrized)
        verdicts.add(fixed)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# symmetry
# ---------------------------------------------------------------------------

def test_product_is_weyl_invariant():
    for ell, n in [(2, 2), (2, 3), (3, 2)]:
        spec = GradedAlgebraSpec(ell, n)
        assert weyl_invariance(essential_product(spec), spec)
    with pytest.raises(ValueError):  # an element of another algebra
        weyl_invariance(essential_product(GradedAlgebraSpec(2, 2)), GradedAlgebraSpec(3, 2))


def test_product_fixed_by_every_permutation():
    for ell, n in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        spec = GradedAlgebraSpec(ell, n)
        product = essential_product(spec)
        for perm in permutations(range(n)):
            assert restrict(product, permutation_matrix(perm)) == product


def test_single_generator_is_not_weyl_invariant():
    spec = GradedAlgebraSpec(2, 2)
    assert not weyl_invariance(gen(spec, 0), spec)


def test_symmetric_sum_is_weyl_invariant():
    spec = GradedAlgebraSpec(2, 2)
    assert weyl_invariance(polynomial_linear_form(spec, [1, 1]), spec)


def test_square_of_mod2_product_is_weyl_invariant():
    spec = GradedAlgebraSpec(2, 3)
    product = essential_product(spec)
    assert weyl_invariance(product * product, spec)


def test_coefficients_reduced_mod_ell():
    spec = GradedAlgebraSpec(3, 1)
    assert GradedElement(spec, {(1,): 3}).is_zero
    assert polynomial_linear_form(spec, [3]).is_zero
    assert GradedElement(spec, {(2,): 6}).is_zero
