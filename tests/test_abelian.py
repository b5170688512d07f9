import random
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from sl2cohom.abelian import (
    EnumerationBoundExceeded,
    FinGenAbGroup,
    GroupHom,
    InputError,
    Involution,
    TRIAL_DIVISION_BOUND,
    cokernel,
    contains_in_image,
    factorize,
    fixed_point_count,
    involution_orbits,
    is_prime,
    kernel,
    smith_normal_form,
    two_torsion_order,
)
from brute import (
    all_hom_matrices,
    apply_matrix,
    group_add,
    group_by_diagonal_smith_form,
    permanent_style_det,
    structure_from_element_set,
)
from sl2cohom.oracles import random_hom


def matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


# ---------------------------------------------------------------------------
# trial division
# ---------------------------------------------------------------------------

def test_factorize_matches_a_sieve():
    limit = 2000
    composite = [False] * limit
    for p in range(2, limit):
        if not composite[p]:
            for m in range(p * p, limit, p):
                composite[m] = True
    for n in range(1, limit):
        pairs = factorize(n)
        assert [p for p, _ in pairs] == sorted({p for p, _ in pairs})
        assert all(not composite[p] for p, _ in pairs)
        assert prod(p ** e for p, e in pairs) == n
        assert is_prime(n) == (n >= 2 and not composite[n])


def test_trial_division_is_bounded():
    assert factorize(TRIAL_DIVISION_BOUND) == ((2, 12), (5, 12))
    with pytest.raises(InputError, match="trial-division bound"):
        factorize(TRIAL_DIVISION_BOUND + 1)
    with pytest.raises(InputError, match="trial-division bound"):
        is_prime(10**18 + 3)


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------

def test_snf_worked_example():
    _, diag, _ = smith_normal_form([[2, 4], [6, 8]])
    assert diag == (2, 4)


def test_snf_identity():
    _, diag, _ = smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert diag == (1, 1, 1)


def test_snf_single_entry():
    _, diag, _ = smith_normal_form([[3]])
    assert diag == (3,)


def test_snf_empty_and_zero():
    left, diag, right = smith_normal_form([])
    assert diag == () and left == () and right == ()
    _, diag, _ = smith_normal_form([[0, 0], [0, 0]])
    assert diag == (0, 0)


matrix_strategy = st.integers(1, 6).flatmap(
    lambda rows: st.integers(1, 6).flatmap(
        lambda cols: st.lists(
            st.lists(st.integers(-20, 20), min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


@settings(max_examples=80, deadline=None)
@given(matrix_strategy)
def test_snf_reconstruction_and_chain(m):
    left, diag, right = smith_normal_form(m)
    rows, cols = len(m), len(m[0])
    product = matmul(matmul([list(r) for r in left], m), [list(r) for r in right])
    for i in range(rows):
        for j in range(cols):
            want = diag[i] if i == j and i < len(diag) else 0
            assert product[i][j] == want
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        assert (a == 0 and b == 0) or (a != 0 and b % a == 0)
    assert abs(permanent_style_det(left)) == 1
    assert abs(permanent_style_det(right)) == 1
    if rows == cols:
        want = abs(permanent_style_det(m))
        got = 1
        for d in diag:
            got *= d
        assert want == got


def test_matmul_by_columns_matches_the_entrywise_product():
    from sl2cohom.abelian import _matmul

    rng = random.Random(3301)
    shapes = [(1, 1, 1), (1, 5, 1), (5, 1, 5), (1, 4, 6), (6, 4, 1), (4, 1, 1), (1, 1, 4),
              (3, 3, 3), (2, 6, 5), (6, 2, 3)]
    for rows, inner, cols in shapes * 3:
        a = [[rng.randint(-50, 50) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-50, 50) for _ in range(cols)] for _ in range(inner)]
        assert _matmul(a, b) == matmul(a, b)
        assert _matmul(tuple(map(tuple, a)), tuple(map(tuple, b))) == matmul(a, b)
    # shapes the entrywise product cannot take: a zero-column left factor
    # and empty factors
    assert _matmul([[], [], []], []) == [[], [], []]
    assert _matmul([], [[1, 2]]) == []
    assert _matmul([[1], [2]], [[]]) == [[], []]


def test_snf_right_inverse_and_diagonal_form():
    from sl2cohom.abelian import _snf

    rng = random.Random(1729)
    cases = []
    for rows, cols in [(0, 3), (3, 0), (0, 0), (1, 5), (5, 1), (1, 1), (4, 4), (3, 6), (6, 3)]:
        cases.append(([[0] * cols for _ in range(rows)], rows, cols))
        for _ in range(8):
            cases.append(([[rng.randint(-30, 30) for _ in range(cols)] for _ in range(rows)],
                          rows, cols))
    for _ in range(20):  # rank deficient: a product through a thinner matrix
        rows, cols, inner = rng.randint(2, 6), rng.randint(2, 6), rng.randint(1, 2)
        a = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)]
        b = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
        cases.append((matmul(a, b), rows, cols))
    for m, rows, cols in cases:
        left, diag, right, right_inv = _snf(m, rows, cols)
        assert len(diag) == min(rows, cols)
        assert len(left) == rows and len(right) == len(right_inv) == cols
        assert all(len(r) == cols for r in right + right_inv)
        for i in range(cols):
            for j in range(cols):
                assert sum(right[i][k] * right_inv[k][j] for k in range(cols)) == (i == j)
        for i in range(rows):
            for j in range(cols):
                entry = sum(left[i][a] * m[a][b] * right[b][j]
                            for a in range(rows) for b in range(cols))
                assert entry == (diag[i] if i == j else 0)


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------

def test_group_canonical_form_enforced():
    with pytest.raises(ValueError):
        FinGenAbGroup((2, 3))  # not a chain
    with pytest.raises(ValueError):
        FinGenAbGroup((1, 2))  # factor 1 must be dropped


def test_from_cyclic_orders_canonicalizes():
    assert FinGenAbGroup.from_cyclic_orders([2, 3]) == FinGenAbGroup((6,))
    assert FinGenAbGroup.from_cyclic_orders([4, 6]) == FinGenAbGroup((2, 12))
    for orders in ([2, -3], [0, 5, 1]):
        with pytest.raises(ValueError, match="cyclic orders must be positive"):
            FinGenAbGroup.from_cyclic_orders(orders)


def test_orders_of_one_reach_no_smith_form(monkeypatch):
    # 600 orders 1 made a 600x600 Smith form, about 5 s; the orders are now
    # put in canonical form by gcds and lcms, with no Smith form at all
    from sl2cohom import abelian

    sizes = []
    snf = abelian._snf

    def recording(matrix, nrows, ncols):
        sizes.append((nrows, ncols))
        return snf(matrix, nrows, ncols)

    monkeypatch.setattr(abelian, "_snf", recording)
    assert FinGenAbGroup.from_cyclic_orders([1] * 600) == FinGenAbGroup()
    assert FinGenAbGroup.from_cyclic_orders([1] * 300 + [4, 1, 6]) == FinGenAbGroup((2, 12))
    assert sizes == []


def test_from_cyclic_orders_matches_the_diagonal_smith_form():
    rng = random.Random(6021)
    pools = ([1], [1, 2, 3, 5, 7, 11, 13], [2, 4, 8, 16, 3, 9, 27, 25],
             [1, 2, 4, 6, 12, 15, 30, 36, 60], list(range(1, 13)))
    for trial in range(400):
        pool = pools[trial % len(pools)]
        orders = [rng.choice(pool) for _ in range(rng.randint(0, 20))]
        assert FinGenAbGroup.from_cyclic_orders(orders) == group_by_diagonal_smith_form(
            orders), orders


def test_enumeration_bound():
    big = FinGenAbGroup((2048, 2048))
    with pytest.raises(EnumerationBoundExceeded):
        list(big.elements())


def test_hom_must_be_well_defined():
    # an order-2 generator cannot map to an element whose order does not
    # divide 2 * entry
    with pytest.raises(ValueError):
        GroupHom(FinGenAbGroup((2,)), FinGenAbGroup((3,)), [[1]])


def test_hom_matrix_reduced_mod_codomain():
    g = FinGenAbGroup((3,))
    assert GroupHom(g, g, [[-1]]) == GroupHom(g, g, [[2]])


# ---------------------------------------------------------------------------
# kernel / cokernel / image membership
# ---------------------------------------------------------------------------

def test_kernel_of_sum_map():
    g = FinGenAbGroup((3, 3))
    h = FinGenAbGroup((3,))
    f = GroupHom(g, h, [[1, 1]])
    k, incl = kernel(f)
    assert k == FinGenAbGroup((3,))
    members = {incl.apply(x) for x in k.elements()}
    assert members == {x for x in g.elements() if f.apply(x) == (0,)}
    assert (1, 2) in members  # the class of (1, -1)


def test_kernel_of_identity_is_trivial():
    g = FinGenAbGroup((5,))
    k, _ = kernel(GroupHom.identity(g))
    assert k.is_trivial


def test_cokernel_examples():
    g4 = FinGenAbGroup((4,))
    c, _ = cokernel(GroupHom(g4, g4, [[2]]))
    assert c == FinGenAbGroup((2,))


def test_cokernel_projection_properties():
    g = FinGenAbGroup((4,))
    f = GroupHom(g, g, [[2]])
    c, proj = cokernel(f)
    image = {f.apply(x) for x in g.elements()}
    assert {proj.apply(y) for y in g.elements()} == set(c.elements())
    for x in g.elements():
        assert proj.apply(f.apply(x)) == c.zero()
    kernel_of_proj = {y for y in g.elements() if proj.apply(y) == c.zero()}
    assert kernel_of_proj == image


def test_contains_in_image():
    g9 = FinGenAbGroup((9,))
    triple = GroupHom(g9, g9, [[3]])
    assert contains_in_image(triple, (6,))
    assert not contains_in_image(triple, (2,))
    g = FinGenAbGroup((3, 3))
    h = FinGenAbGroup((3,))
    f = GroupHom(g, h, [[1, 1]])
    assert contains_in_image(f, (2,))


def test_contains_in_image_validates_input():
    g = FinGenAbGroup((3,))
    f = GroupHom.identity(g)
    with pytest.raises(ValueError):
        contains_in_image(f, (5,))  # not reduced
    with pytest.raises(ValueError):
        contains_in_image(f, (0, 0))  # wrong length


# ---------------------------------------------------------------------------
# involution orbits
# ---------------------------------------------------------------------------

def test_orbits_of_negation():
    g3 = FinGenAbGroup((3,))
    orbits = involution_orbits(g3, Involution(GroupHom.negation(g3)))
    assert len(orbits) == 2
    assert orbits[0].elements == ((0,),) and orbits[0].fixed
    assert not orbits[1].fixed

    g5 = FinGenAbGroup((5,))
    assert len(involution_orbits(g5, Involution(GroupHom.negation(g5)))) == 3

    g22 = FinGenAbGroup((2, 2))
    orbits = involution_orbits(g22, Involution(GroupHom.negation(g22)))
    assert len(orbits) == 4 and all(o.fixed for o in orbits)


def test_orbit_partition_properties():
    rng = random.Random(7)
    for _ in range(25):
        g = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 9) for _ in range(rng.randint(0, 3))])
        s = Involution(GroupHom.negation(g))
        orbits = involution_orbits(g, s)
        sizes = sum(len(o.elements) for o in orbits)
        assert sizes == g.order
        fixed = sum(1 for o in orbits if o.fixed)
        assert len(orbits) == (g.order + fixed) // 2
        for o in orbits:
            assert {s.hom.apply(x) for x in o.elements} == set(o.elements)


def test_closed_form_fixed_points_match_orbit_enumeration():
    # Burnside: the fixed orbits of an involution are the points of
    # ker(s - 1); for negation that is the 2-torsion
    rng = random.Random(19)
    for _ in range(40):
        g = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 8) for _ in range(rng.randint(0, 3))])
        if g.order > 64:
            continue
        neg = Involution(GroupHom.negation(g))
        fixed = sum(1 for o in involution_orbits(g, neg) if o.fixed)
        assert two_torsion_order(g.invariant_factors) == fixed_point_count(neg) == fixed
        involutions = []
        for m in all_hom_matrices(g, g):
            try:
                involutions.append(Involution(GroupHom(g, g, m)))
            except ValueError:
                continue
        for s in rng.sample(involutions, min(4, len(involutions))):
            orbits = involution_orbits(g, s)
            fixed = sum(1 for o in orbits if o.fixed)
            assert fixed_point_count(s) == fixed
            assert len(orbits) == (g.order + fixed) // 2


def test_fixed_point_count_matches_enumeration():
    # Z/4 + Z/2 (coordinates list Z/2 first) with x -> x + 2y on Z/4:
    # ker(s - 1) = Z/4 and coker(s - 1) = (Z/2)^2 differ in structure,
    # not in order
    g = FinGenAbGroup((2, 4))
    s = Involution(GroupHom(g, g, [[1, 0], [2, 1]]))
    minus_one = GroupHom(g, g, [[0, 0], [2, 0]])
    assert kernel(minus_one)[0] == FinGenAbGroup((4,))
    assert cokernel(minus_one)[0] == FinGenAbGroup((2, 2))
    assert fixed_point_count(s) == 4
    for orders in [(), (2,), (4,), (6,), (2, 2), (2, 4), (3, 6), (4, 4), (2, 2, 2)]:
        g = FinGenAbGroup(orders)
        for m in all_hom_matrices(g, g):
            try:
                s = Involution(GroupHom(g, g, m))
            except ValueError:
                continue
            assert fixed_point_count(s) == sum(1 for x in g.elements() if s.hom.apply(x) == x)


def test_involution_must_square_to_identity():
    g = FinGenAbGroup((5,))
    with pytest.raises(ValueError):
        Involution(GroupHom(g, g, [[2]]))  # x -> 2x has order 4 on Z/5


# ---------------------------------------------------------------------------
# agreement with enumeration on random finite homomorphisms
# ---------------------------------------------------------------------------

def test_kernel_cokernel_membership_match_enumeration():
    rng = random.Random(20250808)
    from math import gcd
    for _ in range(60):
        dom = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 12) for _ in range(rng.randint(1, 3))])
        cod = FinGenAbGroup.from_cyclic_orders(
            [rng.randint(1, 12) for _ in range(rng.randint(1, 3))])
        if dom.order > 200 or cod.order > 200:
            continue
        rows = []
        for p in cod.invariant_factors:
            row = []
            for o in dom.invariant_factors:
                g = gcd(p, o)
                row.append((p // g) * rng.randrange(g))
            rows.append(row)
        f = GroupHom(dom, cod, rows)
        kernel_set = {x for x in dom.elements() if f.apply(x) == cod.zero()}
        k, incl = kernel(f)
        assert {incl.apply(x) for x in k.elements()} == kernel_set
        assert structure_from_element_set(kernel_set, group_add(dom), dom.zero()) == k
        image = {f.apply(x) for x in dom.elements()}
        c, proj = cokernel(f)
        assert c.order * len(image) == cod.order
        for y in cod.elements():
            assert contains_in_image(f, y) == (y in image)


# ---------------------------------------------------------------------------
# element arithmetic and the one Smith form per map
# ---------------------------------------------------------------------------

def random_finite_hom(rng):
    """A seeded map between small finite groups, the trivial group among them."""
    def group():
        return FinGenAbGroup.from_cyclic_orders(
            [rng.choice((2, 3, 4, 6, 9, 12)) for _ in range(rng.randint(0, 3))])
    return random_hom(rng, group(), group())


def random_element(rng, group):
    return tuple(rng.randint(-30, 30) % d for d in group.invariant_factors)


def test_apply_and_reduce_match_coordinatewise_arithmetic():
    rng = random.Random(3141)
    for _ in range(200):
        f = random_finite_hom(rng)
        for _ in range(5):
            raw = [rng.randint(-50, 50) for _ in range(f.domain.ngens)]
            reduced = tuple(c % o for c, o in zip(raw, f.domain.invariant_factors))
            assert f.apply(raw) == apply_matrix(f.matrix, f.codomain.invariant_factors, raw)
            assert f.apply(reduced) == f.apply(raw)


def test_wrong_length_elements_are_refused():
    g = FinGenAbGroup((2, 6, 12))
    f = GroupHom.identity(g)
    with pytest.raises(ValueError, match="element needs 3 coordinates, got 2"):
        g.validate_element((1, 1))
    with pytest.raises(ValueError, match="element has wrong length for the domain"):
        f.apply((1, 1, 1, 1))


def augmented(f):
    """[matrix | codomain relations], built independently of the package."""
    orders = f.codomain.invariant_factors
    return [list(row) + [orders[i] if i == k else 0 for k in range(len(orders))]
            for i, row in enumerate(f.matrix)]


def test_one_smith_form_per_map(monkeypatch):
    from sl2cohom import abelian

    calls = []
    snf = abelian._snf

    def counting(matrix, nrows, ncols):
        calls.append([list(row) for row in matrix])
        return snf(matrix, nrows, ncols)

    monkeypatch.setattr(abelian, "_snf", counting)
    rng = random.Random(99)
    f = random_hom(rng, FinGenAbGroup((2, 6, 12)), FinGenAbGroup((4, 12)))
    cokernel(f)
    for y in list(f.codomain.elements())[:20]:
        contains_in_image(f, y)
    assert len(calls) == 1
    kernel(f)
    assert calls.count(augmented(f)) == 1


def test_shared_smith_form_matches_a_fresh_map():
    rng = random.Random(2718)
    for _ in range(200):
        f = random_finite_hom(rng)
        targets = [random_element(rng, f.codomain) for _ in range(5)]
        first = [contains_in_image(f, y) for y in targets], cokernel(f), kernel(f)
        assert cokernel(f) == first[1]  # the cached transforms were not changed
        fresh = GroupHom(f.domain, f.codomain, f.matrix)
        assert fresh == f
        k = kernel(fresh)
        assert (k, cokernel(fresh)) == (first[2], first[1])
        assert [contains_in_image(fresh, y) for y in targets] == first[0]


def test_kernel_adds_one_smith_form_beyond_the_shared_one(monkeypatch):
    from sl2cohom import abelian

    calls = []
    snf = abelian._snf

    def counting(matrix, nrows, ncols):
        calls.append((nrows, ncols))
        return snf(matrix, nrows, ncols)

    monkeypatch.setattr(abelian, "_snf", counting)
    rng = random.Random(555)
    seen = set()
    for _ in range(100):
        f = random_finite_hom(rng)
        f._smith
        before = len(calls)
        kernel(f)
        trivial = f.domain.is_trivial
        assert len(calls) - before == (0 if trivial else 1)
        seen.add(trivial)
    assert seen == {True, False}
