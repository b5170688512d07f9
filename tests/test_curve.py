import random
from itertools import product as cartesian

import pytest

from brute import (
    character_sum_tally,
    digitwise_add,
    digitwise_neg,
    general_product_tables,
    group_add,
    structure_from_element_set,
)
from sl2cohom.abelian import (
    FinGenAbGroup,
    GroupHom,
    InputError,
    Involution,
    factorize,
    involution_orbits,
    is_prime,
    two_torsion_order,
)
from sl2cohom import curve
from sl2cohom.curve import (
    _cubic_values,
    _point_tally,
    EllipticMinusPoint,
    FiniteFieldSpec,
    P1Minus,
    check_punctures_exist,
    count_and_structure_elliptic,
    count_points_elliptic,
    ec_add,
    ec_scalar,
    elliptic_order_and_two_torsion,
    elliptic_points,
    field_spec_from_order,
    get_field,
    pic_p1_minus,
)


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,e", [(7, 1), (3, 2), (2, 3), (5, 2), (2, 4)])
def test_field_axioms(p, e):
    field = get_field(FiniteFieldSpec(p, e))
    q = field.q
    for a in range(q):
        assert field.pow(a, q) == a  # Fermat
    for a in range(1, q):
        assert field.mul(a, field.pow(a, q - 2)) == 1


def test_field_distributivity_spot_checks():
    field = get_field(FiniteFieldSpec(3, 2))
    rng = random.Random(99)
    for _ in range(1000):
        a, b, c = (rng.randrange(field.q) for _ in range(3))
        left = field.mul(a, field.add(b, c))
        right = field.add(field.mul(a, b), field.mul(a, c))
        assert left == right


ZECH_FIELDS = [(p, e) for p in (2, 3, 5, 7, 11) for e in range(2, 8)
               if p ** e <= 125] + [(3, 5)]


@pytest.mark.parametrize("p,e", ZECH_FIELDS)
def test_zech_addition_matches_digitwise_addition(p, e):
    field = get_field(FiniteFieldSpec(p, e))
    for a in field.elements():
        assert field.mul(a, field.from_int(-1)) == digitwise_neg(field, a)
        assert [field.add(a, b) for b in field.elements()] == \
            [digitwise_add(field, a, b) for b in field.elements()]


def full_walk_generator(field):
    """The first candidate whose power cycle has length q - 1, found by
    walking every candidate's full cycle with polynomial multiplication."""
    for cand in range(2, field.q) if field.e == 1 else range(field.p, field.q):
        order, cur = 1, cand
        while cur != 1:
            cur = field._raw_mul(cur, cand)
            order += 1
        if order == field.q - 1:
            return cand


def test_generator_is_the_first_primitive_element():
    for q in range(3, 2**10 + 1):
        factors = factorize(q)
        if len(factors) != 1:
            continue
        field = get_field(FiniteFieldSpec(*factors[0]))
        assert field.exp[1] == full_walk_generator(field), q


def test_resultant_is_the_norm_to_the_prime_field():
    # the generator search decides the primes r | p - 1 on N(a) in GF(p)
    for q in range(4, 2**9 + 1):
        factors = factorize(q)
        if len(factors) != 1 or factors[0][1] == 1:
            continue
        field = get_field(FiniteFieldSpec(*factors[0]))
        p, exponent = field.p, (q - 1) // (field.p - 1)
        assert [curve._resultant(field.modulus, field._decode(a), p) for a in range(1, q)] == \
            [field._raw_pow(a, exponent) for a in range(1, q)], q


@pytest.mark.parametrize("p,top", [(2, 6), (3, 4), (5, 3)])
def test_irreducibility_matches_the_products_of_lower_degrees(p, top):
    def monic(d):
        return [list(c) + [1] for c in cartesian(range(p), repeat=d)]

    def times(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] = (out[i + j] + u * v) % p
        return tuple(out)

    for e in range(2, top + 1):
        reducible = {times(a, b) for d in range(1, e // 2 + 1) for a in monic(d)
                     for b in monic(e - d)}
        for f in monic(e):
            assert curve._is_irreducible(f, p) == (tuple(f) not in reducible), f


@pytest.mark.parametrize("p,e", [(7, 1), (3, 2), (5, 2)])
def test_tables_from_a_non_generator_are_refused(monkeypatch, p, e):
    # with no cofactors to test, the first candidate is taken whatever its
    # order: 2 in GF(7) (order 3), x in GF(9) (order 4) and in GF(25) (order 8)
    monkeypatch.setattr(curve, "factorize", lambda n: [])
    with pytest.raises(ArithmeticError, match="inconsistent exp/log tables"):
        get_field(FiniteFieldSpec(p, e))


def test_lookup_walk_matches_the_general_product_walk():
    for q in range(3, 2**12 + 1, 2):
        factors = factorize(q)
        if len(factors) == 1:
            field = get_field(FiniteFieldSpec(*factors[0]))
            tables = (field.exp, field.log, getattr(field, "zech", None))
            assert tables == general_product_tables(field), q


@pytest.mark.parametrize("p,e", [(3, 10), (37, 3)])
def test_lookup_walk_matches_the_general_product_walk_on_large_fields(p, e):
    field = get_field(FiniteFieldSpec(p, e))
    assert (field.exp, field.log, field.zech) == general_product_tables(field)


def test_field_build_makes_few_general_products(monkeypatch):
    # the modulus, the generator and the walk's tables; one product per
    # power would be 59 047 more
    calls = []
    poly_mul_mod = curve._poly_mul_mod

    def counting(*args):
        calls.append(args)
        return poly_mul_mod(*args)

    monkeypatch.setattr(curve, "_poly_mul_mod", counting)
    get_field(FiniteFieldSpec(3, 10))
    assert len(calls) < 2000


def test_field_spec_from_order():
    assert field_spec_from_order(49) == FiniteFieldSpec(7, 2)
    assert field_spec_from_order(7) == FiniteFieldSpec(7, 1)
    with pytest.raises(ValueError):
        field_spec_from_order(12)


def test_field_size_cap():
    with pytest.raises(ValueError):
        FiniteFieldSpec(2, 17)


# ---------------------------------------------------------------------------
# elliptic point counting and structure
# ---------------------------------------------------------------------------

def test_curve_with_full_two_torsion_over_f5():
    group = count_and_structure_elliptic(EllipticMinusPoint(1, 0), FiniteFieldSpec(5))
    assert group == FinGenAbGroup((2, 2))
    field = get_field(FiniteFieldSpec(5))
    points = set(elliptic_points(EllipticMinusPoint(1, 0), field))
    assert points == {None, (0, 0), (2, 0), (3, 0)}


def test_order_six_curve_over_f5():
    group = count_and_structure_elliptic(EllipticMinusPoint(0, 1), FiniteFieldSpec(5))
    assert group == FinGenAbGroup((6,))


def test_singular_curves_rejected():
    with pytest.raises(InputError, match="discriminant 4a"):
        count_and_structure_elliptic(EllipticMinusPoint(0, 0), FiniteFieldSpec(5))
    # characteristic 2 short Weierstrass models are always singular
    with pytest.raises(InputError, match="singular in characteristic 2"):
        count_and_structure_elliptic(EllipticMinusPoint(1, 1), FiniteFieldSpec(2, 3))
    # characteristic 3 with a = 0 has vanishing discriminant
    with pytest.raises(InputError, match="discriminant 4a"):
        count_and_structure_elliptic(EllipticMinusPoint(0, 1), FiniteFieldSpec(3))


def test_group_law_associativity_spot_checks():
    spec = FiniteFieldSpec(13)
    field = get_field(spec)
    curve = EllipticMinusPoint(2, 3)
    points = elliptic_points(curve, field)
    rng = random.Random(17)
    for _ in range(500):
        p1, p2, p3 = (points[rng.randrange(len(points))] for _ in range(3))
        left = ec_add(field, curve.a, ec_add(field, curve.a, p1, p2), p3)
        right = ec_add(field, curve.a, p1, ec_add(field, curve.a, p2, p3))
        assert left == right


def test_every_point_order_divides_group_order():
    spec = FiniteFieldSpec(11)
    field = get_field(spec)
    curve = EllipticMinusPoint(3, 5)
    points = elliptic_points(curve, field)
    n = len(points)
    for pt in points:
        assert ec_scalar(field, curve.a, n, pt) is None


def test_scalar_multiple_doubles_only_while_bits_remain(monkeypatch):
    # one addition per set bit, and a doubling only while higher bits remain
    field = get_field(FiniteFieldSpec(11))
    elliptic = EllipticMinusPoint(3, 5)
    point = elliptic_points(elliptic, field)[1]
    calls = []

    def counting(*args):
        calls.append(args)
        return ec_add(*args)

    monkeypatch.setattr(curve, "ec_add", counting)
    for n in range(1, 65):
        calls.clear()
        ec_scalar(field, elliptic.a, n, point)
        assert len(calls) == n.bit_length() - 1 + bin(n).count("1"), n


def test_character_count_agrees_with_enumeration():
    for q in (5, 7, 9, 11, 13):
        spec = field_spec_from_order(q)
        field = get_field(spec)
        for a in range(q):
            for b in range(q):
                curve = EllipticMinusPoint(a, b)
                try:
                    by_enum = len(elliptic_points(curve, field))
                except InputError:
                    continue
                assert by_enum == count_points_elliptic(curve, field)


def tally_curves():
    """Every curve over q in {3, 5, 7, 9, 25}, y^2 = x^3 + x + 1 over GF(3^5),
    and seeded curves over GF(27), GF(49) and GF(343) with codes of p or more."""
    for q in (3, 5, 7, 9, 25):
        for a in range(q):
            for b in range(q):
                yield get_field(field_spec_from_order(q)), EllipticMinusPoint(a, b)
    yield get_field(FiniteFieldSpec(3, 5)), EllipticMinusPoint(1, 1)
    rng = random.Random(343)
    for q in (27, 49, 343):
        field = get_field(field_spec_from_order(q))
        for _ in range(4):
            yield field, EllipticMinusPoint(rng.randrange(field.p, q), rng.randrange(field.p, q))


def test_cubic_values_and_tally_match_per_point_evaluation():
    checked = 0
    for field, curve in tally_curves():
        try:
            values = _cubic_values(curve, field)
        except InputError:
            continue
        add, mul = field.add, field.mul
        assert values == [add(mul(add(mul(x, x), curve.a), x), curve.b)
                          for x in range(field.q)], (field.q, curve)
        assert _point_tally(curve, field) == character_sum_tally(field, curve.a, curve.b)
        checked += 1
    assert checked > 600


def test_hasse_bound_sample():
    for q in (5, 7, 9, 11):
        spec = field_spec_from_order(q)
        field = get_field(spec)
        for a in range(q):
            for b in range(q):
                try:
                    n = count_points_elliptic(EllipticMinusPoint(a, b), field)
                except InputError:
                    continue
                assert (n - q - 1) ** 2 <= 4 * q


def check_fast_counts(curve, spec):
    """(#E, #E[2]) from the report path against the structure oracle, the
    points P with P + P = O, and (for q <= 13) the brute-force structure
    of the point set.  Returns the counts, or None for a singular curve."""
    field = get_field(spec)
    try:
        points = elliptic_points(curve, field)
    except InputError:
        return None
    fast = elliptic_order_and_two_torsion(curve, spec)
    oracle = count_and_structure_elliptic(curve, spec)
    assert fast == (oracle.order, two_torsion_order(oracle.invariant_factors)), (curve, spec)
    doubled = sum(1 for pt in points if ec_add(field, curve.a, pt, pt) is None)
    assert fast == (len(points), doubled), (curve, spec)
    if spec.q <= 13:
        brute = structure_from_element_set(
            points, lambda p1, p2: ec_add(field, curve.a, p1, p2), None)
        assert brute == oracle, (curve, spec)
    return fast


def test_fast_counts_match_structure_oracle_and_brute_force():
    two_torsion = set()
    for q in (3, 5, 7, 9, 11, 13):
        spec = field_spec_from_order(q)
        for a in range(q):
            for b in range(q):
                counts = check_fast_counts(EllipticMinusPoint(a, b), spec)
                if counts:
                    two_torsion.add(counts[1])
    assert two_torsion == {1, 2, 4}
    rng = random.Random(1814)
    primes = [p for p in range(17, 2000) if is_prime(p)]
    sample = [FiniteFieldSpec(rng.choice(primes)) for _ in range(2)]
    for spec in sample + [FiniteFieldSpec(3, 5), FiniteFieldSpec(7, 3)]:
        while check_fast_counts(
                EllipticMinusPoint(rng.randrange(spec.q), rng.randrange(spec.q)), spec) is None:
            pass


def cubic_with_roots(p, r, rest):
    """(a, b) of (x - r)(x^2 + rx + c) over GF(p), with r^2 - 4c = rest: the
    cubic has three roots if rest is a nonzero square and one if it is not."""
    c = (r * r - rest) * pow(4, -1, p) % p
    return (c - r * r) % p, -r * c % p


def shanks_mestre_cases():
    """(p, curves): every prime 229 < p <= 1500 with a seeded curve, one of
    each family a = 0 and b = 0, and cubics built with three roots and with
    one; then y^2 = x^3 + x + 1 and the two families over 65521."""
    rng = random.Random(233)
    for p in range(curve.MESTRE_BOUND + 1, 1501):
        if not is_prime(p):
            continue
        r = rng.randrange(1, p)
        square = pow(rng.randrange(1, p), 2, p)
        nonsquare = next(n for n in range(2, p) if pow(n, (p - 1) // 2, p) == p - 1)
        yield p, [EllipticMinusPoint(rng.randrange(p), rng.randrange(p)),
                  EllipticMinusPoint(0, rng.randrange(1, p)),
                  EllipticMinusPoint(rng.randrange(1, p), 0),
                  EllipticMinusPoint(*cubic_with_roots(p, r, square)),
                  EllipticMinusPoint(*cubic_with_roots(p, r, nonsquare))]
    yield 65521, [EllipticMinusPoint(1, 1), EllipticMinusPoint(0, 7), EllipticMinusPoint(5, 0)]


def test_shanks_mestre_counts_match_the_tally_and_euler_characters():
    # the cases start at 233, the first prime the Shanks-Mestre path takes
    assert curve.MESTRE_BOUND == 229 and [p for p in range(229, 234) if is_prime(p)] == [229, 233]
    roots, primes = set(), 0
    for p, curves in shanks_mestre_cases():
        spec = FiniteFieldSpec(p)
        field = get_field(spec)
        # by Euler characters: one curve over 65521, and over every third
        # smaller field one curve, of each kind in turn
        by_characters = (curves[0] if p == 65521 else
                         curves[primes // 3 % len(curves)] if primes % 3 == 0 else None)
        for c in curves:
            try:
                tally = _point_tally(c, field)
            except InputError:
                with pytest.raises(InputError, match="discriminant 4a"):
                    curve._shanks_mestre_tally(c, spec)
                continue
            assert curve._shanks_mestre_tally(c, spec) == tally, (p, c)
            assert elliptic_order_and_two_torsion(c, spec) == (tally[0], 1 + tally[1])
            if c is by_characters:
                assert character_sum_tally(field, c.a, c.b) == tally, (p, c)
            roots.add(tally[1])
        primes += 1
    assert primes == 190 and roots == {0, 1, 3}


# ---------------------------------------------------------------------------
# Picard groups
# ---------------------------------------------------------------------------

def inversion_orbits(pic):
    return involution_orbits(pic, Involution(GroupHom.negation(pic)))


def test_pic_of_doubly_punctured_line_is_trivial():
    pic = pic_p1_minus((1, 1))
    assert pic.is_trivial
    classes = inversion_orbits(pic)
    assert len(classes) == 1 and classes[0].fixed


def test_pic_single_puncture_trivial():
    assert pic_p1_minus((1,)).is_trivial


def test_pic_gcd_of_degrees():
    pic = pic_p1_minus((2, 4))
    assert pic == FinGenAbGroup((2,))
    classes = inversion_orbits(pic)
    assert len(classes) == 2 and all(c.fixed for c in classes)


def test_pic_requires_a_puncture():
    with pytest.raises(ValueError):
        P1Minus(())


def closed_point_counts(q, top):
    """Closed points of the projective line over F_q by degree, from Gauss's
    q^d = sum over e | d of e * (monic irreducibles of degree e)."""
    monic = {}
    for d in range(1, top + 1):
        monic[d] = (q ** d - sum(e * monic[e] for e in range(1, d) if d % e == 0)) // d
    return {d: count + (d == 1) for d, count in monic.items()}


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_punctures_need_existing_closed_points(q):
    counts = closed_point_counts(q, 24)
    for d in range(1, 25):
        if counts[d] < 5000:  # every point of degree d may go, one more may not
            check_punctures_exist(P1Minus((d,) * counts[d]), q)
            with pytest.raises(ValueError, match=f"has {counts[d]} closed points of degree "
                                                 f"{d}, fewer than the {counts[d] + 1} "):
                check_punctures_exist(P1Minus((d,) * (counts[d] + 1)), q)
        # a degree is skipped only while it has at least the most punctures it skips
        assert counts[d] >= 2 ** (d - 1 - d.bit_length()) - 1


def test_elliptic_picard_classes():
    pic = count_and_structure_elliptic(EllipticMinusPoint(1, 0), FiniteFieldSpec(5))
    classes = inversion_orbits(pic)
    assert pic == FinGenAbGroup((2, 2))
    assert len(classes) == 4 and all(c.fixed for c in classes)


def test_class_count_formula():
    # orbits = (|Pic| + #2-torsion) / 2, exactly
    for degrees in [(1,), (1, 1), (2, 4), (3,), (6, 9)]:
        pic = pic_p1_minus(degrees)
        add = group_add(pic)
        two_torsion = sum(1 for x in pic.elements() if add(x, x) == pic.zero())
        assert len(inversion_orbits(pic)) == (pic.order + two_torsion) // 2
