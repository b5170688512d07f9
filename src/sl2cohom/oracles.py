"""Brute-force oracle suites backing the ``verify`` command.

Each suite checks a fast exact algorithm against an independent slow
route: Smith-form output against reconstruction and fraction-free
determinants, kernels and cokernels against exhaustive enumeration and
structures read from element orders, graded dimensions against blind
monomial enumeration, class groups against reduced-form counts, and
elliptic point counts obtained from the quadratic character, with the
cubic values they are read from, against tables of square roots, cubes
and sums built by field operations.  All randomness is seeded, so two
runs produce identical results.
"""

from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm, prod
from operator import mul

from .abelian import (
    FinGenAbGroup,
    GroupHom,
    InputError,
    Record,
    _matmul,
    contains_in_image,
    cokernel,
    factorize,
    kernel,
    smith_normal_form,
)
from .arithdata import (
    class_group_imaginary_quadratic,
    compose,
    is_fundamental_discriminant,
    principal_form,
    reduce_form,
    reduced_forms,
)
from . import curve as curve_module
from .cohomengine import ComponentRing, graded_dimension
from .curve import EllipticMinusPoint, count_points_elliptic, field_spec_from_order, get_field


class SuiteResult(Record):
    _fields = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "detail", detail)


# ---------------------------------------------------------------------------
# independent helpers
# ---------------------------------------------------------------------------

def bareiss_determinant(matrix) -> int:
    """Fraction-free exact determinant (independent of the Smith form)."""
    a = [list(row) for row in matrix]
    n = len(a)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def random_finite_group(rng: random.Random) -> FinGenAbGroup:
    """A random group of order at most 200, from up to three cyclic orders."""
    orders = []
    while True:
        candidate = rng.randint(1, 12)
        if prod(orders, start=1) * candidate > 200:
            break
        orders.append(candidate)
        if len(orders) >= 3 or rng.random() < 0.3:
            break
    return FinGenAbGroup.from_cyclic_orders(orders)


def random_hom(rng: random.Random, domain: FinGenAbGroup,
               codomain: FinGenAbGroup) -> GroupHom:
    rows = []
    for p in codomain.invariant_factors:
        row = []
        for o in domain.invariant_factors:
            g = gcd(p, o)
            row.append(p // g * rng.randrange(g))
        rows.append(row)
    return GroupHom(domain, codomain, rows)


def structure_from_element_orders(orders) -> FinGenAbGroup:
    """Invariant factors of a finite abelian group from the orders of its elements.

    Uses only torsion counting: for each prime p the numbers of elements
    killed by p^j, those whose order divides p^j, determine the partition
    of the p-part.
    """
    size = len(orders)
    if size == 1:
        return FinGenAbGroup()
    tally = Counter(orders)
    exponents_by_prime = {}
    for p, _ in factorize(size):
        counts = [1]
        while tally[p ** len(counts)]:
            counts.append(counts[-1] + tally[p ** len(counts)])
        # m_j = #{i : lambda_i >= j}; partition recovered as its conjugate
        logs = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            m_j = 0
            while p ** m_j < ratio:
                m_j += 1
            logs.append(m_j)
        exponents_by_prime[p] = [sum(1 for m_j in logs if m_j > i)
                                 for i in range(max(logs, default=0))]
    slots = max((len(v) for v in exponents_by_prime.values()), default=0)
    factors = (prod(p ** lam[s] for p, lam in exponents_by_prime.items() if s < len(lam))
               for s in range(slots))
    return FinGenAbGroup(tuple(sorted(v for v in factors if v > 1)))


def element_order(x, orders) -> int:
    """The order of a raw coordinate tuple in the product of the Z/o, o in orders."""
    return lcm(*[o // gcd(v, o) for v, o in zip(x, orders)])


def coset_order(y, orders, subgroup) -> int:
    """The order of y + subgroup, with subgroup a set of raw tuples: ord(y),
    divided by each of its primes p while (m/p) y lies in the subgroup."""
    m = element_order(y, orders)
    for p, _ in factorize(m):
        while m % p == 0 and tuple(m // p * v % o for v, o in zip(y, orders)) in subgroup:
            m //= p
    return m


@lru_cache(maxsize=16)
def _subset_sizes(rank: int) -> tuple[tuple[int, int], ...]:
    """(size, number of subsets) over every listed subset of rank generators."""
    sizes = Counter(len(c) for k in range(rank + 1) for c in combinations(range(rank), k))
    return tuple(sizes.items())


def monomial_count_oracle(kind: str, rank: int, degree: int) -> int:
    """Blind monomial enumeration for the four component shapes.

    Every subset of the rank generators is listed, once per rank, and
    tallied by size; for each size the one m with 2m + size (+ delta) =
    degree counts if it lies in the window, from -40 (0 for a polynomial
    shape) to 40, and has the shape's parity.
    """
    laurent = kind in ("NonInvariant", "Invariant")
    lowest = -40 if laurent else 0
    count = 0
    for size, subsets in _subset_sizes(rank):
        for delta in (0,) if laurent else (0, 1):
            m, odd = divmod(degree - size - delta, 2)
            if odd or not lowest <= m <= 40:
                continue
            if kind == "Invariant" and (m + size) % 2:
                continue
            if kind == "MonomialFF" and (m + delta + size) % 2:
                continue
            count += subsets
    return count


def _images(f: GroupHom, elements) -> list[tuple[int, ...]]:
    """f on each element, on raw coordinate tuples, one codomain coordinate
    at a time."""
    elements = list(elements)
    coords = [[sum(map(mul, row, x)) % o for x in elements]
              for row, o in zip(f.matrix, f.codomain.invariant_factors)]
    return list(zip(*coords)) if coords else [()] * len(elements)


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_snf_reconstruction() -> SuiteResult:
    rng = random.Random(20250808)
    name = "snf_reconstruction"
    for trial in range(200):
        nrows = rng.randint(1, 6)
        ncols = rng.randint(1, 6)
        matrix = [[rng.randint(-20, 20) for _ in range(ncols)] for _ in range(nrows)]
        left, diag, right = smith_normal_form(matrix)
        product = _matmul(_matmul(left, matrix), right)
        for i in range(nrows):
            for j in range(ncols):
                expected = diag[i] if i == j and i < len(diag) else 0
                if product[i][j] != expected:
                    return SuiteResult(name, False, f"trial {trial}: not diagonal")
        for a, b in zip(diag, diag[1:]):
            if a and b % a or (a == 0 and b != 0):
                return SuiteResult(name, False, f"trial {trial}: no divisibility chain")
        if abs(bareiss_determinant(left)) != 1 or abs(bareiss_determinant(right)) != 1:
            return SuiteResult(name, False, f"trial {trial}: transform not unimodular")
        if nrows == ncols:
            if abs(bareiss_determinant(matrix)) != prod(diag, start=1):
                return SuiteResult(name, False, f"trial {trial}: determinant mismatch")
    return SuiteResult(name, True, "200 random matrices")


def suite_kernel_cokernel_enumeration() -> SuiteResult:
    rng = random.Random(1117)
    name = "kernel_cokernel_enumeration"
    for trial in range(80):
        domain = random_finite_group(rng)
        codomain = random_finite_group(rng)
        f = random_hom(rng, domain, codomain)
        dom_orders, cod_orders = domain.invariant_factors, codomain.invariant_factors
        dom_elements = list(domain.elements())
        values = _images(f, dom_elements)
        zero = codomain.zero()
        kernel_set = {x for x, v in zip(dom_elements, values) if v == zero}
        k, incl = kernel(f)
        if set(_images(incl, k.elements())) != kernel_set:
            return SuiteResult(name, False, f"trial {trial}: kernel set mismatch")
        brute_k = structure_from_element_orders([element_order(x, dom_orders) for x in kernel_set])
        if brute_k != k:
            return SuiteResult(name, False, f"trial {trial}: kernel structure mismatch")
        image = set(values)
        c, proj = cokernel(f)
        cod_elements = list(codomain.elements())
        reps, covered = [], set()
        for y in cod_elements:
            # image is a subgroup, so y + image is the coset of each of its members
            if y not in covered:
                reps.append(y)
                covered.update(tuple((u + v) % o for u, v, o in zip(y, s, cod_orders))
                               for s in image)
        if c.order != len(reps):
            return SuiteResult(name, False, f"trial {trial}: cokernel order mismatch")
        brute_c = structure_from_element_orders([coset_order(y, cod_orders, image) for y in reps])
        if brute_c != c:
            return SuiteResult(name, False, f"trial {trial}: cokernel structure mismatch")
        if set(_images(proj, cod_elements)) != set(c.elements()):
            return SuiteResult(name, False, f"trial {trial}: projection not onto")
        for y in cod_elements[:20]:
            if contains_in_image(f, y) != (y in image):
                return SuiteResult(name, False, f"trial {trial}: membership mismatch")
    return SuiteResult(name, True, "80 random homomorphisms")


def suite_graded_dimension_oracle() -> SuiteResult:
    name = "graded_dimension_oracle"
    for kind in ("NonInvariant", "Invariant", "UnitsFF", "MonomialFF"):
        for rank in range(7):
            comp = ComponentRing(kind=kind, rank=rank)
            for n in range(-4, 13):
                fast = graded_dimension(comp, n)
                slow = monomial_count_oracle(kind, rank, n)
                if fast != slow:
                    return SuiteResult(
                        name, False, f"{kind}({rank}) degree {n}: {fast} vs {slow}")
    return SuiteResult(name, True, "four shapes, ranks 0..6, degrees -4..12")


def suite_class_group_forms() -> SuiteResult:
    name = "class_group_forms"
    known = {-23: 3, -4: 1, -84: 4, -20: 2, -47: 5}
    for d, h in known.items():
        if len(reduced_forms(d)) != h:
            return SuiteResult(name, False, f"reduced-form count wrong for {d}")
    for d in range(-3, -401, -1):
        if not is_fundamental_discriminant(d):
            continue
        forms = reduced_forms(d)
        group = class_group_imaginary_quadratic(d)
        if group.order != len(forms):
            return SuiteResult(name, False, f"{d}: structure order vs form count")
        identity = reduce_form(*principal_form(d))
        for f in forms:
            row = sorted(compose(*f, a2, b2) for a2, b2, _ in forms)
            if row != list(forms):
                return SuiteResult(name, False, f"{d}: row of {f} is not a permutation")
            if compose(*f, *identity[:2]) != f:
                return SuiteResult(name, False, f"{d}: identity fails on {f}")
    return SuiteResult(name, True, "all fundamental discriminants down to -400")


def suite_elliptic_point_recount() -> SuiteResult:
    """Each count against 1 + the sum over x of the square roots of x^3 + ax + b,
    read from tables of y*y, cubes and sums built once per field by its ``mul``
    and ``add``; for a, b < 3 also the cubic values the tally reads."""
    name = "elliptic_point_recount"
    q = 3
    while q <= 25:
        try:
            spec = field_spec_from_order(q)
        except InputError:
            spec = None
        if spec is not None and spec.p != 2:
            field = get_field(spec)
            add, mul, elements = field.add, field.mul, field.elements()
            roots = [0] * q
            for y in elements:
                roots[mul(y, y)] += 1
            cubes = [mul(mul(x, x), x) for x in elements]
            shifts = [[add(v, b) for v in elements] for b in elements]
            four, t27 = field.from_int(4), field.from_int(27)
            t27b2 = [mul(t27, mul(b, b)) for b in elements]
            for a in elements:
                partial = [add(c, mul(a, x)) for x, c in zip(elements, cubes)]
                four_a3 = mul(four, cubes[a])
                for b in elements:
                    if add(four_a3, t27b2[b]) == 0:
                        continue
                    shift, where = shifts[b].__getitem__, f"q={q} a={a} b={b}"
                    by_enum = 1 + sum(map(roots.__getitem__, map(shift, partial)))
                    curve = EllipticMinusPoint(a, b)
                    try:
                        by_character = count_points_elliptic(curve, field)
                    except InputError as exc:
                        return SuiteResult(name, False, f"{where}: refused: {exc}")
                    if by_enum != by_character:
                        return SuiteResult(name, False, f"{where}: {by_enum} vs {by_character}")
                    if (by_enum - q - 1) ** 2 > 4 * q:
                        return SuiteResult(name, False, f"{where}: Hasse violated")
                    if a < 3 and b < 3:
                        pairs = zip(map(shift, partial), curve_module._cubic_values(curve, field),
                                    strict=True)
                        wrong = next((x for x, (u, v) in enumerate(pairs) if u != v), None)
                        if wrong is not None:
                            return SuiteResult(name, False, f"{where}: cubic value at x={wrong}")
        q += 1
    return SuiteResult(name, True, "all odd-characteristic fields with q <= 25")


def run_all_suites() -> list[SuiteResult]:
    return [
        suite_snf_reconstruction(),
        suite_kernel_cokernel_enumeration(),
        suite_graded_dimension_oracle(),
        suite_class_group_forms(),
        suite_elliptic_point_recount(),
    ]
