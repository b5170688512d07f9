"""Independent brute-force reference computations for the test suite.

Everything here deliberately avoids the fast code paths it is used to
check: determinants come from permutation expansion, group structure from
torsion counting on raw element sets, canonical forms of cyclic orders
from the Smith form of their diagonal matrix, graded dimensions from blind
monomial enumeration and from a scan of the whole exponent window, class
numbers from reduced-form counts, class-group structure from the Smith
form of the relations among a greedy generating set of forms,
reducedness from its inequalities, the
essential product from multiplying out all its linear factors on
exponent tuples, restriction by substituting linear forms into them,
GF(p^e) arithmetic from the base-p digits of the element encodings,
elliptic point counts from Euler's criterion on those digits, the
field tables from one general product per power, and linear congruences
by the extended Euclidean algorithm.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache, partial
from itertools import combinations, permutations, product as cartesian

from sl2cohom.abelian import FinGenAbGroup, factorize, smith_normal_form
from sl2cohom.arithdata import compose, principal_form, reduce_form, reduced_forms
from sl2cohom.essential import GradedElement


def permanent_style_det(matrix) -> int:
    """Determinant by signed permutation expansion (fine up to 6x6)."""
    n = len(matrix)
    if n == 0:
        return 1
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= matrix[i][perm[i]]
        total += sign * term
    return total


def structure_from_element_set(elements, add, zero) -> FinGenAbGroup:
    """Invariant factors of a finite abelian group given as an element set."""
    size = len(elements)
    if size == 1:
        return FinGenAbGroup()
    primes = []
    m = size
    f = 2
    while f * f <= m:
        if m % f == 0:
            primes.append(f)
            while m % f == 0:
                m //= f
        f += 1
    if m > 1:
        primes.append(m)

    def times(x, n):
        acc = zero
        cur = x
        while n:
            if n & 1:
                acc = add(acc, cur)
            cur = add(cur, cur)
            n >>= 1
        return acc

    parts = {}
    for p in primes:
        counts = [1]
        while True:
            c = sum(1 for x in elements if times(x, p ** len(counts)) == zero)
            if c == counts[-1]:
                break
            counts.append(c)
        heights = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            h = 0
            while p ** h < ratio:
                h += 1
            heights.append(h)
        lam = [sum(1 for h in heights if h > i) for i in range(max(heights, default=0))]
        parts[p] = sorted(lam, reverse=True)
    slots = max((len(v) for v in parts.values()), default=0)
    factors = []
    for s in range(slots):
        value = 1
        for p, lam in parts.items():
            if s < len(lam):
                value *= p ** lam[s]
        if value > 1:
            factors.append(value)
    return FinGenAbGroup(tuple(sorted(factors)))


def brute_structure_from_elements(elements, times, zero) -> FinGenAbGroup:
    """Invariant factors of a finite abelian group given as a raw element set.

    Uses only torsion counting: for each prime p the numbers of elements
    killed by p^j determine the partition of the p-part.  ``times(x, n)``
    is n*x; the p^j multiples are the p^(j-1) multiples times p, and a
    multiple that reaches zero stays there, so it is dropped.
    """
    size = len(elements)
    if size == 1:
        return FinGenAbGroup()
    primes = [p for p, _ in factorize(size)]

    exponents_by_prime = {}
    for p in primes:
        counts = [1]
        live = [x for x in elements if x != zero]
        while True:
            live = [y for y in (times(x, p) for x in live) if y != zero]
            c = size - len(live)
            if c == counts[-1]:
                break
            counts.append(c)
        # m_j = #{i : lambda_i >= j}; partition recovered as its conjugate
        logs = []
        for j in range(1, len(counts)):
            ratio = counts[j] // counts[j - 1]
            m_j = 0
            while p ** m_j < ratio:
                m_j += 1
            logs.append(m_j)
        lam = []
        for i in range(max(logs, default=0)):
            lam.append(sum(1 for m_j in logs if m_j > i))
        exponents_by_prime[p] = sorted(lam, reverse=True)
    slots = max((len(v) for v in exponents_by_prime.values()), default=0)
    factors = []
    for s in range(slots):
        value = 1
        for p, lam in exponents_by_prime.items():
            if s < len(lam):
                value *= p ** lam[s]
        factors.append(value)
    factors = [v for v in factors if v > 1]
    return FinGenAbGroup(tuple(sorted(factors)))


def group_by_diagonal_smith_form(orders) -> FinGenAbGroup:
    """The sum of the Z/o in canonical form from the Smith form of diag(orders).

    Orders 1 are dropped first; orders below 1 are not checked here.
    """
    orders = [o for o in orders if o != 1]
    n = len(orders)
    if n == 0:
        return FinGenAbGroup()
    _, diag, _ = smith_normal_form([[orders[i] if i == j else 0 for j in range(n)]
                                    for i in range(n)])
    return FinGenAbGroup(tuple(d for d in diag if d > 1))


def shape_dimension_by_enumeration(kind: str, rank: int, degree: int,
                                   window: int = 40) -> int:
    """Count monomials of the component shapes degree by degree.

    NonInvariant/Invariant: (degree-2 unit)^m * x_T, m in Z, T a subset;
    UnitsFF/MonomialFF: b^m * a^delta * x_T with m >= 0, delta in {0,1}.
    The sign-fixed shapes keep monomials of even total exponent weight.
    """
    count = 0
    subsets = [s for k in range(rank + 1) for s in combinations(range(rank), k)]
    if kind in ("NonInvariant", "Invariant"):
        for m in range(-window, window + 1):
            for t in subsets:
                if 2 * m + len(t) != degree:
                    continue
                if kind == "Invariant" and (m + len(t)) % 2:
                    continue
                count += 1
        return count
    if kind in ("UnitsFF", "MonomialFF"):
        for m in range(window + 1):
            for delta in (0, 1):
                for t in subsets:
                    if 2 * m + delta + len(t) != degree:
                        continue
                    if kind == "MonomialFF" and (m + delta + len(t)) % 2:
                        continue
                    count += 1
        return count
    raise ValueError(kind)


def monomial_count_by_window_scan(kind: str, rank: int, degree: int,
                                  laurent_window: int = 40) -> int:
    """The four shapes' monomials by scanning the whole exponent window.

    Every subset of the rank generators is listed and tallied by size; each
    exponent m of the window is then tried against each size, where
    ``oracles.monomial_count_oracle`` solves for the one m that fits.
    """
    count = 0
    sizes = Counter(len(c) for k in range(rank + 1) for c in combinations(range(rank), k))
    if kind in ("NonInvariant", "Invariant"):
        for m in range(-laurent_window, laurent_window + 1):
            for size, subsets in sizes.items():
                if 2 * m + size != degree:
                    continue
                if kind == "Invariant" and (m + size) % 2:
                    continue
                count += subsets
        return count
    for m in range(0, laurent_window + 1):
        for delta in (0, 1):
            for size, subsets in sizes.items():
                if 2 * m + delta + size != degree:
                    continue
                if kind == "MonomialFF" and (m + delta + size) % 2:
                    continue
                count += subsets
    return count


def antiinvariant_dimension_by_enumeration(rank: int, degree: int,
                                           window: int = 40) -> int:
    """Monomials of the Laurent shape with odd total weight (the complement)."""
    count = 0
    subsets = [s for k in range(rank + 1) for s in combinations(range(rank), k)]
    for m in range(-window, window + 1):
        for t in subsets:
            if 2 * m + len(t) == degree and (m + len(t)) % 2 == 1:
                count += 1
    return count


def all_hom_matrices(domain: FinGenAbGroup, codomain: FinGenAbGroup):
    """Every homomorphism between two small finite groups, as matrices."""
    choices_per_entry = []
    for p in codomain.invariant_factors:
        for o in domain.invariant_factors:
            from math import gcd
            g = gcd(p, o)
            step = p // g
            choices_per_entry.append([step * t for t in range(g)])
    m, n = codomain.ngens, domain.ngens
    for flat in cartesian(*choices_per_entry):
        yield [list(flat[i * n:(i + 1) * n]) for i in range(m)]


def group_elements(g: FinGenAbGroup):
    """All elements of a finite group, in lexicographic coordinate order."""
    return list(cartesian(*(range(d) for d in g.invariant_factors)))


def group_add(g: FinGenAbGroup):
    """Addition of coordinate tuples, reduced modulo the invariant factors."""
    orders = g.invariant_factors
    return lambda x, y: tuple((u + v) % o for u, v, o in zip(x, y, orders))


def apply_matrix(matrix, orders, x) -> tuple[int, ...]:
    """Image of x under an integer matrix, reduced modulo the given orders."""
    values = [sum(a * b for a, b in zip(row, x)) for row in matrix]
    return tuple(v % o for v, o in zip(values, orders))


def orbits_on_pairs(left, left_map, right, right_map):
    """Orbits of (x, y) -> (left_map(x), right_map(y)) on left x right.

    Walks every pair in lexicographic order; each orbit is listed once, by
    its first member, as a tuple of its members.
    """
    seen = set()
    orbits = []
    for x in left:
        for y in right:
            if (x, y) in seen:
                continue
            image = (left_map(x), right_map(y))
            orbit = ((x, y),) if image == (x, y) else ((x, y), image)
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def basis_degrees_by_enumeration(kind: str, rank: int) -> tuple[int, ...]:
    """Degrees of the module basis monomials over the periodic base ring.

    The basis monomials are u^eps * x_T (Laurent shapes) or
    b^eps * a^delta * x_T (function-field shapes) with eps, delta in {0, 1};
    the sign-fixed shapes keep those of even total exponent weight.
    """
    degrees = []
    subsets = [s for k in range(rank + 1) for s in combinations(range(rank), k)]
    deltas = (0,) if kind in ("NonInvariant", "Invariant") else (0, 1)
    for eps in (0, 1):
        for delta in deltas:
            for t in subsets:
                if kind in ("Invariant", "MonomialFF") and (eps + delta + len(t)) % 2:
                    continue
                degrees.append(2 * eps + delta + len(t))
    return tuple(sorted(degrees))


def column_span(ell: int, matrix) -> frozenset:
    """All F_ell-combinations of the columns of a matrix (given by rows)."""
    cols = list(zip(*matrix))
    n = len(matrix)
    return frozenset(
        tuple(sum(c * col[i] for c, col in zip(coeffs, cols)) % ell for i in range(n))
        for coeffs in cartesian(range(ell), repeat=len(cols)))


def proper_subgroup_spans(ell: int, n: int) -> set[frozenset]:
    """Member sets of all proper nonzero subgroups of (Z/ell)^n.

    Grows span sets one vector at a time and deduplicates them; no
    echelon form is involved.  A vector already inside a span grown from
    the same subgroup is skipped, since it would grow the same span again.
    """
    vectors = [v for v in cartesian(range(ell), repeat=n) if any(v)]
    layer = {frozenset([(0,) * n])}
    found = set()
    for _ in range(n - 1):
        grown = set()
        for span in layer:
            covered = set(span)
            for v in vectors:
                if v in covered:
                    continue
                bigger = frozenset(tuple((a + c * b) % ell for a, b in zip(s, v))
                                   for s in span for c in range(ell))
                covered |= bigger
                grown.add(bigger)
        found |= grown
        layer = grown
    return found


def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of F_q^n, from the product formula."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def tuple_product(left: dict, right: dict, ell: int) -> dict:
    """Product of two sums of monomials keyed by exponent tuples, mod ell,
    adding the exponents slot by slot."""
    out: dict = {}
    for e1, c1 in left.items():
        for e2, c2 in right.items():
            key = tuple(a + b for a, b in zip(e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {key: c % ell for key, c in out.items() if c % ell}


def term_sum(terms: list[dict], ell: int) -> dict:
    """Sum of sums of monomials keyed by exponent tuples, mod ell."""
    out: dict = {}
    for summand in terms:
        for key, c in summand.items():
            out[key] = out.get(key, 0) + c
    return {key: c % ell for key, c in out.items() if c % ell}


def linear_form(coeffs, ell: int) -> dict:
    """Sum of c_i times the i-th generator, keyed by exponent tuples."""
    return {tuple(int(i == j) for j in range(len(coeffs))): c % ell
            for i, c in enumerate(coeffs) if c % ell}


def polynomial_linear_form(spec, coeffs) -> GradedElement:
    """The linear form as an element: the sum of c_i times the i-th
    polynomial generator (degree 1 for ell = 2, degree 2 otherwise)."""
    return GradedElement(spec, linear_form(coeffs, spec.ell))


def homogeneous_degree(element) -> int:
    """The weighted total degree of a nonzero element, read off its exponent
    tuples (each generator of degree 1 for ell = 2, 2 otherwise); asserts
    that every term has it."""
    weight = 1 if element.spec.ell == 2 else 2
    degrees = {weight * sum(exps) for exps in element.terms}
    assert len(degrees) == 1, f"terms of degrees {sorted(degrees)}"
    return degrees.pop()


def multiplied_out_product(spec) -> dict:
    """Product of the linear forms of all nonzero vectors, one at a time."""
    result = {(0,) * spec.n: 1}
    for vec in cartesian(range(spec.ell), repeat=spec.n):
        if any(vec):
            result = tuple_product(result, linear_form(vec, spec.ell), spec.ell)
    return result


def moore_power(spec) -> dict:
    """(-1)^n L_n^(ell - 1), L_n = det(y_j^(ell^i)) expanded over permutations
    with the sign read off the inversions, powered on exponent tuples."""
    ell, n = spec.ell, spec.n
    moore = {}
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])
        moore[tuple(ell ** p for p in perm)] = (-1) ** inversions % ell
    result = {key: (-1) ** n * c % ell for key, c in moore.items()}
    for _ in range(ell - 2):
        result = tuple_product(result, moore, ell)
    return result


def substituted(terms: dict, matrix, ell: int) -> dict:
    """Restriction to the subgroup spanned by the matrix columns: generator i
    becomes the linear form of row i, multiplied out power by power."""
    k = len(matrix[0])
    forms = [linear_form(row, ell) for row in matrix]
    out: dict = {}
    for exps, coeff in terms.items():
        term = {(0,) * k: coeff % ell}
        for form, e in zip(forms, exps):
            for _ in range(e):
                term = tuple_product(term, form, ell)
        for key, c in term.items():
            out[key] = out.get(key, 0) + c
    return {key: c % ell for key, c in out.items() if c % ell}


def _digits(code: int, p: int, e: int) -> list[int]:
    digits = []
    for _ in range(e):
        code, d = divmod(code, p)
        digits.append(d)
    return digits


def _undigits(digits, p: int) -> int:
    code = 0
    for d in reversed(digits):
        code = code * p + d
    return code


def digitwise_add(field, a: int, b: int) -> int:
    """a + b in GF(p^e): the encodings' base-p digits added modulo p."""
    p, e = field.p, field.e
    return _undigits([(x + y) % p for x, y in zip(_digits(a, p, e), _digits(b, p, e))], p)


def digitwise_neg(field, a: int) -> int:
    """-a in GF(p^e): each base-p digit of the encoding negated modulo p."""
    return _undigits([-x % field.p for x in _digits(a, field.p, field.e)], field.p)


def digitwise_mul(field, a: int, b: int) -> int:
    """a * b in GF(p^e): the digit polynomials multiplied and reduced by
    the field's monic modulus, without its exp/log tables."""
    p, e = field.p, field.e
    if e == 1:
        return a * b % p
    out = [0] * (2 * e - 1)
    for i, x in enumerate(_digits(a, p, e)):
        for j, y in enumerate(_digits(b, p, e)):
            out[i + j] += x * y
    for top in range(2 * e - 2, e - 1, -1):
        c = out[top] % p
        for j, m in enumerate(field.modulus):
            out[top - e + j] -= c * m
    return _undigits([c % p for c in out[:e]], p)


@lru_cache(maxsize=None)
def euler_characters(field) -> tuple[int, ...]:
    """chi(v) = v^((q-1)/2) in {0, 1, -1} for every encoding v (Euler's criterion)."""
    half = (field.q - 1) // 2
    chi = []
    for v in range(field.q):
        power, base, n = 1, v, half
        while n:
            if n & 1:
                power = digitwise_mul(field, power, base)
            base = digitwise_mul(field, base, base)
            n >>= 1
        chi.append(0 if v == 0 else 1 if power == 1 else -1)
    return tuple(chi)


def character_sum_tally(field, a: int, b: int) -> tuple[int, int]:
    """(q + 1 + sum chi(x^3 + ax + b), number of roots of the cubic), by digits."""
    chi = euler_characters(field)
    total, roots = field.q + 1, 0
    for x in range(field.q):
        x2a = digitwise_add(field, digitwise_mul(field, x, x), a)
        value = digitwise_add(field, digitwise_mul(field, x2a, x), b)
        total += chi[value]
        roots += value == 0
    return total, roots


def general_product_tables(field):
    """(exp, log, zech) of GF(q) from one general product per power.

    The generator is the first candidate (from 2 in a prime field, from p
    in GF(p^e)) that no cofactor (q - 1)/r, r a prime divisor of q - 1,
    sends to 1.  A prime field is walked in integers mod p, calling nothing
    in ``curve``; GF(p^e) by ``field._raw_mul``, the product on digit
    polynomials.  zech[n] is the log of 1 + g^n, which is g^n with its
    constant digit raised by 1 mod p, or -1 where that is 0; a prime field
    gets None.
    """
    q, p, n = field.q, field.p, field.q - 1
    primes, rest, r = [], n, 2
    while rest > 1:
        if rest % r == 0:
            primes.append(r)
            while rest % r == 0:
                rest //= r
        r += 1
    if field.e == 1:
        gen = next(c for c in range(2, q) if all(pow(c, n // r, p) != 1 for r in primes))
        mul = partial(digitwise_mul, field)
    else:
        gen = next(c for c in range(p, q)
                   if all(field._raw_pow(c, n // r) != 1 for r in primes))
        mul = field._raw_mul
    exp = [1]
    for _ in range(n - 1):
        exp.append(mul(gen, exp[-1]))
    log = [0] * q
    for i, v in enumerate(exp):
        log[v] = i
    if field.e == 1:
        return exp, log, None
    one_more = (v - v % p + (v + 1) % p for v in exp)
    return exp, log, [log[w] if w else -1 for w in one_more]


def is_reduced(form) -> bool:
    """Whether a positive definite form is reduced: |b| <= a <= c, with
    b >= 0 when |b| = a or a = c."""
    a, b, c = form
    if not (abs(b) <= a <= c):
        return False
    if b < 0 and (abs(b) == a or a == c):
        return False
    return True


def class_group_by_relations(d: int) -> FinGenAbGroup:
    """Form class group of a negative fundamental discriminant, read off a
    triangular system of relations among a greedy generating set of
    reduced forms, put into invariant factors by Smith reduction."""
    forms = reduced_forms(d)
    index = {f: i for i, f in enumerate(forms)}

    def mul(i: int, j: int) -> int:
        return index[compose(*forms[i], *forms[j][:2])]

    reached: dict[int, tuple[int, ...]] = {index[reduce_form(*principal_form(d))]: ()}
    relations: list[list[int]] = []
    for cand in range(len(forms)):
        if cand in reached:
            continue
        reached = {e: vec + (0,) for e, vec in reached.items()}
        for row in relations:
            row.append(0)
        # minimal power of cand landing in the subgroup generated so far
        p, power = cand, 1
        while p not in reached:
            p = mul(p, cand)
            power += 1
        relations.append([-wi for wi in reached[p][:-1]] + [power])
        base = list(reached.items())
        shift = cand
        for i in range(1, power):
            for e, vec in base:
                reached[mul(e, shift)] = vec[:-1] + (i,)
            shift = mul(shift, cand)
    assert len(reached) == len(forms)
    if not relations:
        return FinGenAbGroup()
    _, diag, _ = smith_normal_form(relations)
    return FinGenAbGroup(tuple(e for e in diag if e > 1))


def congruence_by_extended_euclid(a: int, b: int, m: int) -> tuple[int, int]:
    """The solutions of a*x = b (mod m), m >= 1, as x0 + step*k, from
    Bezout coefficients: a*u = gcd(a, m) (mod m)."""
    old_r, r, old_u, u = a, m, 1, 0
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
    g, u = (-old_r, -old_u) if old_r < 0 else (old_r, old_u)
    if b % g:
        raise ArithmeticError("congruence has no solution")
    return (b // g * u) % m, m // g
