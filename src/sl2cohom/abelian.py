"""Exact arithmetic of finite abelian groups.

Unit groups enter the reports only as ranks, so every group here is finite.
Groups are stored in invariant-factor form, homomorphisms as integer
matrices, and every computation (Smith normal form, kernels, cokernels,
image membership) runs over Python's arbitrary-precision integers, so
intermediate entries can grow without wrapping.  All values are immutable
after construction (see ``Record``) and all operations are pure functions.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from itertools import product as _cartesian
from math import gcd, prod
from operator import attrgetter, mul

# the largest group whose elements the oracles may list
ENUMERATION_BOUND = 10**6
# the largest integer factored by trial division (about 0.1 s of work)
TRIAL_DIVISION_BOUND = 10**12

IntMatrix = tuple[tuple[int, ...], ...]


class InputError(ValueError):
    """An input refused by a check that the command line or a datum file
    reaches.  Any other ``ValueError`` is a broken internal invariant."""


class EnumerationBoundExceeded(Exception):
    """Element listing was requested for a group beyond the allowed bound."""


class Record:
    """Base of the package's immutable values.

    A subclass names its fields in ``_fields`` and sets them in its own
    ``__init__`` with ``object.__setattr__``.  Two records are equal when
    they are of one class and their field tuples are equal, and a record
    hashes as its field tuple.  Other assignment or deletion raises
    ``AttributeError``; ``cached_property`` writes ``__dict__`` directly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        # attrgetter runs in C, and GradedElement compares specs on every product;
        # of one name it returns the bare value, not a 1-tuple
        get = attrgetter(*cls._fields)
        cls._key = staticmethod(get if len(cls._fields) > 1 else lambda self: (get(self),))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as (p, e) pairs, p ascending.

    This is the package's one trial-division loop.  Its cost grows like
    sqrt(n), so n above ``TRIAL_DIVISION_BOUND`` is refused.
    """
    if n > TRIAL_DIVISION_BOUND:
        raise InputError(f"{n} exceeds the trial-division bound {TRIAL_DIVISION_BOUND}")
    factors = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            factors.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == ((n, 1),)


# ---------------------------------------------------------------------------
# integer matrices
# ---------------------------------------------------------------------------

def _freeze(rows) -> IntMatrix:
    return tuple(tuple(int(v) for v in row) for row in rows)


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(a, b) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _snf(matrix, nrows: int, ncols: int):
    """Smith normal form with transforms.

    Returns (left, diag, right, right_inv) where left * matrix * right is
    diagonal with entries ``diag`` forming a divisibility chain of
    nonnegative integers (zeros last); left and right are unimodular and
    right_inv is the inverse of right.
    """
    a = [list(row) for row in matrix]
    left = _identity(nrows)
    right = _identity(ncols)
    right_inv = _identity(ncols)

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        left[i], left[j] = left[j], left[i]

    def negate_row(i):
        a[i] = [-v for v in a[i]]
        left[i] = [-v for v in left[i]]

    def add_row(i, j, q):
        # row_i += q * row_j
        a[i] = [u + q * v for u, v in zip(a[i], a[j])]
        left[i] = [u + q * v for u, v in zip(left[i], left[j])]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in right:
            r[i], r[j] = r[j], r[i]
        right_inv[i], right_inv[j] = right_inv[j], right_inv[i]

    def add_col(j, i, q):
        # col_j += q * col_i
        for r in a:
            r[j] += q * r[i]
        for r in right:
            r[j] += q * r[i]
        right_inv[i] = [u - q * v for u, v in zip(right_inv[i], right_inv[j])]

    def move_min_pivot(t) -> bool:
        # smallest nonzero entry of the trailing block becomes the pivot
        pi = pj = -1
        best = 0
        for i in range(t, nrows):
            row = a[i]
            for j in range(t, ncols):
                v = row[j]
                if v and (best == 0 or abs(v) < best):
                    best, pi, pj = abs(v), i, j
        if pi < 0:
            return False
        if pi != t:
            swap_rows(t, pi)
        if pj != t:
            swap_cols(t, pj)
        if a[t][t] < 0:
            negate_row(t)
        return True

    limit = min(nrows, ncols)
    for t in range(limit):
        if not move_min_pivot(t):
            break
        while True:
            # one reduction pass; re-selecting the minimum each round keeps
            # the quotients, and hence entry growth, under control
            cleared = True
            for i in range(t + 1, nrows):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        add_row(i, t, -q)
                    if a[i][t]:
                        cleared = False
            for j in range(t + 1, ncols):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        add_col(j, t, -q)
                    if a[t][j]:
                        cleared = False
            if not cleared:
                move_min_pivot(t)
                continue
            # pivot must divide the remaining block
            p = a[t][t]
            violation = None
            for i in range(t + 1, nrows):
                row = a[i]
                for j in range(t + 1, ncols):
                    if row[j] % p:
                        violation = i
                        break
                if violation is not None:
                    break
            if violation is None:
                break
            add_row(t, violation, 1)

    diag = tuple(a[i][i] for i in range(limit))
    return _freeze(left), diag, _freeze(right), _freeze(right_inv)


def smith_normal_form(matrix) -> tuple[IntMatrix, tuple[int, ...], IntMatrix]:
    """Return (left, diag, right) with left*matrix*right diagonal.

    The diagonal entries are nonnegative and each divides the next; the
    transforms are unimodular.  Total on integer matrices; arithmetic is
    arbitrary precision, so entry growth can never wrap.
    """
    rows = _freeze(matrix)
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    if any(len(r) != ncols for r in rows):
        raise ValueError("matrix rows must all have the same length")
    left, diag, right, _ = _snf(rows, nrows, ncols)
    return left, diag, right


# ---------------------------------------------------------------------------
# groups and homomorphisms
# ---------------------------------------------------------------------------

class FinGenAbGroup(Record):
    """A finite abelian group, the sum of the Z/d_i over its invariant factors.

    Canonical form: every invariant factor is >= 2 and divides the next,
    which makes equality testing structural.  An element's coordinates are
    its residues modulo the invariant factors, in their order.
    """

    _fields = ("invariant_factors",)

    def __init__(self, invariant_factors: tuple[int, ...] = ()):
        factors = tuple(int(d) for d in invariant_factors)
        object.__setattr__(self, "invariant_factors", factors)
        for d in factors:
            if d < 2:
                raise ValueError("invariant factors must be >= 2 (drop factor-1 entries)")
        for d, e in zip(factors, factors[1:]):
            if e % d:
                raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def from_cyclic_orders(cls, orders) -> "FinGenAbGroup":
        """Canonicalize an arbitrary list of positive cyclic orders: each
        pair i < j in turn becomes (gcd, lcm), which leaves a divisibility
        chain."""
        orders = [int(o) for o in orders]
        if any(o < 1 for o in orders):
            raise ValueError("cyclic orders must be positive")
        orders = [o for o in orders if o != 1]  # Z/1 is trivial
        n = len(orders)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = orders[i], orders[j]
                g = gcd(a, b)
                orders[i], orders[j] = g, a // g * b
        return cls(tuple(d for d in orders if d > 1))

    @cached_property
    def ngens(self) -> int:
        return len(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ngens

    def validate_element(self, coords) -> tuple[int, ...]:
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.ngens:
            raise ValueError(f"element needs {self.ngens} coordinates, got {len(coords)}")
        for c, d in zip(coords, self.invariant_factors):
            if not 0 <= c < d:
                raise ValueError(f"coordinate {c} not reduced modulo {d}")
        return coords

    def elements(self):
        """Iterate all elements in lexicographic coordinate order."""
        if self.order > ENUMERATION_BOUND:
            raise EnumerationBoundExceeded(
                f"group order {self.order} exceeds enumeration bound {ENUMERATION_BOUND}")
        return _cartesian(*(range(d) for d in self.invariant_factors))

    def __str__(self) -> str:
        return " + ".join(f"Z/{d}" for d in self.invariant_factors) or "0"


class GroupHom(Record):
    """Homomorphism given by an integer matrix (codomain gens x domain gens).

    The matrix is stored reduced modulo the codomain relations, so two
    matrices describing the same map compare equal.
    """

    _fields = ("domain", "codomain", "matrix")

    def __init__(self, domain: FinGenAbGroup, codomain: FinGenAbGroup, matrix: IntMatrix):
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        m, n = codomain.ngens, domain.ngens
        rows = _freeze(matrix)
        if len(rows) != m or any(len(r) != n for r in rows):
            raise ValueError(f"matrix must be {m}x{n}")
        dom_orders = domain.invariant_factors
        cod_orders = codomain.invariant_factors
        for i in range(m):
            p = cod_orders[i]
            for j in range(n):
                o = dom_orders[j]
                if o * rows[i][j] % p:
                    raise ValueError(
                        f"matrix entry ({i},{j}) does not define a homomorphism: "
                        f"order-{o} generator must map to an order-dividing image")
        reduced = tuple(tuple(v % p for v in row) for row, p in zip(rows, cod_orders))
        object.__setattr__(self, "matrix", reduced)

    @classmethod
    def identity(cls, g: FinGenAbGroup) -> "GroupHom":
        return cls(g, g, _identity(g.ngens))

    @classmethod
    def negation(cls, g: FinGenAbGroup) -> "GroupHom":
        return cls(g, g, [[-1 if i == j else 0 for j in range(g.ngens)] for i in range(g.ngens)])

    def apply(self, x) -> tuple[int, ...]:
        x = tuple(map(int, x))
        if len(x) != self.domain.ngens:
            raise ValueError("element has wrong length for the domain")
        sums = [sum(map(mul, row, x)) for row in self.matrix]
        return tuple(s % p for s, p in zip(sums, self.codomain.invariant_factors))

    @cached_property
    def _smith(self) -> tuple[IntMatrix, tuple[int, ...], IntMatrix, IntMatrix]:
        """(left, diag, right, right_inv) of [matrix | codomain relations], once per map.

        ``kernel``, ``cokernel`` and ``contains_in_image`` all read this one
        Smith form; its parts are tuples, so no reader can change them.
        """
        orders = self.codomain.invariant_factors
        rows = [list(row) + [orders[i] if i == k else 0 for k in range(len(orders))]
                for i, row in enumerate(self.matrix)]
        return _snf(rows, len(rows), self.domain.ngens + len(orders))


class Involution(Record):
    """A self-inverse endomorphism of a group."""

    _fields = ("hom",)

    def __init__(self, hom: GroupHom):
        object.__setattr__(self, "hom", hom)
        if hom.domain != hom.codomain:
            raise ValueError("an involution needs equal domain and codomain")
        square = _matmul(hom.matrix, hom.matrix)
        for i, (row, p) in enumerate(zip(square, hom.codomain.invariant_factors)):
            if any((v - (i == j)) % p for j, v in enumerate(row)):
                raise ValueError("map composed with itself is not the identity")

    @property
    def group(self) -> FinGenAbGroup:
        return self.hom.domain


class Orbit(Record):
    _fields = ("elements", "fixed")

    def __init__(self, elements: tuple[tuple[int, ...], ...], fixed: bool):
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "fixed", fixed)


# ---------------------------------------------------------------------------
# kernels, cokernels, image membership
# ---------------------------------------------------------------------------

def _diagonal_quotient(diag) -> tuple[FinGenAbGroup, list[int]]:
    """Z^len(diag) modulo a nonsingular diagonal in canonical form, with the
    indices of its generators: factors 1 dropped."""
    keep = [i for i, d in enumerate(diag) if d > 1]
    return FinGenAbGroup(tuple(diag[i] for i in keep)), keep


def kernel(f: GroupHom) -> tuple[FinGenAbGroup, GroupHom]:
    """Kernel subgroup in canonical form with its inclusion into the domain.

    A = [matrix | codomain relations] has full row rank m, as every codomain
    generator has finite order, so the null columns of the shared transform
    ``right`` are its last n, one per domain generator.  Cut to the domain
    rows, they are a basis B of the lattice L of integer vectors that f
    sends to the codomain relations: projecting ker A onto the domain is
    injective, as the relation columns are nonzero on distinct rows.  The
    kernel is L modulo the domain relations; their coordinates in B are
    read off ``right_inv``, and one Smith form of that square, nonsingular
    relation matrix puts the quotient in canonical form (Cohen, GTM 138,
    section 2.4).  A trivial domain is its own kernel and needs no form.
    """
    g = f.domain
    n = g.ngens
    if not n:
        return g, GroupHom.identity(g)
    _, diag, right, right_inv = f._smith
    m = len(diag)
    basis = [row[m:] for row in right[:n]]
    # the relation o*e_j lifts to (o*e_j, -o*M[i][j]/p_i) in ker A; the
    # division is exact because f is a homomorphism
    cod_orders = f.codomain.invariant_factors
    rel = []
    for j, o in enumerate(g.invariant_factors):
        lift = [0] * n + [-o * row[j] // p for row, p in zip(f.matrix, cod_orders)]
        lift[j] = o
        rel.append([sum(map(mul, row, lift)) for row in right_inv[m:]])
    # rel is (domain relations) x (basis B); with L' rel R' = D', the rows of
    # R'^-1 give the canonical generators in B
    _, diag2, _, gens = _snf(rel, n, n)
    k, keep = _diagonal_quotient(diag2)
    incl = [[sum(map(mul, row, gens[c])) for c in keep] for row in basis]
    return k, GroupHom(k, g, incl)


def cokernel(f: GroupHom) -> tuple[FinGenAbGroup, GroupHom]:
    """Cokernel in canonical form with the projection from the codomain."""
    left, diag, _, _ = f._smith
    c, keep = _diagonal_quotient(diag)
    return c, GroupHom(f.codomain, c, [left[i] for i in keep])


def contains_in_image(f: GroupHom, y) -> bool:
    """Exact image-membership test via Smith normal form (no enumeration)."""
    y = f.codomain.validate_element(y)
    left, diag, _, _ = f._smith
    c = [sum(map(mul, row, y)) for row in left]
    return all(ci % d == 0 for ci, d in zip(c, diag))


def two_torsion_order(orders) -> int:
    """Order of the 2-torsion of the sum of Z/o over the finite cyclic orders o."""
    return 2 ** sum(1 for o in orders if o % 2 == 0)


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


def fixed_point_count(s: Involution) -> int:
    """Number of points an involution fixes, |ker(s - 1)| on a finite group.

    An endomorphism of a finite group has kernel and cokernel of one order
    (though not always one structure), so this is |coker(s - 1)|, read off
    the map's one Smith form; the kernel would take a second.
    """
    rows = [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(s.hom.matrix)]
    return cokernel(GroupHom(s.group, s.group, rows))[0].order


def involution_orbits(g: FinGenAbGroup, s: Involution) -> tuple[Orbit, ...]:
    """Orbits of an involution on a finite group, fixed orbits flagged.

    This enumerates the group; it is the oracle for the orbit counts that
    ``fixed_point_count`` and ``two_torsion_order`` give by Burnside's lemma.
    Orbits are listed by their lexicographically smallest element, so the
    output order is deterministic.
    """
    if s.group != g:
        raise ValueError("involution does not act on the given group")
    seen: set[tuple[int, ...]] = set()
    orbits: list[Orbit] = []
    for x in g.elements():
        if x in seen:
            continue
        y = s.hom.apply(x)
        members = (x,) if y == x else (x, y)
        seen.update(members)
        orbits.append(Orbit(elements=members, fixed=len(members) == 1))
    return tuple(orbits)
