"""Polynomial part of the mod-ell cohomology of elementary abelian ell-groups.

For ell = 2 the algebra on a rank-n group is polynomial on degree-1
generators x1..xn; for odd ell it is polynomial on the degree-2
Bockstein classes y1..yn tensor an exterior algebra on degree-1
generators.  Only the polynomial subring F_ell[y1..yn] (all of it for
ell = 2) is modelled: elements are sparse sums of monomials, each packed
into one integer key, with coefficients mod ell, so equality is
structural.

The distinguished element built here is the product of all nonzero
degree-1 classes (ell = 2) respectively all nonzero degree-2 classes
(odd ell).  Its degree, its vanishing on every proper subgroup (Dickson's
factorization), its symmetry under coordinate permutations and its
regularity are theorems the report prints without computing them; the
tests check them on the product with ``restrict`` and ``weyl_invariance``.
"""

from __future__ import annotations

from itertools import combinations, permutations, product as _cartesian, starmap
from operator import gt, lshift

from .abelian import InputError, Record, is_prime

MAX_GROUP_ORDER = 3 ** 6  # the largest group order whose essential product is built
MAX_PROPER_SUBGROUPS = 10 ** 5  # the most proper subgroups an essential report lists
# bits a slot of a packed monomial: every admitted degree ell^n - 1 fits
WIDTH = (MAX_GROUP_ORDER - 1).bit_length()
_MASK = (1 << WIDTH) - 1  # one slot
MAX_DEGREE = _MASK - 1  # the largest total degree of a term an element may hold


class GradedAlgebraSpec(Record):
    """Cohomology algebra of the rank-n elementary abelian ell-group."""

    _fields = ("ell", "n")

    def __init__(self, ell: int, n: int):
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "n", n)
        if not is_prime(ell):
            raise InputError("ell must be prime")
        if n < 0:
            raise InputError("rank must be nonnegative")


# exponent tuple of a monomial: the exponent of each polynomial generator
MonomialKey = tuple[int, ...]


def _shifts(n: int) -> list[int]:
    """Bit offset of each generator's slot, the first generator's the highest."""
    return [WIDTH * (n - 1 - i) for i in range(n)]


def _bounded(top: int) -> int:
    """``top``, a bound on the total degree of some terms, if no slot can carry."""
    if top > MAX_DEGREE:
        raise ValueError(f"total degree {top} exceeds the slot bound {MAX_DEGREE}")
    return top


def _reduced(terms: dict, ell: int) -> dict:
    """The terms with coefficients reduced mod ell and no zero term, in place."""
    for key, c in terms.items():
        terms[key] = c % ell
    for key in [key for key, c in terms.items() if not c]:
        del terms[key]
    return terms


def _product(left: dict, right: dict) -> dict:
    """Product of two packed term dicts whose slots hold it, with
    coefficients not reduced."""
    out: dict[int, int] = {}
    get = out.get
    right = right.items()
    for k1, c1 in left.items():
        for k2, c2 in right:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return out


class GradedElement:
    """Sparse element of the polynomial subring attached to a spec.

    A monomial is one integer: the exponent of generator i fills slot i of
    ``WIDTH`` bits, the first slot the most significant, so integer order
    is the order of exponent tuples.  ``top`` bounds the total degree of
    every term, at most ``MAX_DEGREE``, so no slot carries and the product
    of two monomials is the sum of their keys; an element or product of
    higher degree is refused.  The constructor and ``terms`` speak
    exponent tuples; ``packed`` holds the keys.
    """

    __slots__ = ("spec", "top", "packed")

    def __init__(self, spec: GradedAlgebraSpec, terms: dict[MonomialKey, int] | None = None):
        clean = _reduced({tuple(exps): coeff for exps, coeff in (terms or {}).items()}, spec.ell)
        self.spec, self.top = spec, _bounded(max(map(sum, clean), default=0))
        shifts = _shifts(spec.n)
        self.packed = {sum(map(lshift, exps, shifts)): c for exps, c in clean.items()}

    @classmethod
    def _from_packed(cls, spec, top: int, packed: dict) -> "GradedElement":
        """An element from reduced packed terms of total degree at most ``top``."""
        element = cls.__new__(cls)
        element.spec, element.top, element.packed = spec, top, packed
        return element

    # -- structure ------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.packed

    def _exponents(self) -> list[MonomialKey]:
        """The exponent tuple of each packed key, in the order of ``packed``."""
        shifts = _shifts(self.spec.n)
        return [tuple([key >> s & _MASK for s in shifts]) for key in self.packed]

    @property
    def terms(self) -> dict[MonomialKey, int]:
        """The terms keyed by exponent tuples."""
        return dict(zip(self._exponents(), self.packed.values()))

    # -- arithmetic -----------------------------------------------------------
    def _require_same_algebra(self, other: "GradedElement"):
        if self.spec != other.spec:
            raise ValueError("elements live in different algebras")

    def scaled(self, c: int) -> "GradedElement":
        return self._from_packed(self.spec, self.top, _reduced(
            {key: v * c for key, v in self.packed.items()}, self.spec.ell))

    def __mul__(self, other: "GradedElement") -> "GradedElement":
        self._require_same_algebra(other)
        return self._from_packed(self.spec, _bounded(self.top + other.top), _reduced(
            _product(self.packed, other.packed), self.spec.ell))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.spec == other.spec and self.packed == other.packed

    # -- printing -------------------------------------------------------------
    def __str__(self) -> str:
        if not self.packed:
            return "0"
        name = "x" if self.spec.ell == 2 else "y"
        slots = [(f"{name}{i + 1}", s) for i, s in enumerate(_shifts(self.spec.n))]
        pieces = []
        for key in sorted(self.packed):
            coeff = self.packed[key]
            body = "*".join([var if e == 1 else f"{var}^{e}" for var, s in slots
                             if (e := key >> s & _MASK)])
            if not body:
                pieces.append(str(coeff))
            elif coeff == 1:
                pieces.append(body)
            else:
                pieces.append(f"{coeff}*{body}")
        return " + ".join(pieces)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def essential_product(spec: GradedAlgebraSpec) -> GradedElement:
    """Product of all nonzero degree-1 (ell = 2) or degree-2 (odd) classes.

    By Dickson it is (-1)^((ell^n - 1)/(ell - 1)) L_n^(ell - 1); the Moore
    determinant L_n = det(y_j^(ell^i)) has one signed term per arrangement of
    the exponents 1, ell, ..., ell^(n-1).  It is nonzero, of degree 2^n - 1
    (ell = 2) or 2(ell^n - 1).  Groups of order above ``MAX_GROUP_ORDER``, or
    with more than ``MAX_PROPER_SUBGROUPS`` proper subgroups, are refused.
    """
    ell, n = spec.ell, spec.n
    if n < 1:
        raise InputError("need rank at least 1")
    if n > MAX_GROUP_ORDER.bit_length():  # then ell^n >= 2^n is over the bound; not built
        raise InputError(f"group order {ell}^{n} exceeds the product bound {MAX_GROUP_ORDER}")
    order = ell ** n
    if order > MAX_GROUP_ORDER:
        raise InputError(f"group order {order} exceeds the product bound {MAX_GROUP_ORDER}")
    count, binomial = 0, 1  # proper subgroups: the Gaussian binomials [n k]_ell, 0 < k < n
    for k in range(1, n):
        binomial = binomial * (ell ** (n - k + 1) - 1) // (ell ** k - 1)
        count += binomial
    if count > MAX_PROPER_SUBGROUPS:
        raise InputError(f"the report would list {count} proper subgroups, "
                         f"over the subgroup bound {MAX_PROPER_SUBGROUPS}")
    shifts = _shifts(n)
    moore = GradedElement._from_packed(spec, (order - 1) // (ell - 1), _reduced(
        {sum(map(lshift, exps, shifts)): (-1) ** sum(starmap(gt, combinations(exps, 2)))
         for exps in permutations([ell ** i for i in range(n)])}, ell))
    result = moore.scaled((-1) ** n)  # (ell^n - 1)/(ell - 1) has the parity of n, ell odd
    for _ in range(ell - 2):
        result = result * moore
    if result.is_zero:
        raise ArithmeticError("essential product unexpectedly vanished")
    return result


def rank_mod(rows, ell: int) -> int:
    """Rank over F_ell of an integer matrix given by its rows, by elimination."""
    rest = [[v % ell for v in row] for row in rows]
    rank = 0
    for j in range(len(rest[0]) if rest else 0):
        pivot = next((row for row in rest if row[j]), None)
        if pivot is None:
            continue
        rest.remove(pivot)
        inverse = pow(pivot[j], -1, ell)
        rest = [[(a - row[j] * inverse * b) % ell for a, b in zip(row, pivot)] if row[j]
                else row for row in rest]
        rank += 1
    return rank


def restrict(element: GradedElement, subgroup_matrix) -> GradedElement:
    """Image of an element under restriction to a subgroup.

    The subgroup of the rank-n group is spanned by the k columns of the
    matrix (n rows, rank k mod ell).  Each generator of the big algebra is
    substituted by the linear combination of small-algebra generators
    given by its matrix row, keeping each term's degree.  No report calls
    it: it is the tests' oracle for Dickson's theorem on the product, which
    the ``RESTRICTIONS`` line prints without computing it; kept for the tracer.
    """
    spec = element.spec
    ell = spec.ell
    rows = [tuple(int(v) % ell for v in row) for row in subgroup_matrix]
    k = len(rows[0]) if rows else 0
    if len(rows) != spec.n or any(len(r) != k for r in rows):
        raise ValueError(f"subgroup matrix needs {spec.n} rows of equal length")
    if rank_mod(rows, ell) != k:
        raise ValueError("subgroup matrix must have full column rank")
    shifts = _shifts(k)
    forms = [{1 << s: c for s, c in zip(shifts, row) if c} for row in rows]
    powers = [[{0: 1}, form] for form in forms]  # powers[i][e] = forms[i]^e, packed
    total: dict[int, int] = {}
    for exps, coeff in zip(element._exponents(), element.packed.values()):
        term = {0: coeff}
        for form, power, e in zip(forms, powers, exps):
            if e:
                while len(power) <= e:
                    power.append(_reduced(_product(power[-1], form), ell))
                term = _product(term, power[e])
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    return GradedElement._from_packed(GradedAlgebraSpec(ell, k), element.top, _reduced(total, ell))


def weyl_invariance(element: GradedElement, spec: GradedAlgebraSpec) -> bool:
    """True when the element is fixed by all coordinate permutations.

    Checked on adjacent transpositions, which generate the full symmetric
    group.  Each is a bijection on the terms' keys, so it fixes the element
    exactly when every swapped key carries the same coefficient.  Swapping
    the exponents a, b of the slots at bits s > t adds (b - a)(2^s - 2^t)
    to a packed key.  No report calls it: it is the tests' oracle for the
    theorem the ``WEYL`` line prints without computing it; kept for the tracer.
    """
    if element.spec != spec:
        raise ValueError("element does not belong to the given algebra")
    terms = element.packed
    get = terms.get
    shifts = _shifts(spec.n)
    swaps = [(s, t, (1 << s) - (1 << t)) for s, t in zip(shifts, shifts[1:])]
    for key, c in terms.items():
        for s, t, step in swaps:
            move = (key >> t & _MASK) - (key >> s & _MASK)
            if move and get(key + move * step) != c:
                return False
    return True


def enumerate_proper_subgroups(spec: GradedAlgebraSpec):
    """Basis matrices (n rows, k columns) of all proper nonzero subgroups.

    Each subgroup has exactly one basis in reduced column-echelon form:
    column j is 1 on its pivot row, 0 above it and on the other pivot
    rows.  The walk decides row by row whether the row is a new pivot or
    takes any entries in the columns opened so far, so every subgroup is
    listed once.  The hyperplanes are the matrices with n - 1 columns.
    """
    ell, n = spec.ell, spec.n
    partial = [()]  # column tuples over the rows walked so far
    for i in range(n):
        grown = []
        for cols in partial:
            grown.append(tuple(c + (0,) for c in cols) + ((0,) * i + (1,),))
            for values in _cartesian(*(range(ell) for _ in cols)):
                grown.append(tuple(c + (v,) for c, v in zip(cols, values)))
        partial = grown
    rows = {}  # each distinct row once, shared by the matrices that have it
    return [tuple([rows.setdefault(row, row) for row in zip(*cols)])
            for cols in partial if 0 < len(cols) < n]
