"""Polynomial part of the mod-ell cohomology of elementary abelian ell-groups.

For ell = 2 the algebra on a rank-n group is polynomial on degree-1
generators x1..xn; for odd ell it is polynomial on the degree-2
Bockstein classes y1..yn tensor an exterior algebra on degree-1
generators.  Only the polynomial subring F_ell[y1..yn] (all of it for
ell = 2) is modelled: elements are sparse sums of monomials keyed by
exponent tuples, with coefficients mod ell, so equality is structural.

The distinguished element built here is the product of all nonzero
degree-1 classes (ell = 2) respectively all nonzero degree-2 classes
(odd ell): it restricts to zero on every proper subgroup, is symmetric
under coordinate permutations, and lives in the polynomial subring,
hence acts without torsion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations, product as _cartesian

from .abelian import InputError, is_prime, smith_normal_form

MAX_GROUP_ORDER = 3 ** 6  # the largest group order whose essential product is built
MAX_PROPER_SUBGROUPS = 10 ** 5  # the most proper subgroups an essential report lists


@dataclass(frozen=True)
class GradedAlgebraSpec:
    """Cohomology algebra of the rank-n elementary abelian ell-group."""

    ell: int
    n: int

    def __post_init__(self):
        if not is_prime(self.ell):
            raise InputError("ell must be prime")
        if self.n < 0:
            raise InputError("rank must be nonnegative")


# monomial key: the exponent of each polynomial generator
MonomialKey = tuple[int, ...]


class GradedElement:
    """Sparse element of the polynomial subring attached to a spec."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: GradedAlgebraSpec, terms: dict[MonomialKey, int] | None = None):
        self.spec = spec
        clean: dict[MonomialKey, int] = {}
        for exps, coeff in (terms or {}).items():
            coeff %= spec.ell
            if coeff:
                clean[tuple(exps)] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, spec) -> "GradedElement":
        return cls(spec, {})

    @classmethod
    def one(cls, spec) -> "GradedElement":
        return cls(spec, {(0,) * spec.n: 1})

    @classmethod
    def polynomial_linear_form(cls, spec, coeffs) -> "GradedElement":
        """Sum of c_i * (degree-1 gen for ell = 2, degree-2 gen otherwise)."""
        return cls(spec, {tuple(1 if j == i else 0 for j in range(spec.n)): c
                          for i, c in enumerate(coeffs)})

    # -- structure ------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int | None:
        """Common degree of a homogeneous element (None for zero)."""
        weight = 1 if self.spec.ell == 2 else 2
        degs = {weight * sum(exps) for exps in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    # -- arithmetic -----------------------------------------------------------
    def _require_same_algebra(self, other: "GradedElement"):
        if self.spec != other.spec:
            raise ValueError("elements live in different algebras")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        self._require_same_algebra(other)
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, 0) + c
        return GradedElement(self.spec, terms)

    def scaled(self, c: int) -> "GradedElement":
        return GradedElement(self.spec, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "GradedElement") -> "GradedElement":
        self._require_same_algebra(other)
        out: dict[MonomialKey, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        return GradedElement(self.spec, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    # -- printing -------------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        name = "x" if self.spec.ell == 2 else "y"
        pieces = []
        for exps, coeff in sorted(self.terms.items()):
            factors = [f"{name}{i + 1}" if e == 1 else f"{name}{i + 1}^{e}"
                       for i, e in enumerate(exps) if e]
            body = "*".join(factors)
            if not factors:
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
    moore = GradedElement(spec, {exps: (-1) ** sum(a > b for a, b in combinations(exps, 2))
                                 for exps in permutations([ell ** i for i in range(n)])})
    result = moore.scaled((-1) ** n)  # (ell^n - 1)/(ell - 1) has the parity of n, ell odd
    for _ in range(ell - 2):
        result = result * moore
    if result.is_zero:
        raise ArithmeticError("essential product unexpectedly vanished")
    return result


def restrict(element: GradedElement, subgroup_matrix) -> GradedElement:
    """Image of an element under restriction to a subgroup.

    The subgroup of the rank-n group is spanned by the k columns of the
    matrix (n rows, rank k).  Each generator of the big algebra is
    substituted by the linear combination of small-algebra generators
    given by its matrix row.
    """
    spec = element.spec
    rows = [tuple(int(v) % spec.ell for v in row) for row in subgroup_matrix]
    k = len(rows[0]) if rows else 0
    if len(rows) != spec.n or any(len(r) != k for r in rows):
        raise ValueError(f"subgroup matrix needs {spec.n} rows of equal length")
    if k and sum(1 for d in smith_normal_form(rows)[1] if d % spec.ell) != k:
        raise ValueError("subgroup matrix must have full column rank")
    target = GradedAlgebraSpec(spec.ell, k)
    forms = [GradedElement.polynomial_linear_form(target, row) for row in rows]
    powers = [[GradedElement.one(target)] for _ in rows]  # powers[i][e] = forms[i]^e
    total = GradedElement.zero(target)
    for exps, coeff in element.terms.items():
        term = GradedElement.one(target).scaled(coeff)
        for form, power, e in zip(forms, powers, exps):
            while len(power) <= e:
                power.append(power[-1] * form)
            term = term * power[e]
        total = total + term
    return total


def line_factors_vanish_on_hyperplanes(spec: GradedAlgebraSpec, subgroups) -> bool:
    """True when each hyperplane among ``subgroups`` (reduced column-echelon
    bases M, as ``enumerate_proper_subgroups`` lists them) restricts to zero
    the form of the line it annihilates: 1 on the row r that is no pivot,
    -M[r][j] on the pivot row of column j.  No product is restricted: the
    verdict holds for the essential product through Dickson's factorization
    of L_n into one such form per line, in an integral domain.
    """
    n = spec.n
    for matrix in (m for m in subgroups if len(m[0]) == n - 1):
        pivots = [next(i for i, row in enumerate(matrix) if row[j]) for j in range(n - 1)]
        r = next(i for i in range(n) if i not in pivots)
        line = [1 if i == r else -matrix[r][pivots.index(i)] for i in range(n)]
        if not restrict(GradedElement.polynomial_linear_form(spec, line), matrix).is_zero:
            return False
    return True


def weyl_invariance(element: GradedElement, spec: GradedAlgebraSpec) -> bool:
    """True when the element is fixed by all coordinate permutations.

    Checked on adjacent transpositions, which generate the full symmetric
    group.  Each is a bijection on the terms' keys, so it fixes the element
    exactly when every swapped key carries the same coefficient.
    """
    if element.spec != spec:
        raise ValueError("element does not belong to the given algebra")
    terms = element.terms
    return all(terms.get(exps[:i] + (exps[i + 1], exps[i]) + exps[i + 2:]) == c
               for exps, c in terms.items() for i in range(spec.n - 1))


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
    return [tuple(zip(*cols)) for cols in partial if 0 < len(cols) < n]
