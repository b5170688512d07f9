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
from itertools import product as _cartesian

from .abelian import is_prime

# the largest group order whose essential product is multiplied out
MAX_GROUP_ORDER = 3 ** 6


@dataclass(frozen=True)
class GradedAlgebraSpec:
    """Cohomology algebra of the rank-n elementary abelian ell-group."""

    ell: int
    n: int

    def __post_init__(self):
        if not is_prime(self.ell):
            raise ValueError("ell must be prime")
        if self.n < 0:
            raise ValueError("rank must be nonnegative")


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

    The result has degree 2^n - 1 for ell = 2 and 2(ell^n - 1) for odd ell,
    and is nonzero.  Groups of order above ``MAX_GROUP_ORDER`` are refused.
    """
    if spec.n < 1:
        raise ValueError("need rank at least 1")
    order = spec.ell ** spec.n
    if order > MAX_GROUP_ORDER:
        raise ValueError(f"group order {order} exceeds the product bound {MAX_GROUP_ORDER}")
    result = GradedElement.one(spec)
    for vec in _cartesian(*(range(spec.ell) for _ in range(spec.n))):
        if not any(vec):
            continue
        result = result * GradedElement.polynomial_linear_form(spec, vec)
    if result.is_zero:
        raise ArithmeticError("essential product unexpectedly vanished")
    return result


def _normalize_columns(matrix, ell: int, n: int):
    cols = [tuple(int(v) % ell for v in row) for row in matrix]
    if len(cols) != n:
        raise ValueError(f"subgroup matrix needs {n} rows")
    width = len(cols[0]) if cols else 0
    if any(len(r) != width for r in cols):
        raise ValueError("subgroup matrix rows must have equal length")
    return cols, width


def _rank_mod_ell(rows, ell: int) -> int:
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(mat)) if mat[r][col] % ell), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, ell)
        mat[rank] = [v * inv % ell for v in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] % ell:
                f = mat[r][col]
                mat[r] = [(a - f * b) % ell for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def restrict(element: GradedElement, subgroup_matrix) -> GradedElement:
    """Image of an element under restriction to a subgroup.

    The subgroup of the rank-n group is spanned by the k columns of the
    matrix (n rows, rank k).  Each generator of the big algebra is
    substituted by the linear combination of small-algebra generators
    given by its matrix row.
    """
    spec = element.spec
    rows, k = _normalize_columns(subgroup_matrix, spec.ell, spec.n)
    if k and _rank_mod_ell(rows, spec.ell) != k:
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


def weyl_invariance(element: GradedElement, spec: GradedAlgebraSpec) -> bool:
    """True when the element is fixed by all coordinate permutations.

    Checked on adjacent transpositions, which generate the full symmetric
    group: each swaps two entries of every exponent tuple.
    """
    if element.spec != spec:
        raise ValueError("element does not belong to the given algebra")
    for i in range(spec.n - 1):
        swapped = {exps[:i] + (exps[i + 1], exps[i]) + exps[i + 2:]: c
                   for exps, c in element.terms.items()}
        if swapped != element.terms:
            return False
    return True


def regularity_check(element: GradedElement, spec: GradedAlgebraSpec) -> bool:
    """True when the element acts on the algebra without torsion.

    Every element here lies in the polynomial subring, an integral domain
    over which the whole algebra is free, so a nonzero one multiplies
    injectively.
    """
    if element.spec != spec:
        raise ValueError("element does not belong to the given algebra")
    return not element.is_zero


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
