"""Mod-ell cohomology of elementary abelian ell-groups as explicit algebras.

For ell = 2 the algebra on a rank-n group is polynomial on degree-1
generators x1..xn; for odd ell it is polynomial on degree-2 generators
y1..yn tensor exterior on degree-1 generators x1..xn.  Elements are
sparse sums of monomials with coefficients mod ell, kept in a canonical
monomial order so equality is structural.

The distinguished element built here is the product of all nonzero
degree-1 classes (ell = 2) respectively all nonzero degree-2 classes
(odd ell): it restricts to zero on every proper subgroup, is symmetric
under coordinate permutations, and lives in the central polynomial
subring, hence acts without torsion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product as _cartesian

from .abelian import is_prime

DEFAULT_MAX_GROUP_ORDER = 3 ** 6


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


# monomial key: (polynomial exponents tuple, exterior bitmask)
MonomialKey = tuple[tuple[int, ...], int]


def _ext_mul(mask1: int, mask2: int) -> tuple[int, int]:
    """Product of exterior monomials: (sign, mask); sign 0 when they meet."""
    if mask1 & mask2:
        return 0, 0
    sign = 1
    m2 = mask2
    while m2:
        t = (m2 & -m2).bit_length() - 1
        if (mask1 >> (t + 1)).bit_count() & 1:
            sign = -sign
        m2 &= m2 - 1
    return sign, mask1 | mask2


class GradedElement:
    """Sparse element of the graded algebra attached to a spec."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec: GradedAlgebraSpec, terms: dict[MonomialKey, int] | None = None):
        self.spec = spec
        clean: dict[MonomialKey, int] = {}
        for (exps, mask), coeff in (terms or {}).items():
            coeff %= spec.ell
            if coeff:
                clean[(tuple(exps), mask)] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------------
    @classmethod
    def zero(cls, spec) -> "GradedElement":
        return cls(spec, {})

    @classmethod
    def one(cls, spec) -> "GradedElement":
        return cls(spec, {((0,) * spec.n, 0): 1})

    @classmethod
    def polynomial_linear_form(cls, spec, coeffs) -> "GradedElement":
        """Sum of c_i * (degree-1 gen for ell = 2, degree-2 gen otherwise)."""
        terms: dict[MonomialKey, int] = {}
        for i, c in enumerate(coeffs):
            c %= spec.ell
            if c:
                exps = tuple(1 if j == i else 0 for j in range(spec.n))
                terms[(exps, 0)] = c
        return cls(spec, terms)

    @classmethod
    def exterior_linear_form(cls, spec, coeffs) -> "GradedElement":
        terms: dict[MonomialKey, int] = {}
        for i, c in enumerate(coeffs):
            c %= spec.ell
            if c:
                terms[((0,) * spec.n, 1 << i)] = c
        return cls(spec, terms)

    # -- structure ------------------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.terms

    def monomial_degree(self, key: MonomialKey) -> int:
        exps, mask = key
        poly_weight = 1 if self.spec.ell == 2 else 2
        return poly_weight * sum(exps) + mask.bit_count()

    def degree(self) -> int | None:
        """Common degree of a homogeneous element (None for zero)."""
        degs = {self.monomial_degree(k) for k in self.terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError("element is not homogeneous")
        return degs.pop()

    def is_polynomial(self) -> bool:
        """No exterior generator occurs (automatic for ell = 2)."""
        return all(mask == 0 for _, mask in self.terms)

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

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.spec, {k: -c for k, c in self.terms.items()})

    def scaled(self, c: int) -> "GradedElement":
        return GradedElement(self.spec, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "GradedElement") -> "GradedElement":
        self._require_same_algebra(other)
        out: dict[MonomialKey, int] = {}
        for (e1, m1), c1 in self.terms.items():
            for (e2, m2), c2 in other.terms.items():
                sign, mask = _ext_mul(m1, m2)
                if sign == 0:
                    continue
                exps = tuple(a + b for a, b in zip(e1, e2))
                key = (exps, mask)
                out[key] = out.get(key, 0) + sign * c1 * c2
        return GradedElement(self.spec, out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self):
        return hash((self.spec, tuple(sorted(self.terms.items()))))

    # -- printing -------------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (exps, mask), coeff in sorted(self.terms.items()):
            factors = []
            poly_name = "x" if self.spec.ell == 2 else "y"
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(f"{poly_name}{i + 1}")
                elif e > 1:
                    factors.append(f"{poly_name}{i + 1}^{e}")
            for i in range(self.spec.n):
                if mask >> i & 1:
                    factors.append(f"x{i + 1}")
            body = "*".join(factors) if factors else "1"
            if coeff == 1 and factors:
                pieces.append(body)
            elif factors:
                pieces.append(f"{coeff}*{body}")
            else:
                pieces.append(str(coeff))
        return " + ".join(pieces)

    __repr__ = __str__


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def essential_product(spec: GradedAlgebraSpec,
                      max_group_order: int = DEFAULT_MAX_GROUP_ORDER) -> GradedElement:
    """Product of all nonzero degree-1 (ell = 2) or degree-2 (odd) classes.

    The result has degree 2^n - 1 for ell = 2 and 2(ell^n - 1) for odd ell,
    and is nonzero.
    """
    if spec.n < 1:
        raise ValueError("need rank at least 1")
    order = spec.ell ** spec.n
    if order > max_group_order:
        raise ValueError(f"group order {order} exceeds the product bound {max_group_order}")
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
    given by its matrix row, for the degree-1 and degree-2 layers alike.
    """
    spec = element.spec
    rows, k = _normalize_columns(subgroup_matrix, spec.ell, spec.n)
    if k and _rank_mod_ell(rows, spec.ell) != k:
        raise ValueError("subgroup matrix must have full column rank")
    target = GradedAlgebraSpec(spec.ell, k)
    total = GradedElement.zero(target)
    for (exps, mask), coeff in sorted(element.terms.items()):
        term = GradedElement.one(target).scaled(coeff)
        for i, e in enumerate(exps):
            if e:
                form = GradedElement.polynomial_linear_form(target, rows[i])
                for _ in range(e):
                    term = term * form
        for i in range(spec.n):
            if mask >> i & 1:
                term = term * GradedElement.exterior_linear_form(target, rows[i])
        total = total + term
    return total


def _permutation_image(element: GradedElement, perm) -> GradedElement:
    matrix = [[1 if perm[i] == j else 0 for j in range(element.spec.n)]
              for i in range(element.spec.n)]
    return restrict(element, matrix)


def weyl_invariance(element: GradedElement, spec: GradedAlgebraSpec) -> bool:
    """True when the element is fixed by all coordinate permutations.

    Checked on adjacent transpositions, which generate the full symmetric
    group; the induced signs on exterior generators are accounted for.
    """
    if element.spec != spec:
        raise ValueError("element does not belong to the given algebra")
    for i in range(spec.n - 1):
        perm = list(range(spec.n))
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
        if _permutation_image(element, perm) != element:
            return False
    return True


def regularity_check(element: GradedElement, spec: GradedAlgebraSpec) -> bool:
    """True when the element acts on the algebra without torsion.

    Nonzero members of the central polynomial subring (the whole algebra
    for ell = 2, the exterior-free part for odd ell) multiply injectively,
    because that subring is an integral domain and the algebra is free
    over it.
    """
    if element.spec != spec:
        raise ValueError("element does not belong to the given algebra")
    if element.is_zero:
        return False
    return element.is_polynomial()


def enumerate_proper_subgroups(spec: GradedAlgebraSpec):
    """Basis matrices (n rows, k columns) of all proper nonzero subgroups.

    Deterministic: subgroups are listed by dimension, then by the sorted
    tuple of their member vectors.  Intended for small ell^n only.
    """
    ell, n = spec.ell, spec.n
    vectors = [v for v in _cartesian(*(range(ell) for _ in range(n))) if any(v)]
    found: dict[frozenset, tuple[tuple[int, ...], ...]] = {}
    for k in range(1, n):
        for basis in combinations(vectors, k):
            rows = [[basis[c][i] for c in range(k)] for i in range(n)]
            if _rank_mod_ell(rows, ell) != k:
                continue
            span = frozenset(
                tuple(sum(c * b[i] for c, b in zip(coeffs, basis)) % ell for i in range(n))
                for coeffs in _cartesian(*(range(ell) for _ in range(k))))
            if span not in found:
                found[span] = tuple(tuple(r) for r in rows)
    ordered = sorted(found.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    return [matrix for _, matrix in ordered]
