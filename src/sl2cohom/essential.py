"""Polynomial part of the mod-ell cohomology of elementary abelian ell-groups.

For ell = 2 the algebra on a rank-n group is polynomial on degree-1
generators x1..xn; for odd ell it is polynomial on the degree-2
Bockstein classes y1..yn tensor an exterior algebra on degree-1
generators.  Only the polynomial subring F_ell[y1..yn] (all of it for
ell = 2) is modelled: elements are sparse sums of monomials keyed by
exponent tuples, with coefficients mod ell, so equality is structural.

The distinguished element is the product of all nonzero degree-1
classes (ell = 2) respectively all nonzero degree-2 classes (odd ell);
the report prints the terms of its closed form as they come, with no
multiplication.  Its degree, its vanishing on every proper subgroup
(Dickson's factorization), its symmetry under coordinate permutations
and its regularity are theorems the report prints without computing
them; the tests check them on the product with ``restrict`` and
``weyl_invariance``.
"""

from __future__ import annotations

from functools import cache
from itertools import islice, product as _cartesian, starmap
from math import prod
from operator import add
from typing import Iterator

from .abelian import InputError, Record, is_prime

MAX_GROUP_ORDER = 3 ** 6  # the largest group order whose essential product is built
MAX_PROPER_SUBGROUPS = 10 ** 5  # the most proper subgroups an essential report counts


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


def _product(left: dict, right: dict, ell: int) -> dict:
    """Product of two term dicts, with coefficients mod ell and no zero term."""
    out: dict[MonomialKey, int] = {}
    get = out.get
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            key = tuple(map(add, k1, k2))
            out[key] = get(key, 0) + c1 * c2
    return {key: c % ell for key, c in out.items() if c % ell}


def terms_text(terms, spec: GradedAlgebraSpec) -> str:
    """The (exponent tuple, coefficient) pairs as printed, in the order
    given: ``2*y1^2*y2`` for a term, ``" + "`` between terms, ``0`` for none.
    Terms are joined 4096 at a time, so no list of them all is held."""
    name = "x" if spec.ell == 2 else "y"
    names = [f"{name}{i + 1}" for i in range(spec.n)]

    def text(exps, coeff):
        body = "*".join([var if e == 1 else f"{var}^{e}" for var, e in zip(names, exps) if e])
        return f"{coeff}*{body}" if body and coeff != 1 else body or str(coeff)

    pieces = starmap(text, terms)
    return " + ".join(iter(lambda: " + ".join(islice(pieces, 4096)), "")) or "0"


class GradedElement:
    """Sparse element of the polynomial subring attached to a spec: terms
    keyed by exponent tuples, coefficients nonzero mod ell."""

    __slots__ = ("spec", "_terms")

    def __init__(self, spec: GradedAlgebraSpec, terms: dict[MonomialKey, int] | None = None):
        self.spec = spec
        self._terms = {tuple(e): c % spec.ell for e, c in (terms or {}).items() if c % spec.ell}

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def terms(self) -> dict[MonomialKey, int]:
        """The terms keyed by exponent tuples, a copy."""
        return dict(self._terms)

    def __mul__(self, other: "GradedElement") -> "GradedElement":
        if self.spec != other.spec:
            raise ValueError("elements live in different algebras")
        return GradedElement(self.spec, _product(self._terms, other._terms, self.spec.ell))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self.spec == other.spec and self._terms == other._terms

    def __str__(self) -> str:
        return terms_text(sorted(self._terms.items()), self.spec)

    __repr__ = __str__


def proper_subgroup_count(spec: GradedAlgebraSpec) -> int:
    """The number of proper nonzero subgroups, the Gaussian binomials [n k]_ell
    summed over 0 < k < n.  A rank below 1, a group of order above
    ``MAX_GROUP_ORDER`` or with more proper subgroups than
    ``MAX_PROPER_SUBGROUPS`` is refused: it has no essential report."""
    ell, n = spec.ell, spec.n
    if n < 1:
        raise InputError("need rank at least 1")
    if n > MAX_GROUP_ORDER.bit_length():  # then ell^n >= 2^n is over the bound; not built
        raise InputError(f"group order {ell}^{n} exceeds the product bound {MAX_GROUP_ORDER}")
    if ell ** n > MAX_GROUP_ORDER:
        raise InputError(f"group order {ell ** n} exceeds the product bound {MAX_GROUP_ORDER}")
    count, binomial = 0, 1
    for k in range(1, n):
        binomial = binomial * (ell ** (n - k + 1) - 1) // (ell ** k - 1)
        count += binomial
    if count > MAX_PROPER_SUBGROUPS:
        raise InputError(f"the report would list {count} proper subgroups, "
                         f"over the subgroup bound {MAX_PROPER_SUBGROUPS}")
    return count


def product_terms(spec: GradedAlgebraSpec) -> Iterator[tuple[MonomialKey, int]]:
    """The terms (exponent tuple, coefficient) of the product of all nonzero
    degree-1 (ell = 2) or degree-2 (odd ell) classes, in increasing order.

    The product is the sum over the n x n matrices A of non-negative
    integers with all row and column sums ell - 1 of (prod A_ij!)^(-1)
    prod_i y_i^(sum_j A_ij ell^j): by Wilson, the power-sum lemma behind
    Chevalley-Warning and Frobenius, the sum is sum_t <t, y>^(ell^n - 1)
    over t in F_ell^n, the product of the forms <t, y> by their subspace
    polynomial (Dickson, 1911).  Row i holds the base-ell digits of y_i's
    exponent, so each matrix is one nonzero term.  The walk takes the rows
    in turn, each under the column sums still left and its digits most
    significant first, so the terms come in order; the last row is the
    column sums left.  Rows are cached by budget.  The guards are the
    caller's (``proper_subgroup_count``); no term at all is an ArithmeticError.
    """
    ell, n = spec.ell, spec.n
    inverse_factorials = [1]  # 1/a! mod ell by a running product: ell may be 727
    for a in range(1, ell):
        inverse_factorials.append(inverse_factorials[-1] * pow(a, -1, ell) % ell)

    @cache
    def rows(budget: tuple[int, ...], left: int) -> list:
        """(exponent, 1/prod a!, budget left) of each row within the budget, of digit sum left."""
        j = len(budget) - 1
        if j == 0:  # the units digit takes what is left; range(...) below kept it in budget
            return [(left, inverse_factorials[left], (budget[0] - left,))]
        return [(a * ell ** j + exponent, inverse_factorials[a] * c % ell, rest + (budget[j] - a,))
                for a in range(max(0, left - sum(budget[:j])), min(budget[j], left) + 1)
                for exponent, c, rest in rows(budget[:j], left - a)]

    @cache
    def last(budget: tuple[int, ...]) -> tuple[int, int]:
        """(exponent, 1/prod a!) of the last row, which takes the whole budget."""
        return (sum(a * ell ** j for j, a in enumerate(budget)),
                prod(inverse_factorials[a] for a in budget) % ell)

    def terms(budget, prefix, coeff):
        if len(prefix) == n - 1:
            exponent, c = last(budget)
            yield prefix + (exponent,), coeff * c % ell
        else:
            for exponent, c, rest in rows(budget, ell - 1):
                yield from terms(rest, prefix + (exponent,), coeff * c % ell)

    walk = terms((ell - 1,) * n, (), 1)
    first = next(walk, None)
    if first is None:
        raise ArithmeticError("essential product unexpectedly vanished")
    yield first
    yield from walk


def essential_product(spec: GradedAlgebraSpec) -> GradedElement:
    """The element of ``product_terms``, under ``proper_subgroup_count``'s
    guards: nonzero, of degree 2^n - 1 (ell = 2) or 2(ell^n - 1).  No report
    builds it; the tests and the tracer do."""
    proper_subgroup_count(spec)
    return GradedElement(spec, dict(product_terms(spec)))


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
    one = (0,) * k
    forms = [{one[:j] + (1,) + one[j + 1:]: c for j, c in enumerate(row) if c} for row in rows]
    powers = [[{one: 1}, form] for form in forms]  # powers[i][e] = forms[i]^e
    total: dict[MonomialKey, int] = {}
    for exps, coeff in element._terms.items():
        term = {one: coeff}
        for form, power, e in zip(forms, powers, exps):
            if e:
                while len(power) <= e:
                    power.append(_product(power[-1], form, ell))
                term = _product(term, power[e], ell)
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    return GradedElement(GradedAlgebraSpec(ell, k), total)


def weyl_invariance(element: GradedElement, spec: GradedAlgebraSpec) -> bool:
    """True when the element is fixed by all coordinate permutations.

    Checked on adjacent transpositions, which generate the full symmetric
    group.  Each is a bijection on the terms' keys, so it fixes the element
    exactly when every swapped key carries the same coefficient.  No report
    calls it: it is the tests' oracle for the theorem the ``WEYL`` line
    prints without computing it; kept for the tracer.
    """
    if element.spec != spec:
        raise ValueError("element does not belong to the given algebra")
    get = element._terms.get
    for key, c in element._terms.items():
        for i in range(spec.n - 1):
            if key[i] != key[i + 1] and get(
                    key[:i] + (key[i + 1], key[i]) + key[i + 2:]) != c:
                return False
    return True


def enumerate_proper_subgroups(spec: GradedAlgebraSpec):
    """Basis matrices (n rows, k columns) of all proper nonzero subgroups.

    Each subgroup has exactly one basis in reduced column-echelon form:
    column j is 1 on its pivot row, 0 above it and on the other pivot
    rows.  The walk decides row by row whether the row is a new pivot or
    takes any entries in the columns opened so far, so every subgroup is
    listed once.  The hyperplanes are the matrices with n - 1 columns.
    The essential report prints how many there are.
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
