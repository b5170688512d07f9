"""Number-theoretic input data for the cohomology engine.

This module produces the arithmetic package attached to a triple
(field K, place set S, odd prime ell): class groups, the norm map on
class groups, the Steinitz class of the quadratic extension generated by
an ell-th root of unity, unit ranks, and the order-two symmetry acting
on the kernel of the norm map.  A datum is built by the split
cyclotomic construction from a class group given on the command line, or
read from a validated text file.  Imaginary-quadratic class groups, from
reduced binary quadratic forms (a, b, c) under Gauss composition, back
only the ``class_group_forms`` suite of ``verify``.
"""

from __future__ import annotations

from math import gcd, isqrt
from pathlib import Path

from .abelian import (
    FinGenAbGroup,
    GroupHom,
    InputError,
    Involution,
    Record,
    factorize,
    is_prime,
    kernel,
    cokernel,
    smith_normal_form,
)

# the largest unit rank a datum may carry: a report's component rings have
# this rank, and its work and output grow with it
MAX_UNIT_RANK = 2000
# the most generators a datum's group may have: the Smith form behind
# ker(nm0) grows with the generator counts of cl_A and cl_K
MAX_GENERATORS = 64


class DatumParseError(InputError):
    def __init__(self, path: str, line: int, column: int, message: str):
        self.path, self.line, self.column = path, line, column
        super().__init__(f"{path}:{line}:{column}: {message}")


class DatumConsistencyError(InputError):
    def __init__(self, invariant: str, message: str):
        self.invariant = invariant
        super().__init__(f"consistency violation [{invariant}]: {message}")


# ---------------------------------------------------------------------------
# binary quadratic forms and imaginary-quadratic class groups
# ---------------------------------------------------------------------------

def is_fundamental_discriminant(d: int) -> bool:
    if d >= 0 or d % 4 not in (0, 1):
        return False
    if d % 4 == 0:
        d //= 4
        if d % 4 not in (2, 3):
            return False
    return all(e == 1 for _, e in factorize(-d))


def reduce_form(a: int, b: int, c: int) -> tuple[int, int, int]:
    """The reduced form equivalent to the positive definite a x^2 + b xy + c y^2."""
    # normalize b into (-a, a], then flip until a <= c with sign convention
    r = (a - b) // (2 * a)
    b, c = b + 2 * r * a, a * r * r + b * r + c
    while a > c or (a == c and b < 0):
        a, b, c = c, -b, a
        r = (a - b) // (2 * a)
        b, c = b + 2 * r * a, a * r * r + b * r + c
    return a, b, c


def reduced_forms(d: int) -> tuple[tuple[int, int, int], ...]:
    """All reduced forms (a, b, c) of a negative discriminant, sorted."""
    if d >= 0:
        raise ValueError("discriminant must be negative")
    forms = []
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a + 1, a + 1):
            val = b * b - d
            if val % (4 * a):
                continue
            c = val // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            forms.append((a, b, c))
    forms.sort()
    return tuple(forms)


def principal_form(d: int) -> tuple[int, int, int]:
    k = d & 1
    return 1, k, (k * k - d) // 4


def _solve_linear_congruence(a: int, b: int, m: int) -> tuple[int, int]:
    """Solutions x of a*x = b (mod m) as x = x0 + step*k; m >= 1."""
    g = gcd(a, m)
    if b % g:
        raise ArithmeticError("congruence has no solution")
    step = m // g
    return b // g * pow(a // g, -1, step) % step, step


def compose(a1: int, b1: int, c1: int, a2: int, b2: int) -> tuple[int, int, int]:
    """Gauss composition of (a1, b1, c1) and (a2, b2, c2), reduced.  The
    forms share a discriminant, which fixes c2, so it is not passed."""
    g = (b1 + b2) // 2
    h = (b2 - b1) // 2
    w = gcd(gcd(a1, a2), g)
    s, t, u = a1 // w, a2 // w, g // w
    st = s * t
    mu, nu = _solve_linear_congruence(t * u, h * u + s * c1, st)
    lam = _solve_linear_congruence(t * nu, h - t * mu, s)[0]
    k = mu + nu * lam
    el = (k * t - h) // s
    m = (t * u * k - h * u - c1 * s) // st
    a3 = st
    b3 = w * u - (k * t + el * s)
    c3 = k * el - w * m
    return reduce_form(a3, b3, c3)


def class_group_imaginary_quadratic(d: int) -> FinGenAbGroup:
    """Form class group of a negative fundamental discriminant.

    Classes are the reduced forms under Gauss composition; the abstract
    structure is read off from a triangular system of relations among a
    greedy generating set, put into invariant factors by Smith reduction.
    """
    if d >= 0:
        raise ValueError("discriminant must be negative")
    if not is_fundamental_discriminant(d):
        raise ValueError(f"{d} is not a fundamental discriminant")
    forms = reduced_forms(d)
    index = {f: i for i, f in enumerate(forms)}
    h = len(forms)

    def mul(i: int, j: int) -> int:
        return index[compose(*forms[i], *forms[j][:2])]

    identity = index[reduce_form(*principal_form(d))]
    reached: dict[int, tuple[int, ...]] = {identity: ()}
    relations: list[list[int]] = []
    ngens = 0
    for cand in range(h):
        if cand in reached:
            continue
        ngens += 1
        reached = {e: vec + (0,) for e, vec in reached.items()}
        for row in relations:
            row.append(0)
        # minimal power of cand landing in the subgroup generated so far
        p, power = cand, 1
        while p not in reached:
            p = mul(p, cand)
            power += 1
        w = reached[p]
        relations.append([-wi for wi in w[:-1]] + [power])
        base = list(reached.items())
        shift = cand
        for i in range(1, power):
            for e, vec in base:
                reached[mul(e, shift)] = vec[:-1] + (i,)
            shift = mul(shift, cand)
    if len(reached) != h:
        raise ArithmeticError("composition table failed to generate all classes")
    if ngens == 0:
        return FinGenAbGroup()
    _, diag, _ = smith_normal_form(relations)
    group = FinGenAbGroup(tuple(e for e in diag if e > 1))
    if group.order != h:
        raise ArithmeticError("structure computation disagrees with the class count")
    return group


# ---------------------------------------------------------------------------
# the arithmetic datum
# ---------------------------------------------------------------------------

def _check_before_kernel(ell: int, free_ranks: tuple[int, int, int], cl_K: FinGenAbGroup,
                         cl_A: FinGenAbGroup, coker_nm1: FinGenAbGroup, unit_rank_K: int,
                         ker_nm1_rank: int) -> None:
    """The checks on a datum's prime, groups and ranks.  A file runs them
    as soon as its groups are read, before nm0 is built (its size is the
    generator counts) and ker(nm0) computed (its Smith form grows with
    them).  ``free_ranks`` are the file's free_rank keys of cl_K, cl_A and
    coker(Nm1); a datum built in the program has finite groups, so zeros."""
    if ell == 2 or not is_prime(ell):
        raise DatumConsistencyError("ell_odd_prime", f"ell = {ell} is not an odd prime")
    cl_K_free, cl_A_free, coker_nm1_free = free_ranks
    if cl_K_free:
        raise DatumConsistencyError("cl_K_finite", "class group of the base must be finite")
    if cl_A_free:
        raise DatumConsistencyError("cl_A_finite", "class group of the extension must be finite")
    if coker_nm1_free:
        raise DatumConsistencyError("coker_nm1_finite", "coker(Nm1) must be finite")
    if unit_rank_K < 0 or ker_nm1_rank < 0:
        raise DatumConsistencyError("ranks_nonnegative", "unit ranks must be nonnegative")
    rank = max(unit_rank_K, ker_nm1_rank)
    if rank > MAX_UNIT_RANK:
        raise DatumConsistencyError(
            "unit_rank_bound", f"unit rank {rank} exceeds the unit-rank bound {MAX_UNIT_RANK}")
    for name, group in (("cl_K", cl_K), ("cl_A", cl_A), ("coker_nm1", coker_nm1)):
        if group.ngens > MAX_GENERATORS:
            raise DatumConsistencyError(
                "generator_bound", f"{name} has {group.ngens} generators, "
                f"over the generator bound {MAX_GENERATORS}")


class ArithmeticDatum(Record):
    """All arithmetic inputs the cohomology engine needs for one (K, S, ell).

    ``nm0`` is the norm map between class groups of the quadratic extension
    and the base; ``sigma`` is the order-two symmetry of that extension
    acting on ker(nm0); ``coker_nm1`` is the (finite) cokernel of the norm
    map on units and ``ker_nm1_rank`` the free rank of its kernel.
    ``ker_nm0`` is computed from ``nm0`` on construction unless the caller
    passes the kernel it has already computed; it takes no part in
    equality or repr.
    """

    _fields = ("ell", "trace_in_K", "split", "cl_K", "cl_A", "nm0", "steinitz",
               "unit_rank_K", "ker_nm1_rank", "coker_nm1", "sigma")

    def __init__(self, ell: int, trace_in_K: bool, split: bool, cl_K: FinGenAbGroup,
                 cl_A: FinGenAbGroup, nm0: GroupHom, steinitz: tuple[int, ...],
                 unit_rank_K: int, ker_nm1_rank: int, coker_nm1: FinGenAbGroup,
                 sigma: Involution, ker_nm0: FinGenAbGroup | None = None):
        values = (ell, trace_in_K, split, cl_K, cl_A, nm0, steinitz, unit_rank_K,
                  ker_nm1_rank, coker_nm1, sigma, ker_nm0)
        for name, value in zip(self._fields + ("ker_nm0",), values, strict=True):
            object.__setattr__(self, name, value)
        _check_before_kernel(self.ell, (0, 0, 0), self.cl_K, self.cl_A, self.coker_nm1,
                             self.unit_rank_K, self.ker_nm1_rank)
        if self.nm0.domain != self.cl_A or self.nm0.codomain != self.cl_K:
            raise DatumConsistencyError("nm0_shape", "nm0 must map cl_A to cl_K")
        try:
            self.cl_K.validate_element(self.steinitz)
        except ValueError as exc:
            raise DatumConsistencyError("steinitz_in_cl_K", str(exc)) from exc
        object.__setattr__(self, "steinitz", tuple(int(c) for c in self.steinitz))
        if self.ker_nm0 is None:
            object.__setattr__(self, "ker_nm0", kernel(self.nm0)[0])
        ker_group = self.ker_nm0
        if self.sigma.group != ker_group:
            raise DatumConsistencyError(
                "sigma_on_ker_nm0",
                f"sigma acts on {self.sigma.group}, but ker(nm0) is {ker_group}")
        if self.split:
            self._check_split_case(ker_group)

    def _check_split_case(self, ker_group: FinGenAbGroup):
        if not self.trace_in_K:
            raise DatumConsistencyError("split_implies_trace", "split data have trace in K")
        if self.cl_A != _doubled(self.cl_K):
            raise DatumConsistencyError(
                "split_cl_A", "in the split case cl_A must be cl_K + cl_K")
        if any(self.steinitz):
            raise DatumConsistencyError(
                "split_steinitz_zero", "in the split case the Steinitz class vanishes")
        if not self.coker_nm1.is_trivial:
            raise DatumConsistencyError(
                "split_coker_nm1_trivial", "in the split case coker(Nm1) is trivial")
        if self.ker_nm1_rank != self.unit_rank_K:
            raise DatumConsistencyError(
                "split_ker_nm1_rank", "in the split case ker(Nm1) has the base unit rank")
        c, _ = cokernel(self.nm0)
        if not c.is_trivial:
            raise DatumConsistencyError("split_nm0_onto", "in the split case nm0 is onto")
        if ker_group != self.cl_K:
            raise DatumConsistencyError(
                "split_ker_nm0", "in the split case ker(nm0) is a copy of cl_K")
        if self.sigma.hom != GroupHom.negation(ker_group):
            raise DatumConsistencyError(
                "split_sigma_negation", "in the split case sigma negates ker(nm0)")


def _doubled(cl_K: FinGenAbGroup) -> FinGenAbGroup:
    """cl_K + cl_K: each invariant factor taken twice, which is again a
    divisibility chain, so no Smith form is needed."""
    return FinGenAbGroup(tuple(d for d in cl_K.invariant_factors for _ in (0, 1)))


def build_split_datum(cl_K: FinGenAbGroup, unit_rank_K: int, ell: int) -> ArithmeticDatum:
    """Datum for the case where the ell-th root of unity already lies in K.

    The quadratic extension splits into two copies of the base ring, so the
    class group doubles, the norm map on classes is the sum map, the
    Steinitz class vanishes, the unit-norm cokernel is trivial, and the
    symmetry swaps the two copies, which is negation on ker(nm0), a copy
    of cl_K.
    """
    cl_A = _doubled(cl_K)
    t = len(cl_K.invariant_factors)
    matrix = [[0] * (2 * t) for _ in range(t)]
    for i in range(t):
        matrix[i][2 * i] = 1
        matrix[i][2 * i + 1] = 1
    nm0 = GroupHom(cl_A, cl_K, matrix)
    sigma = Involution(GroupHom.negation(cl_K))
    return ArithmeticDatum(
        ell=ell,
        trace_in_K=True,
        split=True,
        cl_K=cl_K,
        cl_A=cl_A,
        nm0=nm0,
        steinitz=cl_K.zero(),
        unit_rank_K=unit_rank_K,
        ker_nm1_rank=unit_rank_K,
        coker_nm1=FinGenAbGroup(),
        sigma=sigma,
    )


# ---------------------------------------------------------------------------
# datum files
# ---------------------------------------------------------------------------

_REQUIRED_SECTIONS = {
    "datum": ("ell", "trace_in_K", "split", "unit_rank_K", "ker_nm1_rank"),
    "cl_K": ("free_rank", "invariant_factors"),
    "cl_A": ("free_rank", "invariant_factors"),
    "nm0": ("matrix",),
    "steinitz": ("coords",),
    "coker_nm1": ("free_rank", "invariant_factors"),
    "sigma": ("matrix",),
}


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def _parse_sections(text: str, path: str) -> dict[str, dict[str, tuple[str, int, int]]]:
    sections: dict[str, dict[str, tuple[str, int, int]]] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        col = raw.index(stripped[0]) + 1
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise DatumParseError(path, lineno, col, "unterminated section header")
            name = stripped[1:-1].strip()
            if name not in _REQUIRED_SECTIONS:
                raise DatumParseError(path, lineno, col, f"unknown section [{name}]")
            if name in sections:
                raise DatumParseError(path, lineno, col, f"duplicate section [{name}]")
            sections[name] = {}
            current = name
            continue
        if current is None:
            raise DatumParseError(path, lineno, col, "key-value pair outside any section")
        if "=" not in stripped:
            raise DatumParseError(path, lineno, col, "expected 'key = value'")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _REQUIRED_SECTIONS[current]:
            raise DatumParseError(path, lineno, col, f"unknown key '{key}' in [{current}]")
        if key in sections[current]:
            raise DatumParseError(path, lineno, col, f"duplicate key '{key}'")
        # the value's first character, or just after '=' when it is empty
        value_col = raw.index("=") + 2 + len(value) - len(value.lstrip())
        sections[current][key] = (value.strip(), lineno, value_col)
    for name, keys in _REQUIRED_SECTIONS.items():
        if name not in sections:
            raise DatumParseError(path, 0, 0, f"missing required section [{name}]")
        for key in keys:
            if key not in sections[name]:
                raise DatumParseError(path, 0, 0, f"missing required key '{key}' in [{name}]")
    return sections


def _parse_int(entry, path) -> int:
    value, line, col = entry
    try:
        return int(value)
    except ValueError:
        raise DatumParseError(path, line, col, f"expected an integer, got {value!r}") from None


def _parse_bool(entry, path) -> bool:
    value, line, col = entry
    if value == "true":
        return True
    if value == "false":
        return False
    raise DatumParseError(path, line, col, f"expected 'true' or 'false', got {value!r}")


def _parse_int_list(entry, path) -> tuple[int, ...]:
    value, line, col = entry
    if not value:
        return ()
    return tuple(_parse_int((piece.strip(), line, col), path) for piece in value.split(","))


def _parse_matrix(entry, path, nrows: int, ncols: int) -> tuple[tuple[int, ...], ...]:
    value, line, col = entry
    if not value:
        rows: list[tuple[int, ...]] = []
    else:
        rows = []
        for part in value.split(";"):
            entries = part.split()
            try:
                rows.append(tuple(int(v) for v in entries))
            except ValueError:
                raise DatumParseError(path, line, col, f"bad matrix entry in {part!r}") from None
    if ncols == 0 and len(rows) <= nrows and not any(rows):
        rows = [()] * nrows  # width-zero rows carry no data
    if len(rows) != nrows or any(len(r) != ncols for r in rows):
        raise DatumParseError(
            path, line, col,
            f"matrix must be {nrows}x{ncols} (rows separated by ';')")
    return tuple(rows)


def _group_from_section(sec, path, name: str) -> tuple[FinGenAbGroup, int]:
    """The section's group and its free_rank key, which must be 0."""
    free = _parse_int(sec["free_rank"], path)
    factors = _parse_int_list(sec["invariant_factors"], path)
    if free < 0:
        raise DatumConsistencyError(f"{name}_canonical", "free_rank must be nonnegative")
    try:
        return FinGenAbGroup(factors), free
    except ValueError as exc:
        raise DatumConsistencyError(f"{name}_canonical", str(exc)) from exc


def load_datum(source) -> ArithmeticDatum:
    """Read and fully validate a datum file."""
    path = Path(source)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise InputError(f"cannot read datum file {path}: {reason}") from exc
    sections = _parse_sections(text, str(path))
    head = sections["datum"]
    ell = _parse_int(head["ell"], str(path))
    trace_in_k = _parse_bool(head["trace_in_K"], str(path))
    split = _parse_bool(head["split"], str(path))
    unit_rank = _parse_int(head["unit_rank_K"], str(path))
    ker_rank = _parse_int(head["ker_nm1_rank"], str(path))
    cl_k, cl_k_free = _group_from_section(sections["cl_K"], str(path), "cl_K")
    cl_a, cl_a_free = _group_from_section(sections["cl_A"], str(path), "cl_A")
    coker, coker_free = _group_from_section(sections["coker_nm1"], str(path), "coker_nm1")
    _check_before_kernel(ell, (cl_k_free, cl_a_free, coker_free), cl_k, cl_a, coker,
                         unit_rank, ker_rank)
    nm0_rows = _parse_matrix(sections["nm0"]["matrix"], str(path), cl_k.ngens, cl_a.ngens)
    try:
        nm0 = GroupHom(cl_a, cl_k, nm0_rows)
    except ValueError as exc:
        raise DatumConsistencyError("nm0_homomorphism", str(exc)) from exc
    steinitz = _parse_int_list(sections["steinitz"]["coords"], str(path))
    try:
        cl_k.validate_element(steinitz)
    except ValueError as exc:
        raise DatumConsistencyError("steinitz_in_cl_K", str(exc)) from exc
    ker_group, _ = kernel(nm0)
    sigma_rows = _parse_matrix(sections["sigma"]["matrix"], str(path),
                               ker_group.ngens, ker_group.ngens)
    try:
        sigma = Involution(GroupHom(ker_group, ker_group, sigma_rows))
    except ValueError as exc:
        raise DatumConsistencyError("sigma_involution", str(exc)) from exc
    return ArithmeticDatum(
        ell=ell, trace_in_K=trace_in_k, split=split,
        cl_K=cl_k, cl_A=cl_a, nm0=nm0, steinitz=steinitz,
        unit_rank_K=unit_rank, ker_nm1_rank=ker_rank,
        coker_nm1=coker, sigma=sigma, ker_nm0=ker_group,
    )
