"""Function-field arithmetic: small finite fields and punctured curves.

Finite fields GF(q) with q <= 2^16 are realized through exp/log tables
over an irreducible modulus, walked by lookups, and GF(p^e) adds through
Zech logarithms; elements are encoded as integers 0..q-1 in base-p digits.  Curves are
either the projective line minus a set of closed points or a
short-Weierstrass elliptic curve minus its point at infinity.  Picard
groups come from divisor-class bookkeeping in the first case; in the
second a report needs only |Pic| = #E(F_q) and |Pic[2]| = #E[2].  Over a
prime field above ``MESTRE_BOUND`` they come from the Shanks-Mestre
method, about 4 sqrt(p) point additions in integers mod p with no field
built, and the roots of the cubic from x^p mod the cubic; over GF(p^e)
and smaller primes, from one quadratic-character pass over the field's
tables, which stays the oracle for the first.  The full group structure
is kept as a slow oracle.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from math import gcd, isqrt, prod

from .abelian import FinGenAbGroup, InputError, Record, factorize, is_prime

MAX_FIELD_SIZE = 1 << 16
# above this prime, a point of E or of its quadratic twist fixes #E among
# the orders the Hasse bound allows (Mestre; Cohen, GTM 138, 7.4.3)
MESTRE_BOUND = 229


# ---------------------------------------------------------------------------
# finite fields
# ---------------------------------------------------------------------------

class FiniteFieldSpec(Record):
    _fields = ("p", "e")

    def __init__(self, p: int, e: int = 1):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "e", e)
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be positive")
        if self.q > MAX_FIELD_SIZE:
            raise ValueError(f"field size {self.q} exceeds {MAX_FIELD_SIZE}")

    @property
    def q(self) -> int:
        return self.p ** self.e


def field_spec_from_order(q: int) -> FiniteFieldSpec:
    """Factor a prime power into (p, e)."""
    if q < 2:
        raise InputError("field order must be at least 2")
    if q > MAX_FIELD_SIZE:
        raise InputError(f"field size {q} exceeds {MAX_FIELD_SIZE}")
    factors = factorize(q)
    if len(factors) != 1:
        raise InputError(f"{q} is not a prime power")
    return FiniteFieldSpec(*factors[0])


def _poly_mul_mod(a, b, modulus, p):
    e = len(modulus) - 1
    out = [0] * (2 * e - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    # reduce mod p only where a coefficient is read: exact integers, same result
    for i in range(len(out) - 1, e - 1, -1):
        c = out[i] % p
        if c:
            for j in range(e):
                out[i - e + j] -= c * modulus[j]
    return [c % p for c in out[:e]]


def _poly_pow_mod(base, exp, modulus, p):
    e = len(modulus) - 1
    result = [1] + [0] * (e - 1)
    while exp:
        if exp & 1:
            result = _poly_mul_mod(result, base, modulus, p)
        exp >>= 1
        if exp:
            base = _poly_mul_mod(base, base, modulus, p)
    return result


def _is_irreducible(modulus, p):
    """Rabin test: x^(p^e) = x mod f and gcd-freeness at proper divisors."""
    e = len(modulus) - 1
    x = [0, 1] + [0] * (e - 2) if e >= 2 else [0]
    power = _poly_pow_mod(x, p ** e, modulus, p)
    if power != x:
        return False
    for r, _ in factorize(e):
        power = _poly_pow_mod(x, p ** (e // r), modulus, p)
        diff = [(a - b) % p for a, b in zip(power, x)]
        if _resultant(modulus, diff, p) == 0:
            return False
    return True


def _resultant(f, g, p):
    """Res(f, g) mod p for deg f > deg g, coefficients from the constant term,
    by Res(f, g) = (-1)^(mn) lc(g)^(m-k) Res(g, f mod g) for the degrees m, n
    and k of f, g and f mod g.  It is 0 exactly when f and g share a factor;
    for a monic irreducible f it is the norm of g(x) from GF(p)[x]/f to GF(p).
    """
    result = 1
    while True:
        while len(g) > 1 and not g[-1]:
            g = g[:-1]
        m, n = len(f) - 1, len(g) - 1
        if n == 0:
            return result * pow(g[0], m, p) % p
        r, inv = list(f), pow(g[-1], -1, p)
        for i in range(m - n, -1, -1):
            c = r[i + n] * inv % p
            for j in range(n + 1):
                r[i + j] = (r[i + j] - c * g[j]) % p
        k = max((i for i in range(n) if r[i]), default=0)
        result = result * (-1) ** (m * n) * pow(g[-1], m - k, p) % p
        f, g = g, r[:k + 1]


def _find_modulus(p, e):
    """Smallest monic irreducible polynomial of degree e over GF(p)."""
    for code in range(p ** e):
        coeffs = []
        c = code
        for _ in range(e):
            coeffs.append(c % p)
            c //= p
        modulus = coeffs + [1]
        if _is_irreducible(modulus, p):
            return modulus
    raise ArithmeticError("no irreducible modulus found")  # unreachable


class FiniteField:
    """GF(q) arithmetic with exp/log tables; elements are ints 0..q-1.

    The encoding of an element is its base-p digit vector read as an
    integer; constants 0..p-1 are encoded as themselves.  Digits are coded
    only to build the tables; GF(p^e) adds by g^i + g^j = g^(i + zech[j - i]).
    """

    def __init__(self, spec: FiniteFieldSpec):
        self.spec = spec
        self.p, self.e, self.q = spec.p, spec.e, spec.q
        if self.e == 1:
            self.modulus = None
        else:
            self.modulus = _find_modulus(self.p, self.e)
        self.exp, self.log = self._build_tables()
        if self.e > 1:
            # 1 + g^n = g^zech[n], or -1 where g^n = -1; adding 1 changes
            # only the constant base-p digit of the encoding
            p, log = self.p, self.log
            step = [1] * (p - 1) + [1 - p]
            self.zech = [log[v + step[v % p]] for v in self.exp]
            self.zech[log[p - 1]] = -1

    # -- encoding helpers ---------------------------------------------------
    def _decode(self, code: int):
        digits = []
        for _ in range(self.e):
            digits.append(code % self.p)
            code //= self.p
        return digits

    def _encode(self, digits) -> int:
        code = 0
        for d in reversed(digits):
            code = code * self.p + d
        return code

    def _raw_mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return a * b % self.p
        prod = _poly_mul_mod(self._decode(a), self._decode(b), self.modulus, self.p)
        return self._encode(prod)

    def _raw_pow(self, a: int, n: int) -> int:
        if self.e == 1:
            return pow(a, n, self.p)
        return self._encode(_poly_pow_mod(self._decode(a), n, self.modulus, self.p))

    def _build_tables(self):
        # the first candidate of order q - 1 (no g^((q-1)/r) is 1 for a prime
        # r | q - 1) generates, and its powers are walked by lookups.  For
        # r | p - 1, g^((q-1)/r) is N(g)^((p-1)/r) with the norm N(g) in GF(p),
        # which most candidates fail; only the other r take general products
        if self.q == 2:
            return [1], [0, 0]
        p, q = self.p, self.q
        primes = [r for r, _ in factorize(q - 1)]
        by_norm = [(p - 1) // r for r in primes if (p - 1) % r == 0]
        general = [(q - 1) // r for r in primes if (p - 1) % r]

        def generates(c):
            n = _resultant(self.modulus, self._decode(c), p) if self.e > 1 else c
            return (all(pow(n, k, p) != 1 for k in by_norm)
                    and all(self._raw_pow(c, k) != 1 for k in general))

        gen = next(filter(generates, range(2, q) if self.e == 1 else range(p, q)))
        if self.e == 1:
            v, exp = 1, [1]
            for _ in range(q - 2):
                v = v * gen % p
                exp.append(v)
        else:
            exp = self._walk_by_halves(gen)
        # exp must list every unit once, starting from 1: then its q - 1
        # entries fill every slot of log but the one of 0, each once
        log = [-1] * self.q
        for i, v in enumerate(exp):
            log[v] = i
        if exp[0] != 1 or log[0] != -1 or log.count(-1) != 1:
            raise ArithmeticError("inconsistent exp/log tables")
        log[0] = 0
        return exp, log

    def _walk_by_halves(self, gen: int) -> list[int]:
        """The powers of gen in GF(p^e), e > 1, one step by four lookups.

        Multiplication by gen is linear on digit vectors.  A code splits at
        digit h = ceil(e/2) as v = lo + p^h hi, and g v = g lo + (g x^h) hi.
        Two tables of general products give both terms, their digits spread
        in base 2p - 1 so that one integer addition sums them digitwise.  A
        table indexed by a spread half of that sum reduces its digits mod p.
        """
        p, e = self.p, self.e
        h = (e + 1) // 2
        half = p ** h
        base = 2 * p - 1
        spread_half = base ** h

        def spread(code):
            return sum(d * base ** i for i, d in enumerate(self._decode(code)))

        low = [spread(self._raw_mul(gen, lo)) for lo in range(half)]
        high = [spread(self._raw_mul(gen, hi * half)) for hi in range(p ** (e - h))]
        reduced = [0]
        for i in range(h):
            reduced = [r + d % p * p ** i for d in range(base) for r in reduced]
        reduced_high = [half * r for r in reduced]
        exp, v = [1], 1
        for _ in range(self.q - 2):
            s = low[v % half] + high[v // half]
            v = reduced[s % spread_half] + reduced_high[s // spread_half]
            exp.append(v)
        return exp

    # -- field operations ----------------------------------------------------
    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        if a == 0 or b == 0:
            return a or b
        i = self.log[a]
        z = self.zech[(self.log[b] - i) % (self.q - 1)]
        return 0 if z < 0 else self.exp[(i + z) % (self.q - 1)]

    def neg(self, a: int) -> int:
        if self.e == 1:
            return -a % self.p
        return self.mul(a, self.p - 1)  # -1 = g^((q - 1)/2), 1 when p = 2

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("zero has no inverse")
        return self.exp[-self.log[a] % (self.q - 1)]

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if a == 0:
            if n <= 0:
                raise ZeroDivisionError("zero to a nonpositive power")
            return 0
        return self.exp[(self.log[a] * n) % (self.q - 1)]

    def from_int(self, n: int) -> int:
        """Embed an ordinary integer as a prime-field constant."""
        return n % self.p

    def sqrt(self, a: int):
        if a == 0:
            return 0
        if self.p == 2:
            # squaring is the Frobenius bijection, so halve the discrete log
            half = pow(2, -1, self.q - 1) if self.q > 2 else 0
            return self.exp[self.log[a] * half % (self.q - 1)]
        if self.log[a] % 2:
            return None
        return self.exp[self.log[a] // 2]

    def elements(self):
        return range(self.q)


def get_field(spec: FiniteFieldSpec) -> FiniteField:
    """The field's tables, built afresh: no command asks for a field twice."""
    return FiniteField(spec)


# ---------------------------------------------------------------------------
# curves
# ---------------------------------------------------------------------------

class P1Minus(Record):
    """The projective line minus closed points of the given degrees."""

    _fields = ("puncture_degrees",)

    def __init__(self, puncture_degrees: tuple[int, ...]):
        object.__setattr__(self, "puncture_degrees", tuple(int(d) for d in puncture_degrees))
        if not self.puncture_degrees:
            raise InputError("need at least one puncture (the curve must be affine)")
        if any(d < 1 for d in self.puncture_degrees):
            raise InputError("puncture degrees must be positive")

    @property
    def punctures(self) -> int:
        return len(self.puncture_degrees)


class EllipticMinusPoint(Record):
    """y^2 = x^3 + a x + b minus the rational point at infinity.

    Coefficients are field-element encodings for the field the curve is
    used over; validity (nonzero discriminant, odd characteristic) is
    checked once the field is known.
    """

    _fields = ("a", "b")

    def __init__(self, a: int, b: int):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)


CurveSpec = P1Minus | EllipticMinusPoint


def _check_odd_characteristic(p: int) -> None:
    if p == 2:
        raise InputError("y^2 = x^3 + ax + b is singular in characteristic 2")


def _check_coefficients(curve: EllipticMinusPoint, q: int) -> None:
    if not (0 <= curve.a < q and 0 <= curve.b < q):
        raise InputError("coefficients must be encoded field elements")


def _check_elliptic(curve: EllipticMinusPoint, field: FiniteField | FiniteFieldSpec) -> None:
    """Refuse a singular or wrongly encoded curve; a prime field needs only
    its spec, since 4a^3 + 27b^2 is then taken by integers mod p."""
    _check_odd_characteristic(field.p)
    _check_coefficients(curve, field.q)
    a, b = curve.a, curve.b
    if field.e == 1:
        vanishes = (4 * a ** 3 + 27 * b * b) % field.p == 0
    else:
        four_a3 = field.mul(field.from_int(4), field.pow(a, 3)) if a else 0
        t27b2 = field.mul(field.from_int(27), field.mul(b, b)) if b else 0
        vanishes = field.add(four_a3, t27b2) == 0
    if vanishes:
        raise InputError("discriminant 4a^3 + 27b^2 vanishes")


def _cubic_values(curve: EllipticMinusPoint, field: FiniteField) -> list[int]:
    """The list of x^3 + ax + b, indexed by x, once the curve is checked."""
    _check_elliptic(curve, field)
    a, b = curve.a, curve.b
    if field.e == 1:
        p = field.p
        return [((x * x + a) * x + b) % p for x in range(p)]
    # on logs, with n = q - 1: x^3 + ax = x (x^2 + a) = g^(3 lx + zech[la - 2 lx]),
    # or 0 where zech is -1; b is added through zech the same way
    n, exp, log, zech = field.q - 1, field.exp, field.log, field.zech
    if a:
        la = log[a]
        cubic = [3 * lx + z if (z := zech[(la - 2 * lx) % n]) >= 0 else -1
                 for lx in log[1:]]
    else:
        cubic = [3 * lx for lx in log[1:]]
    if not b:
        return [0] + [exp[lc % n] if lc >= 0 else 0 for lc in cubic]
    lb = log[b]
    return [b] + [b if lc < 0 else exp[(lc + z) % n] if (z := zech[(lb - lc) % n]) >= 0
                  else 0 for lc in cubic]


def elliptic_points(curve: EllipticMinusPoint, field: FiniteField):
    """All rational points, point at infinity encoded as None.

    Each x^3 + ax + b is evaluated on its own, by integers mod p in a prime
    field and by the field's ``add`` and ``mul`` otherwise, not read from
    ``_cubic_values``, so a recount against ``count_points_elliptic``
    shares no arithmetic with it.
    """
    _check_elliptic(curve, field)
    points = [None]
    a, b, p, prime = curve.a, curve.b, field.p, field.e == 1
    add, mul, sqrt, neg, append = field.add, field.mul, field.sqrt, field.neg, points.append
    for x in range(field.q):
        rhs = (x * x * x + a * x + b) % p if prime else add(mul(add(mul(x, x), a), x), b)
        if rhs == 0:
            append((x, 0))
        elif (y := sqrt(rhs)) is not None:  # None for a nonsquare, p odd
            append((x, y))
            append((x, neg(y)))
    return points


def _point_tally(curve: EllipticMinusPoint, field: FiniteField) -> tuple[int, int]:
    """(#E, number of roots of the cubic) from one pass over the field.

    A root gives one point and a nonzero square two, so #E = 1 + roots +
    2 * squares, which is q + 1 + sum chi(x^3 + ax + b) over the quadratic
    character chi.  A nonzero value is a square exactly when its log is even.
    """
    values = _cubic_values(curve, field)
    roots = values.count(0)
    log = field.log
    squares = sum(1 for v in values if v and not log[v] & 1)
    return 1 + roots + 2 * squares, roots


def count_points_elliptic(curve: EllipticMinusPoint, field: FiniteField) -> int:
    """Point count via the quadratic character, q + 1 + sum chi(x^3+ax+b)."""
    return _point_tally(curve, field)[0]


def _affine_add(p1, p2, a: int, p: int):
    """p1 + p2 on y^2 = x^3 + ax + b over GF(p), p odd, by integers mod p;
    None is the point at infinity."""
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        slope = (3 * x1 * x1 + a) * pow(2 * y1, -1, p) % p
    else:
        slope = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (slope * slope - x1 - x2) % p
    return x3, (slope * (x1 - x3) - y1) % p


def _affine_multiple(n: int, point, a: int, p: int):
    """n * point by doubling and adding, through ``_affine_add``."""
    result = None
    while n:
        if n & 1:
            result = _affine_add(result, point, a, p)
        n >>= 1
        if n:
            point = _affine_add(point, point, a, p)
    return result


def _cubic_root_count(a: int, b: int, p: int) -> int:
    """The roots of a squarefree f = x^3 + ax + b in GF(p): gcd(f, x^p - x)
    has one factor per root, and f cannot have exactly two, since the
    roots sum to 0.  So 3 if x^p = x mod f, and otherwise 1 or 0 as
    x^p - x mod f does or does not share a factor with f."""
    f = [b, a, 0, 1]
    frobenius = _poly_pow_mod([0, 1, 0], p, f, p)
    frobenius[1] = (frobenius[1] - 1) % p
    if not any(frobenius):
        return 3
    return 1 if _resultant(f, frobenius, p) == 0 else 0


def _shanks_mestre_tally(curve: EllipticMinusPoint,
                         spec: FiniteFieldSpec) -> tuple[int, int]:
    """(#E, number of roots of the cubic) over GF(p), p > ``MESTRE_BOUND``,
    from about 4 sqrt(p) point additions and no field tables.

    #E = p + 1 - t with |t| <= isqrt(4p) (Hasse), and the quadratic twist
    has p + 1 + t points.  For d = x^3 + ax + b != 0, (xd, d^2) lies on
    y^2 = X^3 + ad^2 X + bd^3, which is E if d is a square (Euler's
    criterion) and the twist if not; so with chi = chi(d) the point is
    killed by p + 1 - chi t.  The first such point walks that multiple
    across the window, one addition a step, and keeps each t that gives
    the identity; later points test the survivors by scalar
    multiplication until one is left.  Since the true t always survives
    and, for p > 229, some point of E or of its twist leaves it alone
    (Mestre; Cohen, GTM 138, 7.4.3), running out of x is a bug.
    """
    _check_elliptic(curve, spec)
    a, b, p = curve.a, curve.b, spec.p
    half, width = (p - 1) // 2, isqrt(4 * p)
    traces = None
    for x in range(p):
        d = ((x * x + a) * x + b) % p
        if not d:
            continue
        chi = 1 if pow(d, half, p) == 1 else -1
        point, a_d = (x * d % p, d * d % p), a * d * d % p
        if traces is None:
            multiple, traces = _affine_multiple(p + 1 - width, point, a_d, p), []
            for n in range(p + 1 - width, p + 2 + width):
                if multiple is None:
                    traces.append(chi * (p + 1 - n))
                multiple = _affine_add(multiple, point, a_d, p)
        else:
            traces = [t for t in traces
                      if _affine_multiple(p + 1 - chi * t, point, a_d, p) is None]
        if len(traces) <= 1:
            break
    if traces is None or len(traces) != 1:
        raise ArithmeticError(f"the points of E and its twist left traces {traces}")
    return p + 1 - traces[0], _cubic_root_count(a, b, p)


def elliptic_order_and_two_torsion(curve: EllipticMinusPoint,
                                   spec: FiniteFieldSpec) -> tuple[int, int]:
    """#E(F_q) and #E[2], the only numbers an elliptic report needs.

    #E[2] is the point at infinity plus one point (x, 0) per root of the
    cubic.  A prime field above ``MESTRE_BOUND`` counts by
    ``_shanks_mestre_tally`` in integers mod p and builds no field; GF(p^e)
    and p <= ``MESTRE_BOUND`` take the one-pass ``_point_tally`` over the
    field's tables.  Characteristic 2 and coefficients that are not codes
    0..q-1 are refused first, then a vanishing discriminant, before any
    count.  Both counts are checked: the Hasse bound
    |#E - (q+1)| <= 2 sqrt(q), and #E[2] in {1, 2, 4} dividing #E.
    """
    _check_odd_characteristic(spec.p)
    _check_coefficients(curve, spec.q)
    if spec.e == 1 and spec.p > MESTRE_BOUND:
        order, roots = _shanks_mestre_tally(curve, spec)
    else:
        order, roots = _point_tally(curve, get_field(spec))
    if (order - spec.q - 1) ** 2 > 4 * spec.q:
        raise ArithmeticError("point count violates the Hasse bound")
    fixed = 1 + roots
    if fixed not in (1, 2, 4) or order % fixed:
        raise ArithmeticError(f"2-torsion count {fixed} is not 1, 2 or 4 dividing "
                              f"the point count {order}")
    return order, fixed


def ec_add(field: FiniteField, a_coeff: int, p1, p2):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    x1, y1 = p1
    x2, y2 = p2
    if x1 == x2 and field.add(y1, y2) == 0:
        return None
    if p1 == p2:
        num = field.add(field.mul(field.from_int(3), field.mul(x1, x1)), a_coeff)
        den = field.mul(field.from_int(2), y1)
    else:
        num = field.sub(y2, y1)
        den = field.sub(x2, x1)
    slope = field.div(num, den)
    x3 = field.sub(field.sub(field.mul(slope, slope), x1), x2)
    y3 = field.sub(field.mul(slope, field.sub(x1, x3)), y1)
    return (x3, y3)


def ec_scalar(field: FiniteField, a_coeff: int, n: int, point):
    result = None
    base = point
    while n > 0:
        if n & 1:
            result = ec_add(field, a_coeff, result, base)
        base = ec_add(field, a_coeff, base, base)
        n >>= 1
    return result


def _divisors(n: int) -> list[int]:
    """Divisors of n in ascending order."""
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p ** k for d in divs for k in range(e + 1)]
    return sorted(divs)


def count_and_structure_elliptic(curve: EllipticMinusPoint,
                                 spec: FiniteFieldSpec) -> FinGenAbGroup:
    """Rational-point group with structure Z/d1 + Z/d2, d1 | d2.

    The slow oracle for ``elliptic_order_and_two_torsion``: the order
    comes from exhaustive enumeration, the structure from the maximal
    element order, validated by counting d1-torsion.
    """
    field = get_field(spec)
    points = elliptic_points(curve, field)
    n = len(points)
    divs = _divisors(n)
    max_order = 1
    for pt in points:
        if pt is None:
            continue
        for d in divs:
            if ec_scalar(field, curve.a, d, pt) is None:
                if d > max_order:
                    max_order = d
                break
    d2 = max_order
    d1 = n // d2
    if d1 > 1:
        if d2 % d1:
            raise ArithmeticError("group exponent does not split the order")
        torsion = sum(1 for pt in points if ec_scalar(field, curve.a, d1, pt) is None)
        if torsion != d1 * d1:
            raise ArithmeticError("torsion count contradicts rank-2 structure")
    factors = tuple(d for d in (d1, d2) if d > 1)
    return FinGenAbGroup(0, factors)


# ---------------------------------------------------------------------------
# Picard groups and inversion classes
# ---------------------------------------------------------------------------

def check_punctures_exist(curve: P1Minus, q: int) -> None:
    """Refuse a curve that removes more closed points of some degree d
    than the projective line over F_q has.

    There are q + 1 points of degree 1 and (1/d) sum_{e | d} mu(e) q^(d/e)
    of degree d >= 2 (Lidl-Niederreiter, Thm 3.25).  For d >= 4 that count
    exceeds q^d / 2d >= 2^(d-1) / d.  A degree is skipped when bit lengths
    show 2^(d-1) / d above the count asked for, so q^d is never built for
    large d.
    """
    for d, asked in sorted(Counter(curve.puncture_degrees).items()):
        if d - 1 - d.bit_length() >= asked.bit_length():
            continue
        primes = [p for p, _ in factorize(d)]
        exist = q + 1 if d == 1 else sum(
            (-1) ** k * q ** (d // prod(s))
            for k in range(len(primes) + 1) for s in combinations(primes, k)) // d
        if asked > exist:
            raise InputError(f"the projective line over F_{q} has {exist} closed points of "
                             f"degree {d}, fewer than the {asked} punctures of degree {d}")


def pic_p1_minus(degrees) -> FinGenAbGroup:
    """Divisor classes of the punctured projective line.

    Removing closed points of degrees d_i from the projective line leaves
    the cyclic group Z/gcd(d_i), generated by the hyperplane class.
    """
    curve = P1Minus(tuple(degrees))
    g = 0
    for d in curve.puncture_degrees:
        g = gcd(g, d)
    return FinGenAbGroup.cyclic(g) if g > 1 else FinGenAbGroup.trivial()
