"""Seeded inputs for the benchmark workloads, with independently derived facts.

Each workload is a fixed list of slots.  A slot fixes the properties that
set a report's cost (class number and unit rank, field size and kind, group
rank) and holds a short, deterministic list of candidate inputs sharing
those properties.  A run seed picks one candidate per slot, so two seeds
give different inputs with the same cost profile and the same property mix,
and every input any seed can pick is known in advance: ``references.json``
holds a digest of its report at the commit that recorded it.

An input is a dict with
  ``key``     the command line that fixes the report (no ``--mode``); also
              the reference key,
  ``argv``    the command line actually run,
  ``datum``   optional ``{"name", "text"}`` of a datum file to write first;
              ``@name`` in ``argv`` stands for its path,
  ``expect``  ``{"rc", "lines", "shapes"}``: the exit code, lines that must
              appear, and COMPONENT counts per shape, all derived here
              without the program.
"""

from __future__ import annotations

import hashlib
import random
from math import gcd

WORKLOADS = ("nf_classes", "ff_elliptic", "essential_ladder", "verify_fixtures")

CANDIDATES_PER_SLOT = 6
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)


# ---------------------------------------------------------------------------
# arithmetic done without the program
# ---------------------------------------------------------------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def prime_factors(n: int) -> list[int]:
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            out.append(f)
            while n % f == 0:
                n //= f
        f += 1
    if n > 1:
        out.append(n)
    return out


def divisor_count(n: int) -> int:
    count, f = 1, 2
    while f * f <= n:
        e = 0
        while n % f == 0:
            n //= f
            e += 1
        count *= e + 1
        f += 1
    return count * (2 if n > 1 else 1)


def divisibility_chains(h: int, length: int, least: int = 2) -> list[tuple[int, ...]]:
    """Invariant-factor lists d1 | d2 | ... of the given length with product h."""
    if length == 1:
        return [(h,)] if h >= least and h % least == 0 else []
    out = []
    d = least
    while d ** length <= h:
        if h % d == 0 and d % least == 0:
            out.extend((d,) + rest for rest in divisibility_chains(h // d, length - 1, d))
        d += least
    return out


def two_torsion(orders) -> int:
    """Order of the 2-torsion of a finite abelian group with these cyclic orders."""
    return 2 ** sum(1 for d in orders if d % 2 == 0)


def elliptic_count_prime(p: int, a: int, b: int) -> int:
    """#E(F_p) for y^2 = x^3 + ax + b, by Euler's criterion."""
    square = bytearray(p)
    for x in range(1, p):
        square[x * x % p] = 1
    total = p + 1
    for x in range(p):
        v = (x * x * x + a * x + b) % p
        if v:
            total += 1 if square[v] else -1
    return total


def elliptic_count(p: int, e: int, a: int, b: int) -> int:
    """#E(F_{p^e}) for a curve with coefficients in F_p.

    The Frobenius trace t over F_p gives the power sums s_k of its roots by
    s_k = t s_{k-1} - p s_{k-2}, and #E(F_{p^e}) = p^e + 1 - s_e.
    """
    t = p + 1 - elliptic_count_prime(p, a, b)
    s_prev, s = 2, t
    for _ in range(e - 1):
        s_prev, s = s, t * s - p * s_prev
    return p ** e + 1 - s


def elliptic_two_torsion(p: int, e: int, a: int, b: int) -> int:
    """#E[2](F_{p^e}): one plus the roots of x^3 + ax + b in F_{p^e}.

    A squarefree cubic over F_p has 3, 1 or 0 roots there; with one root
    the rest is an irreducible quadratic, split over F_{p^e} iff e is even;
    with none it is irreducible, split over F_{p^e} iff 3 divides e.
    """
    roots = sum(1 for x in range(p) if (x * x * x + a * x + b) % p == 0)
    if roots == 1 and e % 2 == 0:
        roots = 3
    elif roots == 0 and e % 3 == 0:
        roots = 3
    return 1 + roots


def squarefree(n: int) -> bool:
    return all(n % (f * f) for f in prime_factors(n))


def nonsingular(p: int, a: int, b: int) -> bool:
    return (4 * a ** 3 + 27 * b * b) % p != 0


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def orbit_expectations(total: int, fixed: int, invariant: str, other: str) -> tuple[list, dict]:
    """KCLASSES and the COMPONENT count per shape for an involution with
    ``fixed`` fixed points on a set of ``total`` classes."""
    return ([f"KCLASSES\t{(total + fixed) // 2}"],
            {invariant: fixed, other: (total - fixed) // 2})


# ---------------------------------------------------------------------------
# nf_classes
# ---------------------------------------------------------------------------

# (kind, parameters).  Split slots: (class number, unit rank, with --gate-n,
# optionally the invariant factors).  The largest report sets the pass's
# peak memory, which moves by 2 MB with its invariant factors, so that slot
# fixes them and its candidates differ only in ell.
# Non-split slots: (about how many classes, sigma = +1 or -1, ker_nm1_rank,
# trace_in_K); "nonsplit_no_norm" has a Steinitz class outside the image.
# The order groups slots by cost at the recording commit, cheapest first,
# so that the median and 90th percentile of report time each fall inside a
# group of similar cost rather than between two groups.
NF_SLOTS = (
    ("nonsplit", (60, -1, 1, False)),
    ("nonsplit_no_norm", ()),
    ("split", (4, 9, True)),
    ("split", (8, 2, False)),
    ("split", (12, 0, True)),
    ("split", (16, 5, False)),
    ("split", (24, 7, False)),
    ("split", (36, 1, False)),
    ("split", (360, 3, False)),
    ("split", (48, 8, False)),
    ("nonsplit", (300, -1, 2, True)),
    ("split", (1440, 0, False)),
    ("split", (720, 3, True)),
    ("split", (360, 6, False)),
    ("split", (120, 8, False)),
    ("nonsplit", (1000, -1, 2, True)),
    ("split", (2880, 1, False)),
    ("split", (1728, 4, False)),
    ("split", (2160, 2, True)),
    ("nonsplit", (2000, 1, 1, True)),
    ("split", (6720, 0, False)),
    ("split", (5040, 2, False)),
    ("split", (2520, 5, False)),
    ("split", (4320, 2, True)),
    ("split", (20160, 1, False, (4, 5040))),
)


def _gate_args(rng: random.Random) -> list[str]:
    args = ["--gate-n", str(rng.randint(1, 30))]
    if rng.random() < 0.25:
        args.append(rng.choice(["--no-gate-s-ell", "--no-gate-s-infinite"]))
    return args


def _split_candidate(rng: random.Random, h: int, rank: int, gate: bool,
                     factors: tuple | None = None) -> dict:
    if factors is None:
        by_length = [c for c in (divisibility_chains(h, t) for t in (1, 2, 3, 4)) if c]
        factors = rng.choice(rng.choice(by_length))
    ell = rng.choice(ODD_PRIMES)
    argv = ["analyze-nf", "--split-class-group", ",".join(map(str, factors)),
            "--unit-rank", str(rank), "--ell", str(ell)]
    if gate:
        argv += _gate_args(rng)
    fixed = two_torsion(factors)
    lines, shapes = orbit_expectations(h, fixed, "Invariant", "NonInvariant")
    lines += ["NONVANISHING\tholds", f"CCLASSES\t{h}"]
    return {"key": " ".join(argv), "argv": argv,
            "expect": {"rc": 0, "lines": lines, "shapes": shapes}}


def _datum_text(*, ell, trace, unit_rank, ker_rank, cl_k, cl_a, nm0, steinitz,
                coker, sigma) -> str:
    def group(factors):
        return f"free_rank = 0\ninvariant_factors = {','.join(map(str, factors))}\n"
    return (f"[datum]\nell = {ell}\ntrace_in_K = {'true' if trace else 'false'}\n"
            f"split = false\nunit_rank_K = {unit_rank}\nker_nm1_rank = {ker_rank}\n\n"
            f"[cl_K]\n{group(cl_k)}\n[cl_A]\n{group(cl_a)}\n"
            f"[nm0]\nmatrix = {nm0}\n\n[steinitz]\ncoords = {steinitz}\n\n"
            f"[coker_nm1]\n{group(coker)}\n[sigma]\nmatrix = {sigma}\n")


def _nonsplit_candidate(rng: random.Random, kind: str, params: tuple, prefix: str) -> dict:
    ell = rng.choice(ODD_PRIMES)
    unit_rank = rng.randint(0, 6)
    fails = {"rc": 0, "lines": ["NONVANISHING\tfails"], "shapes": {}}
    if kind == "nonsplit_no_norm":
        # nm0 = 2 on Z/n (n even) has image 2Z/n, so an odd class is no norm;
        # its kernel {0, n/2} is cyclic of order 2
        n = 2 * rng.randint(2, 40)
        text = _datum_text(ell=ell, trace=True, unit_rank=unit_rank, ker_rank=1,
                           cl_k=(n,), cl_a=(n,), nm0="2", steinitz=2 * rng.randrange(n // 2) + 1,
                           coker=(), sigma="-1")
        return _datum_input(prefix, text, fails)
    # cl_A = Z/n + Z/nk onto cl_K = Z/n by the sum map; ker(nm0) is cyclic of
    # order nk, generated by (1, -1); about `target` classes in all
    target, sign, ker_rank, trace = params
    c = rng.choice((2, 3, 4, 6))
    n = rng.choice([m for m in range(2, 30) if target // (c * m) >= 1])
    k = max(1, round(target / (c * n)))
    text = _datum_text(ell=ell, trace=trace, unit_rank=unit_rank, ker_rank=ker_rank,
                       cl_k=(n,), cl_a=(n, n * k), nm0="1 1", steinitz=rng.randrange(n),
                       coker=(c,), sigma=str(sign))
    if not trace:
        return _datum_input(prefix, text, fails)
    ker_fixed = n * k if sign == 1 else two_torsion((n * k,))
    total = c * n * k
    lines, shapes = orbit_expectations(total, two_torsion((c,)) * ker_fixed,
                                       "Invariant", "NonInvariant")
    lines += ["NONVANISHING\tholds", f"CCLASSES\t{total}"]
    return _datum_input(prefix, text, {"rc": 0, "lines": lines, "shapes": shapes})


def _datum_input(prefix: str, text: str, expect: dict) -> dict:
    """An analyze-nf input on a written datum file.  The file name carries
    a digest of the text, so an edited generator cannot meet a stale
    reference."""
    name = f"{prefix}_{hashlib.sha256(text.encode()).hexdigest()[:10]}.datum"
    return {"key": f"analyze-nf --datum {name}", "argv": ["analyze-nf", "--datum", "@" + name],
            "datum": {"name": name, "text": text}, "expect": expect}


def _nf_candidates(index: int, slot) -> list[dict]:
    kind, params = slot
    out = []
    for j in range(CANDIDATES_PER_SLOT):
        rng = random.Random(f"nf_classes:{index}:{j}")
        if kind == "split":
            out.append(_split_candidate(rng, *params))
        else:
            out.append(_nonsplit_candidate(rng, kind, params, f"nf{index:02d}"))
    return out


# ---------------------------------------------------------------------------
# ff_elliptic
# ---------------------------------------------------------------------------

# ("prime", lo, hi, divisor counts): a prime field of size in [lo, hi].
# ("ext", p, e, divisor counts): GF(p^e), with curve coefficients in the
# prime field so that #E is known from the count over F_p.  #E is required
# squarefree (so the group is cyclic) with one of the given divisor counts:
# the structure scan over divisors of #E, the dominant cost at the
# recording commit, then costs about the same for every candidate of a
# slot.  Slots are ordered by cost as for nf_classes.  The five slots
# around the median are prime fields in narrow windows, where costs are
# tightest.  Slot fields are
# distinct, so every report in a pass builds its own field.
FF_SLOTS = (
    ("preset", ()),
    ("p1", (1, 3)),
    ("p1", (4, 6)),
    ("reject_singular", ()),
    ("reject_not_prime_power", ()),
    ("reject_ell", ()),
    ("ext", (5, 2, (4,))),
    ("prime", (131, 181, (2,))),
    ("ext", (7, 2, (4,))),
    ("ext", (3, 4, (4,))),
    ("prime", (757, 787, (2,))),
    ("prime", (823, 853, (2,))),
    ("prime", (907, 937, (2,))),
    ("prime", (991, 1021, (2,))),
    ("prime", (1087, 1117, (2,))),
    ("ext", (13, 2, (4,))),
    ("ext", (3, 5, (2, 4))),
    ("ext", (17, 2, (4,))),
    ("prime", (2003, 2063, (2,))),
    ("ext", (7, 3, (8,))),
    ("ext", (19, 2, (4,))),
    ("prime", (3001, 3049, (2,))),
    ("ext", (23, 2, (4,))),
    ("prime", (3203, 3251, (2,))),
    ("prime", (7993, 8089, (2,))),
)

PRESETS = ("p1_minus_infty", "p1_minus_0_infty", "p1_minus_01_infty")


def _odd_prime_divisors(n: int) -> list[int]:
    return [f for f in prime_factors(n) if f != 2]


def _small_field(rng: random.Random) -> tuple[int, int]:
    q = rng.choice((7, 13, 19, 31, 37, 43))
    return q, 3


def _ff_argv(q: int, ell: int, *curve) -> list[str]:
    return ["analyze-ff", *curve, "--q", str(q), "--ell", str(ell)]


def _elliptic(rng: random.Random, p: int, e: int, q: int, taus, coeff_range: int) -> dict:
    ell = rng.choice(_odd_prime_divisors(q - 1))
    for _ in range(10_000):
        a, b = rng.randrange(coeff_range), rng.randrange(coeff_range)
        if not nonsingular(p, a, b):
            continue
        n = elliptic_count(p, e, a, b)
        if squarefree(n) and divisor_count(n) in taus:
            break
    else:
        raise RuntimeError(f"no curve over GF({q}) with divisor count in {taus}")
    argv = _ff_argv(q, ell, "--curve", "elliptic", "--a", str(a), "--b", str(b))
    lines, shapes = orbit_expectations(n, elliptic_two_torsion(p, e, a, b),
                                       "MonomialFF", "UnitsFF")
    return {"key": " ".join(argv), "argv": argv,
            "expect": {"rc": 0, "lines": lines, "shapes": shapes}}


def _ff_candidate(rng: random.Random, kind: str, params: tuple) -> dict:
    if kind == "prime":
        lo, hi, taus = params
        q = rng.choice([p for p in range(lo, hi + 1)
                        if is_prime(p) and _odd_prime_divisors(p - 1)])
        return _elliptic(rng, q, 1, q, taus, q)
    if kind == "ext":
        p, e, taus = params
        return _elliptic(rng, p, e, p ** e, taus, p)
    rejected = {"rc": 1, "lines": [], "shapes": {}}
    if kind == "preset":
        q, ell = _small_field(rng)
        argv = _ff_argv(q, ell, "--preset", rng.choice(PRESETS))
        g = 1  # every preset removes rational points only
    elif kind == "p1":
        lo, hi = params
        degrees = [rng.randint(1, 6) for _ in range(rng.randint(lo, hi))]
        q, ell = _small_field(rng)
        argv = _ff_argv(q, ell, "--curve", "p1", "--punctures", ",".join(map(str, degrees)))
        g = 0
        for d in degrees:
            g = gcd(g, d)
    elif kind == "reject_singular":
        q = rng.choice([p for p in range(37, 98) if is_prime(p) and p % 3 == 1])
        t = rng.randrange(q)  # a = -3t^2, b = 2t^3 give 4a^3 + 27b^2 = 0
        argv = _ff_argv(q, 3, "--curve", "elliptic", "--a", str(-3 * t * t % q),
                        "--b", str(2 * t ** 3 % q))
        return {"key": " ".join(argv), "argv": argv, "expect": rejected}
    elif kind == "reject_not_prime_power":
        q = rng.choice([m for m in range(10, 200) if len(prime_factors(m)) > 1])
        argv = _ff_argv(q, 3, "--curve", "elliptic", "--a", "1", "--b", "1")
        return {"key": " ".join(argv), "argv": argv, "expect": rejected}
    else:  # reject_ell
        q = rng.choice([p for p in range(101, 400) if is_prime(p)])
        ell = rng.choice([l for l in ODD_PRIMES if (q - 1) % l])
        argv = _ff_argv(q, ell, "--curve", "elliptic", "--a", "1", "--b", "2")
        return {"key": " ".join(argv), "argv": argv, "expect": rejected}
    # the punctured projective line has Picard group Z/g, g the gcd of the
    # puncture degrees, with inversion as the involution
    lines, shapes = orbit_expectations(g, two_torsion((g,)), "MonomialFF", "UnitsFF")
    return {"key": " ".join(argv), "argv": argv,
            "expect": {"rc": 0, "lines": lines, "shapes": shapes}}


def _ff_candidates(index: int, slot) -> list[dict]:
    kind, params = slot
    return [_ff_candidate(random.Random(f"ff_elliptic:{index}:{j}"), kind, params)
            for j in range(CANDIDATES_PER_SLOT)]


# ---------------------------------------------------------------------------
# essential_ladder
# ---------------------------------------------------------------------------

ESSENTIAL_INPUTS = ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3),
                    (5, 2), (7, 2), (11, 2), (13, 2), (17, 2), (19, 2), (23, 2))
# inputs the 729 group-order guard or the argument checks refuse
ESSENTIAL_REJECTED = ((3, 7), (2, 10), (4, 2), (3, 0))


def _essential_input(ell: int, rank: int) -> dict:
    argv = ["essential", "--ell", str(ell), "--rank", str(rank)]
    if (ell, rank) in ESSENTIAL_REJECTED:
        expect = {"rc": 1, "lines": [], "shapes": {}}
    else:
        degree = 2 ** rank - 1 if ell == 2 else 2 * (ell ** rank - 1)
        subgroups = sum(gaussian_binomial(rank, k, ell) for k in range(1, rank))
        expect = {"rc": 0, "shapes": {}, "lines": [
            f"ESSENTIAL\tell={ell} rank={rank} degree={degree} nonzero=true",
            f"RESTRICTIONS\tall_proper_zero=true proper_subgroups={subgroups}",
            "WEYL\tinvariant=true",
            "REGULARITY\tnon_zero_divisor=true"]}
    return {"key": " ".join(argv), "argv": argv, "expect": expect}


# ---------------------------------------------------------------------------
# verify_fixtures
# ---------------------------------------------------------------------------

FIXTURES = {
    # name: (class-group orders, lines derived from the fixture's header)
    "q_zeta3.datum": ((), ["NONVANISHING\tholds", "CCLASSES\t1", "KCLASSES\t1"]),
    "q_zeta23.datum": ((3,), ["NONVANISHING\tholds", "CCLASSES\t3", "KCLASSES\t2"]),
}
# (fixture, with --gate-n); a seed picks the gate rank
VERIFY_NF_SLOTS = ((("q_zeta3.datum", False),) * 2 + (("q_zeta3.datum", True),) * 2
                   + (("q_zeta23.datum", False),) * 3 + (("q_zeta23.datum", True),) * 4)
VERIFY_SLOTS = 3
GATE_RANKS = (1, 2, 3, 5, 11, 22, 23, 29)


# one broken field each: a bad integer, a non-canonical group, a short nm0
# row, an unreduced class, a sigma of the wrong shape, a bad boolean
BROKEN_FIELDS = (("ell", "2x3"), ("factors", "4,2"), ("nm0", "1"), ("steinitz", "5"),
                 ("sigma", "1 0"), ("trace", "maybe"))


def _broken_datum(field: str, value: str) -> dict:
    """A copy of the q_zeta23 fixture with one field broken, so loading fails."""
    good = {"ell": "23", "trace": "true", "factors": "3", "cl_a": "3,3", "nm0": "1 1",
            "steinitz": "0", "sigma": "-1"}
    good[field] = value
    text = (f"[datum]\nell = {good['ell']}\ntrace_in_K = {good['trace']}\nsplit = true\n"
            f"unit_rank_K = 11\nker_nm1_rank = 11\n\n"
            f"[cl_K]\nfree_rank = 0\ninvariant_factors = {good['factors']}\n\n"
            f"[cl_A]\nfree_rank = 0\ninvariant_factors = {good['cl_a']}\n\n"
            f"[nm0]\nmatrix = {good['nm0']}\n\n[steinitz]\ncoords = {good['steinitz']}\n\n"
            f"[coker_nm1]\nfree_rank = 0\ninvariant_factors =\n\n"
            f"[sigma]\nmatrix = {good['sigma']}\n")
    return _datum_input("broken", text, {"rc": 1, "lines": [], "shapes": {}})


def _verify_candidates() -> list[dict]:
    variants = (["verify"], ["verify", "--datum", "q_zeta3.datum"],
                ["verify", "--datum", "q_zeta23.datum"])
    out = []
    for argv in variants:
        fixtures = [a for a in argv[2:] if a.endswith(".datum")] or sorted(FIXTURES)
        lines = ["VERIFY\tpass"] + [f"FIXTURE\t{name} pass" for name in fixtures]
        out.append({"key": " ".join(argv), "argv": list(argv),
                    "expect": {"rc": 0, "lines": lines, "shapes": {}}})
    return out


def _fixture_candidates(name: str, gate: bool) -> list[dict]:
    orders, lines = FIXTURES[name]
    out = []
    for g in GATE_RANKS if gate else (None,):
        argv = ["analyze-nf", "--datum", name] + (["--gate-n", str(g)] if g else [])
        fixed = two_torsion(orders)
        total = 1
        for d in orders:
            total *= d
        out.append({"key": " ".join(argv), "argv": argv, "expect": {
            "rc": 0, "lines": list(lines),
            "shapes": {"Invariant": fixed, "NonInvariant": (total - fixed) // 2}}})
    return out


# ---------------------------------------------------------------------------
# slots and generation
# ---------------------------------------------------------------------------

def slots(workload: str) -> list[list[dict]]:
    """Candidate inputs per slot, in slot order; the same on every call."""
    if workload == "nf_classes":
        return [_nf_candidates(i, s) for i, s in enumerate(NF_SLOTS)]
    if workload == "ff_elliptic":
        return [_ff_candidates(i, s) for i, s in enumerate(FF_SLOTS)]
    if workload == "essential_ladder":
        return ([[_essential_input(*pair)] for pair in ESSENTIAL_INPUTS]
                + [[_essential_input(*pair) for pair in ESSENTIAL_REJECTED]])
    if workload == "verify_fixtures":
        return ([_verify_candidates() for _ in range(VERIFY_SLOTS)]
                + [_fixture_candidates(name, gate) for name, gate in VERIFY_NF_SLOTS]
                + [[_broken_datum(f, v) for f, v in BROKEN_FIELDS]])
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# workloads whose inputs also vary between machine and human output
MODE_MIXED = ("essential_ladder", "verify_fixtures")


def generate(workload: str, seed: int) -> list[dict]:
    """One pass worth of inputs: a candidate per slot, in slot order.

    The order is fixed so that a pass's peak memory, which depends on what
    earlier reports left on the heap, does not change with the seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    picked = [dict(rng.choice(candidates)) for candidates in slots(workload)]
    if workload in MODE_MIXED:
        modes = ["human", "machine"] * (len(picked) // 2 + 1)
        rng.shuffle(modes)
        for item, mode in zip(picked, modes):
            if mode == "human":
                item["argv"] = item["argv"] + ["--mode", "human"]
    return picked


def universe(workload: str) -> list[dict]:
    """Every input any seed can pick, without duplicates."""
    seen: dict[str, dict] = {}
    for candidates in slots(workload):
        for item in candidates:
            seen.setdefault(item["key"], item)
    return list(seen.values())
