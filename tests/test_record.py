"""The package's value classes against frozen-dataclass twins.

Each class in ``sl2cohom`` that holds a value is a ``Record``.  Its
equality, hash and repr must be those of the frozen dataclass with the
same fields, which the twins below declare: that is the oracle.
"""

from dataclasses import dataclass, field, fields

import pytest

from sl2cohom.abelian import FinGenAbGroup, GroupHom, Involution, Orbit, Record
from sl2cohom.arithdata import ArithmeticDatum, QuadraticForm, build_split_datum
from sl2cohom.cohomengine import ComponentRing, Decomposition
from sl2cohom.curve import EllipticMinusPoint, FiniteFieldSpec, P1Minus
from sl2cohom.essential import GradedAlgebraSpec
from sl2cohom.oracles import SuiteResult


class Twin:
    @dataclass(frozen=True)
    class FinGenAbGroup:
        invariant_factors: tuple = ()

    @dataclass(frozen=True)
    class GroupHom:
        domain: object
        codomain: object
        matrix: tuple

    @dataclass(frozen=True)
    class Involution:
        hom: object

    @dataclass(frozen=True)
    class Orbit:
        elements: tuple
        fixed: bool

    @dataclass(frozen=True)
    class QuadraticForm:
        a: int
        b: int
        c: int

    @dataclass(frozen=True)
    class ArithmeticDatum:
        ell: int
        trace_in_K: bool
        split: bool
        cl_K: object
        cl_A: object
        nm0: object
        steinitz: tuple
        unit_rank_K: int
        ker_nm1_rank: int
        coker_nm1: object
        sigma: object
        ker_nm0: object = field(default=None, compare=False, repr=False)

    @dataclass(frozen=True)
    class ComponentRing:
        kind: str
        rank: int

    @dataclass(frozen=True)
    class Decomposition:
        shapes: tuple
        advisories: tuple = ()
        classes: object = None

    @dataclass(frozen=True)
    class FiniteFieldSpec:
        p: int
        e: int = 1

    @dataclass(frozen=True)
    class P1Minus:
        puncture_degrees: tuple

    @dataclass(frozen=True)
    class EllipticMinusPoint:
        a: int
        b: int

    @dataclass(frozen=True)
    class GradedAlgebraSpec:
        ell: int
        n: int

    @dataclass(frozen=True)
    class SuiteResult:
        name: str
        passed: bool
        detail: str


def twin(record):
    cls = getattr(Twin, type(record).__name__)
    return cls(**{f.name: getattr(record, f.name) for f in fields(cls)})


def after_name(text: str) -> str:
    return text[text.index("("):]


G = FinGenAbGroup((2, 4))
H = FinGenAbGroup((3, 3))
RING = ComponentRing("Invariant", 2)
# per class: a factory called twice gives equal values, then an unequal value
CASES = {
    "FinGenAbGroup": (lambda: FinGenAbGroup((2, 4)), FinGenAbGroup((2, 8))),
    "GroupHom": (lambda: GroupHom.negation(G), GroupHom.identity(G)),
    "Involution": (lambda: Involution(GroupHom.negation(G)), Involution(GroupHom.identity(G))),
    "Orbit": (lambda: Orbit(((1, 0), (1, 2)), False), Orbit(((1, 0), (1, 2)), True)),
    "QuadraticForm": (lambda: QuadraticForm(2, 1, 3), QuadraticForm(2, -1, 3)),
    "ArithmeticDatum": (lambda: build_split_datum(FinGenAbGroup((3,)), 11, 23),
                        build_split_datum(FinGenAbGroup((3,)), 11, 7)),
    "ComponentRing": (lambda: ComponentRing("Invariant", 2), ComponentRing("NonInvariant", 2)),
    "Decomposition": (lambda: Decomposition(((RING, 3),), ("advice",), 5),
                      Decomposition(((RING, 3),), ("advice",), 6)),
    "FiniteFieldSpec": (lambda: FiniteFieldSpec(3, 2), FiniteFieldSpec(3, 3)),
    "P1Minus": (lambda: P1Minus((1, 2)), P1Minus((1, 1))),
    "EllipticMinusPoint": (lambda: EllipticMinusPoint(1, 4), EllipticMinusPoint(4, 1)),
    "GradedAlgebraSpec": (lambda: GradedAlgebraSpec(3, 2), GradedAlgebraSpec(2, 3)),
    "SuiteResult": (lambda: SuiteResult("snf", True, "ok"), SuiteResult("snf", False, "ok")),
}


def test_every_record_class_has_a_twin():
    classes = {cls.__name__ for cls in Record.__subclasses__()}
    assert classes == set(CASES) == {name for name in vars(Twin) if not name.startswith("_")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_hash_and_repr_match_the_frozen_dataclass(name):
    make, other = CASES[name]
    x, y = make(), make()
    assert type(x).__name__ == name and x is not y
    for a, b in ((x, y), (x, other), (other, y), (other, other)):
        assert (a == b) is (twin(a) == twin(b))
        assert (a != b) is (twin(a) != twin(b))
    assert x == y and x != other
    for record in (x, other):
        assert hash(record) == hash(twin(record))
        assert after_name(repr(record)) == after_name(repr(twin(record)))
    assert repr(x).startswith(name + "(")


def test_one_field_records_hash_as_a_one_tuple():
    hom = GroupHom.negation(G)
    assert hash(Involution(hom)) == hash((hom,)) != hash(hom)
    assert hash(P1Minus((1, 2))) == hash(((1, 2),)) != hash((1, 2))


def test_a_record_equals_no_tuple_and_no_other_record_class():
    values = (3, 2)
    records = [FiniteFieldSpec(*values), EllipticMinusPoint(*values), GradedAlgebraSpec(*values)]
    for record in records:
        assert record != values and not record == values
        assert record.__eq__(values) is NotImplemented
        assert [other == record for other in records].count(True) == 1
    assert FinGenAbGroup((2, 4)) != ((2, 4),)
    assert P1Minus((1, 2)) != ((1, 2),)


@pytest.mark.parametrize("name", sorted(CASES))
def test_fields_can_be_neither_assigned_nor_deleted(name):
    record = CASES[name][1]
    before = repr(record)
    for attr in [f.name for f in fields(getattr(Twin, name))] + ["unlisted"]:
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)
        with pytest.raises(AttributeError):
            delattr(record, attr)
    assert repr(record) == before


def test_keywords_and_defaults():
    assert FinGenAbGroup() == FinGenAbGroup(()) == FinGenAbGroup.trivial()
    assert FinGenAbGroup(invariant_factors=[2, 4]) == FinGenAbGroup((2, 4))
    assert FinGenAbGroup().invariant_factors == Twin.FinGenAbGroup().invariant_factors == ()
    assert FiniteFieldSpec(7) == FiniteFieldSpec(p=7, e=1) and FiniteFieldSpec(7).e == 1
    decomposition = Decomposition(((RING, 1),))
    assert (decomposition.advisories, decomposition.classes) == ((), None)
    assert decomposition == Decomposition(shapes=((RING, 1),), advisories=(), classes=None)
    assert Decomposition((), classes=2) == Decomposition(shapes=(), advisories=(), classes=2)
    assert GroupHom(domain=G, codomain=G, matrix=((1, 0), (0, 1))) == GroupHom.identity(G)
    assert QuadraticForm(a=2, b=1, c=3) == QuadraticForm(2, 1, 3)
    assert SuiteResult(name="x", passed=True, detail="") == SuiteResult("x", True, "")


def test_ker_nm0_takes_no_part_in_equality_or_repr():
    datum = build_split_datum(FinGenAbGroup((3,)), 11, 23)
    names = [f.name for f in fields(Twin.ArithmeticDatum)]
    given = ArithmeticDatum(**{name: getattr(datum, name) for name in names})
    assert given.ker_nm0 is datum.ker_nm0
    stripped = build_split_datum(FinGenAbGroup((3,)), 11, 23)
    object.__setattr__(stripped, "ker_nm0", None)
    assert stripped == datum == given and hash(stripped) == hash(datum)
    assert repr(stripped) == repr(datum) and "ker_nm0" not in repr(datum)


@pytest.mark.parametrize("build,message", [
    (lambda: FinGenAbGroup((1, 2)), "invariant factors must be >= 2"),
    (lambda: FinGenAbGroup((2, 3)), "divisibility chain"),
    (lambda: GroupHom(G, H, ((1, 0),)), "matrix must be 2x2"),
    (lambda: GroupHom(H, G, ((0, 1), (0, 0))), "does not define a homomorphism"),
    (lambda: Involution(GroupHom.zero(G, H)), "equal domain and codomain"),
    (lambda: Involution(GroupHom.zero(G, G)), "composed with itself is not the identity"),
    (lambda: QuadraticForm(0, 1, 1), "positive definite"),
    (lambda: QuadraticForm(1, 3, 1), "negative discriminant"),
    (lambda: ComponentRing("Bogus", 1), "unknown component shape 'Bogus'"),
    (lambda: ComponentRing("Invariant", -1), "rank must be nonnegative"),
    (lambda: Decomposition(((RING, 0),)), "multiplicities must be positive"),
    (lambda: Decomposition(((RING, 1), (ComponentRing("Invariant", 2), 2))), "listed once"),
    (lambda: FiniteFieldSpec(4), "4 is not prime"),
    (lambda: FiniteFieldSpec(3, 0), "extension degree must be positive"),
    (lambda: FiniteFieldSpec(2, 17), "field size 131072 exceeds 65536"),
    (lambda: P1Minus(()), "at least one puncture"),
    (lambda: P1Minus((1, 0)), "puncture degrees must be positive"),
    (lambda: GradedAlgebraSpec(4, 1), "ell must be prime"),
    (lambda: GradedAlgebraSpec(3, -1), "rank must be nonnegative"),
])
def test_every_construction_check_still_runs(build, message):
    with pytest.raises(ValueError, match=message):
        build()
