"""The immutable records of the package: equality by fields, a hash that
agrees with it where there is one, no assignment, and copies and pickles
that come back equal."""

import copy
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction as Q

import pytest

import quadalg
from quadalg import albert, cayley, descent, forms, rootsys, verify
from quadalg.exactmat import dense, freeze, from_nonzeros, identity
from quadalg.scalars import REAL, Laurent, Place, QuadExtScalar, _Frozen


def _cayley_tables():
    table = cayley.build_cayley_table()
    candidate = cayley._build_tables((-2, 1, 1, 1, 1, -1, -2, 1))
    return table, cayley.CayleyTable(table.constants, table.gram), cayley.CayleyTable(*candidate)


def _root_data():
    b3 = rootsys.build_root_datum("B3")
    copied = rootsys.RootDatum(b3.label, b3.series, b3.rank, b3.cartan, b3.root_norms)
    return b3, copied, rootsys.build_root_datum("C3")


def _folds():
    d4 = rootsys.build_root_datum("D4")
    return rootsys.fold(d4), rootsys.fold(d4), rootsys.fold(d4, name="triality")


def _triples():
    eye = cayley.Similitude(identity(8))
    neg = cayley.Similitude(freeze([[-x for x in row] for row in dense(identity(8))]))
    return (
        cayley.SimilitudeTriple((eye, eye, eye)),
        cayley.SimilitudeTriple((cayley.Similitude(identity(8)),) * 3),
        cayley.SimilitudeTriple((eye, neg, neg)),
    )


def _albert_maps():
    negated = freeze([[-x for x in row] for row in dense(identity(27))])
    return albert.AlbertMap(identity(27)), albert.identity_map(), albert.AlbertMap(negated)


def _octonions():
    return tuple(cayley.Octonion([x, 0, 1, 0, 0, Q(1, 2), 0, -3]) for x in (1, 1, 2))


def _similitudes():
    negated = freeze([[-x for x in row] for row in dense(identity(8))])
    return cayley.Similitude(identity(8)), cayley.Similitude(identity(8)), cayley.Similitude(negated)


def _albert_elements():
    c = [cayley.Octonion([0, 1, 0, 0, 0, 0, 0, 0])] * 3
    return tuple(albert.element([1, x, 0], c) for x in (Q(1, 2), Q(1, 2), 3))


def _cocycles():
    unit = QuadExtScalar(2, 1, 3)  # 2 + sqrt(3), of norm 1, so Z iota(Z) = 1
    over_k = [descent.SemilinearCocycle(3, freeze(((unit, 0), (0, 1)))) for _ in range(2)]
    return (*over_k, descent.SemilinearCocycle(3, identity(2)))


def _matrices():
    # equal with no zero stored: K's zero in one, nothing at that place in
    # the other
    zero = QuadExtScalar(0, 0, 2)
    same = from_nonzeros(2, 3, [(1, 2, Q(1, 2)), (0, 0, 1)])
    return freeze([[1, zero, 0], [0, 0, Q(1, 2)]]), same, freeze([[1, 0, 0], [0, 0, 2]])


def _laurents():
    def poly(y):
        # x^-2 (1 + sqrt 2) + y z^3: a negative exponent and a coefficient in K
        return Laurent([((("x", -2),), QuadExtScalar(1, 1, 2)), ((("z", 3),), y)])

    return poly(Q(1, 2)), poly(Q(1, 2)), poly(3)


RECORDS = {
    "Place": (lambda: (Place(7), Place(7), Place(11)), "p"),
    "DiagonalForm": (
        lambda: (forms.form([1, 2]), forms.DiagonalForm("Q", (1, 2)), forms.form([1, 3])),
        "entries",
    ),
    "WittInvariants": (
        lambda: (
            forms.WittInvariants(2, -1, {Place(3): -1}, 0),
            forms.WittInvariants(2, -1, {Place(3): -1}, 0),
            forms.WittInvariants(2, -1, {}, 0),
        ),
        "hasse",
    ),
    "HermitianDiagonal": (
        lambda: tuple(forms.HermitianDiagonal("Q", k, (1, -1)) for k in (2, 2, 3)),
        "k",
    ),
    "RootDatum": (_root_data, "cartan"),
    "LatticeEmbedding": (
        lambda: tuple(
            rootsys.LatticeEmbedding(freeze(m)) for m in ([[1], [1]], [[1], [1]], [[1], [2]])
        ),
        "matrix",
    ),
    "FoldResult": (_folds, "orbits"),
    "CayleyTable": (_cayley_tables, "constants"),
    "SimilitudeTriple": (_triples, "t"),
    "SemilinearCocycle": (_cocycles, "matrix"),
    "AlbertMap": (_albert_maps, "matrix"),
    "Octonion": (_octonions, "coords"),
    "Similitude": (_similitudes, "matrix"),
    "AlbertElement": (_albert_elements, "coords"),
    "QuadExtScalar": (
        lambda: tuple(QuadExtScalar(2, y, 3) for y in (1, 1, -1)),
        "x",
    ),
    "CheckResult": (
        lambda: tuple(
            verify.CheckResult("P01", "B7", s, {"dim": 16}) for s in ("pass", "pass", "fail")
        ),
        "status",
    ),
    "Laurent": (_laurents, "terms"),
    "Matrix": (_matrices, "rows"),
}


def _frozen_types(cls=_Frozen):
    """The public records; a private base such as `exactmat._Coords` has
    no value of its own."""
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("quadalg.") and not sub.__name__.startswith("_"):
            yield sub
        yield from _frozen_types(sub)


def test_records_name_every_frozen_type():
    for module in pkgutil.iter_modules(quadalg.__path__):
        importlib.import_module(f"quadalg.{module.name}")
    assert sorted(t.__name__ for t in _frozen_types()) == sorted(RECORDS)


# the records built by the base's `__init__`, from their fields alone, by
# position; the others have a constructor of their own
PURE = sorted(
    name for name, (build, _) in RECORDS.items() if type(build()[0]).__init__ is _Frozen.__init__
)


@pytest.mark.parametrize("name", sorted(set(RECORDS) - set(PURE)))
def test_records_build_alike_by_keyword_and_by_position(name):
    record = RECORDS[name][0]()[0]
    cls, args = record.__reduce__()
    names = list(inspect.signature(cls.__init__).parameters)[1:]
    assert len(names) == len(args)
    assert cls(**dict(zip(names, args))) == cls(*args) == record
    half = len(args) // 2
    assert cls(*args[:half], **dict(zip(names[half:], args[half:]))) == record


@pytest.mark.parametrize("name", PURE)
def test_a_missing_or_unknown_field_is_a_type_error(name):
    cls, args = RECORDS[name][0]()[0].__reduce__()
    fields = dict(zip(cls._fields, args))
    with pytest.raises(TypeError):
        cls(*args[:-1])  # the last field missing
    with pytest.raises(TypeError):
        cls(*args, args[0])  # one value too many
    with pytest.raises(TypeError):
        cls(*args, extra=1)  # an unknown field
    with pytest.raises(TypeError):
        cls(args[0], **fields)  # the first field twice
    with pytest.raises(TypeError):
        cls(**{f: fields[f] for f in cls._fields[1:]})  # by name, the first missing


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_compare_by_fields_and_stay_frozen(name):
    build, field = RECORDS[name]
    record, same, other = build()
    assert type(record).__name__ == name
    assert (same is record) == (name == "Place")  # only places are interned
    assert record == same and not record != same
    assert record != other and not record == other
    assert record != object()
    if type(record).__hash__ is not None:
        assert hash(record) == hash(same)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(other, field))
    assert record == same
    for clone in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record
        if name == "Place":
            assert clone is record
        if name == "WittInvariants":
            with pytest.raises(TypeError):
                clone.hasse[REAL] = -1

