"""The value classes: the plain ``Record`` classes of orbits, branching,
duals and verify behave as the frozen dataclasses they replace, and every value
type survives copy, deepcopy and pickle."""

import copy
import dataclasses
import inspect
import pickle

import pytest

from f4weyl import branching, duals, orbits, verify
from f4weyl.binocta import build_group, sorted_elements
from f4weyl.quat import Quaternion
from f4weyl.rootsys import f4_system
from f4weyl.scalar import parse_scalar
from f4weyl.verify import CheckResult

F4 = f4_system()
LABEL = (1, 0, 0, 1)
SURD = parse_scalar("1/2-3sqrt2")


def _records():
    """One instance of each class converted from a frozen dataclass."""
    dual = duals.dual_polytope(F4, LABEL)
    return [orbits.f_vector(F4, LABEL).cells[0],
            orbits.generate_orbit(F4, LABEL),
            branching.branch_b4((1, 1, 0, 1))[0],
            branching.branch_b3a1(LABEL)[0],
            verify.cells_at_vertex(F4, LABEL)[0],
            dual.shells[0], dual, duals.dual_cell(F4, LABEL)]


RECORDS = _records()
IDS = [type(r).__name__ for r in RECORDS]


def _fields(record):
    return tuple(type(record).__annotations__)


def _values(record):
    return tuple(getattr(record, name) for name in _fields(record))


def _twin(record):
    """A frozen dataclass of the same name, fields and values: the oracle."""
    cls = dataclasses.make_dataclass(type(record).__name__, _fields(record),
                                     frozen=True)
    return cls(*_values(record))


def test_the_eight_converted_classes_are_covered():
    assert sorted(IDS) == sorted(["FaceEntry", "Orbit", "B4Part", "Slice",
                                  "CellFamily", "Shell", "DualPolytope",
                                  "DualCell"])


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_equal_instances_compare_and_hash_equal(record):
    other = type(record)(*_values(record))
    assert other is not record
    assert other == record and not other != record
    assert hash(other) == hash(record) == hash(_values(record))
    assert hash(record) == hash(_twin(record))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_unequal_to_a_tuple_and_to_another_class(record):
    values = _values(record)
    assert record != values
    other = type("Other", (orbits.Record,),
                 {"__annotations__": dict.fromkeys(_fields(record), object)})
    assert record != other(*values)
    assert record != type("Sub", (type(record),), {})(*values)
    assert record != _twin(record)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_repr_is_the_dataclass_format(record):
    # every record prints through Record.__repr__: no subclass has its own
    classes, found = [orbits.Record], []
    for cls in classes:
        classes += cls.__subclasses__()
        found += [cls.__name__] * ("__repr__" in vars(cls))
    assert found == ["Record"] and type(record) in classes
    assert repr(record) == repr(_twin(record))


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_fields_are_read_only(record):
    for name in _fields(record) + ("extra",):
        with pytest.raises(AttributeError):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)


@pytest.mark.parametrize("record", RECORDS, ids=IDS)
def test_wrong_argument_count_is_a_type_error(record):
    values = _values(record)
    with pytest.raises(TypeError):
        type(record)(*values[:-1])
    with pytest.raises(TypeError):
        type(record)(*values, None)


def test_polytope_complex_is_the_only_dataclass_left():
    classes = [cls for module in (orbits, branching, duals, verify)
               for cls in vars(module).values()
               if inspect.isclass(cls) and cls.__module__ == module.__name__]
    assert [cls.__name__ for cls in classes
            if dataclasses.is_dataclass(cls)] == ["PolytopeComplex"]


def test_repr_leaves_the_vertices_unbuilt():
    # fresh copies, whose vertices no earlier read has built
    for record in (orbits.generate_orbit(F4, (1, 1, 1, 1)),
                   duals.dual_polytope(F4, (1, 1, 1, 1))):
        fresh = type(record)(*_values(record))
        assert repr(fresh) == repr(record)
        assert "vertices" not in vars(fresh)


VALUES = [SURD, Quaternion(SURD, 1, 0, SURD),
          sorted_elements(build_group("AutF4"))[-1],
          orbits.f_vector(F4, LABEL), CheckResult("check", True, "", 0.5),
          *RECORDS]


@pytest.mark.parametrize("how", [copy.copy, copy.deepcopy,
                                 lambda v: pickle.loads(pickle.dumps(v))],
                         ids=["copy", "deepcopy", "pickle"])
@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_round_trip(value, how):
    back = how(value)
    assert back == value and type(back) is type(value)
