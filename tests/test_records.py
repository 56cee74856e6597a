"""The value semantics of the package's eight record classes: equality,
hashing, `repr`, ordering of signatures, immutability, and `pickle`/`copy`
round trips."""

import ast
import copy
import pickle
from pathlib import Path

import pytest

import folkman
from folkman.arrowing import FREE, SearchResult
from folkman.bounds import BoundRecord, KnownValue, RecurrenceReport, Rule
from folkman.graphs import Graph, cycle
from folkman.signatures import Signature
from folkman.witnesses import VERIFIED, WitnessCertificate

SIG = Signature((2, 3))
RULE = Rule("A", "d", (Rule("B"),))

# Each frozen record: two equal instances, one that differs in a field, and
# its exact repr.
FROZEN = [
    (Signature((2, 3)), Signature((2, 3)), Signature((2, 4)),
     "Signature(parts=(2, 3))"),
    (cycle(3), Graph(3, (6, 5, 3)), Graph(3, (2, 1, 0)),
     "Graph(n=3, adj=(6, 5, 3))"),
    (SearchResult(FREE, (0, 1), 3), SearchResult(verdict=FREE, coloring=(0, 1), nodes=3),
     SearchResult(FREE, (0, 1), 4),
     "SearchResult(verdict='free-coloring', coloring=(0, 1), nodes=3)"),
    (WitnessCertificate(cycle(3), SIG, 4, VERIFIED, "c"),
     WitnessCertificate(cycle(3), SIG, 4, VERIFIED, "c", None, None, 0),
     WitnessCertificate(cycle(3), SIG, 4, VERIFIED, "c", nodes=1),
     "WitnessCertificate(graph=Graph(n=3, adj=(6, 5, 3)), signature=Signature(parts=(2, 3)), "
     "q=4, status='verified', construction='c', free_coloring=None, clique=None, nodes=0)"),
    (RULE, Rule(name="A", detail="d", children=(Rule("B", "", ()),)), Rule("A", "d"),
     "Rule(name='A', detail='d', children=(Rule(name='B', detail='', children=()),))"),
    (BoundRecord(SIG, 4, 3, 5, (RULE,), "n"), BoundRecord(SIG, 4, 3, 5, (RULE,), note="n"),
     BoundRecord(SIG, 4, 3, 5, (RULE,)),
     "BoundRecord(signature=Signature(parts=(2, 3)), q=4, lower=3, upper=5, "
     "provenance=(Rule(name='A', detail='d', children=(Rule(name='B', detail='', "
     "children=()),)),), note='n')"),
    (KnownValue(SIG, 4, 3, None, "cit", "f:1"), KnownValue(SIG, 4, 3, None, "cit", "g:2"),
     KnownValue(SIG, 4, 3, None, "other", "f:1"),
     "KnownValue(signature=Signature(parts=(2, 3)), q=4, lower=3, upper=None, "
     "citation='cit', source='f:1')"),
    (RecurrenceReport(8, 2, ("x",), (("3,p", 4),)),
     RecurrenceReport(p_max=8, checks=2, violations=("x",),
                      conjectured_quarter_bound_holds=(("3,p", 4),)),
     RecurrenceReport(8, 2, ("x",)),
     "RecurrenceReport(p_max=8, checks=2, violations=('x',), "
     "conjectured_quarter_bound_holds=(('3,p', 4),))"),
]
IDS = [case[0].__class__.__name__ for case in FROZEN]


@pytest.mark.parametrize("record, same, other, text", FROZEN, ids=IDS)
def test_frozen_records_compare_hash_and_print_by_their_fields(record, same, other, text):
    assert record == same and not record != same
    assert hash(record) == hash(same)
    assert record != other and not record == other
    assert record != object()
    assert repr(record) == text


def test_known_value_equality_ignores_its_source_but_repr_shows_it():
    a = KnownValue(SIG, 4, 3, None, "cit", "f:1")
    b = KnownValue(SIG, 4, 3, None, "cit")
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert "source='f:1'" in repr(a) and "source=''" in repr(b)


def test_a_record_never_equals_its_field_values():
    assert Signature((2, 3)) != (2, 3) and Signature((2, 3)) != ((2, 3),)
    assert Rule("A") != ("A", "", ())


def test_signatures_sort_by_their_parts():
    sigs = [Signature((3, 4)), Signature((2, 2, 4)), Signature(()), Signature((2, 5)),
            Signature((3,))]
    assert [s.parts for s in sorted(sigs)] == sorted(s.parts for s in sigs)
    a, b = Signature((2, 3)), Signature((2, 4))
    assert a < b and a <= b and b > a and b >= a and a <= a and a >= a
    assert not (b < a or b <= a or a > b or a >= b)
    with pytest.raises(TypeError):
        a < (2, 4)


@pytest.mark.parametrize("record", [case[0] for case in FROZEN], ids=IDS)
def test_frozen_records_refuse_assignment_and_deletion(record):
    field = repr(record).split("(", 1)[1].split("=", 1)[0]
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) == value


@pytest.mark.parametrize("record", [case[0] for case in FROZEN], ids=IDS)
def test_records_survive_pickle_and_copy(record):
    for clone in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                  copy.deepcopy(record)):
        assert type(clone) is type(record)
        assert clone == record
        assert repr(clone) == repr(record)


@pytest.mark.parametrize("record", [case[0] for case in FROZEN], ids=IDS)
def test_a_plain_subclass_builds_compares_and_stays_frozen(record):
    cls = type(record)
    sub = type(f"Sub{cls.__name__}", (cls,), {})
    fields = record.__reduce__()[1]
    a, b = sub(*fields), sub(*fields)
    assert a == b and hash(a) == hash(b) and a != record
    assert a.__reduce__() == (sub, fields)
    assert repr(a) == f"Sub{repr(record)}"
    field = cls.__slots__[0]
    with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}' of a {sub.__name__}$"):
        setattr(a, field, getattr(a, field))
    with pytest.raises(AttributeError, match=f"^cannot assign to field 'extra' of a {sub.__name__}$"):
        a.extra = 1
    with pytest.raises(AttributeError, match=f"^cannot delete field '{field}' of a {sub.__name__}$"):
        delattr(a, field)
    assert a.__reduce__() == (sub, fields)


def test_no_package_code_calls_object_setattr():
    # Records write their fields through their slot descriptors (`_Record._set`).
    calls = []
    for path in sorted(Path(folkman.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                calls.append(f"{path.name}:{node.lineno}")
    assert calls == []
