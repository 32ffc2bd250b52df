"""The library's record types: equality, hashing, repr, immutability and
pickling, one table row per type.

Equal records are the same class with equal fields; a record never equals
an instance of another class holding the same values. Frozen records hash
their fields and refuse assignment and deletion with AttributeError. The
two mutable records, EnumerationStats and SolutionLines, are unhashable and
never share a default container between instances. Every record pickles:
that is public behaviour of the records, which callers may store or send
to other processes.
"""

import pickle

import pytest

from romanhs.core import (
    BoundedRdInstance,
    Correspondence,
    Graph,
    GraphFile,
    Hypergraph,
    HypergraphFile,
    RhsPair,
    SolutionLines,
)
from romanhs.enumeration import EnumerationStats
from romanhs.extend import ExtAnswer
from romanhs.optimize import OptResult
from romanhs.reduce import ReductionOutput

H = Hypergraph(("a", "b"), ("e", "f"), (0b11, 0b10))
H_REPR = "Hypergraph(vertex_tokens=('a', 'b'), edge_tokens=('e', 'f'), edge_members=(3, 2))"
G = Graph(("a", "b", "c"), ((0, 1), (1, 2)))
G_REPR = "Graph(vertex_tokens=('a', 'b', 'c'), edges=((0, 1), (1, 2)))"
TAU = Correspondence((0, 1))
PAIR = RhsPair({1}, {0})
PAIR_REPR = "RhsPair(r1=IdSet([1]), r2=IdSet([0]))"

# (type, fields by name in declaration order, repr)
FROZEN = [
    (Hypergraph, dict(vertex_tokens=("a", "b"), edge_tokens=("e", "f"), edge_members=(3, 2)), H_REPR),
    (Graph, dict(vertex_tokens=("a", "b", "c"), edges=((0, 1), (1, 2))), G_REPR),
    (Correspondence, dict(mapping=(0, 1)), "Correspondence(mapping=(0, 1))"),
    (
        BoundedRdInstance,
        dict(graph=G, lower=(0, 1, 0), upper=(2, 2, 1)),
        f"BoundedRdInstance(graph={G_REPR}, lower=(0, 1, 0), upper=(2, 2, 1))",
    ),
    (
        HypergraphFile,
        dict(hypergraph=H, tau=TAU, assignment=(0, 2), preset=PAIR),
        f"HypergraphFile(hypergraph={H_REPR}, tau=Correspondence(mapping=(0, 1)), "
        f"assignment=(0, 2), preset={PAIR_REPR})",
    ),
    (
        GraphFile,
        dict(graph=G, assignment=(0, 1, 0), upper=(2, 2, 2)),
        f"GraphFile(graph={G_REPR}, assignment=(0, 1, 0), upper=(2, 2, 2))",
    ),
    (ExtAnswer, dict(decision=True, witness=PAIR), f"ExtAnswer(decision=True, witness={PAIR_REPR})"),
    (OptResult, dict(weight=2, witness=(0, 2), nodes=5), "OptResult(weight=2, witness=(0, 2), nodes=5)"),
    (
        ReductionOutput,
        dict(instance=H, forward=len, backward=abs, offset=3),
        f"ReductionOutput(instance={H_REPR}, forward=<built-in function len>, "
        "backward=<built-in function abs>, offset=3)",
    ),
]

MUTABLE = [
    (
        EnumerationStats,
        dict(emitted=1, nodes=2, max_gap=3, rule_counts={"RR1": 4}),
        "EnumerationStats(emitted=1, nodes=2, max_gap=3, rule_counts={'RR1': 4})",
    ),
    (
        SolutionLines,
        dict(assign={"a": 1}, preset1=["e"], preset2=["b"]),
        "SolutionLines(assign={'a': 1}, preset1=['e'], preset2=['b'])",
    ),
]

RECORDS = FROZEN + MUTABLE

# another value for each type's last field
CHANGED = {
    Hypergraph: (1, 2),
    Graph: ((0, 1),),
    Correspondence: (0, 0),
    BoundedRdInstance: (2, 2, 2),
    HypergraphFile: RhsPair((), ()),
    GraphFile: (2, 2, 1),
    ExtAnswer: None,
    OptResult: 6,
    ReductionOutput: 4,
    EnumerationStats: {},
    SolutionLines: [],
}


def _ids(rows):
    return [cls.__name__ for cls, _, _ in rows]


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_ids(RECORDS))
def test_equality_is_per_class_and_per_field(cls, fields, text):
    by_name = cls(**fields)
    assert by_name == cls(*fields.values())
    assert not by_name != cls(*fields.values())
    other = type("Other", (cls,), {})(*fields.values())
    assert by_name != other and other != by_name
    assert by_name != tuple(fields.values())
    last = list(fields)[-1]
    assert by_name != cls(**dict(fields, **{last: CHANGED[cls]}))


@pytest.mark.parametrize("cls, fields, text", RECORDS, ids=_ids(RECORDS))
def test_repr(cls, fields, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, text", FROZEN, ids=_ids(FROZEN))
def test_frozen_records_hash_their_fields_and_refuse_changes(cls, fields, text):
    rec = cls(**fields)
    assert hash(rec) == hash(cls(*fields.values()))
    assert len({rec, cls(*fields.values())}) == 1
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(rec, name, value)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) == value
    with pytest.raises(AttributeError):
        rec.unknown = 1


@pytest.mark.parametrize("cls, fields, text", MUTABLE, ids=_ids(MUTABLE))
def test_mutable_records_are_unhashable(cls, fields, text):
    rec = cls(**fields)
    with pytest.raises(TypeError):
        hash(rec)
    name = next(iter(fields))
    setattr(rec, name, getattr(rec, name))
    assert rec == cls(**fields)


@pytest.mark.parametrize("cls, fields, text", RECORDS + [(RhsPair, {}, "")], ids=_ids(RECORDS) + ["RhsPair"])
def test_pickle_round_trip(cls, fields, text):
    rec = PAIR if cls is RhsPair else cls(**fields)
    back = pickle.loads(pickle.dumps(rec))
    assert type(back) is cls
    assert back == rec
    assert repr(back) == repr(rec)


def test_pickled_graphs_rebuild_their_lookups():
    h = pickle.loads(pickle.dumps(H))
    assert (h.vertex_id("b"), h.edge_id("f"), h.incidence_mask(1)) == (1, 1, 0b11)
    g = pickle.loads(pickle.dumps(G))
    assert (g.vertex_id("c"), g.neighbors_mask(1)) == (2, 0b101)


def test_default_containers_are_not_shared():
    a, b = EnumerationStats(), EnumerationStats()
    a.rule_counts["RR1"] = 1
    assert b.rule_counts == {} and EnumerationStats().rule_counts == {}
    assert (b.emitted, b.nodes, b.max_gap) == (0, 0, 0)
    s, t = SolutionLines(), SolutionLines()
    s.assign["a"] = 1
    s.preset1.append("e")
    s.preset2.append("b")
    assert (t.assign, t.preset1, t.preset2) == ({}, [], [])
    assert SolutionLines() == t


def test_defaulted_fields():
    assert ExtAnswer(False) == ExtAnswer(False, None)
    assert ExtAnswer(False).witness is None
    assert OptResult(1, (1,)) == OptResult(1, (1,), 0)
