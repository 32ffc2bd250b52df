import itertools
import json
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    all_assignments,
    all_pairs,
    assignment_of,
    atlas_graphs_upto,
    build_ex1,
    build_ex2,
    ex2_tau,
    path_graph,
    random_hypergraph,
    random_tau,
)
import romanhs
from romanhs.core import (
    Correspondence,
    Graph,
    GraphFile,
    Hypergraph,
    HypergraphFile,
    RhsPair,
    _level_masks,
    assignment_from_json,
    assignment_to_json,
    _closed_masks,
    _edge_masks,
    closed_neighborhood_hypergraph,
    edge_hypergraph,
    is_rdf,
    is_rhf,
    is_rhs,
    mask_of,
    pair_from_json,
    pair_to_json,
    parse_graph_text,
    parse_hypergraph_text,
    serialize_graph_file,
    serialize_hypergraph_file,
    set_to_json,
    weight_assignment,
    weight_pair,
)
from romanhs.characterize import brute_minimal_rhf
from romanhs.errors import InputError
from romanhs.optimize import incidence_hypergraph
from romanhs.reduce import rhf_to_rhs


def eids(h, tokens):
    return frozenset(h.edge_id(t) for t in tokens)


def vids(h, tokens):
    return frozenset(h.vertex_id(t) for t in tokens)


class TestIncidence:
    def test_ex1_a(self):
        h = build_ex1()
        assert h.incidence_mask(h.vertex_id("a")) == mask_of(eids(h, ["1", "2", "4"]))

    def test_ex1_d(self):
        h = build_ex1()
        assert h.incidence_mask(h.vertex_id("d")) == mask_of(eids(h, ["5"]))

    def test_isolated_vertex(self):
        h = Hypergraph.build(["x", "y"], [("e", ["y"])])
        assert h.incidence_mask(h.vertex_id("x")) == 0


class TestWeights:
    def test_zero_assignment(self):
        assert weight_assignment((0,) * 5) == 0

    def test_single_two(self):
        h = build_ex2()
        assert weight_assignment(assignment_of(h, {"b": 2})) == 2

    def test_two_twos(self):
        h = build_ex2()
        assert weight_assignment(assignment_of(h, {"b": 2, "e": 2})) == 4

    def test_pair_weights(self):
        h1, h2 = build_ex1(), build_ex2()
        assert weight_pair(RhsPair(eids(h1, ["1", "2", "3"]), vids(h1, ["c"]))) == 5
        assert weight_pair(RhsPair(frozenset(), frozenset())) == 0
        assert weight_pair(RhsPair(eids(h2, ["5"]), vids(h2, ["b"]))) == 3


class TestValidity:
    def test_ex1_rhs(self):
        h = build_ex1()
        assert is_rhs(h, RhsPair(eids(h, ["1", "2", "3"]), vids(h, ["c"])))
        assert not is_rhs(h, RhsPair(frozenset(), frozenset()))
        assert is_rhs(h, RhsPair(frozenset(range(h.n_edges)), frozenset()))

    def test_ex2_rhf(self):
        h = build_ex2()
        tau = ex2_tau(h)
        assert is_rhf(h, tau, assignment_of(h, {"b": 2, "e": 2}))
        assert not is_rhf(h, tau, assignment_of(h, {"b": 2}))
        assert is_rhf(h, tau, (2,) * h.n_vertices)

    def test_rdf(self):
        p3 = path_graph(3)
        assert is_rdf(p3, assignment_of(p3, {"v1": 2}))
        assert not is_rdf(p3, assignment_of(p3, {"v0": 1}))
        k1 = Graph.build(["v"], [])
        assert not is_rdf(k1, (0,))
        assert is_rdf(k1, (1,))

    def test_rhf_forward_implies_rhs(self):
        # any rhf projects to an rhs via (tau-image of the 1s, the 2s)
        rng = random.Random(11)
        for _ in range(200):
            h = random_hypergraph(rng, 5, 5)
            tau = random_tau(rng, h)
            if tau is None:
                continue
            for f in all_assignments(h.n_vertices):
                if is_rhf(h, tau, f):
                    r1 = frozenset(
                        tau.mapping[x] for x in range(h.n_vertices) if f[x] == 1
                    )
                    r2 = frozenset(x for x in range(h.n_vertices) if f[x] == 2)
                    assert is_rhs(h, RhsPair(r1, r2))


def _two_vertex_instances():
    h = Hypergraph.build(["a", "b"], [("e", ["a", "b"])])
    return h, Correspondence((0, 0)), Graph.build(["a", "b"], [("a", "b")])


@pytest.mark.parametrize(
    "check, message",
    [
        (lambda h, tau, g: is_rhf(h, tau, (2, 0, 1)), "assignment has 3 entries, expected 2"),
        (lambda h, tau, g: is_rhf(h, tau, (2, 0, 2, 9)), "assignment has 4 entries, expected 2"),
        (lambda h, tau, g: is_rdf(g, (2,)), "assignment has 1 entries, expected 2"),
        (lambda h, tau, g: is_rdf(g, (2, 0, 0)), "assignment has 3 entries, expected 2"),
        (lambda h, tau, g: is_rhs(h, RhsPair({0, 5}, {9})), "R1 contains an out-of-range edge index"),
    ],
    ids=["rhf-too-long", "rhf-too-long-bad-value", "rdf-too-short", "rdf-too-long", "rhs-out-of-range"],
)
def test_validity_predicates_refuse_malformed_input(check, message):
    # each once answered, or raised IndexError, instead of refusing
    with pytest.raises(InputError) as exc:
        check(*_two_vertex_instances())
    assert str(exc.value) == message


def test_correspondence_validated_once_per_public_call(monkeypatch):
    h = build_ex2()
    tau = ex2_tau(h)
    f = assignment_of(h, {"b": 2, "e": 2})
    red = rhf_to_rhs(h, tau)
    pair = red.forward(f)
    calls = []
    validate = Correspondence.validate

    def counted(self, hg):
        calls.append(self)
        return validate(self, hg)

    monkeypatch.setattr(Correspondence, "validate", counted)
    assert brute_minimal_rhf(h, tau, f)
    assert len(calls) == 1
    calls.clear()
    assert red.backward(pair) == f
    assert calls == []


class TestClosedNeighborhoodHypergraph:
    def test_p3(self):
        g = path_graph(3)
        h, tau = closed_neighborhood_hypergraph(g)
        assert h.vertex_tokens == h.edge_tokens == ("v0", "v1", "v2")
        assert h.edge_members == (0b011, 0b111, 0b110)
        assert tau.mapping == (0, 1, 2)

    def test_k1(self):
        g = Graph.build(["v"], [])
        h, tau = closed_neighborhood_hypergraph(g)
        assert h.edge_members == (1,)
        assert tau.mapping == (0,)

    def test_same_as_the_constructor_builds(self):
        for g in atlas_graphs_upto(5):
            h = closed_neighborhood_hypergraph(g)[0]
            built = Hypergraph(h.vertex_tokens, h.edge_tokens, h.edge_members)
            assert h == built and repr(h) == repr(built)
            assert [h.incidence_mask(v) for v in range(h.n_vertices)] == [
                built.incidence_mask(v) for v in range(h.n_vertices)
            ]
            for t in g.vertex_tokens:
                assert h.vertex_id(t) == h.edge_id(t) == built.vertex_id(t)
            # the edge hypergraph is built in one pass over the edges, on the
            # masks the Roman vertex cover searches run on
            h = edge_hypergraph(g)
            built = Hypergraph(h.vertex_tokens, h.edge_tokens, h.edge_members)
            assert h == built and repr(h) == repr(built)
            assert _edge_masks(g) == (h.edge_members, h.incidence_masks)
            assert h.incidence_masks == built.incidence_masks
            assert [h.vertex_id(t) for t in h.vertex_tokens] == [
                built.vertex_id(t) for t in h.vertex_tokens
            ]
            assert [h.edge_id(t) for t in h.edge_tokens] == list(range(h.n_edges))
            # the incidence hypergraph is the same masks with roles swapped
            h = incidence_hypergraph(g)
            built = Hypergraph(h.vertex_tokens, h.edge_tokens, h.edge_members)
            assert h == built and repr(h) == repr(built)
            assert h.incidence_masks == built.incidence_masks
            assert [h.vertex_id(t) for t in h.vertex_tokens] == list(range(h.n_vertices))
            assert [h.edge_id(t) for t in h.edge_tokens] == list(range(h.n_edges))

    def test_rdf_equals_rhf_on_atlas(self):
        for g in atlas_graphs_upto(6):
            h, tau = closed_neighborhood_hypergraph(g)
            for f in all_assignments(g.n_vertices):
                assert is_rdf(g, f) == is_rhf(h, tau, f)


def _gnp_pairs(rng, n, p):
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def _graph_corpus():
    """Seeded G(n, p) with n <= 40, some given with reversed or shuffled
    pairs, plus the empty graph and graphs with isolated vertices."""
    yield Graph((), ())
    yield Graph(("a",), ())
    yield Graph(("a", "b", "c", "d"), ((2, 1),))
    rng = random.Random(30)
    for _ in range(60):
        n = rng.randint(0, 40)
        pairs = _gnp_pairs(rng, n, rng.choice((0.0, 0.05, 0.2, 0.5)))
        rng.shuffle(pairs)
        pairs = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in pairs]
        yield Graph(tuple(f"v{i}" for i in range(n)), tuple(pairs))


class TestGraphMasks:
    def test_stored_masks_equal_a_rebuild(self):
        for g in _graph_corpus():
            n = g.n_vertices
            closed = [1 << v for v in range(n)]
            inc = [0] * n
            for i, (u, v) in enumerate(g.edges):
                assert u < v
                closed[u] |= 1 << v
                closed[v] |= 1 << u
                inc[u] |= 1 << i
                inc[v] |= 1 << i
            members = tuple(1 << u | 1 << v for u, v in g.edges)
            assert _closed_masks(g) == (tuple(closed), tuple(closed), range(n))
            assert _edge_masks(g) == (members, tuple(inc))
            assert [g.neighbors_mask(v) for v in range(n)] == [
                c & ~(1 << v) for v, c in enumerate(closed)
            ]
            # every query reads the stored tuples, not copies
            assert _closed_masks(g) is _closed_masks(g)
            assert _edge_masks(g) is _edge_masks(g)

    @pytest.mark.parametrize("v", [-1, 3, 10**9])
    def test_neighbors_mask_refuses_ids_outside_the_graph(self, v):
        # as _vertex_mask does, rather than a negative shift or an index
        # error from the stored tuple
        g = Graph(("a", "b", "c"), ((0, 1), (1, 2)))
        with pytest.raises(InputError, match=f"unknown vertex id {v}"):
            g.neighbors_mask(v)

    def test_identity_ignores_the_stored_masks(self):
        for g in _graph_corpus():
            twin = Graph(g.vertex_tokens, tuple(reversed(g.edges)))
            fields = (g.vertex_tokens, g.edges)
            assert hash(g) == hash(fields)
            assert repr(g) == f"Graph(vertex_tokens={g.vertex_tokens!r}, edges={g.edges!r})"
            # pickling sends the fields alone; the constructor rebuilds the masks
            assert g.__reduce__() == (Graph, fields)
            back = pickle.loads(pickle.dumps(g))
            assert back == g and hash(back) == hash(g) and repr(back) == repr(g)
            assert _closed_masks(back) == _closed_masks(g)
            assert _edge_masks(back) == _edge_masks(g)
            if len(g.edges) > 1:
                # the same neighborhoods, other edge ids: unequal graphs
                assert _closed_masks(twin) == _closed_masks(g)
                assert twin != g

    def test_reversed_pairs_are_stored_in_order(self):
        g = Graph(("a", "b", "c"), ((1, 0), (2, 1)))
        assert g.edges == ((0, 1), (1, 2))
        built = Graph.build(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert g == built and hash(g) == hash(built)
        text = serialize_graph_file(GraphFile(g, (0, 0, 0), (2, 2, 2)))
        assert "gedge a b\ngedge b c" in text
        assert edge_hypergraph(g).edge_tokens == ("a~b", "b~c")


class TestConstruction:
    def test_duplicate_vertex_token(self):
        with pytest.raises(InputError, match="duplicate vertex token"):
            Hypergraph.build(["a", "a"], [])
        with pytest.raises(InputError, match="duplicate vertex token"):
            Graph.build(["a", "b", "a"], [("a", "b")])

    def test_duplicate_edge_token(self):
        with pytest.raises(InputError):
            Hypergraph.build(["a"], [("e", ["a"]), ("e", [])])

    def test_unknown_member(self):
        with pytest.raises(InputError):
            Hypergraph.build(["a"], [("e", ["z"])])

    def test_duplicate_edge_contents_allowed(self):
        h = Hypergraph.build(["a"], [("e1", ["a"]), ("e2", ["a"])])
        assert h.edge_members == (1, 1)

    def test_graph_rejects_self_loop_and_duplicate(self):
        with pytest.raises(InputError):
            Graph.build(["a"], [("a", "a")])
        with pytest.raises(InputError):
            Graph.build(["a", "b"], [("a", "b"), ("b", "a")])
        # the constructor, on id pairs in either order
        for pair in ((0, 0), (5, 5)):
            with pytest.raises(InputError, match="self-loop"):
                Graph(("a",), (pair,))
        for pair in ((0, 2), (2, 0), (-1, 0), (0, -1)):
            with pytest.raises(InputError, match="out of range"):
                Graph(("a", "b"), (pair,))
        for pairs in (((0, 1), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (0, 1))):
            with pytest.raises(InputError, match="duplicate edge"):
                Graph(("a", "b"), pairs)

    def test_correspondence_must_contain_vertex(self):
        h = build_ex1()
        with pytest.raises(InputError):
            Correspondence.from_tokens(h, {"a": "1", "b": "3", "c": "4", "d": "4"})

    def test_correspondence_must_cover_universe(self):
        h = build_ex1()
        with pytest.raises(InputError):
            Correspondence.from_tokens(h, {"a": "1"})

    def test_pair_validate(self):
        h = build_ex1()
        with pytest.raises(InputError):
            RhsPair(frozenset([99]), frozenset()).validate(h)
        with pytest.raises(InputError):
            RhsPair.from_tokens(h, ["nope"], [])

    def test_pair_refuses_negative_ids(self):
        with pytest.raises(InputError, match="R1 contains an out-of-range edge index"):
            RhsPair(frozenset({-1}), frozenset())
        with pytest.raises(InputError, match="R2 contains an out-of-range vertex id"):
            RhsPair(frozenset({0}), [3, -2])

    def test_pair_refuses_huge_ids_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(InputError, match="R1 contains an out-of-range edge index"):
                RhsPair({10**8}, ())
            with pytest.raises(InputError, match="R2 contains an out-of-range vertex id"):
                RhsPair((), [0, 1 << 20])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert RhsPair((), [(1 << 20) - 1]).r2m == 1 << ((1 << 20) - 1)


class TestPairViews:
    MASKS = [0, 0b1011, 1 << 63, (1 << 300) - 1, sum(1 << i for i in range(0, 300, 7))]

    @pytest.mark.parametrize("mask", MASKS)
    def test_view_matches_frozenset(self, mask):
        ids = [i for i in range(mask.bit_length()) if (mask >> i) & 1]
        view = RhsPair.from_masks(0, mask).r2
        assert list(view) == ids
        assert len(view) == len(ids)
        fs = frozenset(ids)
        assert view == fs and fs == view
        assert not view != fs and not fs != view
        assert hash(view) == hash(fs)
        assert {fs: 1}[view] == 1

    def test_view_membership(self):
        view = RhsPair.from_masks(0b101, 0).r1
        assert 0 in view and 2 in view and True not in view
        for x in (1, 3, 10**30, -1, -3, "0", 0.0, None, (0,)):
            assert x not in view

    def test_view_operators_return_frozensets(self):
        a = RhsPair.from_masks(0b0111, 0).r1
        b = RhsPair.from_masks(0b1100, 0).r1
        for got, want in [
            (a | b, {0, 1, 2, 3}),
            (a & b, {2}),
            (a - b, {0, 1}),
            (a ^ b, {0, 1, 3}),
            (a - {0}, {1, 2}),
            ({5} | a, {0, 1, 2, 5}),
            (frozenset({0, 9}) - a, {9}),
        ]:
            assert type(got) is frozenset and got == want
        assert a <= frozenset(range(4)) and not a.isdisjoint(b)

    def test_pair_from_sets_equals_from_masks(self):
        pair = RhsPair({3, 0}, [5])
        assert pair == RhsPair.from_masks(0b1001, 1 << 5)
        assert hash(pair) == hash(RhsPair.from_masks(0b1001, 1 << 5))
        assert (pair.r1m, pair.r2m) == (pair.r1_mask(), pair.r2_mask()) == (0b1001, 32)
        assert pair.r1 == {0, 3} and pair.r2 == {5}
        assert pair != RhsPair.from_masks(0b1001, 0)
        assert pair != (0b1001, 32)

    def test_pair_is_immutable(self):
        pair = RhsPair.from_masks(1, 2)
        for name in ("r1m", "r2m", "r1", "other"):
            with pytest.raises(AttributeError):
                setattr(pair, name, 0)
        with pytest.raises(AttributeError):
            del pair.r1m
        assert (pair.r1m, pair.r2m) == (1, 2)

    def test_pair_pickles(self):
        pair = RhsPair.from_masks((1 << 300) - 1, 0b110)
        for proto in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(pair, proto))
            assert type(back) is RhsPair and back == pair
            assert (back.r1m, back.r2m) == (pair.r1m, pair.r2m)


EX2_TEXT = """\
# worked instance
universe a b c d e
edge 1 a b
edge 2 b c
edge 3 b e
edge 4 b c d
edge 5 d e
tau a 1
tau b 1
tau c 2
tau d 4
tau e 3
assign b 2
preset2 b
"""


class TestFiles:
    def test_parse_ex2(self):
        hf = parse_hypergraph_text(EX2_TEXT)
        assert hf.hypergraph == build_ex2()
        assert hf.tau == ex2_tau(hf.hypergraph)
        assert hf.assignment == assignment_of(hf.hypergraph, {"b": 2})
        assert hf.preset == RhsPair.from_tokens(hf.hypergraph, [], ["b"])

    def test_roundtrip_is_fixpoint(self):
        hf = parse_hypergraph_text(EX2_TEXT)
        text = serialize_hypergraph_file(hf)
        again = parse_hypergraph_text(text)
        assert again == hf
        assert serialize_hypergraph_file(again) == text

    def test_empty_edge_and_empty_universe(self):
        hf = parse_hypergraph_text("universe\nedge e\n")
        assert hf.hypergraph.n_vertices == 0
        assert hf.hypergraph.edge_members == (0,)

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(InputError, match="line 2"):
            parse_hypergraph_text("universe a\nbogus x\n")
        with pytest.raises(InputError, match="line 3"):
            parse_hypergraph_text("universe a\nedge e a\nassign a 7\n")
        with pytest.raises(InputError, match="line 2"):
            parse_hypergraph_text("universe a\nuniverse a\n")

    def test_tau_must_cover(self):
        with pytest.raises(InputError):
            parse_hypergraph_text("universe a b\nedge e a b\ntau a e\n")

    def test_graph_file_roundtrip(self):
        text = "vertex a b c\ngedge a b\ngedge b c\nassign a 1\nupper c 0\n"
        gf = parse_graph_text(text)
        assert gf.graph.vertex_tokens == ("a", "b", "c")
        assert gf.assignment == (1, 0, 0)
        assert gf.upper == (2, 2, 0)
        assert parse_graph_text(serialize_graph_file(gf)) == gf

    def test_graph_unknown_directive(self):
        with pytest.raises(InputError, match="line 1"):
            parse_graph_text("edge a b\n")


@st.composite
def hypergraph_files(draw):
    nv = draw(st.integers(0, 5))
    ne = draw(st.integers(0, 5))
    names = [f"x{i}" for i in range(nv)]
    edges = []
    for i in range(ne):
        members = [t for t in names if draw(st.booleans())]
        edges.append((f"e{i}", members))
    h = Hypergraph.build(names, edges)
    # an empty-universe tau has no file representation, so skip it there
    tau = None
    if nv and ne and all(h.incidence_mask(x) for x in range(nv)):
        if draw(st.booleans()):
            mapping = tuple(
                draw(
                    st.sampled_from(
                        [i for i in range(ne) if (h.edge_members[i] >> x) & 1]
                    )
                )
                for x in range(nv)
            )
            tau = Correspondence(mapping)
    f = tuple(draw(st.integers(0, 2)) for _ in range(nv))
    r1m = draw(st.integers(0, max((1 << ne) - 1, 0)))
    r2m = draw(st.integers(0, max((1 << nv) - 1, 0)))
    return HypergraphFile(h, tau, f, RhsPair.from_masks(r1m, r2m))


@settings(deadline=None, max_examples=120)
@given(hypergraph_files())
def test_serialize_parse_roundtrip(hf):
    text = serialize_hypergraph_file(hf)
    again = parse_hypergraph_text(text)
    assert again == hf
    assert serialize_hypergraph_file(again) == text


def test_level_mask():
    assert _level_masks((0, 2, 1, 2), 4) == (0b0100, 0b1010)
    assert _level_masks(iter((1, 0)), 2) == (0b01, 0)
    assert _level_masks((), 0) == (0, 0)


def test_json_lines_equal_sorted_key_dumps():
    # the printers pass dict literals in sorted key order instead of
    # sort_keys, which must not change a byte of their lines
    h = build_ex1()
    tokens = h.vertex_tokens
    assert pair_to_json(h, RhsPair.from_tokens(h, ["2", "5"], ["b"])) == json.dumps(
        {"w": 4, "r2": ["b"], "r1": ["2", "5"]}, sort_keys=True
    )
    assert assignment_to_json(tokens, (2, 0, 1, 1)) == json.dumps(
        {"w": 4, "twos": ["a"], "ones": ["c", "d"]}, sort_keys=True
    )
    assert set_to_json(tokens, [3, 0, 3]) == json.dumps(
        {"size": 2, "set": ["a", "d"]}, sort_keys=True
    )
    lines = [pair_to_json(h, pair) for pair in all_pairs(h)]
    lines += [assignment_to_json(tokens, f) for f in all_assignments(h.n_vertices)]
    lines += [
        set_to_json(tokens, chosen)
        for k in range(h.n_vertices + 1)
        for chosen in itertools.combinations(range(h.n_vertices), k)
    ]
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


# the readers refuse what no writer emits; universe a b, edges e = {a}, f = {b}
JSON_H = Hypergraph.build(["a", "b"], [("e", ["a"]), ("f", ["b"])])


def test_json_pair_field_that_is_no_list_is_input_error():
    with pytest.raises(InputError, match="'r1' must be a list"):
        pair_from_json(JSON_H, '{"r1": 5, "r2": [], "w": 5}')


def test_json_pair_string_field_is_not_read_as_its_characters():
    with pytest.raises(InputError, match="'r1' must be a list"):
        pair_from_json(JSON_H, '{"r1": "ef", "r2": [], "w": 2}')


def test_json_pair_repeated_token_is_input_error():
    with pytest.raises(InputError, match="'r1' repeats a token"):
        pair_from_json(JSON_H, '{"r1": ["e", "e"], "r2": [], "w": 1}')


def test_json_assignment_nested_token_is_input_error():
    with pytest.raises(InputError, match="'ones' must be a list of tokens"):
        assignment_from_json(JSON_H.vertex_tokens, '{"ones": [["a"]], "twos": [], "w": 1}')


def test_json_assignment_string_field_is_not_read_as_its_characters():
    with pytest.raises(InputError, match="'twos' must be a list"):
        assignment_from_json(JSON_H.vertex_tokens, '{"twos": "ab", "w": 4}')


def test_json_assignment_token_at_two_levels_is_input_error():
    with pytest.raises(InputError, match="two levels"):
        assignment_from_json(JSON_H.vertex_tokens, '{"ones": ["a"], "twos": ["a"], "w": 2}')


def test_json_weight_true_is_not_the_weight_one():
    with pytest.raises(InputError, match="'w' must be an integer"):
        pair_from_json(JSON_H, '{"r1": ["e"], "r2": [], "w": true}')
    with pytest.raises(InputError, match="'w' must be an integer"):
        assignment_from_json(JSON_H.vertex_tokens, '{"ones": ["a"], "twos": [], "w": true}')


def test_json_readers_read_back_every_written_line():
    h = build_ex1()
    for pair in all_pairs(h):
        assert pair_from_json(h, pair_to_json(h, pair)) == pair
    for f in all_assignments(h.n_vertices):
        assert assignment_from_json(h.vertex_tokens, assignment_to_json(h.vertex_tokens, f)) == f


REIMPORT = """
import gc, sys, weakref
import romanhs, romanhs.cli
old = weakref.ref(romanhs.core.RhsPair)
for name in [m for m in sys.modules if m == "romanhs" or m.startswith("romanhs.")]:
    del sys.modules[name]
import romanhs, romanhs.cli
gc.collect()
sys.exit(0 if old() is None else 1)
"""


def test_reimport_releases_old_classes():
    # a module-level alias such as typing.Callable[[RhsPair], None] lands
    # in typing's caches and pins the old class, and through its methods
    # the whole old module, after every fresh import of the package
    src = str(Path(romanhs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", REIMPORT], env=env, timeout=120)
    assert proc.returncode == 0
