import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    all_assignments,
    all_pairs,
    assignment_of,
    build_ex1,
    build_ex2,
    complete_graph,
    connected_graphs_upto,
    ex2_tau,
    path_graph,
    random_hypergraph,
    random_instance_with_tau,
    random_pair,
    star_graph,
)
from romanhs import characterize, core, extend
from romanhs.characterize import (
    brute_minimal_po_rdf,
    brute_minimal_rdf,
    brute_minimal_rhf,
    brute_minimal_rhs,
    is_minimal_rdf_theorem,
    is_minimal_rhf_theorem,
    is_minimal_rhs_theorem,
    is_po_minimal_rdf_theorem,
    minimal_rdf_violation,
    minimal_rhf_violation,
    minimal_rhs_violation,
    po_minimal_rdf_violation,
    private_neighborhood,
)
from romanhs.core import (
    BoundedRdInstance,
    Graph,
    RhsPair,
    closed_neighborhood_hypergraph,
    is_rdf,
    is_rhf,
    is_rhs,
)
from romanhs.enumeration import gen_random, iter_minimal_rhs
from romanhs.errors import InputError
from romanhs.extend import (
    bounded_ext_rd,
    is_minimal_dominating_set,
)


# Literal references: scan the whole downward closure instead of single
# steps, so the oracles' single-step shortcut is itself under test.


def closure_minimal_rhs(h, pair):
    if not is_rhs(h, pair):
        return False
    r1, r2 = sorted(pair.r1), sorted(pair.r2)
    for k1 in range(len(r1) + 1):
        for p1 in itertools.combinations(r1, k1):
            for k2 in range(len(r2) + 1):
                for p2 in itertools.combinations(r2, k2):
                    sub = RhsPair(frozenset(p1), frozenset(p2))
                    if sub != pair and is_rhs(h, sub):
                        return False
    return True


def closure_minimal_rhf(h, tau, f):
    if not is_rhf(h, tau, f):
        return False
    for g in itertools.product(*[range(v + 1) for v in f]):
        if g != f and is_rhf(h, tau, g):
            return False
    return True


def closure_minimal_rdf(g, f):
    if not is_rdf(g, f):
        return False
    for low in itertools.product(*[range(v + 1) for v in f]):
        if low != f and is_rdf(g, low):
            return False
    return True


def closure_minimal_po_rdf(g, f):
    if not is_rdf(g, f):
        return False
    nonzero = [x for x, v in enumerate(f) if v]
    for k in range(1, len(nonzero) + 1):
        for drop in itertools.combinations(nonzero, k):
            low = tuple(0 if x in drop else v for x, v in enumerate(f))
            if is_rdf(g, low):
                return False
    return True


class TestPrivateNeighborhood:
    def test_p3_singleton(self):
        g = path_graph(3)
        assert private_neighborhood(g, {1}, 1) == {0, 1, 2}

    def test_p3_endpoints(self):
        g = path_graph(3)
        assert private_neighborhood(g, {0, 2}, 0) == {0}

    def test_k2_both(self):
        g = complete_graph(2)
        assert private_neighborhood(g, {0, 1}, 0) == frozenset()
        assert private_neighborhood(g, {0, 1}, 1) == frozenset()

    def test_requires_membership(self):
        g = path_graph(3)
        with pytest.raises(InputError):
            private_neighborhood(g, {1}, 0)

    def test_unknown_vertex_is_input_error(self):
        # ids outside the graph are refused, not read past the masks
        g = path_graph(3)
        for call in (
            lambda: private_neighborhood(g, [1, 7], 1),
            lambda: private_neighborhood(g, [-1, 1], 1),
            lambda: private_neighborhood(g, [1], -1),
        ):
            with pytest.raises(InputError):
                call()


class TestMinimalRdf:
    def test_p3_all_minimal_rdfs(self):
        g = path_graph(3)
        got = {f for f in all_assignments(3) if is_minimal_rdf_theorem(g, f)}
        assert got == {(0, 2, 0), (1, 0, 2), (2, 0, 1), (1, 1, 1)}

    def test_k1(self):
        g = Graph.build(["v"], [])
        assert is_minimal_rdf_theorem(g, (1,))
        assert not is_minimal_rdf_theorem(g, (2,))
        assert not is_minimal_rdf_theorem(g, (0,))

    def test_two_adjacent_twos_fail_privacy(self):
        g = path_graph(3)
        assert (
            minimal_rdf_violation(g, (2, 2, 0))
            == "two-vertex-without-private-neighbor"
        )

    def test_adjacent_one_and_two(self):
        g = path_graph(3)
        assert minimal_rdf_violation(g, (1, 2, 0)) == "one-adjacent-to-two"
        assert po_minimal_rdf_violation(g, (1, 2, 0)) == "one-adjacent-to-two"

    def test_p4_double_two(self):
        g = path_graph(4)
        f = (0, 2, 2, 0)
        assert is_po_minimal_rdf_theorem(g, f)
        assert is_minimal_rdf_theorem(g, f)

    def test_po_strictly_weaker(self):
        # all-ones is PO-minimal on K2 but not minimal (lowering 1->0 twice
        # is not a PO move, but 2,0 <= would not apply... the star shows it)
        g = star_graph(2)
        f = (2, 1, 1)
        assert not is_minimal_rdf_theorem(g, f)
        assert not is_po_minimal_rdf_theorem(g, f)
        got_po = {f for f in all_assignments(3) if is_po_minimal_rdf_theorem(g, f)}
        got_min = {f for f in all_assignments(3) if is_minimal_rdf_theorem(g, f)}
        assert got_min <= got_po


class TestMinimalRhs:
    def test_ex1_pair(self):
        h = build_ex1()
        pair = RhsPair.from_tokens(h, ["1", "2", "3"], ["c"])
        assert is_minimal_rhs_theorem(h, pair)
        assert brute_minimal_rhs(h, pair)

    def test_ex1_disjointness_violation(self):
        h = build_ex1()
        pair = RhsPair.from_tokens(h, ["1"], ["a"])
        assert minimal_rhs_violation(h, pair) == "r1-edge-hit-by-r2"

    def test_all_r1_pair_is_minimal(self):
        h = build_ex1()
        pair = RhsPair(frozenset(range(h.n_edges)), frozenset())
        assert is_minimal_rhs_theorem(h, pair)

    def test_unhit_and_redundant_codes(self):
        h = build_ex1()
        assert minimal_rhs_violation(h, RhsPair(frozenset(), frozenset())) == "unhit-edge"
        full = RhsPair.from_tokens(h, ["1", "2", "3", "4", "5"], ["d"])
        assert minimal_rhs_violation(h, full) in (
            "r1-edge-hit-by-r2",
            "redundant-r2-vertex",
        )


class TestMinimalRhf:
    def test_ex2_witnessed_minimum(self):
        h = build_ex2()
        tau = ex2_tau(h)
        f = assignment_of(h, {"b": 2, "e": 2})
        assert is_minimal_rhf_theorem(h, tau, f)
        assert brute_minimal_rhf(h, tau, f)

    def test_tau_collision_code(self):
        h = build_ex2()
        tau = ex2_tau(h)
        f = assignment_of(h, {"a": 1, "b": 1})
        assert minimal_rhf_violation(h, tau, f) == "tau-collision-on-ones"

    def test_one_on_hit_edge_code(self):
        h = build_ex2()
        tau = ex2_tau(h)
        f = assignment_of(h, {"a": 1, "b": 2})
        assert minimal_rhf_violation(h, tau, f) == "one-vertex-edge-hit-by-two"

    def test_gnb_matches_rdf_checkers(self):
        for g in [path_graph(3), path_graph(4), complete_graph(3), star_graph(3)]:
            h, tau = closed_neighborhood_hypergraph(g)
            for f in all_assignments(g.n_vertices):
                assert is_minimal_rhf_theorem(h, tau, f) == is_minimal_rdf_theorem(
                    g, f
                )
                ones = frozenset(x for x, v in enumerate(f) if v == 1)
                twos = frozenset(x for x, v in enumerate(f) if v == 2)
                assert is_minimal_rhs_theorem(
                    h, RhsPair(ones, twos)
                ) == is_po_minimal_rdf_theorem(g, f)


class TestOracleAgreement:
    def test_ex1_all_pairs_three_way(self):
        h = build_ex1()
        for pair in all_pairs(h):
            ref = closure_minimal_rhs(h, pair)
            assert brute_minimal_rhs(h, pair) == ref
            assert is_minimal_rhs_theorem(h, pair) == ref

    def test_ex2_all_assignments_three_way(self):
        h = build_ex2()
        tau = ex2_tau(h)
        for f in all_assignments(h.n_vertices):
            ref = closure_minimal_rhf(h, tau, f)
            assert brute_minimal_rhf(h, tau, f) == ref
            assert is_minimal_rhf_theorem(h, tau, f) == ref

    def test_small_graphs_three_way(self):
        for g in connected_graphs_upto(3) + [path_graph(4), star_graph(3)]:
            for f in all_assignments(g.n_vertices):
                ref = closure_minimal_rdf(g, f)
                assert brute_minimal_rdf(g, f) == ref
                assert is_minimal_rdf_theorem(g, f) == ref
                po_ref = closure_minimal_po_rdf(g, f)
                assert brute_minimal_po_rdf(g, f) == po_ref
                assert is_po_minimal_rdf_theorem(g, f) == po_ref

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**9))
    def test_random_rhs_pairs(self, seed):
        rng = random.Random(seed)
        h = random_hypergraph(rng, 5, 5)
        for _ in range(10):
            pair = random_pair(rng, h)
            ref = closure_minimal_rhs(h, pair)
            assert brute_minimal_rhs(h, pair) == ref
            assert is_minimal_rhs_theorem(h, pair) == ref

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 10**9))
    def test_random_rhf_assignments(self, seed):
        rng = random.Random(seed)
        h, tau = random_instance_with_tau(rng, 5, 5)
        for _ in range(10):
            f = tuple(rng.choice((0, 0, 1, 2)) for _ in range(h.n_vertices))
            ref = closure_minimal_rhf(h, tau, f)
            assert brute_minimal_rhf(h, tau, f) == ref
            assert is_minimal_rhf_theorem(h, tau, f) == ref


class TestGuards:
    # The definition-level oracles make polynomially many validity checks,
    # so they take no size guard: they answer at any size, and agree with
    # the theorem checkers on instances larger than a guard would allow.

    def test_rhs_guard(self):
        h = gen_random(25, 12, 0.2, seed=5).hypergraph
        rng = random.Random(5)
        pairs = [RhsPair(frozenset(), frozenset())]
        pairs += itertools.islice(iter_minimal_rhs(h), 10)
        pairs += [random_pair(rng, h) for _ in range(30)]
        verdicts = [brute_minimal_rhs(h, p) for p in pairs]
        assert verdicts == [is_minimal_rhs_theorem(h, p) for p in pairs]
        assert set(verdicts) == {False, True}

    def test_rdf_guard(self):
        g = path_graph(13)
        rng = random.Random(13)
        fs = [(1,) * 13, (0, 2, 0) * 4 + (1,)]
        fs += [tuple(rng.choice((0, 1, 2)) for _ in range(13)) for _ in range(40)]
        verdicts = [brute_minimal_rdf(g, f) for f in fs]
        assert verdicts == [is_minimal_rdf_theorem(g, f) for f in fs]
        assert [brute_minimal_po_rdf(g, f) for f in fs] == [
            is_po_minimal_rdf_theorem(g, f) for f in fs
        ]
        assert set(verdicts) == {False, True}


def _graph_answers(g):
    """Every graph check's answer on every assignment, vertex set and
    bounded instance of g; a record a monkeypatched library must repeat."""
    n = g.n_vertices
    fs = list(all_assignments(n))
    sets = [[v for v in range(n) if m >> v & 1] for m in range(1 << n)]
    out = [
        [is_rdf(g, f) for f in fs],
        [minimal_rdf_violation(g, f) for f in fs],
        [po_minimal_rdf_violation(g, f) for f in fs],
        [brute_minimal_rdf(g, f) for f in fs],
        [brute_minimal_po_rdf(g, f) for f in fs],
        [is_minimal_dominating_set(g, d) for d in sets],
        [private_neighborhood(g, d, v) for d in sets for v in d],
    ]
    # every lower bound below a cap of 0 or 2 per vertex, or of 1 everywhere,
    # and one crossed pair
    ups = [up for up in fs if 1 not in up] + [(1,) * n]
    boxes = [(lo, up) for up in ups for lo in fs if all(map(int.__le__, lo, up))]
    boxes.append(((2,) * n, (1,) * n))
    out.append([bounded_ext_rd(BoundedRdInstance.build(g, lo, up)) for lo, up in boxes])
    return out


def test_graph_checks_build_no_hypergraph(monkeypatch):
    # the graph checks run the mask cores on the closed neighborhoods; none
    # of them builds the closed-neighborhood hypergraph
    graphs = [
        Graph(tuple(f"v{i}" for i in range(n)), edges)
        for n in range(1, 5)
        for k in range(len(list(itertools.combinations(range(n), 2))) + 1)
        for edges in itertools.combinations(itertools.combinations(range(n), 2), k)
    ]
    assert len(graphs) == 1 + 2 + 8 + 64
    expected = [_graph_answers(g) for g in graphs]

    def refuse(g):
        raise AssertionError("a graph check built the closed-neighborhood hypergraph")

    for module in (core, characterize, extend):
        monkeypatch.setattr(module, "closed_neighborhood_hypergraph", refuse, raising=False)
    assert [_graph_answers(g) for g in graphs] == expected
