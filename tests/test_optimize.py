"""Optimizers: greedy bounds, exact minima vs brute force, RVC and REC."""

import math
import random

import pytest

from romanhs.core import (
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    is_rhf,
    is_rhs,
    weight_pair,
)
from romanhs.enumeration import (
    brute_enumerate_minimal_rhs,
    enumerate_minimal_rhs,
    gen_tight,
)
from romanhs.errors import InputError
from romanhs.optimize import (
    edge_hypergraph,
    exact_min_rhf,
    exact_min_rhs,
    greedy_rhf,
    greedy_rhs,
    incidence_hypergraph,
    rec_min,
    rvc_decide,
    rvc_enumerate,
    _rvc_decide_counted,
)

from corpus import (
    all_pairs,
    brute_min_rhf_weight,
    brute_min_rhs_weight,
    brute_min_rvc_weight,
    build_ex1,
    build_ex2,
    complete_graph,
    connected_graphs_upto,
    ex2_tau,
    path_graph,
    random_hypergraph,
    random_instance_with_tau,
    star_graph,
)


# ---------------------------------------------------------------------------
# Greedy


def test_greedy_ex1():
    h = build_ex1()
    pair, w = greedy_rhs(h)
    assert pair == RhsPair.from_tokens(h, [], ["a", "b", "c"])
    assert w == 6


def test_greedy_single_edge():
    h = Hypergraph.build(["x"], [("e", ["x"])])
    pair, w = greedy_rhs(h)
    assert pair == RhsPair(frozenset(), frozenset({0})) and w == 2


def test_greedy_tight_ratio_two():
    for n in range(1, 7):
        h = gen_tight(n)
        pair, w = greedy_rhs(h)
        assert w == 2 * n
        assert exact_min_rhs(h).weight == n


def test_greedy_empty_edges_to_r1():
    h = Hypergraph.build(["x"], [("e", ["x"]), ("z", [])])
    pair, w = greedy_rhs(h)
    assert pair == RhsPair(frozenset({1}), frozenset({0})) and w == 3
    with pytest.raises(InputError):
        greedy_rhf(h, Correspondence((0,)))


def test_greedy_ratio_bound_random():
    rng = random.Random(1009)
    for _ in range(60):
        h = random_hypergraph(rng, 6, 6)
        pair, w = greedy_rhs(h)
        assert is_rhs(h, pair)
        opt = exact_min_rhs(h).weight
        bound = 2 * (math.log(max(h.n_edges, 1)) + 1)
        assert w <= bound * opt or (opt == 0 and w == 0)


def test_greedy_rhf_matches_cover():
    h = build_ex2()
    tau = ex2_tau(h)
    f, w = greedy_rhf(h, tau)
    assert is_rhf(h, tau, f)
    assert set(f) <= {0, 2}
    opt = exact_min_rhf(h, tau).weight
    assert w <= 2 * (math.log(h.n_edges) + 1) * opt


# ---------------------------------------------------------------------------
# Exact minimum rhs


def test_exact_ex2():
    h = build_ex2()
    res = exact_min_rhs(h)
    assert res.weight == 3
    assert res.witness == RhsPair.from_tokens(h, ["5"], ["b"])


def test_exact_ex1():
    res = exact_min_rhs(build_ex1())
    assert res.weight == 4


def test_exact_tight_closed_at_root():
    for n in range(1, 9):
        h = gen_tight(n)
        res = exact_min_rhs(h)
        assert res.weight == n
        assert res.witness == RhsPair(frozenset(range(n)), frozenset())
        assert res.nodes == 1


def test_exact_degenerate():
    res = exact_min_rhs(Hypergraph.build([], []))
    assert res.weight == 0 and res.witness == RhsPair(frozenset(), frozenset())
    h = Hypergraph.build([], [("e1", []), ("e2", [])])
    res = exact_min_rhs(h)
    assert res.weight == 2 and res.witness.r1 == frozenset({0, 1})


def test_exact_vs_brute_random():
    rng = random.Random(2017)
    for _ in range(80):
        h = random_hypergraph(rng, 6, 6)
        res = exact_min_rhs(h)
        assert res.weight == brute_min_rhs_weight(h)
        assert is_rhs(h, res.witness)
        assert weight_pair(res.witness) == res.weight
        # witness of minimum weight over minimal pairs agrees too
        pairs = brute_enumerate_minimal_rhs(h)
        assert res.weight == min(weight_pair(p) for p in pairs)
        assert res.nodes <= 2 ** (h.n_vertices + h.n_edges)


# ---------------------------------------------------------------------------
# Exact minimum rhf


def test_exact_rhf_ex2():
    h = build_ex2()
    res = exact_min_rhf(h, ex2_tau(h))
    assert res.weight == 4
    assert is_rhf(h, ex2_tau(h), res.witness)
    assert sum(res.witness) == 4


def test_exact_rhf_single_edge():
    h = Hypergraph.build(["x"], [("e", ["x"])])
    res = exact_min_rhf(h, Correspondence((0,)))
    assert res.weight == 1 and res.witness == (1,)


def test_exact_rhf_vs_brute_random():
    rng = random.Random(3023)
    done = 0
    while done < 50:
        h, tau = random_instance_with_tau(rng, 5, 5)
        if any(m == 0 for m in h.edge_members):
            continue
        done += 1
        res = exact_min_rhf(h, tau)
        assert res.weight == brute_min_rhf_weight(h, tau)
        assert is_rhf(h, tau, res.witness)


def test_exact_rhf_surjective_tau_equals_rhs():
    rng = random.Random(4027)
    done = 0
    while done < 30:
        h, tau = random_instance_with_tau(rng, 5, 5)
        if any(m == 0 for m in h.edge_members):
            continue
        if tau.range_mask != h.all_edges_mask:
            continue
        done += 1
        assert exact_min_rhf(h, tau).weight == exact_min_rhs(h).weight


def test_exact_rhf_rejects_empty_edge():
    h = Hypergraph.build(["x"], [("e", ["x"]), ("z", [])])
    with pytest.raises(InputError):
        exact_min_rhf(h, Correspondence((0,)))


# ---------------------------------------------------------------------------
# Roman vertex cover


def test_rvc_decide_k3():
    g = complete_graph(3)
    assert rvc_decide(g, 3)
    assert not rvc_decide(g, 2)


def test_rvc_decide_base_cases():
    single = path_graph(2)
    assert rvc_decide(single, 1)
    assert not rvc_decide(single, 0)
    edgeless = Graph.build(["u", "v"], [])
    assert rvc_decide(edgeless, 0)
    with pytest.raises(InputError):
        rvc_decide(single, -1)


def test_rvc_decide_vs_brute():
    rng = random.Random(5051)
    graphs = connected_graphs_upto(4)
    for _ in range(10):
        n = rng.randint(1, 5)
        names = [f"n{i}" for i in range(n)]
        edges = [
            (names[u], names[v])
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        graphs.append(Graph.build(names, edges))
    for g in graphs:
        opt = brute_min_rvc_weight(g)
        for k in range(2 * g.n_vertices + 1):
            ans, nodes = _rvc_decide_counted(g, k)
            assert ans == (opt <= k)
            assert nodes <= 3 * 2**k


def test_rvc_enumerate_single_edge():
    g = path_graph(2)
    got = []
    rvc_enumerate(g, 2, got.append)
    assert set(got) == {
        RhsPair(frozenset({0}), frozenset()),
        RhsPair(frozenset(), frozenset({0})),
        RhsPair(frozenset(), frozenset({1})),
    }


def test_rvc_enumerate_k3_and_edgeless():
    got = []
    rvc_enumerate(complete_graph(3), 2, got.append)
    assert got == []
    got = []
    rvc_enumerate(Graph.build(["u"], []), 5, got.append)
    assert got == [RhsPair(frozenset(), frozenset())]


def _sampled_graph(n: int, m: int, seed: int) -> Graph:
    rng = random.Random(seed)
    slots = [(u, v) for u in range(n) for v in range(u + 1, n)]
    names = [f"v{i}" for i in range(n)]
    edges = sorted(rng.sample(slots, m))
    return Graph.build(names, [(names[u], names[v]) for u, v in edges])


def test_rvc_enumerate_cap_guarantee():
    # what holds under the cap: the light minimal covers exactly, found
    # inside the uncapped search, whose node count bounds every gap
    for n, m, seed in ((8, 10, 1), (10, 14, 3), (12, 18, 2)):
        g = _sampled_graph(n, m, seed)
        every = []
        uncapped = enumerate_minimal_rhs(edge_hypergraph(g), sink=every.append)
        for k in range(0, 2 * n + 1, 3):
            got = []
            stats = rvc_enumerate(g, k, got.append)
            assert len(got) == len(set(got)) == stats.emitted
            assert set(got) == {p for p in every if weight_pair(p) <= k}
            assert stats.nodes <= uncapped.nodes
            assert stats.max_gap <= uncapped.nodes
    # what does not: the uncapped linear delay bound 2(|X|+|I|)+2
    stats = rvc_enumerate(_sampled_graph(12, 18, 2), 12)
    assert stats.max_gap == 75 > 2 * (12 + 18) + 2


def test_rvc_enumerate_vs_brute():
    rng = random.Random(6067)
    for _ in range(20):
        n = rng.randint(1, 5)
        names = [f"n{i}" for i in range(n)]
        edges = [
            (names[u], names[v])
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        g = Graph.build(names, edges)
        h = edge_hypergraph(g)
        every = brute_enumerate_minimal_rhs(h)
        for k in range(0, 7):
            got = []
            rvc_enumerate(g, k, got.append)
            want = {p for p in every if weight_pair(p) <= k}
            assert set(got) == want and len(got) == len(want)


def test_edge_hypergraph_tokens():
    h = edge_hypergraph(path_graph(3))
    assert h.edge_tokens == ("v0~v1", "v1~v2")
    assert h.vertex_tokens == ("v0", "v1", "v2")


# ---------------------------------------------------------------------------
# Roman edge cover


def test_rec_min_examples():
    res = rec_min(complete_graph(3))
    assert res.weight == 3
    assert res.witness == RhsPair(frozenset({0, 1, 2}), frozenset())
    assert rec_min(Graph.build([], [])).weight == 0


def test_rec_min_scan():
    for g in (path_graph(3), complete_graph(3), star_graph(3)):
        h = incidence_hypergraph(g)
        assert h.n_vertices + h.n_edges <= 14
        best = min(
            weight_pair(p) for p in all_pairs(h) if is_rhs(h, p)
        )
        assert best == g.n_vertices == rec_min(g).weight


def test_incidence_hypergraph_shape():
    g = star_graph(2)
    h = incidence_hypergraph(g)
    assert h.vertex_tokens == ("c~l0", "c~l1")
    assert h.edge_tokens == ("c", "l0", "l1")
    assert h.edge_members == (0b11, 0b01, 0b10)
