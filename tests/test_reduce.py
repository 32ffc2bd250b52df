"""Reduction web: offsets, mapper soundness, and exact correspondences."""

import random

import pytest

from romanhs.characterize import (
    is_minimal_rdf_theorem,
    is_minimal_rhf_theorem,
    is_minimal_rhs_theorem,
)
from romanhs.core import (
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    is_rdf,
    is_rhf,
    is_rhs,
    weight_assignment,
    weight_pair,
)
from romanhs.enumeration import brute_enumerate_minimal_rhs
from romanhs.errors import GuardRefused, InputError
from romanhs.extend import ext_ds_split, ext_rhs, is_minimal_dominating_set
from romanhs.reduce import (
    ds_split_to_rhs,
    is_hypergraph_rdf,
    rd_to_rhf,
    rhf_to_rd_gadget,
    rhf_to_rhs,
    rhs_to_rhf,
    two_section,
    vc_to_rvc,
)

from corpus import (
    all_assignments,
    brute_min_rdf_weight,
    brute_min_rhf_weight,
    brute_min_rhs_weight,
    brute_min_rvc_weight,
    brute_min_vc_size,
    build_ex1,
    build_ex2,
    complete_graph,
    connected_graphs_upto,
    ex2_tau,
    minimal_dominating_sets,
    path_graph,
    random_hypergraph,
    random_instance_with_tau,
    random_split_graph,
    star_graph,
)


# ---------------------------------------------------------------------------
# Roman domination as a hitting function


def test_rd_to_rhf_p3_bijection():
    g = path_graph(3)
    ro = rd_to_rhf(g)
    h, tau = ro.instance
    rdf_min = {f for f in all_assignments(3) if is_minimal_rdf_theorem(g, f)}
    rhf_min = {f for f in all_assignments(3) if is_minimal_rhf_theorem(h, tau, f)}
    assert rdf_min == rhf_min and rdf_min
    assert ro.offset == 0
    for f in rdf_min:
        assert ro.forward(f) == f and ro.backward(f) == f


def test_rd_to_rhf_backward_rejects_nonsolution():
    # the mapper raises on its own, so the check survives python -O
    g = path_graph(3)
    ro = rd_to_rhf(g)
    h, tau = ro.instance
    for f in all_assignments(3):
        if is_rhf(h, tau, f):
            assert ro.backward(f) == f
        else:
            with pytest.raises(InputError):
                ro.backward(f)
    with pytest.raises(InputError):
        ro.backward((2, 0))


def test_rd_to_rhf_k1():
    g = Graph.build(["v"], [])
    ro = rd_to_rhf(g)
    h, tau = ro.instance
    rdf_min = {f for f in all_assignments(1) if is_minimal_rdf_theorem(g, f)}
    rhf_min = {f for f in all_assignments(1) if is_minimal_rhf_theorem(h, tau, f)}
    assert rdf_min == rhf_min == {(1,)}


def test_rd_to_rhf_empty_graph():
    ro = rd_to_rhf(Graph.build([], []))
    h, tau = ro.instance
    assert h.n_vertices == 0 and h.n_edges == 0
    assert ro.forward(()) == ()


def test_rd_to_rhf_bijection_small_connected():
    for g in connected_graphs_upto(4):
        ro = rd_to_rhf(g)
        h, tau = ro.instance
        for f in all_assignments(g.n_vertices):
            assert is_minimal_rdf_theorem(g, f) == is_minimal_rhf_theorem(
                h, tau, f
            )
        assert brute_min_rdf_weight(g) == brute_min_rhf_weight(h, tau)


# ---------------------------------------------------------------------------
# Hitting function to hitting set (twinning)


def test_rhf_to_rhs_surjective_tau_unchanged():
    h = build_ex2()
    tau = Correspondence.from_tokens(
        h, {"a": "1", "b": "2", "c": "4", "d": "5", "e": "3"}
    )
    ro = rhf_to_rhs(h, tau)
    assert ro.instance.edge_tokens == h.edge_tokens
    assert ro.instance.edge_members == h.edge_members


def test_rhf_to_rhs_twin_token():
    h = build_ex1()
    # range misses edge "1", so exactly one twin appears
    tau = Correspondence.from_tokens(
        h, {"a": "2", "b": "3", "c": "4", "d": "5"}
    )
    ro = rhf_to_rhs(h, tau)
    assert ro.instance.n_edges == h.n_edges + 1
    assert ro.instance.edge_tokens[-1] == "1'"


def test_rhf_to_rhs_ex2():
    h = build_ex2()
    tau = ex2_tau(h)
    ro = rhf_to_rhs(h, tau)
    assert ro.instance.n_edges == 6
    assert ro.instance.edge_tokens[-1] == "5'"
    assert ro.offset == 0
    assert brute_min_rhf_weight(h, tau) == 4
    assert brute_min_rhs_weight(ro.instance) == 4


def test_rhf_to_rhs_empty_edge_rejected():
    h = Hypergraph.build(["x"], [("e", ["x"]), ("z", [])])
    tau = Correspondence((0,))
    with pytest.raises(InputError):
        rhf_to_rhs(h, tau)


def test_rhf_to_rhs_mappers_random():
    rng = random.Random(411)
    done = 0
    while done < 40:
        h, tau = random_instance_with_tau(rng, 5, 5)
        if any(m == 0 for m in h.edge_members):
            continue
        done += 1
        ro = rhf_to_rhs(h, tau)
        src = brute_min_rhf_weight(h, tau)
        dst = brute_min_rhs_weight(ro.instance)
        assert src == dst + ro.offset == dst
        # every minimal pair of the target maps back to a valid assignment
        for pair in brute_enumerate_minimal_rhs(ro.instance):
            f = ro.backward(pair)
            assert is_rhf(h, tau, f)
            assert weight_assignment(f) <= weight_pair(pair)
        # an optimal assignment maps forward at equal weight
        for f in all_assignments(h.n_vertices):
            if is_rhf(h, tau, f) and sum(f) == src:
                pair = ro.forward(f)
                assert is_rhs(ro.instance, pair)
                assert weight_pair(pair) <= sum(f)
                break


def test_rhf_to_rhs_backward_rejects_nonsolution():
    h = build_ex2()
    ro = rhf_to_rhs(h, ex2_tau(h))
    with pytest.raises(InputError):
        ro.backward(RhsPair(frozenset(), frozenset()))


# ---------------------------------------------------------------------------
# Hitting set to hitting function (decision gadget)


def test_rhs_to_rhf_ex2_shape_and_weight():
    h = build_ex2()
    ro = rhs_to_rhf(h, 3)
    target, tau2 = ro.instance
    assert target.n_vertices == 10 and target.n_edges == 6
    tau2.validate(target)
    assert brute_min_rhs_weight(h) == 3
    assert brute_min_rhf_weight(target, tau2) == 3


def test_rhs_to_rhf_budget_guard():
    h = build_ex2()
    with pytest.raises(GuardRefused):
        rhs_to_rhf(h, 5)
    with pytest.raises(GuardRefused):
        rhs_to_rhf(h, 99)
    with pytest.raises(InputError):
        rhs_to_rhf(h, -1)


def test_rhs_to_rhf_decision_equivalence_random():
    rng = random.Random(902)
    for _ in range(15):
        h = None
        while h is None or not h.n_edges:
            h = random_hypergraph(rng, 4, 4)
        src = brute_min_rhs_weight(h)
        for k in range(h.n_edges):
            ro = rhs_to_rhf(h, k)
            target, tau2 = ro.instance
            dst = brute_min_rhf_weight(target, tau2)
            assert (src <= k) == (dst is not None and dst <= k)


def test_rhs_to_rhf_mappers_round_trip():
    h = build_ex2()
    k = 3
    ro = rhs_to_rhf(h, k)
    target, tau2 = ro.instance
    pair = RhsPair.from_tokens(h, ["5"], ["b"])
    f = ro.forward(pair)
    assert is_rhf(target, tau2, f) and sum(f) == 3
    back = ro.backward(f)
    assert is_rhs(h, back) and weight_pair(back) <= 3
    heavy = RhsPair.from_tokens(h, ["1", "2", "3", "5"], [])
    with pytest.raises(InputError):
        ro.forward(heavy)


def test_rhs_to_rhf_forward_rejects_non_rhs():
    # the empty pair fits the budget but hits nothing; its image would be
    # the all-zero assignment, which is no hitting function
    h = Hypergraph.build(["a", "b"], [("1", ["a"]), ("2", ["b"]), ("3", ["a", "b"])])
    ro = rhs_to_rhf(h, 2)
    with pytest.raises(InputError, match="not a Roman hitting set"):
        ro.forward(RhsPair(frozenset(), frozenset()))


def test_rhs_to_rhf_token_freshening():
    h = Hypergraph.build(
        ["a", "e0"], [("a", ["a", "e0"]), ("e0", ["e0"])]
    )
    ro = rhs_to_rhf(h, 1)
    target, _ = ro.instance
    assert target.vertex_tokens == ("a", "e0", "a'", "e0'")
    assert target.edge_tokens == ("a", "e0", "a'")


# ---------------------------------------------------------------------------
# Hitting function to Roman domination (split-graph gadget)


def test_gadget_single_vertex():
    h = Hypergraph.build(["x"], [("e", ["x"])])
    tau = Correspondence((0,))
    ro = rhf_to_rd_gadget(h, tau)
    g = ro.instance
    assert g.vertex_tokens == ("a", "b", "c", "v_x", "w_e")
    assert ro.offset == 2
    assert brute_min_rhf_weight(h, tau) == 1
    assert brute_min_rdf_weight(g) == 3


def test_gadget_offset_random_corpus():
    rng = random.Random(317)
    done = 0
    while done < 25:
        h, tau = random_instance_with_tau(rng, 3, 2)
        if any(m == 0 for m in h.edge_members) or not h.n_edges:
            continue
        done += 1
        ro = rhf_to_rd_gadget(h, tau)
        src = brute_min_rhf_weight(h, tau)
        dst = brute_min_rdf_weight(ro.instance)
        assert dst == src + 2
        # optimal assignments map forward to optimal dominations
        for f in all_assignments(h.n_vertices):
            if is_rhf(h, tau, f) and sum(f) == src:
                gv = ro.forward(f)
                assert is_rdf(ro.instance, gv)
                assert weight_assignment(gv) == dst
                break
        for gv in all_assignments(ro.instance.n_vertices):
            if is_rdf(ro.instance, gv) and sum(gv) == dst:
                f = ro.backward(gv)
                assert is_rhf(h, tau, f) and sum(f) == src
                break


def test_gadget_backward_any_rdf():
    h = build_ex2()
    tau = ex2_tau(h)
    ro = rhf_to_rd_gadget(h, tau)
    g = ro.instance
    rng = random.Random(7)
    found = 0
    while found < 30:
        gv = tuple(rng.choice((0, 1, 2)) for _ in range(g.n_vertices))
        if not is_rdf(g, gv):
            continue
        found += 1
        f = ro.backward(gv)
        assert is_rhf(h, tau, f)
        assert weight_assignment(f) <= weight_assignment(gv) - 2


def test_gadget_is_split():
    from romanhs.reduce import _validate_split

    h = build_ex2()
    ro = rhf_to_rd_gadget(h, ex2_tau(h))
    g = ro.instance
    clique = {0} | {
        g.vertex_id(t) for t in g.vertex_tokens if t.startswith("v_")
    }
    indep = set(range(g.n_vertices)) - clique
    _validate_split(g, clique, indep)


def test_gadget_rejects_empty_edge():
    h = Hypergraph.build(["x"], [("e", ["x"]), ("z", [])])
    with pytest.raises(InputError):
        rhf_to_rd_gadget(h, Correspondence((0,)))


# ---------------------------------------------------------------------------
# Vertex cover to Roman vertex cover


def test_vc_to_rvc_k3():
    g = complete_graph(3)
    ro = vc_to_rvc(g)
    assert ro.instance.n_vertices == 6 and len(ro.instance.edges) == 6
    assert brute_min_vc_size(g) == 2
    assert brute_min_rvc_weight(ro.instance) == 5
    assert ro.offset == 3


def test_vc_to_rvc_single_edge_and_edgeless():
    g = path_graph(2)
    ro = vc_to_rvc(g)
    assert brute_min_vc_size(g) == 1
    assert brute_min_rvc_weight(ro.instance) == 3
    g0 = Graph.build(["p", "q", "r"], [])
    ro0 = vc_to_rvc(g0)
    assert brute_min_rvc_weight(ro0.instance) == 3


def test_vc_to_rvc_mappers_random():
    rng = random.Random(515)
    for _ in range(25):
        n = rng.randint(1, 6)
        names = [f"n{i}" for i in range(n)]
        edges = [
            (names[u], names[v])
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        ]
        g = Graph.build(names, edges)
        ro = vc_to_rvc(g)
        vc = brute_min_vc_size(g)
        assert brute_min_rvc_weight(ro.instance) == vc + n
        cover = frozenset(range(n)) if g.edges else frozenset()
        # shrink greedily to some minimal cover, then map forward
        for v in sorted(cover, reverse=True):
            cand = cover - {v}
            cm = 0
            for u in cand:
                cm |= 1 << u
            if all((cm >> a) & 1 or (cm >> b) & 1 for a, b in g.edges):
                cover = cand
        pair = ro.forward(cover)
        assert is_minimal_rhs_theorem(
            Hypergraph(
                ro.instance.vertex_tokens,
                tuple(f"E{i}" for i in range(len(ro.instance.edges))),
                tuple(
                    (1 << u) | (1 << v) for u, v in ro.instance.edges
                ),
            ),
            pair,
        )
        assert weight_pair(pair) == len(cover) + n
        back = ro.backward(pair)
        assert back == cover


def test_vc_to_rvc_forward_rejects_noncover():
    g = complete_graph(3)
    ro = vc_to_rvc(g)
    with pytest.raises(InputError):
        ro.forward([0])


def test_vc_to_rvc_token_freshening():
    g = Graph.build(["v", "v'"], [("v", "v'")])
    ro = vc_to_rvc(g)
    assert ro.instance.vertex_tokens == ("v", "v'", "v''", "v'''")


def test_vc_to_rvc_backward_normalizes():
    g = path_graph(2)  # vertices v0, v1; one edge
    ro = vc_to_rvc(g)
    # gadget edges: (v0,v1)=0, pendants (v0,v0')=1, (v1,v1')=2
    # putting the original edge in R1 forces a swap to a real cover
    pair = RhsPair(frozenset({0, 1, 2}), frozenset())
    back = ro.backward(pair)
    assert back == frozenset({0})
    # a pendant 2 gets traded for the cheaper R1 slot
    pair = RhsPair(frozenset({2}), frozenset({2, 1}))
    back = ro.backward(pair)
    assert back <= {0, 1} and back


# ---------------------------------------------------------------------------
# Split-graph domination and the hypergraph view


def test_ds_split_correspondence_star():
    g = star_graph(3)  # center c, leaves l0..l2
    center = g.vertex_id("c")
    leaves = set(range(g.n_vertices)) - {center}
    ro = ds_split_to_rhs(g, ({center}, leaves))
    minimal_pairs = {
        pair
        for pair in brute_enumerate_minimal_rhs(ro.instance)
    }
    minimal_ds = minimal_dominating_sets(g)
    assert {ro.backward(p) for p in minimal_pairs} == minimal_ds
    assert {ro.forward(d) for d in minimal_ds} == minimal_pairs


def test_ds_split_correspondence_random():
    rng = random.Random(628)
    for _ in range(30):
        g, clique_toks, indep_toks = random_split_graph(rng, 7)
        split = (
            {g.vertex_id(t) for t in clique_toks},
            {g.vertex_id(t) for t in indep_toks},
        )
        ro = ds_split_to_rhs(g, split)
        minimal_pairs = set(brute_enumerate_minimal_rhs(ro.instance))
        minimal_ds = minimal_dominating_sets(g)
        back = {ro.backward(p) for p in minimal_pairs}
        assert back == minimal_ds
        assert len(back) == len(minimal_pairs)
        for d in minimal_ds:
            assert ro.forward(d) in minimal_pairs


def test_ds_split_backward_rejects_nonsolution():
    # the empty pair hits no edge of the target, and the empty set
    # dominates nothing; the check survives python -O
    g = Graph.build(["c1", "c2", "i1", "i2"], [("c1", "c2"), ("c1", "i1"), ("c2", "i2")])
    ro = ds_split_to_rhs(g, ({0, 1}, {2, 3}))
    with pytest.raises(InputError):
        ro.backward(RhsPair(frozenset(), frozenset()))
    assert ro.backward(RhsPair(frozenset(), frozenset({0, 1}))) == frozenset({0, 1})


def test_ds_split_agrees_with_extension_solver():
    rng = random.Random(733)
    for _ in range(25):
        g, clique_toks, indep_toks = random_split_graph(rng, 7)
        split = (
            {g.vertex_id(t) for t in clique_toks},
            {g.vertex_id(t) for t in indep_toks},
        )
        ro = ds_split_to_rhs(g, split)
        u = {v for v in range(g.n_vertices) if rng.random() < 0.25}
        ans = ext_ds_split(g, (split[0], split[1]), u)
        hs_ans = ext_rhs(ro.instance, ro.forward(u))
        assert ans.decision == hs_ans.decision
        if ans.decision:
            assert is_minimal_dominating_set(g, ro.backward(hs_ans.witness))


def test_ds_split_invalid_partition():
    g = path_graph(3)
    with pytest.raises(InputError):
        ds_split_to_rhs(g, ({0, 1, 2}, set()))


# ---------------------------------------------------------------------------
# Two-section


def test_two_section_triangle():
    h = Hypergraph.build(["a", "b", "c"], [("e", ["a", "b", "c"])])
    g = two_section(h)
    assert set(g.edges) == {(0, 1), (0, 2), (1, 2)}


def test_two_section_ex1():
    h = build_ex1()
    g = two_section(h)
    want = {
        tuple(sorted((h.vertex_id(a), h.vertex_id(b))))
        for a, b in [("a", "b"), ("a", "c"), ("c", "d")]
    }
    assert set(g.edges) == want


def test_two_section_rejects_duplicates():
    h = Hypergraph.build(
        ["a", "b"], [("e1", ["a", "b"]), ("e2", ["a", "b"])]
    )
    with pytest.raises(InputError):
        two_section(h)


def test_two_section_rdf_equivalence():
    rng = random.Random(840)
    done = 0
    while done < 30:
        h = random_hypergraph(rng, 5, 4)
        if len(set(h.edge_members)) != h.n_edges:
            continue
        done += 1
        g = two_section(h)
        for f in all_assignments(h.n_vertices):
            assert is_hypergraph_rdf(h, f) == is_rdf(g, f)
