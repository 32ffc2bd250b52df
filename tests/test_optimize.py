"""Optimizers: greedy bounds, exact minima vs brute force, RVC and REC."""

import math
import random
from itertools import combinations

import pytest

from romanhs import core
from romanhs.core import (
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    edge_hypergraph,
    is_rhf,
    is_rhs,
    mask_of,
    weight_pair,
)
from romanhs.enumeration import (
    _degree_prunes,
    _load_order,
    _packing_bound,
    brute_enumerate_minimal_rhs,
    enumerate_minimal_rhs,
    gen_random,
    gen_tight,
)
from romanhs.errors import InputError
from romanhs.optimize import (
    OptResult,
    _min_rhs_search,
    _repack,
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
from test_optimize_golden import FIXED


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


def _rescan_cover(h):
    """The greedy rule by rescanning every vertex against every live edge."""
    live = sorted({m for m in h.edge_members if m})
    chosen = []
    while live:
        best_x, best_cover = -1, 0
        for x in range(h.n_vertices):
            cover = sum(1 for m in live if (m >> x) & 1)
            if cover > best_cover:
                best_x, best_cover = x, cover
        chosen.append(best_x)
        live = [m for m in live if not (m >> best_x) & 1]
    return frozenset(chosen)


def _relabelled_path(n, seed):
    """A path on n vertices whose ids are shuffled by the seed: edge k
    holds the k-th and (k+1)-th vertices of the shuffle."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    tokens = [f"p{k}" for k in range(1, n + 1)]
    return Hypergraph.build(
        tokens, [(f"q{k}", [tokens[order[k]], tokens[order[k + 1]]]) for k in range(n - 1)]
    )


def test_greedy_matches_rescan_rule():
    """The bucket greedy picks what a rescan of every vertex picks, on
    small seeded instances and on larger ones where many vertices tie and
    counts drop across several buckets at each pick."""
    rng = random.Random(4242)
    for _ in range(200):
        nv, ne = rng.randint(0, 25), rng.randint(0, 30)
        h = gen_random(nv, ne, rng.choice((0.05, 0.1, 0.2, 0.4)), rng.randrange(10**6)).hypergraph
        assert greedy_rhs(h)[0].r2 == _rescan_cover(h)
    for h in (
        _relabelled_path(200, 13),
        _relabelled_path(200, 26),
        gen_random(34, 68, 0.1, 3).hypergraph,
        gen_random(60, 120, 0.08, 12).hypergraph,
    ):
        assert greedy_rhs(h)[0].r2 == _rescan_cover(h)


def test_greedy_path_witness():
    # every vertex but the ends ties at two edges: each pick takes the
    # lowest vertex of count 2, which leaves its right neighbour at one
    n = 200
    h = Hypergraph.build(
        [f"p{k}" for k in range(1, n + 1)], [(f"q{k}", [f"p{k}", f"p{k + 1}"]) for k in range(1, n)]
    )
    pair, w = greedy_rhs(h)
    assert pair == RhsPair(frozenset(), frozenset(range(1, n - 2, 2)) | {n - 2})
    assert w == n


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


def _degree_bound(inc, livev, live_e):
    """ceil(2d / max(2, maxdeg)) for the d live edges, walking every live
    vertex: the full value that the searches only compare against what
    they still need."""
    delta = 2
    for x in core.bits(livev):
        delta = max(delta, (inc[x] & live_e).bit_count())
    return -(-2 * live_e.bit_count() // delta)


def _root_bounds(h, order=None):
    """The degree and packing bounds at the root; packing by index by default."""
    inc = [h.incidence_mask(x) for x in range(h.n_vertices)]
    livev, live_e = (1 << h.n_vertices) - 1, h.all_edges_mask
    if order is None:
        order = range(h.n_edges)
    return (
        _degree_bound(inc, livev, live_e),
        _packing_bound(h.edge_members, order, livev, live_e),
    )


def test_lower_bounds_are_sound():
    rng = random.Random(5)
    for _ in range(200):
        h = random_hypergraph(rng, 10, 12)
        opt = brute_min_rhs_weight(h)
        degree, packing = _root_bounds(h)
        assert degree <= opt
        assert packing <= opt
        # the enumerator's cap prune packs in load order
        assert _root_bounds(h, _load_order(h.edge_members, h.incidence_masks))[1] <= opt


def test_degree_prunes_matches_the_full_bound():
    """The enumerator's short-circuit predicate answers as the full
    covering bound compared against need, for every need from -1 to one
    past the live edge count, so on both sides of each ceil(2d / k), on
    seeded live vertex and edge sets with and without degree-3 vertices."""
    rng = random.Random(2828)
    kinds = set()
    for _ in range(400):
        nv, ne = rng.randint(1, 14), rng.randint(0, 24)
        members = [mask_of(v for v in range(nv) if rng.random() < rng.choice((0.1, 0.3, 0.5))) for _ in range(ne)]
        inc = [mask_of(i for i, m in enumerate(members) if m >> v & 1) for v in range(nv)]
        livev = mask_of(v for v in range(nv) if rng.random() < 0.8)
        live_e = mask_of(i for i in range(ne) if rng.random() < 0.8)
        d3 = mask_of(v for v in core.bits(livev) if (inc[v] & live_e).bit_count() >= 3)
        kinds.add(bool(d3))
        bound = _degree_bound(inc, livev, live_e)
        for need in range(-1, live_e.bit_count() + 2):
            assert _degree_prunes(inc, d3, live_e, need) == (bound > need), (members, livev, live_e, need)
    assert kinds == {False, True}


def test_packing_bound_beats_degree_bound():
    # x0 lies in four edges, two more edges miss it: maxdeg 4 over six
    # edges gives ceil(12 / 4) = 3, the packing takes two edges of x0 and
    # both others
    h = Hypergraph.build(
        ["x0", "a", "b", "c", "d", "y", "z"],
        [("e1", ["x0", "a"]), ("e2", ["x0", "b"]), ("e3", ["x0", "c"]),
         ("e4", ["x0", "d"]), ("e5", ["y"]), ("e6", ["z"])],
    )
    assert _root_bounds(h) == (3, 4)
    assert brute_min_rhs_weight(h) == 4
    assert exact_min_rhs(h).weight == 4


def _assert_maximal_packing(members, inc, livev, live_e, pack):
    packed, u1, u2 = pack
    assert not packed & ~live_e
    want1 = want2 = 0
    for v in core.bits(livev):
        count = (inc[v] & packed).bit_count()
        assert count <= 2, v
        if count:
            want1 |= 1 << v
        if count > 1:
            want2 |= 1 << v
    assert (u1, u2) == (want1, want2)
    for i in core.bits(live_e & ~packed):
        assert members[i] & livev & u2, i


def test_carried_packing_stays_a_maximal_packing():
    """Through seeded sequences of vertex and edge removals, each step
    derived from the last: packed edges are live, no live vertex lies in
    three of them, every unpacked live edge meets a vertex of u2, and
    u1/u2 match a recount. At the root it is the enumerator's packing in
    index order."""
    rng = random.Random(2626)
    for _ in range(300):
        nv, ne = rng.randint(1, 16), rng.randint(1, 28)
        members = [mask_of(v for v in range(nv) if rng.random() < 0.3) for _ in range(ne)]
        inc = [mask_of(i for i, m in enumerate(members) if m >> v & 1) for v in range(nv)]
        livev = (1 << nv) - 1
        live_e = mask_of(i for i, m in enumerate(members) if m)
        pack = _repack(members, inc, livev, live_e, None)
        assert pack[0].bit_count() == _packing_bound(members, range(ne), livev, live_e)
        while True:
            _assert_maximal_packing(members, inc, livev, live_e, pack)
            if not live_e:
                break
            # drop some vertices, some edges, or both; an edge left with no
            # live member leaves too, as it drains in the search
            if rng.random() < 0.7:
                livev &= ~mask_of(v for v in core.bits(livev) if rng.random() < 0.2)
            if rng.random() < 0.5:
                live_e &= ~mask_of(i for i in core.bits(live_e) if rng.random() < 0.2)
            live_e &= ~mask_of(i for i in core.bits(live_e) if not members[i] & livev)
            pack = _repack(members, inc, livev, live_e, pack)


def _full_pass_search(members, inc, budget=None):
    """The exact search as it was when every reduction step re-read all
    live edges: a test-only reference for the incremental summary. Its
    bounds are the enumerator's covering bound and the search's own
    carried packing, so its tree is the search's."""
    best_w = -1 if budget is None else budget + 1
    best = (0, 0)
    nodes = 0
    stack = [((1 << len(inc)) - 1, (1 << len(members)) - 1, 0, 0, None)]
    while stack:
        livev, live_e, r1m, r2m, pack = stack.pop()
        while True:
            d1 = d2 = d3 = d4 = s1 = s2 = s3 = drained = 0
            rest = live_e
            while rest:
                low = rest & -rest
                rest ^= low
                cur = members[low.bit_length() - 1] & livev
                if not cur:
                    drained |= low
                    continue
                d4 |= d3 & cur
                d3 |= d2 & cur
                d2 |= d1 & cur
                d1 |= cur
                if not cur & (cur - 1):
                    s3 |= s2 & cur
                    s2 |= s1 & cur
                    s1 |= cur
            r1m |= drained
            live_e ^= drained
            weak = livev & ~d3
            if weak:
                livev ^= weak
                continue
            if not s3:
                break
            xb = s3 & -s3
            r2m |= xb
            livev ^= xb
            live_e &= ~inc[xb.bit_length() - 1]
        nodes += 1
        w = r1m.bit_count() + 2 * r2m.bit_count()
        if not live_e:
            if best_w < 0 or w < best_w:
                best_w = w
                best = (r1m, r2m)
                if budget is not None:
                    break
            continue
        if best_w >= 0:
            if w + _degree_bound(inc, livev, live_e) >= best_w:
                continue
            pack = _repack(members, inc, livev, live_e, pack)
            if w + pack[0].bit_count() >= best_w:
                continue
        x3 = d3 & ~d4
        if x3:
            xb = x3 & -x3
            ex = inc[xb.bit_length() - 1] & live_e
            others = 0
            rest = ex
            while rest:
                low = rest & -rest
                rest ^= low
                others |= members[low.bit_length() - 1]
            stack.append((livev & ~(xb | others), live_e & ~ex, r1m, r2m | xb, pack))
            stack.append((livev ^ xb, live_e, r1m, r2m, pack))
        else:
            xb = livev & -livev
            stack.append((livev ^ xb, live_e, r1m, r2m, pack))
            stack.append((livev ^ xb, live_e & ~inc[xb.bit_length() - 1], r1m, r2m | xb, pack))
    if budget is not None and best_w > budget:
        best_w = -1
    return OptResult(best_w, RhsPair.from_masks(*best), nodes)


def _reference_corpus():
    """(label, members, inc): seeded random hypergraphs, the tight family,
    the exact golden's fixed instances (twinned where they carry a
    correspondence), the edge masks of seeded graphs and one instance
    built by hand."""
    from romanhs.reduce import rhf_to_rhs

    rng = random.Random(2323)
    for seed in range(320):
        nv, ne = rng.randint(1, 18), rng.randint(0, 30)
        h = gen_random(nv, ne, rng.choice((0.1, 0.2, 0.3, 0.4, 0.5)), seed).hypergraph
        yield f"random{seed}", h.edge_members, h.incidence_masks
    for n in range(1, 9):
        h = gen_tight(n)
        yield f"tight{n}", h.edge_members, h.incidence_masks
    for nv, ne, density, seed, tau in FIXED:
        hf = gen_random(nv, ne, density, seed, with_tau=tau)
        h = rhf_to_rhs(hf.hypergraph, hf.tau).instance if tau else hf.hypergraph
        yield f"fixed{nv}x{ne}s{seed}", h.edge_members, h.incidence_masks
    for seed in range(40):
        n = rng.randint(2, 14)
        g = _sampled_graph(n, rng.randint(1, min(2 * n, n * (n - 1) // 2)), seed)
        yield f"graph{seed}", *core._edge_masks(g)
    # three equal edges on {0, 1, 2} beside the 3-sets of {3, ..., 7},
    # whose bounds (4 and 3) stay below their optimum (5): the include
    # child of vertex 0 drops its whole component and re-reads no edge,
    # yet must drop 1 and 2 from its summary before it branches
    members = [0b111] * 3 + [mask_of(c) for c in combinations(range(3, 8), 3)]
    yield "equal-edges", members, [mask_of(i for i, m in enumerate(members) if m >> v & 1) for v in range(8)]


def test_search_matches_the_full_pass_reference():
    """Weight, witness masks and node count agree with the full-pass
    search, unbudgeted and at every budget from 0 to the optimum + 1 on
    the reference corpus; on gen_random(34, 68, 0.1, 3), whose children
    derive their summaries through long chains over 30 and more live
    edges, unbudgeted and at the optimum - 1 (no) and the optimum."""
    def run(search, members, inc, budget=None):
        res = search(members, inc, budget)
        return res.weight, res.witness.r1m, res.witness.r2m, res.nodes

    for label, members, inc in _reference_corpus():
        want = run(_full_pass_search, members, inc)
        assert run(_min_rhs_search, members, inc) == want, label
        for k in range(want[0] + 2):
            got = run(_min_rhs_search, members, inc, k)
            assert got == run(_full_pass_search, members, inc, k), (label, k)

    h = gen_random(34, 68, 0.1, 3).hypergraph
    members, inc = h.edge_members, h.incidence_masks
    want = run(_full_pass_search, members, inc)
    assert want[::3] == (30, 2365)
    assert run(_min_rhs_search, members, inc) == want
    for k, weight in ((29, -1), (30, 30)):
        got = run(_min_rhs_search, members, inc, k)
        assert got[0] == weight and got == run(_full_pass_search, members, inc, k), k


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


def test_rvc_decide_deep_and_large():
    # the large budget first: a search that recurses per edge overflows
    # the stack there instead of running for long at the tight budgets
    path = path_graph(1200)
    for k, expected in ((2398, True), (1199, True), (1198, False)):
        assert _rvc_decide_counted(path, k)[0] is expected
    rng = random.Random(6061)
    for _ in range(4):
        n = rng.randint(25, 40)
        names = [f"n{i}" for i in range(n)]
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = [(names[u], names[v]) for u, v in rng.sample(pairs, 3 * n // 2)]
        g = Graph.build(names, edges)
        opt = exact_min_rhs(edge_hypergraph(g)).weight
        assert rvc_decide(g, opt)
        assert not rvc_decide(g, opt - 1)


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


def _capped_delay_corpus():
    """Seeded random hypergraphs and edge hypergraphs of sampled graphs.

    The first is a case where a degree-only cap prune left a gap of 169
    at cap 10, past its bound of 74.
    """
    yield gen_random(18, 18, 0.2, seed=19).hypergraph
    rng = random.Random(2623)
    for seed in range(40):
        nv, ne = rng.randint(5, 16), rng.randint(4, 16)
        yield gen_random(nv, ne, rng.choice((0.15, 0.2, 0.3)), seed).hypergraph
    for seed in range(12):
        n = rng.randint(6, 12)
        yield edge_hypergraph(_sampled_graph(n, rng.randint(n, 2 * n), seed))


def test_rvc_enumerate_cap_guarantee():
    # the light minimal covers exactly, found inside the uncapped search,
    # whose node count bounds the work
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
    # the uncapped linear delay bound 2(|X|+|I|)+2 holds under every even
    # cap of a seeded corpus (measured, not proved); every minimal pair
    # weighs at most 2|I|
    stats = rvc_enumerate(_sampled_graph(12, 18, 2), 12)
    assert stats.max_gap <= 2 * (12 + 18) + 2
    for h in _capped_delay_corpus():
        bound = 2 * (h.n_vertices + h.n_edges) + 2
        for cap in range(0, 2 * h.n_edges + 1, 2):
            assert enumerate_minimal_rhs(h, weight_cap=cap).max_gap <= bound


def test_rvc_enumerate_cap_breaks_the_uncapped_delay_bound():
    # G(30, 0.1), the pairs u < v drawn in order: at cap 30, just above
    # the optimum 28, a gap of 275 nodes passes 2(|X|+|I|)+2 = 160, so
    # the corpus above meeting that bound guarantees nothing under a cap
    rng = random.Random(1)
    names = [f"v{i}" for i in range(30)]
    g = Graph.build(
        names,
        [(names[u], names[v]) for u in range(30) for v in range(u + 1, 30) if rng.random() < 0.1],
    )
    assert len(g.edges) == 49
    assert exact_min_rhs(edge_hypergraph(g)).weight == 28
    assert rvc_enumerate(g, 30).max_gap > 2 * (30 + 49) + 2


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


def test_rvc_builds_no_hypergraph(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Hypergraph was built")

    monkeypatch.setattr(Hypergraph, "__init__", refuse)
    monkeypatch.setattr(core, "_prebuilt", refuse)
    g = complete_graph(3)
    assert rvc_decide(g, 3) and not rvc_decide(g, 2)
    got = []
    assert rvc_enumerate(g, 4, got.append).emitted == len(got) == 7


# a tilde may sit inside a vertex token, so both edges get the token a~b~c
TILDE = Graph.build(["a~b", "c", "a", "b~c"], [("a~b", "c"), ("a", "b~c")])


def test_colliding_edge_tokens_decide_nothing():
    assert rvc_decide(TILDE, 2) and not rvc_decide(TILDE, 1)
    got = []
    rvc_enumerate(TILDE, 2, got.append)
    assert got == [RhsPair(frozenset({0, 1}), frozenset())]
    # the suite also runs under python -O, where this has no assert to pass
    assert rec_min(TILDE).weight == 4
    # only what prints or reads the derived tokens refuses, by name
    for derive in (edge_hypergraph, incidence_hypergraph):
        with pytest.raises(InputError, match="duplicate edge token 'a~b~c'"):
            derive(TILDE)


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
