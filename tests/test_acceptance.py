"""Acceptance gate: ten product-level criteria, one test and one line each.

Every test prints a single PASS line with the measured quantities once its
assertions hold; an assertion failure is the FAIL signal for that criterion.
Expensive shared measurements (the tight family and the 200-instance random
enumeration corpus) are cached at module level so the delay criterion can
reuse them.
"""

import math
import random
import time

from romanhs import (
    Graph,
    RhsPair,
    brute_enumerate_minimal_rhf,
    brute_enumerate_minimal_rhs,
    brute_minimal_po_rdf,
    brute_minimal_rdf,
    brute_minimal_rhf,
    brute_minimal_rhs,
    closed_neighborhood_hypergraph,
    edge_hypergraph,
    enumerate_minimal_rhs,
    exact_min_rhf,
    exact_min_rhs,
    ext_ds_split,
    ext_rhf_general,
    ext_rhf_surjective,
    ext_rhs,
    bounded_ext_rd,
    gen_tight,
    greedy_rhs,
    incidence_hypergraph,
    is_minimal_dominating_set,
    is_minimal_rdf_theorem,
    is_minimal_rhf_theorem,
    is_minimal_rhs_theorem,
    is_po_minimal_rdf_theorem,
    is_rhs,
    rd_to_rhf,
    rec_min,
    rhf_to_rd_gadget,
    rhf_to_rhs,
    rvc_decide,
    rvc_enumerate,
    vc_to_rvc,
    weight_pair,
    BoundedRdInstance,
)
from romanhs.optimize import _min_rhs_search, _rvc_decide_counted

from corpus import (
    all_assignments,
    all_pairs,
    atlas_graphs_upto,
    brute_min_rdf_weight,
    brute_min_rhf_weight,
    brute_min_rhs_weight,
    brute_min_rvc_weight,
    brute_min_vc_size,
    build_ex1,
    build_ex2,
    connected_graphs_upto,
    ex2_tau,
    from_networkx,
    general_sweep,
    path_graph,
    random_assignment,
    random_hypergraph,
    random_instance_with_tau,
    random_pair,
    random_split_graph,
)

_cache: dict[str, object] = {}


def _tight_runs():
    """(hypergraph, distinct pairs, stats, seconds) for n = 1..8."""
    if "tight" not in _cache:
        runs = []
        for n in range(1, 9):
            h = gen_tight(n)
            got = set()
            t0 = time.monotonic()
            stats = enumerate_minimal_rhs(h, sink=got.add)
            runs.append((h, got, stats, time.monotonic() - t0))
        _cache["tight"] = runs
    return _cache["tight"]


def _random_enum_runs():
    """(hypergraph, emissions, stats, brute list) for 200 seeded instances."""
    if "random" not in _cache:
        runs = []
        t0 = time.monotonic()
        for seed in range(200):
            rng = random.Random(7000 + seed)
            h = random_hypergraph(rng, 6, 6)
            got = []
            stats = enumerate_minimal_rhs(h, sink=got.append)
            runs.append((h, got, stats, brute_enumerate_minimal_rhs(h)))
        _cache["random"] = (runs, time.monotonic() - t0)
    return _cache["random"]


def _graphs_with_nb_tau(seed0, count, max_n):
    out = []
    k = 0
    while len(out) < count:
        rng = random.Random(seed0 + k)
        k += 1
        n = rng.randint(1, max_n)
        names = [f"v{i}" for i in range(n)]
        edges = [
            (names[u], names[v])
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.5
        ]
        out.append(Graph.build(names, edges))
    return out


def _rhf_instances(seed0, count, max_v, max_e):
    """Random instances with a correspondence and no empty edge."""
    out = []
    k = 0
    while len(out) < count:
        rng = random.Random(seed0 + k)
        k += 1
        h, tau = random_instance_with_tau(rng, max_v, max_e)
        if any(m == 0 for m in h.edge_members):
            continue
        out.append((h, tau))
    return out


def test_c01_tight_family_counts():
    runs = _tight_runs()
    for n, (h, got, stats, elapsed) in enumerate(runs, 1):
        assert stats.emitted == 3**n
        assert len(got) == 3**n
    last = runs[-1][3]
    assert last < 10.0
    print(f"PASS 1: tight family emits 3^n for n=1..8, n=8 in {last:.2f}s")


def test_c02_enumerator_equals_brute_on_random_corpus():
    runs, elapsed = _random_enum_runs()
    assert len(runs) == 200
    for h, got, stats, brute in runs:
        assert len(got) == len(set(got)), "duplicate emission"
        assert set(got) == set(brute)
    assert elapsed < 60.0
    print(
        f"PASS 2: 200 random instances, enumerator == brute oracle,"
        f" corpus in {elapsed:.1f}s"
    )


def test_c03_polynomial_delay_gap_bound():
    worst = -1.0
    checked = 0
    for h, _, stats, _ in _tight_runs():
        bound = 2 * (h.n_vertices + h.n_edges) + 2
        assert stats.max_gap <= bound
        worst = max(worst, stats.max_gap / bound)
        checked += 1
    for h, _, stats, _ in _random_enum_runs()[0]:
        bound = 2 * (h.n_vertices + h.n_edges) + 2
        assert stats.max_gap <= bound
        worst = max(worst, stats.max_gap / bound)
        checked += 1
    print(
        f"PASS 3: max gap within 2(|X|+|I|)+2 on {checked} runs"
        f" (worst ratio {worst:.2f})"
    )


def test_c04_characterizations_match_brute():
    pairs_checked = 0
    for seed in range(50):
        rng = random.Random(1000 + seed)
        h = random_hypergraph(rng, 4 if seed < 35 else 5, 4 if seed < 35 else 5)
        for pair in all_pairs(h):
            assert is_minimal_rhs_theorem(h, pair) == brute_minimal_rhs(h, pair)
            pairs_checked += 1

    f_checked = 0
    for h, tau in _rhf_instances(1100, 50, 5, 5):
        for f in all_assignments(h.n_vertices):
            assert is_minimal_rhf_theorem(h, tau, f) == brute_minimal_rhf(
                h, tau, f
            )
            f_checked += 1

    graphs = connected_graphs_upto(5)
    assert len(graphs) == 772
    rdf_checked = 0
    for g in graphs:
        for f in all_assignments(g.n_vertices):
            assert is_minimal_rdf_theorem(g, f) == brute_minimal_rdf(g, f)
            assert is_po_minimal_rdf_theorem(g, f) == brute_minimal_po_rdf(
                g, f
            )
            rdf_checked += 1
    print(
        f"PASS 4: theorem == brute on {pairs_checked} pairs,"
        f" {f_checked} rhf assignments, {rdf_checked} rdf assignments"
        f" over 772 connected graphs"
    )


def test_c05_extension_solvers_match_brute():
    rhs_checked = 0
    for seed in range(50):
        rng = random.Random(2000 + seed)
        h = random_hypergraph(rng, 6, 6)
        minimal = brute_enumerate_minimal_rhs(h)
        for _ in range(20):
            u = random_pair(rng, h)
            want = any(
                p.r1 >= u.r1 and p.r2 >= u.r2 for p in minimal
            )
            ans = ext_rhs(h, u)
            assert ans.decision == want
            if ans.decision:
                w = ans.witness
                assert w.r1 >= u.r1 and w.r2 >= u.r2
                assert is_minimal_rhs_theorem(h, w)
            rhs_checked += 1

    rhf_checked = 0
    agree_checked = 0
    for g in _graphs_with_nb_tau(2100, 50, 6):
        h, tau = closed_neighborhood_hypergraph(g)
        minimal = brute_enumerate_minimal_rhf(h, tau)
        rng = random.Random(2200 + g.n_vertices * 37 + len(g.edges))
        for _ in range(20):
            f = random_assignment(rng, h.n_vertices)
            want = any(
                all(mv >= fv for mv, fv in zip(m, f)) for m in minimal
            )
            ans = ext_rhf_surjective(h, tau, f)
            assert ans.decision == want
            if ans.decision:
                w = ans.witness
                assert all(wv >= fv for wv, fv in zip(w, f))
                assert is_minimal_rhf_theorem(h, tau, w)
            rhf_checked += 1
            reference = general_sweep(h, tau, f) is not None
            assert reference == ext_rhf_general(h, tau, f).decision == want
            agree_checked += 1
    print(
        f"PASS 5: ext_rhs on {rhs_checked} and ext_rhf on {rhf_checked}"
        f" pre-solutions match brute existence;"
        f" general search and reference sweep agree on {agree_checked}"
    )


def test_c06_exact_optimizer():
    checked = 0
    corpus = [build_ex1(), build_ex2()] + [gen_tight(n) for n in range(1, 7)]
    for seed in range(100):
        corpus.append(random_hypergraph(random.Random(3000 + seed), 6, 6))
    for h in corpus:
        res = exact_min_rhs(h)
        assert res.weight == brute_min_rhs_weight(h)
        assert is_rhs(h, res.witness)
        assert weight_pair(res.witness) == res.weight
        checked += 1

    h2 = build_ex2()
    res = exact_min_rhs(h2)
    assert res.weight == 3
    assert res.witness == RhsPair.from_tokens(h2, ["5"], ["b"])
    rhf = exact_min_rhf(h2, ex2_tau(h2))
    assert rhf.weight == 4
    print(
        f"PASS 6: exact optimum == brute on {checked} instances;"
        f" worked example gives 3 with R1={{5}} R2={{b}} and rhf optimum 4"
    )


def test_c07_greedy_ratio():
    checked = 0
    corpus = [build_ex1(), build_ex2()]
    for seed in range(100):
        corpus.append(random_hypergraph(random.Random(3000 + seed), 6, 6))
    for h in corpus:
        if h.n_edges == 0:
            continue
        _, w = greedy_rhs(h)
        opt = exact_min_rhs(h).weight
        assert w <= 2 * (math.log(h.n_edges) + 1) * opt
        checked += 1
    for n in range(1, 9):
        h = gen_tight(n)
        _, w = greedy_rhs(h)
        assert w == 2 * exact_min_rhs(h).weight
    print(
        f"PASS 7: greedy within 2(ln|I|+1) on {checked} instances;"
        f" tight-family ratio exactly 2 for n=1..8"
    )


def _min_rdf_exact(g):
    """Optimum rdf weight through the hitting-function route."""
    h, tau = rd_to_rhf(g).instance
    return exact_min_rhf(h, tau).weight


def test_c08_reduction_weight_laws():
    rd_checked = 0
    graphs = atlas_graphs_upto(5)
    for seed in range(20):
        rng = random.Random(4000 + seed)
        n = rng.randint(1, 6)
        names = [f"v{i}" for i in range(n)]
        graphs.append(
            Graph.build(
                names,
                [
                    (names[u], names[v])
                    for u in range(n)
                    for v in range(u + 1, n)
                    if rng.random() < 0.5
                ],
            )
        )
    for g in graphs:
        ro = rd_to_rhf(g)
        h, tau = ro.instance
        assert brute_min_rdf_weight(g) == exact_min_rhf(h, tau).weight + ro.offset
        assert ro.offset == 0
        rd_checked += 1

    fh_checked = 0
    for h, tau in _rhf_instances(4100, 40, 5, 5):
        ro = rhf_to_rhs(h, tau)
        src = exact_min_rhf(h, tau).weight
        assert src == brute_min_rhf_weight(h, tau)
        assert src == exact_min_rhs(ro.instance).weight + ro.offset
        assert ro.offset == 0
        fh_checked += 1

    gadget_checked = 0
    for h, tau in _rhf_instances(4200, 25, 4, 3):
        ro = rhf_to_rd_gadget(h, tau)
        src = exact_min_rhf(h, tau).weight
        dst = _min_rdf_exact(ro.instance)
        assert dst == src + ro.offset and ro.offset == 2
        if ro.instance.n_vertices <= 9:
            assert dst == brute_min_rdf_weight(ro.instance)
        gadget_checked += 1

    vc_checked = 0
    for g in atlas_graphs_upto(4):
        ro = vc_to_rvc(g)
        src = brute_min_vc_size(g)
        target = ro.instance
        dst = exact_min_rhs(edge_hypergraph(target)).weight
        assert dst == src + ro.offset and ro.offset == g.n_vertices
        scan = next(
            k for k in range(2 * target.n_vertices + 1) if rvc_decide(target, k)
        )
        assert scan == dst
        vc_checked += 1
    for seed in range(15):
        rng = random.Random(4300 + seed)
        n = rng.randint(1, 6)
        names = [f"v{i}" for i in range(n)]
        g = Graph.build(
            names,
            [
                (names[u], names[v])
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < 0.5
            ],
        )
        ro = vc_to_rvc(g)
        dst = exact_min_rhs(edge_hypergraph(ro.instance)).weight
        assert dst == brute_min_vc_size(g) + g.n_vertices
        vc_checked += 1
    print(
        f"PASS 8: weight laws hold with offsets 0/0/+2/+|V| on"
        f" {rd_checked}/{fh_checked}/{gadget_checked}/{vc_checked} instances"
    )


def test_c09_rvc_and_rec():
    graphs = atlas_graphs_upto(6)
    assert len(graphs) == 209
    decide_checked = 0
    for g in graphs:
        opt = brute_min_rvc_weight(g)
        h = edge_hypergraph(g)
        for k in range(2 * g.n_vertices + 1):
            ans, nodes = _rvc_decide_counted(g, k)
            assert ans == (opt <= k)
            assert nodes <= 3 * 2**k
            decide_checked += 1
            # the graph paths search the graph's edge masks: the same trees
            # as the hypergraph paths on the edge hypergraph
            res = _min_rhs_search(h.edge_members, h.incidence_masks, budget=k)
            assert (ans, nodes) == (res.weight >= 0, res.nodes)
            got, want = [], []
            assert rvc_enumerate(g, k, got.append) == enumerate_minimal_rhs(h, k, want.append)
            assert got == want

    single = path_graph(2)
    got = []
    rvc_enumerate(single, 2, got.append)
    assert len(got) == 3 and len(set(got)) == 3

    rec_checked = 0
    for g in graphs:
        if g.n_vertices + len(g.edges) > 14:
            continue
        res = rec_min(g)
        assert res.weight == g.n_vertices
        h = incidence_hypergraph(g)
        for pair in all_pairs(h):
            if is_rhs(h, pair):
                assert weight_pair(pair) >= g.n_vertices
        rec_checked += 1
    assert rec_checked >= 150
    print(
        f"PASS 9: rvc_decide == brute on {decide_checked} (graph, k) cases"
        f" within node budget; single edge at k=2 has 3 solutions;"
        f" rec scan on {rec_checked} graphs finds nothing below |V|"
    )


def test_c10_split_graph_applications():
    ds_checked = 0
    for seed in range(100):
        rng = random.Random(5000 + seed)
        g, clique_toks, indep_toks = random_split_graph(rng, 8)
        split = (
            {g.vertex_id(t) for t in clique_toks},
            {g.vertex_id(t) for t in indep_toks},
        )
        u = {v for v in range(g.n_vertices) if rng.random() < 0.3}
        want = any(
            is_minimal_dominating_set(g, d)
            for d in _supersets(u, g.n_vertices)
        )
        ans = ext_ds_split(g, split, u)
        assert ans.decision == want
        if ans.decision:
            assert u <= set(ans.witness)
            assert is_minimal_dominating_set(g, ans.witness)
        ds_checked += 1

    rd_checked = 0
    for g in atlas_graphs_upto(5):
        rng = random.Random(5100 + g.n_vertices * 13 + len(g.edges))
        for _ in range(10):
            a = random_assignment(rng, g.n_vertices)
            b = random_assignment(rng, g.n_vertices)
            lower = tuple(min(x, y) for x, y in zip(a, b))
            upper = tuple(max(x, y) for x, y in zip(a, b))
            inst = BoundedRdInstance.build(g, lower, upper)
            want = any(
                brute_minimal_rdf(g, f)
                for f in all_assignments(g.n_vertices)
                if all(lo <= fv <= up for lo, fv, up in zip(lower, f, upper))
            )
            ans = bounded_ext_rd(inst)
            assert ans.decision == want
            if ans.decision:
                w = ans.witness
                assert all(lo <= wv <= up for lo, wv, up in zip(lower, w, upper))
                assert is_minimal_rdf_theorem(g, w)
            rd_checked += 1
    print(
        f"PASS 10: ext_ds_split == brute on {ds_checked} split graphs;"
        f" bounded_ext_rd == brute on {rd_checked} (f,h) cases"
    )


def _supersets(base, n):
    rest = [v for v in range(n) if v not in base]
    for mask in range(1 << len(rest)):
        yield set(base) | {rest[j] for j in range(len(rest)) if (mask >> j) & 1}
