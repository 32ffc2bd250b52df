import itertools
import random

import pytest

from corpus import (
    all_assignments,
    all_pairs,
    assignment_of,
    build_ex1,
    build_ex2,
    capped_paths_text,
    complete_graph,
    connected_graphs_upto,
    ex1_tau,
    ex2_tau,
    general_sweep,
    path_graph,
    random_assignment,
    random_hypergraph,
    random_instance_with_tau,
    random_pair,
    random_split_graph,
    star_graph,
)
from romanhs import errors, extend
from romanhs.characterize import (
    brute_minimal_rdf,
    is_minimal_rdf_theorem,
    is_minimal_rhf_theorem,
    is_minimal_rhs_theorem,
)
from romanhs.core import (
    BoundedRdInstance,
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    bits,
    closed_neighborhood_hypergraph,
    parse_graph_text,
)
from romanhs.enumeration import brute_enumerate_minimal_rhf, gen_random
from romanhs.errors import WORK_LIMIT, GuardRefused, InputError
from romanhs.extend import (
    bounded_ext_rd,
    ext_ds_split,
    ext_rhf_general,
    ext_rhf_surjective,
    ext_rhs,
    is_minimal_dominating_set,
    promote_closure,
)


def pair_of(h, r1_tokens, r2_tokens):
    return RhsPair.from_tokens(h, r1_tokens, r2_tokens)


def dominates_pair(p, u):
    return u.r1 <= p.r1 and u.r2 <= p.r2


def minimal_pairs(h):
    return [p for p in all_pairs(h) if is_minimal_rhs_theorem(h, p)]


def minimal_rhfs(h, tau):
    return [
        f
        for f in all_assignments(h.n_vertices)
        if is_minimal_rhf_theorem(h, tau, f)
    ]


# ---------------------------------------------------------------------------
# ext_rhs
# ---------------------------------------------------------------------------


def test_ext_rhs_empty_presolution_fills_everything():
    h = build_ex1()
    ans = ext_rhs(h, RhsPair(frozenset(), frozenset()))
    assert ans.decision
    assert ans.witness == pair_of(h, ["1", "2", "3", "4", "5"], [])


def test_ext_rhs_yes_keeps_r2_and_fills_unhit_edges():
    h = build_ex1()
    ans = ext_rhs(h, pair_of(h, [], ["a", "c"]))
    assert ans.decision
    assert ans.witness == pair_of(h, ["3"], ["a", "c"])
    assert is_minimal_rhs_theorem(h, ans.witness)


def test_ext_rhs_no_when_preset_edge_is_hit():
    h = build_ex1()
    ans = ext_rhs(h, pair_of(h, ["2"], ["a"]))
    assert not ans.decision
    assert ans.witness is None


def test_ext_rhs_no_when_vertex_has_no_private_edge_left():
    h = build_ex1()
    assert not ext_rhs(h, pair_of(h, [], ["a", "b", "c", "d"])).decision


def test_ext_rhs_matches_brute_existence():
    rng = random.Random(1205)
    for _ in range(40):
        h = random_hypergraph(rng, max_v=5, max_e=5)
        minimal = minimal_pairs(h)
        for _ in range(15):
            u = random_pair(rng, h)
            expected = any(dominates_pair(p, u) for p in minimal)
            ans = ext_rhs(h, u)
            assert ans.decision == expected
            if ans.decision:
                assert is_minimal_rhs_theorem(h, ans.witness)
                assert dominates_pair(ans.witness, u)


# ---------------------------------------------------------------------------
# promote_closure
# ---------------------------------------------------------------------------


def test_promote_closure_collisions_then_chain():
    h = build_ex2()
    tau = ex2_tau(h)
    f = assignment_of(h, {"a": 1, "b": 1, "c": 1})
    closed = promote_closure(h, tau, f)
    # a and b share their corresponding edge, then c loses its job via b
    assert closed == assignment_of(h, {"a": 2, "b": 2, "c": 2})


def test_promote_closure_fixpoint_and_monotone():
    h = build_ex2()
    tau = ex2_tau(h)
    for f in all_assignments(h.n_vertices):
        closed = promote_closure(h, tau, f)
        assert promote_closure(h, tau, closed) == closed
        assert all(a <= b for a, b in zip(f, closed))


def test_promote_closure_preserves_extensions_exactly():
    rng = random.Random(77)
    for _ in range(25):
        h, tau = random_instance_with_tau(rng, max_v=5, max_e=5)
        minimal = minimal_rhfs(h, tau)
        for _ in range(8):
            f = random_assignment(rng, h.n_vertices)
            closed = promote_closure(h, tau, f)
            above_f = [g for g in minimal if all(a <= b for a, b in zip(f, g))]
            above_c = [
                g for g in minimal if all(a <= b for a, b in zip(closed, g))
            ]
            assert above_f == above_c


# ---------------------------------------------------------------------------
# ext_rhf_surjective
# ---------------------------------------------------------------------------


def test_surjective_all_zero_on_path_fills_ones():
    g = path_graph(3)
    h, tau = closed_neighborhood_hypergraph(g)
    ans = ext_rhf_surjective(h, tau, (0, 0, 0))
    assert ans.decision and ans.witness == (1, 1, 1)


def test_surjective_promotion_can_kill_privacy():
    g = path_graph(3)
    h, tau = closed_neighborhood_hypergraph(g)
    ans = ext_rhf_surjective(h, tau, (1, 2, 0))
    assert not ans.decision


def test_surjective_single_two_gets_far_helper():
    g = path_graph(3)
    h, tau = closed_neighborhood_hypergraph(g)
    ans = ext_rhf_surjective(h, tau, (2, 0, 0))
    assert ans.decision and ans.witness == (2, 0, 1)


def test_surjective_rejects_unhit_preimage_free_edge():
    h = build_ex1()
    tau = ex1_tau(h)
    with pytest.raises(InputError):
        ext_rhf_surjective(h, tau, (0, 0, 0, 0))


def test_surjective_accepts_prehit_preimage_free_edge():
    h = build_ex1()
    tau = ex1_tau(h)
    ans = ext_rhf_surjective(h, tau, assignment_of(h, {"a": 2}))
    assert ans.decision
    assert ans.witness == assignment_of(h, {"a": 2, "b": 1, "d": 1})
    assert is_minimal_rhf_theorem(h, tau, ans.witness)


def test_surjective_matches_brute_on_neighborhood_hypergraphs():
    for g in connected_graphs_upto(4):
        h, tau = closed_neighborhood_hypergraph(g)
        minimal = [
            f
            for f in all_assignments(g.n_vertices)
            if is_minimal_rdf_theorem(g, f)
        ]
        for q in all_assignments(g.n_vertices):
            expected = any(
                all(a <= b for a, b in zip(q, f)) for f in minimal
            )
            ans = ext_rhf_surjective(h, tau, q)
            assert ans.decision == expected
            if ans.decision:
                assert is_minimal_rdf_theorem(g, ans.witness)
                assert all(a <= b for a, b in zip(q, ans.witness))


def test_surjective_matches_brute_on_general_instances():
    rng = random.Random(4242)
    checked = 0
    while checked < 120:
        h, tau = random_instance_with_tau(rng, max_v=5, max_e=5)
        minimal = minimal_rhfs(h, tau)
        no_pre = h.all_edges_mask & ~tau.range_mask
        for _ in range(6):
            q = random_assignment(rng, h.n_vertices)
            hit = 0
            for x, v in enumerate(q):
                if v == 2:
                    hit |= h.incidence_mask(x)
            if no_pre & ~hit:
                with pytest.raises(InputError):
                    ext_rhf_surjective(h, tau, q)
                continue
            expected = any(
                all(a <= b for a, b in zip(q, f)) for f in minimal
            )
            ans = ext_rhf_surjective(h, tau, q)
            assert ans.decision == expected
            if ans.decision:
                assert is_minimal_rhf_theorem(h, tau, ans.witness)
                assert all(a <= b for a, b in zip(q, ans.witness))
            checked += 1


# ---------------------------------------------------------------------------
# ext_rhf_general
# ---------------------------------------------------------------------------


def test_general_strategies_agree_and_match_brute():
    rng = random.Random(999)
    for _ in range(30):
        h, tau = random_instance_with_tau(rng, max_v=5, max_e=5)
        minimal = minimal_rhfs(h, tau)
        for _ in range(6):
            f = random_assignment(rng, h.n_vertices)
            expected = any(
                all(a <= b for a, b in zip(f, g)) for g in minimal
            )
            sweep = ext_rhf_general(h, tau, f, strategy="sweep")
            wit = ext_rhf_general(h, tau, f, strategy="witness")
            assert sweep.decision == wit.decision == expected
            for ans in (sweep, wit):
                if ans.decision:
                    assert is_minimal_rhf_theorem(h, tau, ans.witness)
                    assert all(a <= b for a, b in zip(f, ans.witness))


def test_general_handles_preimage_free_edges_unlike_surjective():
    h = build_ex1()
    tau = ex1_tau(h)
    ans = ext_rhf_general(h, tau, (0, 0, 0, 0))
    assert ans.decision
    assert is_minimal_rhf_theorem(h, tau, ans.witness)


def test_general_no_solution_over_empty_edge():
    h = Hypergraph.build(["x"], [("e1", ["x"]), ("e2", [])])
    tau = Correspondence((0,))
    assert not ext_rhf_general(h, tau, (0,)).decision


def assert_extends(h, tau, f, ans):
    """ans is yes, with a minimal rhf above f as its witness."""
    assert ans.decision
    assert is_minimal_rhf_theorem(h, tau, ans.witness)
    assert all(a <= b for a, b in zip(f, ans.witness))


def gap_instance(n):
    """n vertices at 1, each with a singleton corresponding edge and a second
    singleton edge, plus one preimage-free edge over all of them. A second
    edge can be hit only by a 2 on its vertex, so the one witness is all
    2s: the search forces every 1 to 2 at its root, where a search over the
    2^n 2-sets meets it at the last."""
    names = [f"x{i}" for i in range(n)]
    edges = [(f"t{i}", [x]) for i, x in enumerate(names)]
    edges += [(f"p{i}", [x]) for i, x in enumerate(names)]
    h = Hypergraph.build(names, edges + [("free", names)])
    return h, Correspondence(tuple(range(n))), (1,) * n


def pairs_instance(k):
    """k pairs a_i, b_i sharing their corresponding edge {a_i, b_i}, then z
    pinned at 2, whose one edge is its corresponding one. z never earns a
    private edge, so the answer is no. The search sees it at its root; a
    sweep over the assignments in product order only at z, after the 2^k
    ways of putting one 1 on each pair, having popped 4 * 2^k - 3 nodes."""
    names = [v for i in range(k) for v in (f"a{i}", f"b{i}")] + ["z"]
    edges = [(f"E{i}", [f"a{i}", f"b{i}"]) for i in range(k)] + [("T", ["z"])]
    h = Hypergraph.build(names, edges)
    tau = Correspondence(tuple(i // 2 for i in range(2 * k)) + (k,))
    return h, tau, (0,) * (2 * k) + (2,)


def swallowed_maps_instance(k, m):
    """k vertices pinned at 2, each with a singleton corresponding edge and
    m candidate edges {x_j, y}, and a preimage-free edge {y} that no 2
    hits. Every private-edge map covers y, since every candidate holds
    it, so the search answers no at its root, where a search of complete
    maps tries all m^k."""
    names = [f"x{j}" for j in range(k)] + ["y"]
    edges = [(f"t{j}", [x]) for j, x in enumerate(names[:k])]
    edges += [(f"p{j}_{i}", [x, "y"]) for j, x in enumerate(names[:k]) for i in range(m)]
    h = Hypergraph.build(names, edges + [("ty", ["y"]), ("loose", ["y"])])
    tau = Correspondence(tuple(range(k)) + (h.edge_id("ty"),))
    return h, tau, (2,) * k + (0,)


def late_swallow_instance(k, m):
    """k vertices pinned at 2, each with a singleton corresponding edge and
    m singleton candidate edges, then z pinned at 2, whose one candidate
    edge {z, y} covers y, and a preimage-free edge {y} that only a 2 on y
    could hit. Every private-edge map covers y, but only at z, the last 2
    to map: a search that maps the 2s in id order and checks only the
    2s already mapped tries all m^k maps of the others. The answer is no,
    at the root, since every candidate of z holds y."""
    xs = [f"x{j}" for j in range(k)]
    edges = [(f"t{j}", [x]) for j, x in enumerate(xs)]
    edges += [(f"p{j}_{i}", [x]) for j, x in enumerate(xs) for i in range(m)]
    edges += [("tz", ["z"]), ("q", ["z", "y"]), ("ty", ["y"]), ("loose", ["y"])]
    h = Hypergraph.build(xs + ["z", "y"], edges)
    tau = Correspondence(tuple(range(k)) + (h.edge_id("tz"), h.edge_id("ty")))
    return h, tau, (2,) * (k + 1) + (0,)


def triangle_instance(k, m):
    """k 2s as in late_swallow_instance, then three 2s whose candidate
    edges pair them with a, b or c (z1 with a or b, z2 with b or c, z3
    with a or c), and preimage-free edges {a, b}, {b, c} and {a, c}. Any
    map covers two of a, b and c, and so one of those edges whole: no.
    Each z alone has a passing candidate, so the answer shows only when
    the three are mapped together; the first k 2s reach no loose edge,
    and the search maps the triangle on its own."""
    xs = [f"x{j}" for j in range(k)]
    zs, abc = ["z1", "z2", "z3"], ["a", "b", "c"]
    edges = [(f"t{v}", [v]) for v in xs + zs + abc]
    edges += [(f"p{j}_{i}", [x]) for j, x in enumerate(xs) for i in range(m)]
    edges += [("q1a", ["z1", "a"]), ("q1b", ["z1", "b"]), ("q2b", ["z2", "b"])]
    edges += [("q2c", ["z2", "c"]), ("q3a", ["z3", "a"]), ("q3c", ["z3", "c"])]
    edges += [("ab", ["a", "b"]), ("bc", ["b", "c"]), ("ac", ["a", "c"])]
    h = Hypergraph.build(xs + zs + abc, edges)
    return h, Correspondence(tuple(range(k + 6))), (2,) * (k + 3) + (0,) * 3


def triangle_ones_instance(k):
    """triangle_instance(0, 0), then k vertices y_j at 1, each with a
    singleton corresponding edge and a preimage-free edge {y_j, w_j} over
    a 0-vertex w_j. Each y_j may stay 1 or rise to 2, but no choice
    touches the triangle, whose loose edges hold no 1: the planned 2s
    must map at the root already, and cannot."""
    h, tau, f = triangle_instance(0, 0)
    ys = [f"y{j}" for j in range(k)]
    ws = [f"w{j}" for j in range(k)]
    names = list(h.vertex_tokens) + ys + ws
    edges = [(h.edge_tokens[i], [names[x] for x in bits(m)]) for i, m in enumerate(h.edge_members)]
    edges += [(f"t{v}", [v]) for v in ys + ws]
    edges += [(f"l{j}", [y, w]) for j, (y, w) in enumerate(zip(ys, ws))]
    h = Hypergraph.build(names, edges)
    tau = Correspondence(tau.mapping + tuple(h.edge_id(f"t{v}") for v in ys + ws))
    return h, tau, f + (1,) * k + (0,) * k


def sat_instance(n, m, seed):
    """A random 3-CNF formula over n variables with m clauses as an
    extension question: z_i, pinned at 2, takes P_i = {z_i, p_i} (true)
    or Q_i = {z_i, q_i} (false) as its private edge, which covers p_i or
    q_i; each clause is a preimage-free edge over the vertices its
    literals cover when false, so it is covered whole exactly when the
    clause fails. Yes exactly when the formula is satisfiable."""
    rng = random.Random(seed)
    zs, ps, qs = ([f"{c}{i}" for i in range(n)] for c in "zpq")
    edges = [(f"t{v}", [v]) for v in zs + ps + qs]
    edges += [(f"P{i}", [zs[i], ps[i]]) for i in range(n)]
    edges += [(f"Q{i}", [zs[i], qs[i]]) for i in range(n)]
    for j in range(m):
        lits = rng.sample(range(n), 3)
        edges.append((f"c{j}", [qs[i] if rng.random() < 0.5 else ps[i] for i in lits]))
    h = Hypergraph.build(zs + ps + qs, edges)
    return h, Correspondence(tuple(range(3 * n))), (2,) * n + (0,) * (2 * n)


def test_general_guard_and_bad_strategy(monkeypatch):
    # 21 vertices at 0 on one edge: the closure keeps no 1 and no 2, so
    # the search answers at its root, whatever their number
    n = WORK_LIMIT.bit_length()
    names = [f"x{i}" for i in range(n)]
    h = Hypergraph.build(names, [("e", names)])
    tau = Correspondence((0,) * n)
    assert_extends(h, tau, (0,) * n, ext_rhf_general(h, tau, (0,) * n))
    # an unsatisfiable formula of 24 variables and 103 clauses: the search
    # needs 144 units, so it refuses under a limit of 100, where a sweep
    # over the assignments above f needs more than 2^17
    h, tau, f = sat_instance(24, 103, 8)
    assert not ext_rhf_general(h, tau, f).decision
    monkeypatch.setattr(errors, "WORK_LIMIT", 100)
    with pytest.raises(
        GuardRefused, match="general extension search needs more than the work limit of 100"
    ):
        ext_rhf_general(h, tau, f)
    with pytest.raises(InputError, match="unknown strategy 'fast'"):
        ext_rhf_general(build_ex1(), ex1_tau(build_ex1()), (0, 0, 0, 0), strategy="fast")


def test_general_guard_ignores_twos():
    # 21 vertices, but the closure keeps no 1, so the search decides no
    # 1 and answers at its root
    n = WORK_LIMIT.bit_length()
    names = [f"x{i}" for i in range(n)]
    h = Hypergraph.build(names, [("e", names)])
    tau = Correspondence((0,) * n)
    f = (2,) + (0,) * (n - 1)
    ans = ext_rhf_general(h, tau, f)
    # the lone 2 can never earn a private edge besides its corresponding one
    assert not ans.decision


def test_sweep_guard_counts_assignments(monkeypatch):
    # the search spends one unit per node it pops, not one per assignment
    # above f: 3^13 of them on one edge of 13 vertices at 0, but a single
    # node answers
    def one_edge(n):
        names = [f"x{i}" for i in range(n)]
        return Hypergraph.build(names, [("e", names)]), Correspondence((0,) * n)

    monkeypatch.setattr(errors, "WORK_LIMIT", 1)
    for h, tau, f in (
        (*one_edge(12), (0,) * 12),
        (*one_edge(13), (0,) * 13),
        (*one_edge(13), (1,) + (0,) * 12),
    ):
        assert_extends(h, tau, f, ext_rhf_general(h, tau, f))
    # k pairs that share their corresponding edges, then a 2 that can earn
    # no private edge: the root settles it, where a sweep over the
    # assignments in product order pops 4 * 2^k - 3 nodes
    for k in (1, 3, 8):
        h, tau, f = pairs_instance(k)
        assert not ext_rhf_general(h, tau, f).decision


def first_minimal_rhf_above(h, tau, f):
    """The first assignment above f, in itertools.product order, that the
    theorem checker accepts; None when there is none."""
    for g in itertools.product(*(range(v, 3) for v in f)):
        if is_minimal_rhf_theorem(h, tau, g):
            return g
    return None


def sweep_corpus():
    """Seeded (h, tau, f) triples: random instances, which may hold empty
    and preimage-free edges, plus fixed ones that surely do, each with
    random f, f all-0, f all-2 and, where two vertices share a
    corresponding edge, f with 1s on both."""
    rng = random.Random(1515)
    instances = [
        (build_ex1(), ex1_tau(build_ex1())),
        (build_ex2(), ex2_tau(build_ex2())),
        (
            Hypergraph.build(
                ["x", "y", "z"],
                [("e", ["x", "y"]), ("void", []), ("g", ["y", "z"]), ("free", ["z"])],
            ),
            Correspondence((0, 0, 2)),
        ),
    ]
    instances += [random_instance_with_tau(rng, max_v=6, max_e=6) for _ in range(60)]
    for h, tau in instances:
        n = h.n_vertices
        fs = [(0,) * n, (2,) * n]
        fs += [random_assignment(rng, n) for _ in range(4)]
        for x, y in itertools.combinations(range(n), 2):
            if tau.mapping[x] == tau.mapping[y]:
                fs.append(tuple(1 if v in (x, y) else 0 for v in range(n)))
                break
        for f in fs:
            yield h, tau, f


def test_sweep_returns_first_minimal_rhf_in_product_order():
    # the reference sweep (corpus.general_sweep) that the seeded corpora
    # compare decisions against returns the first minimal rhf above f in
    # product order; every property is checked here by the test itself,
    # since asserts are stripped under python -O
    seen = {"yes": 0, "no": 0, "empty edge": 0, "preimage-free edge": 0, "clashing 1s": 0}
    for h, tau, f in sweep_corpus():
        expected = first_minimal_rhf_above(h, tau, f)
        assert general_sweep(h, tau, f) == expected, (h, tau, f)
        seen["yes" if expected is not None else "no"] += 1
        seen["empty edge"] += 0 in h.edge_members
        seen["preimage-free edge"] += bool(h.all_edges_mask & ~tau.range_mask)
        seen["clashing 1s"] += any(
            tau.mapping[x] == tau.mapping[y]
            for x, y in itertools.combinations(range(h.n_vertices), 2)
            if f[x] == f[y] == 1
        )
    assert min(seen.values()) >= 5, seen


def test_search_matches_brute_on_the_sweep_corpus():
    # the decision is whether some minimal rhf of the brute-force list lies
    # above f, and a yes-witness is one of them
    lists = {}
    for h, tau, f in sweep_corpus():
        key = (h, tau)
        if key not in lists:
            lists[key] = brute_enumerate_minimal_rhf(h, tau)
        above = {g for g in lists[key] if all(a <= b for a, b in zip(f, g))}
        ans = ext_rhf_general(h, tau, f)
        assert ans.decision == bool(above), (h, tau, f)
        assert ans.witness is None or ans.witness in above, (h, tau, f)


def test_search_prunes_before_the_leaf_check(monkeypatch):
    # every vertex corresponds to the one edge e, and the empty edge void
    # is never hit, so the answer is no: the root sees that void is a
    # preimage-free edge with nothing left to hit it, and the search stops
    # after one unit, with no leaf check, out of the 3^n assignments
    n = 12
    names = [f"x{i}" for i in range(n)]
    h = Hypergraph.build(names, [("e", names), ("void", [])])
    tau = Correspondence((0,) * n)
    calls = 0
    leaf_check = extend._rhf_violation

    def counted(*args):
        nonlocal calls
        calls += 1
        return leaf_check(*args)

    monkeypatch.setattr(extend, "_rhf_violation", counted)
    monkeypatch.setattr(errors, "WORK_LIMIT", 1)
    assert not ext_rhf_general(h, tau, (0,) * n).decision
    assert calls == 0


def test_witness_guard_counts_closure_ones_not_zeros(monkeypatch):
    # 30 vertices at 0: the closure keeps no 1, so the search decides no
    # 1, and answers under a limit of 64 units
    monkeypatch.setattr(errors, "WORK_LIMIT", 64)
    hf = gen_random(30, 40, 0.15, seed=4, with_tau=True)
    h, tau, f = hf.hypergraph, hf.tau, (0,) * 30
    assert_extends(h, tau, f, ext_rhf_general(h, tau, f))


def test_witness_guard_refuses_many_surviving_ones(monkeypatch):
    # one private edge per vertex: every 1 survives the closure, but no
    # edge lies outside tau's range, so the all-keep leaf decides
    n = WORK_LIMIT.bit_length()
    names = [f"x{i}" for i in range(n)]
    h = Hypergraph.build(names, [(f"e{i}", [x]) for i, x in enumerate(names)])
    tau = Correspondence(tuple(range(n)))
    assert promote_closure(h, tau, (1,) * n) == (1,) * n
    ans = ext_rhf_general(h, tau, (1,) * n)
    assert ans.decision and ans.witness == (1,) * n
    # a preimage-free edge over all of them, which no closure 2 hits: keep
    # x0 to x19 and the edge holds one undecided 1, which must become 2
    h = Hypergraph.build(
        names, [(f"e{i}", [x]) for i, x in enumerate(names)] + [("free", names)]
    )
    for f in ((1,) * n, (1,) * (n - 1) + (0,)):
        assert_extends(h, tau, f, ext_rhf_general(h, tau, f))
    # the gap instance's 12 ones are all forced to 2 at the root, whose
    # one unit answers, where the 2^12 2-sets of a search without forced
    # 2s pass the limit
    monkeypatch.setattr(errors, "WORK_LIMIT", 1)
    h, tau, f = gap_instance(12)
    assert_extends(h, tau, f, ext_rhf_general(h, tau, f))


def test_witness_guard_refuses_many_private_edge_maps(monkeypatch):
    # five 2s with 17 candidate edges each; the preimage-free edges all hold
    # a 2, so the search needs no map
    names = [f"x{j}" for j in range(5)]
    edges = [(f"t{j}", [x]) for j, x in enumerate(names)]
    edges += [(f"p{j}_{k}", [x]) for j, x in enumerate(names) for k in range(17)]
    edges.append(("free", names))
    h = Hypergraph.build(names, edges)
    tau = Correspondence(tuple(range(5)))
    ans = ext_rhf_general(h, tau, (2,) * 5)
    assert ans.decision and ans.witness == (2,) * 5
    # a 0-vertex y with a preimage-free edge of its own, which no 2 hits:
    # the first map leaves y uncovered, so a fresh 2 on y hits it
    h = Hypergraph.build(names + ["y"], edges + [("ty", ["y"]), ("loose", ["y"])])
    tau = Correspondence(tuple(range(5)) + (h.edge_id("ty"),))
    f = (2,) * 5 + (0,)
    assert_extends(h, tau, f, ext_rhf_general(h, tau, f))
    # when every candidate of a 2 holds y, the first node of the map
    # search answers, after the root, where a search of complete maps
    # tries all 8^5, and one that maps the 2s in id order tries 4^5 maps
    # before the last 2, the only one whose candidate holds y
    monkeypatch.setattr(errors, "WORK_LIMIT", 2)
    for h, tau, f in (swallowed_maps_instance(5, 8), late_swallow_instance(5, 4)):
        assert not ext_rhf_general(h, tau, f).decision
    # each of three 2s has a candidate that alone covers no loose edge,
    # but any two of their choices cover one; the fillers reach no loose
    # edge, so the search maps the three on their own, not once per map
    # of the fillers
    monkeypatch.setattr(errors, "WORK_LIMIT", 64)
    assert not ext_rhf_general(*triangle_instance(8, 4)).decision


def test_witness_stops_when_a_closure_two_has_no_candidate(monkeypatch):
    # z's edges are its own A and B, which w also hits, so z can never earn
    # a private edge: the answer is no at the root, not after the 2^19
    # 2-sets that the 1s on the y_i allow
    ys = [f"y{i}" for i in range(19)]
    h = Hypergraph.build(
        ["z", "w"] + ys,
        [("A", ["z"]), ("B", ["z", "w"]), ("C", ["w"])]
        + [(f"E{i}", [y]) for i, y in enumerate(ys)],
    )
    tau = Correspondence((0, 2) + tuple(range(3, 22)))
    f = (2, 2) + (1,) * 19
    assert not ext_rhf_surjective(h, tau, f).decision
    assert not general_sweep(h, tau, f)
    calls = 0
    hit_counts = extend._hit_counts

    def counted(inc, mask):
        nonlocal calls
        calls += 1
        return hit_counts(inc, mask)

    monkeypatch.setattr(extend, "_hit_counts", counted)
    monkeypatch.setattr(errors, "WORK_LIMIT", 1)
    assert not ext_rhf_general(h, tau, f).decision
    # the search reads its hit counts once, at its root
    assert calls == 1


def test_general_strategies_answer_the_seeded_corpus():
    # 16 to 24 vertices, f alternating 0 and 1 by vertex id: every
    # assignment above f passes the limit, yet the search answers each
    # instance well inside it, as the reference sweep decides
    for i in range(200):
        nv = 16 + i % 9
        hf = gen_random(nv, nv + 4, 0.2, i, with_tau=True)
        h, tau, f = hf.hypergraph, hf.tau, tuple(x % 2 for x in range(nv))
        want = general_sweep(h, tau, f) is not None
        ans = ext_rhf_general(h, tau, f)
        assert ans.decision == want, i
        if ans.decision:
            assert_extends(h, tau, f, ans)


def test_witness_answers_the_gap_instance():
    # every 1 is forced to 2 at the root, though 2-sets times private-edge
    # maps bound the work by 2^24
    h, tau, f = gap_instance(12)
    ans = ext_rhf_general(h, tau, f)
    assert ans.decision and ans.witness == (2,) * 12
    assert is_minimal_rhf_theorem(h, tau, ans.witness)


def _random_instance(nv, ne, density, seed, f):
    """gen_random's instance with tau, and f given as a string of digits."""
    hf = gen_random(nv, ne, density, seed=seed, with_tau=True)
    return hf.hypergraph, hf.tau, tuple(int(c) for c in f)


# instances on which one of two earlier searches spent more than 90 times
# the other's work, up to a refusal past 2^20 units, and the one search's
# answer: a sweep over the assignments above f in product order, and a
# witness search over every 2-set of the closure's 1s times every
# private-edge map; then three that the sweep answers in at most 24 units
# and a search mapping the 2s in id order refuses
HARD = {
    "gap16": (lambda: gap_instance(16), True),
    "gap40": (lambda: gap_instance(40), True),
    "pairs19": (lambda: pairs_instance(19), False),
    "swallowed5x8": (lambda: swallowed_maps_instance(5, 8), False),
    # 1s on x4 x5 x7 x18 x23 x28 x31 x33 x34 x38
    "random38": (
        lambda: _random_instance(38, 26, 0.15, 470771, "00011010000000000100001000010010110001"),
        False,
    ),
    "random37": (
        lambda: _random_instance(37, 64, 0.1, 664457, "0200000000010000000100001021010001002"),
        True,
    ),
    "random16": (
        lambda: _random_instance(16, 32, 0.35, 740777, "1111010010101101"),
        False,
    ),
    "late_swallow10x4": (lambda: late_swallow_instance(10, 4), False),
    "triangle10x3": (lambda: triangle_instance(10, 3), False),
    "triangle_ones20": (lambda: triangle_ones_instance(20), False),
}


@pytest.mark.parametrize("name", list(HARD))
def test_search_answers_the_hard_instances(name, monkeypatch):
    # within 2^14 units
    monkeypatch.setattr(errors, "WORK_LIMIT", 1 << 14)
    build, want = HARD[name]
    h, tau, f = build()
    ans = ext_rhf_general(h, tau, f)
    assert ans.decision == want
    if want:
        assert_extends(h, tau, f, ans)


def test_surjective_is_the_witness_search():
    # wherever ext_rhf_surjective's precondition holds, it answers as
    # the general search does, witness included
    rng = random.Random(2020)
    cases = []
    while len(cases) < 300:
        h, tau = random_instance_with_tau(rng, max_v=7, max_e=7)
        if 0 in h.edge_members:
            # an empty edge lies outside tau's range and is never hit
            continue
        f = [rng.choice((0, 0, 0, 1, 2)) for _ in range(h.n_vertices)]
        # a 2 on some member of every preimage-free edge not yet hit
        for i in bits(h.all_edges_mask & ~tau.range_mask):
            members = list(bits(h.edge_members[i]))
            if all(f[x] != 2 for x in members):
                f[rng.choice(members)] = 2
        cases.append((h, tau, tuple(f)))
    n = WORK_LIMIT.bit_length()
    names = [f"x{i}" for i in range(n)]
    h = Hypergraph.build(names, [(f"e{i}", [x]) for i, x in enumerate(names)])
    cases.append((h, Correspondence(tuple(range(n))), (1,) * n))
    seen = {"yes": 0, "no": 0}
    for h, tau, f in cases:
        sur = ext_rhf_surjective(h, tau, f)
        wit = ext_rhf_general(h, tau, f)
        assert (sur.decision, sur.witness) == (wit.decision, wit.witness), (h, tau, f)
        seen["yes" if sur.decision else "no"] += 1
    assert min(seen.values()) >= 50, seen


# ---------------------------------------------------------------------------
# bounded_ext_rd
# ---------------------------------------------------------------------------


def brute_bounded(g, lower, upper):
    for f in itertools.product(
        *(range(lower[v], upper[v] + 1) for v in range(g.n_vertices))
    ):
        if is_minimal_rdf_theorem(g, f):
            return True
    return False


def test_bounded_rejects_crossed_bounds():
    g = path_graph(3)
    inst = BoundedRdInstance.build(g, (2, 0, 0), (1, 2, 2))
    assert not bounded_ext_rd(inst).decision


def test_bounded_infeasible_cap():
    g = path_graph(3)
    inst = BoundedRdInstance.build(g, (0, 1, 0), (0, 1, 2))
    assert not bounded_ext_rd(inst).decision


def test_bounded_zero_cap_forces_dominators():
    g = path_graph(3)
    inst = BoundedRdInstance.build(g, (0, 0, 0), (0, 2, 0))
    ans = bounded_ext_rd(inst)
    assert ans.decision and ans.witness == (0, 2, 0)


def test_bounded_all_ones_box():
    g = path_graph(3)
    inst = BoundedRdInstance.build(g, (0, 0, 0), (1, 1, 1))
    ans = bounded_ext_rd(inst)
    assert ans.decision and ans.witness == (1, 1, 1)


def test_bounded_matches_brute_on_small_graphs():
    rng = random.Random(31337)
    for g in connected_graphs_upto(4):
        for _ in range(8):
            lower = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(g.n_vertices))
            upper = tuple(rng.choice((0, 1, 2, 2)) for _ in range(g.n_vertices))
            inst = BoundedRdInstance.build(g, lower, upper)
            ans = bounded_ext_rd(inst)
            assert ans.decision == brute_bounded(g, lower, upper)
            if ans.decision:
                w = ans.witness
                assert is_minimal_rdf_theorem(g, w)
                assert all(
                    lower[v] <= w[v] <= upper[v] for v in range(g.n_vertices)
                )


def test_bounded_matches_brute_on_boxes_of_5_to_8_vertices():
    rng = random.Random(33)
    seen = {False: 0, True: 0}
    for _ in range(3000):
        n = rng.randint(5, 8)
        names = [f"v{i}" for i in range(n)]
        p = rng.choice((0.25, 0.4, 0.6))
        pairs = [e for e in itertools.combinations(names, 2) if rng.random() < p]
        g = Graph.build(names, pairs)
        lower = tuple(rng.choice((0, 0, 0, 0, 1, 2)) for _ in range(n))
        upper = tuple(max(lo, rng.choice((0, 1, 2, 2, 2))) for lo in lower)
        box = itertools.product(*(range(lo, up + 1) for lo, up in zip(lower, upper)))
        want = any(brute_minimal_rdf(g, f) for f in box)
        ans = bounded_ext_rd(BoundedRdInstance.build(g, lower, upper))
        assert ans.decision == want, (pairs, lower, upper)
        if want:
            w = ans.witness
            assert is_minimal_rdf_theorem(g, w)
            assert all(lo <= wv <= up for lo, wv, up in zip(lower, w, upper))
        seen[want] += 1
    assert min(seen.values()) >= 1000, seen


def _capped_paths(k, z=True):
    gf = parse_graph_text(capped_paths_text(k, z))
    return BoundedRdInstance.build(gf.graph, gf.assignment, gf.upper)


def test_bounded_guard_spends_one_unit_on_capped_paths(monkeypatch):
    # the isolated z, pinned at 2, has no private neighbor: the search's
    # root answers no, however many paths' middles are capped at 0
    monkeypatch.setattr(errors, "WORK_LIMIT", 1)
    for k in (8, 21, 200):
        assert not bounded_ext_rd(_capped_paths(k)).decision


def test_bounded_capped_paths_without_z_answer_yes():
    # each middle vertex, capped at 0, gets a 2 on one end of its path
    inst = _capped_paths(200, z=False)
    ans = bounded_ext_rd(inst)
    assert ans.decision
    assert is_minimal_rdf_theorem(inst.graph, ans.witness)
    assert all(map(int.__le__, inst.lower, ans.witness))
    assert all(map(int.__le__, ans.witness, inst.upper))


def test_bounded_closes_once(monkeypatch):
    # z, capped at 0, needs one of its five neighbors at 2; w and v,
    # pinned at 2 and adjacent to each other and to z, keep no private
    # neighbor, so the answer is no after one promotion closure
    text = (
        "vertex z a b c w v\ngedge z a\ngedge z b\ngedge z c\n"
        "gedge z w\ngedge z v\ngedge w v\nassign w 2\nassign v 2\nupper z 0\n"
    )
    gf = parse_graph_text(text)
    inst = BoundedRdInstance.build(gf.graph, gf.assignment, gf.upper)
    calls = 0
    promote = extend._promote

    def counted(*args):
        nonlocal calls
        calls += 1
        return promote(*args)

    monkeypatch.setattr(extend, "_promote", counted)
    assert not bounded_ext_rd(inst).decision
    assert calls == 1


def test_bounded_unbounded_top_equals_surjective_extension():
    g = complete_graph(4)
    inst = BoundedRdInstance.build(g, (0, 0, 0, 0))
    ans = bounded_ext_rd(inst)
    assert ans.decision
    assert is_minimal_rdf_theorem(g, ans.witness)


# ---------------------------------------------------------------------------
# ext_ds_split
# ---------------------------------------------------------------------------


def ids(g, tokens):
    return {g.vertex_id(t) for t in tokens}


def brute_eds(g, want):
    for dm in range(1 << g.n_vertices):
        d = {v for v in range(g.n_vertices) if (dm >> v) & 1}
        if want <= d and is_minimal_dominating_set(g, d):
            return True
    return False


def test_minimal_dominating_helper():
    g = path_graph(3)
    assert is_minimal_dominating_set(g, {1})
    assert not is_minimal_dominating_set(g, {0})
    assert not is_minimal_dominating_set(g, {0, 1})
    assert is_minimal_dominating_set(g, {0, 2})


@pytest.mark.parametrize("d", [[5], [-1], [0, 3]])
def test_minimal_dominating_helper_refuses_unknown_vertices(d):
    with pytest.raises(InputError, match="vertex set contains an unknown vertex"):
        is_minimal_dominating_set(path_graph(3), d)


def test_ds_split_star():
    g = star_graph(3)
    split = (ids(g, ["c"]), ids(g, ["l0", "l1", "l2"]))
    ans = ext_ds_split(g, split, set())
    assert ans.decision
    assert ans.witness == frozenset(ids(g, ["l0", "l1", "l2"]))
    ans = ext_ds_split(g, split, ids(g, ["c"]))
    assert ans.decision and ans.witness == frozenset(ids(g, ["c"]))
    assert not ext_ds_split(g, split, ids(g, ["c", "l0"])).decision


def test_ds_split_moves_clique_vertex_without_independent_neighbor():
    g = complete_graph(2)
    ans = ext_ds_split(g, ({0, 1}, set()), set())
    assert ans.decision and len(ans.witness) == 1


def test_ds_split_validation_errors():
    g = path_graph(3)
    with pytest.raises(InputError):
        ext_ds_split(g, ({0, 1}, {1, 2}), set())
    with pytest.raises(InputError):
        ext_ds_split(g, ({0}, {2}), set())
    with pytest.raises(InputError):
        ext_ds_split(g, ({0, 2}, {1}), set())
    g2 = complete_graph(3)
    with pytest.raises(InputError):
        ext_ds_split(g2, ({0}, {1, 2}), set())
    with pytest.raises(InputError):
        ext_ds_split(path_graph(2), ({0}, {1}), {5})


def test_ds_split_matches_brute():
    rng = random.Random(2024)
    for _ in range(60):
        g, clique, indep = random_split_graph(rng, max_n=7)
        split = (ids(g, clique), ids(g, indep))
        um = rng.getrandbits(g.n_vertices)
        want = {v for v in range(g.n_vertices) if (um >> v) & 1}
        ans = ext_ds_split(g, split, want)
        assert ans.decision == brute_eds(g, want)
        if ans.decision:
            assert want <= ans.witness
            assert is_minimal_dominating_set(g, ans.witness)
