import itertools
import random
import tracemalloc

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
    is_minimal_rdf_theorem,
    is_minimal_rhf_theorem,
    is_minimal_rhs_theorem,
)
from romanhs.core import (
    BoundedRdInstance,
    Correspondence,
    Hypergraph,
    RhsPair,
    bits,
    closed_neighborhood_hypergraph,
    parse_graph_text,
)
from romanhs.enumeration import gen_random
from romanhs.errors import WORK_LIMIT, GuardRefused, InputError
from romanhs.extend import (
    ExtensionWitness,
    bounded_ext_rd,
    check_extension_witness,
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
    for strategy in ("sweep", "witness"):
        ans = ext_rhf_general(h, tau, (0, 0, 0, 0), strategy=strategy)
        assert ans.decision
        assert is_minimal_rhf_theorem(h, tau, ans.witness)


def test_general_no_solution_over_empty_edge():
    h = Hypergraph.build(["x"], [("e1", ["x"]), ("e2", [])])
    tau = Correspondence((0,))
    for strategy in ("sweep", "witness"):
        assert not ext_rhf_general(h, tau, (0,), strategy=strategy).decision


def assert_extends(h, tau, f, ans):
    """ans is yes, with a minimal rhf above f as its witness."""
    assert ans.decision
    assert is_minimal_rhf_theorem(h, tau, ans.witness)
    assert all(a <= b for a, b in zip(f, ans.witness))


def gap_instance(n):
    """n vertices at 1, each with a singleton corresponding edge and a second
    singleton edge, plus one preimage-free edge over all of them. A second
    edge can be hit only by a 2 on its vertex, so the one witness is all
    2s: the sweep goes straight to it, the witness search meets it at the
    last of the 2^n 2-sets."""
    names = [f"x{i}" for i in range(n)]
    edges = [(f"t{i}", [x]) for i, x in enumerate(names)]
    edges += [(f"p{i}", [x]) for i, x in enumerate(names)]
    h = Hypergraph.build(names, edges + [("free", names)])
    return h, Correspondence(tuple(range(n))), (1,) * n


def pairs_instance(k):
    """k pairs a_i, b_i sharing their corresponding edge {a_i, b_i}, then z
    pinned at 2, whose one edge is its corresponding one. z never earns a
    private edge, so the answer is no. The witness search sees it at its
    first 2-set; the sweep only at z, after the 2^k ways of putting one 1
    on each pair, having popped 4 * 2^k - 3 nodes."""
    names = [v for i in range(k) for v in (f"a{i}", f"b{i}")] + ["z"]
    edges = [(f"E{i}", [f"a{i}", f"b{i}"]) for i in range(k)] + [("T", ["z"])]
    h = Hypergraph.build(names, edges)
    tau = Correspondence(tuple(i // 2 for i in range(2 * k)) + (k,))
    return h, tau, (0,) * (2 * k) + (2,)


def swallowed_maps_instance(k, m):
    """k vertices pinned at 2, each with a singleton corresponding edge and
    m candidate edges {x_j, y}, and a preimage-free edge {y} that no 2
    hits. Every private-edge map covers y, so the witness search tries all
    m^k maps of its one 2-set and answers no."""
    names = [f"x{j}" for j in range(k)] + ["y"]
    edges = [(f"t{j}", [x]) for j, x in enumerate(names[:k])]
    edges += [(f"p{j}_{i}", [x, "y"]) for j, x in enumerate(names[:k]) for i in range(m)]
    h = Hypergraph.build(names, edges + [("ty", ["y"]), ("loose", ["y"])])
    tau = Correspondence(tuple(range(k)) + (h.edge_id("ty"),))
    return h, tau, (2,) * k + (0,)


def test_general_guard_and_bad_strategy(monkeypatch):
    # 21 vertices at 0 on one edge: the default sweep pops a node per
    # vertex on its way to the first minimal rhf, whatever their number
    n = WORK_LIMIT.bit_length()
    names = [f"x{i}" for i in range(n)]
    h = Hypergraph.build(names, [("e", names)])
    tau = Correspondence((0,) * n)
    assert_extends(h, tau, (0,) * n, ext_rhf_general(h, tau, (0,) * n))
    # it refuses an instance whose 1,021 nodes pass a limit of 1,000
    monkeypatch.setattr(errors, "WORK_LIMIT", 1000)
    h, tau, f = pairs_instance(8)
    with pytest.raises(
        GuardRefused, match="general extension sweep needs more than the work limit of 1000"
    ):
        ext_rhf_general(h, tau, f)
    with pytest.raises(InputError):
        ext_rhf_general(build_ex1(), ex1_tau(build_ex1()), (0, 0, 0, 0), strategy="fast")


def test_general_guard_ignores_twos():
    # 21 vertices, but the closure keeps no 1, so the witness search tries
    # a single 2-set
    n = WORK_LIMIT.bit_length()
    names = [f"x{i}" for i in range(n)]
    h = Hypergraph.build(names, [("e", names)])
    tau = Correspondence((0,) * n)
    f = (2,) + (0,) * (n - 1)
    ans = ext_rhf_general(h, tau, f, strategy="witness")
    # the lone 2 can never earn a private edge besides its corresponding one
    assert not ans.decision


def test_sweep_guard_counts_assignments(monkeypatch):
    # the sweep spends one unit per node it pops, not one per assignment
    # above f: 3^13 of them on one edge of 13 vertices at 0, but a few dozen
    # nodes lead to the first minimal rhf
    def one_edge(n):
        names = [f"x{i}" for i in range(n)]
        return Hypergraph.build(names, [("e", names)]), Correspondence((0,) * n)

    for h, tau, f in (
        (*one_edge(12), (0,) * 12),
        (*one_edge(13), (0,) * 13),
        (*one_edge(13), (1,) + (0,) * 12),
    ):
        for strategy in ("sweep", "witness"):
            assert_extends(h, tau, f, ext_rhf_general(h, tau, f, strategy=strategy))
    # a no that the sweep sees only after 4 * 2^k - 3 nodes: it answers at a
    # limit of exactly that many and refuses at one less
    for k in (1, 3, 8):
        h, tau, f = pairs_instance(k)
        monkeypatch.setattr(errors, "WORK_LIMIT", 4 * 2**k - 3)
        assert not ext_rhf_general(h, tau, f, strategy="sweep").decision
        monkeypatch.setattr(errors, "WORK_LIMIT", 4 * 2**k - 4)
        with pytest.raises(GuardRefused):
            ext_rhf_general(h, tau, f, strategy="sweep")
        assert not ext_rhf_general(h, tau, f, strategy="witness").decision


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
    # every property is checked here by the test itself: the library's own
    # postcondition asserts are stripped under python -O
    seen = {"yes": 0, "no": 0, "empty edge": 0, "preimage-free edge": 0, "clashing 1s": 0}
    for h, tau, f in sweep_corpus():
        expected = first_minimal_rhf_above(h, tau, f)
        sweep = ext_rhf_general(h, tau, f, strategy="sweep")
        wit = ext_rhf_general(h, tau, f, strategy="witness")
        assert sweep.decision == (expected is not None), (h, tau, f)
        assert sweep.witness == expected, (h, tau, f)
        assert wit.decision == sweep.decision, (h, tau, f)
        seen["yes" if sweep.decision else "no"] += 1
        seen["empty edge"] += 0 in h.edge_members
        seen["preimage-free edge"] += bool(h.all_edges_mask & ~tau.range_mask)
        seen["clashing 1s"] += any(
            tau.mapping[x] == tau.mapping[y]
            for x, y in itertools.combinations(range(h.n_vertices), 2)
            if f[x] == f[y] == 1
        )
    assert min(seen.values()) >= 5, seen


def test_sweep_prunes_prefixes_before_the_leaf_check(monkeypatch):
    # every vertex corresponds to the one edge e and an empty edge is never
    # hit, so the answer is no; two 1s clash on e and no 2 has a private
    # edge besides e, so at most the all-0 candidate and the n with a
    # single 1 could reach the leaf check, out of the 3^n that the guard
    # counts (the empty edge stops the sweep before any)
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
    ans = ext_rhf_general(h, tau, (0,) * n, strategy="sweep")
    assert not ans.decision
    assert calls <= n + 1 < 3**n


def test_sweep_leaves_are_minimal_rhfs(monkeypatch):
    # the prefix checks decide every condition, so the leaf check (an
    # assert, stripped under python -O) runs once per yes answer
    calls = yes = 0
    leaf_check = extend._rhf_violation

    def counted(*args):
        nonlocal calls
        calls += 1
        return leaf_check(*args)

    monkeypatch.setattr(extend, "_rhf_violation", counted)
    for h, tau, f in sweep_corpus():
        yes += ext_rhf_general(h, tau, f, strategy="sweep").decision
    assert yes > 0
    assert calls == (yes if __debug__ else 0)


def test_witness_guard_counts_closure_ones_not_zeros(monkeypatch):
    # 30 vertices at 0: the closure keeps no 1, so the witness search tries
    # a single 2-set, and answers under a limit of 64 units
    monkeypatch.setattr(errors, "WORK_LIMIT", 64)
    hf = gen_random(30, 40, 0.15, seed=4, with_tau=True)
    h, tau, f = hf.hypergraph, hf.tau, (0,) * 30
    for strategy in ("sweep", "witness"):
        assert_extends(h, tau, f, ext_rhf_general(h, tau, f, strategy=strategy))
    # 12 closure 1s whose witness is the last of their 2^12 2-sets pass it
    h, tau, f = gap_instance(12)
    with pytest.raises(
        GuardRefused, match="witness extension search needs more than the work limit of 64"
    ):
        ext_rhf_general(h, tau, f, strategy="witness")


def test_witness_guard_refuses_many_surviving_ones(monkeypatch):
    # one private edge per vertex: every 1 survives the closure, but no
    # edge lies outside tau's range, so the first 2-set decides
    n = WORK_LIMIT.bit_length()
    names = [f"x{i}" for i in range(n)]
    h = Hypergraph.build(names, [(f"e{i}", [x]) for i, x in enumerate(names)])
    tau = Correspondence(tuple(range(n)))
    assert promote_closure(h, tau, (1,) * n) == (1,) * n
    ans = ext_rhf_general(h, tau, (1,) * n, strategy="witness")
    assert ans.decision and ans.witness == (1,) * n
    # a preimage-free edge over all of them, which no closure 2 hits: the
    # second 2-set, a 2 on x0, hits it and passes
    h = Hypergraph.build(
        names, [(f"e{i}", [x]) for i, x in enumerate(names)] + [("free", names)]
    )
    for f in ((1,) * n, (1,) * (n - 1) + (0,)):
        assert_extends(h, tau, f, ext_rhf_general(h, tau, f, strategy="witness"))
    # the gap instance's 12 ones need the last of their 2^12 2-sets, more
    # than a limit of 2^12 units
    monkeypatch.setattr(errors, "WORK_LIMIT", 1 << 12)
    h, tau, f = gap_instance(12)
    with pytest.raises(GuardRefused):
        ext_rhf_general(h, tau, f, strategy="witness")


def test_witness_guard_refuses_many_private_edge_maps(monkeypatch):
    # five 2s with 17 candidate edges each; the preimage-free edges all hold
    # a 2, so the first private-edge map passes
    names = [f"x{j}" for j in range(5)]
    edges = [(f"t{j}", [x]) for j, x in enumerate(names)]
    edges += [(f"p{j}_{k}", [x]) for j, x in enumerate(names) for k in range(17)]
    edges.append(("free", names))
    h = Hypergraph.build(names, edges)
    tau = Correspondence(tuple(range(5)))
    ans = ext_rhf_general(h, tau, (2,) * 5, strategy="witness")
    assert ans.decision and ans.witness == (2,) * 5
    # a 0-vertex y with a preimage-free edge of its own, which no 2 hits:
    # the first map leaves y uncovered, so a fresh 2 on y hits it
    h = Hypergraph.build(names + ["y"], edges + [("ty", ["y"]), ("loose", ["y"])])
    tau = Correspondence(tuple(range(5)) + (h.edge_id("ty"),))
    f = (2,) * 5 + (0,)
    assert_extends(h, tau, f, ext_rhf_general(h, tau, f, strategy="witness"))
    # when every map covers y, the search spends one unit on its 2-set and
    # one on each of the 4^5 maps: it answers at a limit of exactly that
    # many and refuses at one less
    h, tau, f = swallowed_maps_instance(5, 4)
    monkeypatch.setattr(errors, "WORK_LIMIT", 1 + 4**5)
    assert not ext_rhf_general(h, tau, f, strategy="witness").decision
    monkeypatch.setattr(errors, "WORK_LIMIT", 4**5)
    with pytest.raises(GuardRefused):
        ext_rhf_general(h, tau, f, strategy="witness")


def test_witness_stops_when_a_closure_two_has_no_candidate(monkeypatch):
    # z's edges are its own A and B, which w also hits, so z can never earn
    # a private edge: the answer is no at the first 2-set, not after the
    # 2^19 that the 1s on the y_i allow
    ys = [f"y{i}" for i in range(19)]
    h = Hypergraph.build(
        ["z", "w"] + ys,
        [("A", ["z"]), ("B", ["z", "w"]), ("C", ["w"])]
        + [(f"E{i}", [y]) for i, y in enumerate(ys)],
    )
    tau = Correspondence((0, 2) + tuple(range(3, 22)))
    f = (2, 2) + (1,) * 19
    assert not ext_rhf_surjective(h, tau, f).decision
    assert not ext_rhf_general(h, tau, f, strategy="sweep").decision
    calls = 0
    hit_counts = extend._hit_counts

    def counted(inc, mask):
        nonlocal calls
        calls += 1
        return hit_counts(inc, mask)

    monkeypatch.setattr(extend, "_hit_counts", counted)
    assert not ext_rhf_general(h, tau, f, strategy="witness").decision
    # each 2-set tried reads its hit counts once
    assert calls == 1


def test_general_strategies_answer_the_seeded_corpus():
    # 16 to 24 vertices, f alternating 0 and 1 by vertex id: every
    # assignment above f passes the limit, yet both searches answer each
    # instance well inside it
    for i in range(200):
        nv = 16 + i % 9
        hf = gen_random(nv, nv + 4, 0.2, i, with_tau=True)
        h, tau, f = hf.hypergraph, hf.tau, tuple(x % 2 for x in range(nv))
        sweep = ext_rhf_general(h, tau, f, strategy="sweep")
        wit = ext_rhf_general(h, tau, f, strategy="witness")
        assert sweep.decision == wit.decision, i
        for ans in (sweep, wit):
            if ans.decision:
                assert_extends(h, tau, f, ans)


def test_witness_answers_the_gap_instance():
    # about 2^13 units of work, though 2-sets times private-edge maps bound
    # it by 2^24
    h, tau, f = gap_instance(12)
    ans = ext_rhf_general(h, tau, f, strategy="witness")
    assert ans.decision and ans.witness == (2,) * 12
    assert is_minimal_rhf_theorem(h, tau, ans.witness)


def test_surjective_is_the_witness_search():
    # wherever ext_rhf_surjective's precondition holds, it answers as the
    # witness strategy does, witness included
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
        wit = ext_rhf_general(h, tau, f, strategy="witness")
        assert (sur.decision, sur.witness) == (wit.decision, wit.witness), (h, tau, f)
        seen["yes" if sur.decision else "no"] += 1
    assert min(seen.values()) >= 50, seen


def test_witness_check_refuses_vertex_ids_outside_the_universe():
    # refused as unknown before any mask is built, so a huge id allocates
    # nothing as wide as itself
    h = build_ex1()
    tau = ex1_tau(h)
    f = assignment_of(h, {"c": 2})
    tracemalloc.start()
    try:
        for bad in (-1, h.n_vertices, 10**9):
            w = ExtensionWitness.build([bad], {bad: 0})
            with pytest.raises(InputError, match="unknown vertex"):
                check_extension_witness(h, tau, f, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    c = h.vertex_id("c")
    assert check_extension_witness(h, tau, f, ExtensionWitness.build([c], {c: h.edge_id("5")}))


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


def test_bounded_guard_counts_dominator_choices():
    # 2^21 dominator choices are refused before the first is tried; 2^8
    # of them are all tried and the answer is no
    big = parse_graph_text(capped_paths_text(21))
    with pytest.raises(GuardRefused):
        bounded_ext_rd(BoundedRdInstance.build(big.graph, big.assignment, big.upper))
    small = parse_graph_text(capped_paths_text(8))
    inst = BoundedRdInstance.build(small.graph, small.assignment, small.upper)
    assert not bounded_ext_rd(inst).decision


def test_bounded_closes_once_per_dominator_choice(monkeypatch):
    # z, capped at 0, has five dominator choices; w and v, pinned at 2 and
    # adjacent to each other and to z, keep no private neighbor, so every
    # choice is tried and the answer is no. Choosing w or v gives one key.
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
    # the lower assignment's closure, then one per choice
    assert calls == 1 + 5


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
