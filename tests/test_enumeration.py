import gc
import hashlib
import itertools
import random
import threading
import types

import pytest

from corpus import build_ex1, build_ex2, random_hypergraph
from romanhs.characterize import is_minimal_rhs_theorem
from romanhs.core import (
    Correspondence,
    Hypergraph,
    RhsPair,
    serialize_hypergraph_file,
    weight_pair,
)
from romanhs import enumeration
from romanhs.enumeration import (
    brute_enumerate_minimal_rhf,
    brute_enumerate_minimal_rhs,
    enumerate_minimal_rhs,
    gen_random,
    gen_tight,
    iter_minimal_rhs,
)
from romanhs.errors import GuardRefused, InputError


def collect(h, weight_cap=None):
    out = []
    stats = enumerate_minimal_rhs(h, weight_cap=weight_cap, sink=out.append)
    return out, stats


def test_tight_counts():
    for n in range(1, 6):
        h = gen_tight(n)
        out, stats = collect(h)
        assert stats.emitted == 3**n
        assert len(out) == len(set(out)) == 3**n


def test_tight_one_exact_solutions():
    h = gen_tight(1)
    out, _ = collect(h)
    assert set(out) == {
        RhsPair(frozenset(), frozenset({0})),
        RhsPair(frozenset(), frozenset({1})),
        RhsPair(frozenset({0}), frozenset()),
    }


def test_gen_tight_rejects_zero():
    with pytest.raises(InputError):
        gen_tight(0)


def test_matches_brute_on_examples():
    for h in (build_ex1(), build_ex2()):
        out, _ = collect(h)
        assert set(out) == set(brute_enumerate_minimal_rhs(h))
        assert len(out) == len(set(out))
        assert all(is_minimal_rhs_theorem(h, p) for p in out)


def test_matches_brute_on_random_instances():
    rng = random.Random(52)
    for _ in range(150):
        h = random_hypergraph(rng, max_v=6, max_e=6)
        out, stats = collect(h)
        assert set(out) == set(brute_enumerate_minimal_rhs(h))
        assert len(out) == len(set(out))
        bound = 2 * (h.n_vertices + h.n_edges) + 2
        assert stats.max_gap <= bound


def test_no_edges_emits_empty_pair():
    h = Hypergraph.build(["a", "b"], [])
    out, stats = collect(h)
    assert out == [RhsPair(frozenset(), frozenset())]
    assert stats.emitted == 1


def test_empty_hypergraph():
    h = Hypergraph.build([], [])
    out, _ = collect(h)
    assert out == [RhsPair(frozenset(), frozenset())]


def test_empty_edge_forced_into_r1():
    h = Hypergraph.build(["a"], [("e1", []), ("e2", ["a"])])
    out, _ = collect(h)
    assert set(out) == {
        RhsPair(frozenset({0, 1}), frozenset()),
        RhsPair(frozenset({0}), frozenset({0})),
    }


def test_deterministic_emission_order():
    h = build_ex2()
    first, _ = collect(h)
    second, _ = collect(h)
    assert first == second


def test_weight_cap_filters_and_agrees():
    rng = random.Random(99)
    for _ in range(60):
        h = random_hypergraph(rng, max_v=5, max_e=5)
        full, _ = collect(h)
        for cap in range(0, 8):
            capped, _ = collect(h, weight_cap=cap)
            assert set(capped) == {p for p in full if weight_pair(p) <= cap}
            assert len(capped) == len(set(capped))


def test_load_order_is_its_definition():
    # ascending sum of member degrees, ties by index; the seeded instances
    # hold empty edges (load 0) and isolated vertices (degree 0)
    rng = random.Random(30)
    seen_empty = seen_isolated = False
    for _ in range(200):
        h = random_hypergraph(rng, max_v=9, max_e=12, density=rng.choice((0.1, 0.3, 0.6)))
        members, inc = h.edge_members, h.incidence_masks
        seen_empty |= 0 in members
        seen_isolated |= 0 in inc
        load = [sum(inc[x].bit_count() for x in range(h.n_vertices) if m >> x & 1) for m in members]
        want = sorted(range(h.n_edges), key=lambda i: (load[i], i))
        assert enumeration._load_order(members, inc) == want
    assert seen_empty and seen_isolated


def test_weight_cap_rejects_negative():
    with pytest.raises(InputError):
        enumerate_minimal_rhs(build_ex1(), weight_cap=-1)


def test_leaf_popped_after_a_derived_parent():
    # x0 is in 17 edges, above _DERIVE_ABOVE, so its first child, the leaf
    # with x0 at 2, is popped while the search would derive its summary; no
    # golden run pops a leaf there. The leaf must hand the next node a full
    # pass: at cap 2 that node, x0 deleted, is pruned. The figures are those
    # of the search that ran the summary pass at every node
    h = Hypergraph.build(
        [f"x{i}" for i in range(18)],
        [(f"e{i}", ["x0", f"x{i}"]) for i in range(1, 18)],
    )
    out, stats = collect(h, weight_cap=2)
    assert [(p.r1m, p.r2m) for p in out] == [(0, 1)]
    assert (stats.emitted, stats.nodes, stats.max_gap) == (1, 2, 2)
    assert stats.rule_counts == {"BR2": 1, "RR1": 17}
    assert list(iter_minimal_rhs(h, weight_cap=2)) == out


def test_iter_matches_sink_order():
    rng = random.Random(7)
    for _ in range(30):
        h = random_hypergraph(rng, max_v=7, max_e=7)
        for cap in (None, 3, 6):
            out, _ = collect(h, weight_cap=cap)
            assert list(iter_minimal_rhs(h, weight_cap=cap)) == out


def test_iter_rejects_negative_cap_at_call():
    with pytest.raises(InputError):
        iter_minimal_rhs(build_ex1(), weight_cap=-1)


def test_iter_deep_prefix():
    # 1000 branching levels: far past the interpreter's recursion limit
    h = gen_tight(1000)
    masks = []
    sample = []
    first = []
    for k, pair in enumerate(itertools.islice(iter_minimal_rhs(h), 1000)):
        masks.append((pair.r1_mask(), pair.r2_mask()))
        if k < 3:
            first.append(pair)
        if k % 200 == 0:
            sample.append(pair)
    assert len(masks) == len(set(masks)) == 1000
    assert all(is_minimal_rhs_theorem(h, p) for p in sample)
    # the lowest vertex of every edge at 2, then the last edge's other
    # vertex, then that edge in R1; on the way down every first child of a
    # node with more than 16 live edges derives its summary from its parent's
    evens = frozenset(range(0, 2000, 2))
    assert first == [
        RhsPair(frozenset(), evens),
        RhsPair(frozenset(), evens - {1998} | {1999}),
        RhsPair(frozenset({999}), evens - {1998}),
    ]


def _masks_and_stats(h, cap):
    st = enumeration.EnumerationStats()
    masks = list(enumeration._search(h.edge_members, h.incidence_masks, cap, st))
    return masks, (st.emitted, st.nodes, st.max_gap, st.rule_counts)


def test_derived_summaries_match_the_full_pass(monkeypatch):
    # a first child below the cutoff rescans its live edges; at cutoff 0
    # every first child derives its summary from its parent's instead, and
    # the search must not notice: same masks in the same order, same stats
    from test_enumeration_golden import corpus

    runs = corpus()
    want = [_masks_and_stats(h, cap) for _, h, cap in runs]
    monkeypatch.setattr(enumeration, "_DERIVE_ABOVE", 0)
    for (label, h, cap), expected in zip(runs, want):
        assert _masks_and_stats(h, cap) == expected, (label, cap)


class _Enough(Exception):
    pass


def test_deep_sink_stops_the_search():
    seen = []

    def sink(pair):
        seen.append(pair)
        if len(seen) == 1000:
            raise _Enough

    with pytest.raises(_Enough):
        enumerate_minimal_rhs(gen_tight(400), sink=sink)
    assert len(set(seen)) == 1000


def _live_searches():
    gc.collect()
    return [
        o
        for o in gc.get_objects()
        if isinstance(o, types.GeneratorType)
        and o.gi_code is enumeration._search.__code__
    ]


def test_early_break_leaves_nothing_running():
    threads = threading.active_count()
    before = len(_live_searches())
    for k, _ in enumerate(iter_minimal_rhs(gen_tight(50))):
        if k == 10:
            break
    assert len(_live_searches()) == before
    assert threading.active_count() == threads


def test_rule_counts_present():
    _, stats = collect(gen_tight(3))
    assert stats.rule_counts.get("BR3", 0) > 0
    assert stats.nodes > 0


def test_brute_rhs_guard():
    h = Hypergraph.build([f"x{i}" for i in range(21)], [])
    with pytest.raises(GuardRefused):
        brute_enumerate_minimal_rhs(h)


def test_brute_rhf_guard_and_small_case():
    h = Hypergraph.build([f"x{i}" for i in range(13)], [("e", ["x0"])])
    with pytest.raises(GuardRefused):
        brute_enumerate_minimal_rhf(h, Correspondence((0,) * 13))
    h2 = gen_tight(1)
    tau = Correspondence((0, 0))
    out = brute_enumerate_minimal_rhf(h2, tau)
    # a lone 1 claims the edge; any 2 here could drop to a claiming 1
    assert set(out) == {(1, 0), (0, 1)}


def test_gen_random_deterministic_and_valid():
    a = gen_random(5, 4, 0.5, seed=7, with_tau=True, with_preset=True)
    b = gen_random(5, 4, 0.5, seed=7, with_tau=True, with_preset=True)
    assert a == b
    h, tau = a.hypergraph, a.tau
    assert h.n_vertices == 5 and h.n_edges == 4
    tau.validate(h)
    a2 = gen_random(5, 4, 0.5, seed=8, with_tau=True)
    assert a2 != a


def test_gen_random_output_is_pinned():
    # the instance text, correspondence and presets of a large seeded draw
    # are fixed: any change to the random numbers drawn or their order
    # shows up here
    hf = gen_random(300, 300, 0.3, 7, with_tau=True, with_preset=True)
    text = serialize_hypergraph_file(hf)
    assert hashlib.sha1(text.encode()).hexdigest() == (
        "faecd34b60c816f09a019599733ee6367d8f046a"
    )


def test_gen_random_validation():
    with pytest.raises(InputError):
        gen_random(-1, 2, 0.5, seed=0)
    with pytest.raises(InputError):
        gen_random(2, 2, 1.5, seed=0)
    with pytest.raises(InputError):
        gen_random(2, 0, 0.5, seed=0, with_tau=True)


def test_gen_random_extremes():
    empty = gen_random(4, 3, 0.0, seed=1)
    assert all(m == 0 for m in empty.hypergraph.edge_members)
    full = gen_random(4, 3, 1.0, seed=1)
    assert all(
        m == full.hypergraph.all_vertices_mask
        for m in full.hypergraph.edge_members
    )
