import random

import pytest

from corpus import build_ex1, build_ex2, random_hypergraph
from romanhs.characterize import is_minimal_rhs_theorem
from romanhs.core import (
    Correspondence,
    Hypergraph,
    RhsPair,
    weight_pair,
)
from romanhs.enumeration import (
    brute_enumerate_minimal_rhf,
    brute_enumerate_minimal_rhs,
    enumerate_minimal_rhs,
    gen_random,
    gen_tight,
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


def test_weight_cap_rejects_negative():
    with pytest.raises(InputError):
        enumerate_minimal_rhs(build_ex1(), weight_cap=-1)


def test_rule_counts_present():
    _, stats = collect(gen_tight(3))
    assert stats.rule_counts.get("BR3", 0) > 0
    assert stats.nodes > 0


def test_brute_rhs_guard():
    h = Hypergraph.build([f"x{i}" for i in range(21)], [])
    with pytest.raises(GuardRefused):
        brute_enumerate_minimal_rhs(h)


def test_brute_parts_cover_the_scan():
    h = build_ex1()
    whole = brute_enumerate_minimal_rhs(h)
    parts = [brute_enumerate_minimal_rhs(h, p, 3) for p in range(3)]
    assert sorted(sum(parts, []), key=lambda p: p.r2_mask()) == whole
    h2 = gen_tight(2)
    tau = Correspondence((0, 0, 1, 1))
    whole = brute_enumerate_minimal_rhf(h2, tau)
    parts = [brute_enumerate_minimal_rhf(h2, tau, p, 2) for p in range(2)]
    assert sorted(sum(parts, [])) == whole


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
