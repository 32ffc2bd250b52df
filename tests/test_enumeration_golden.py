"""Golden emission sequences of the minimal-pair enumerator.

For every run of a fixed corpus (the tight family, seeded random
hypergraphs and duals of random graphs with and without weight caps,
duals of complete graphs, and the edge hypergraphs of the benchmark's
Roman vertex cover graphs at their caps) the checked-in
``golden/enumeration.txt`` holds a sha1 of the ordered emission
sequence and the counters ``emitted``, ``nodes``, ``max_gap`` and
``rule_counts``. Any change to the search order, the branch rules or the
delay accounting shows up here. A run without a sink must report the
same counters.

Regenerate the file only for an intended change of the search:

    PYTHONPATH=src python tests/test_enumeration_golden.py > tests/golden/enumeration.txt
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from romanhs.core import Graph, Hypergraph, edge_hypergraph, weight_pair
from romanhs.enumeration import (
    enumerate_minimal_rhs,
    gen_random,
    gen_tight,
    iter_minimal_rhs,
)

GOLDEN = Path(__file__).parent / "golden" / "enumeration.txt"

# (vertices, edges, seed, weight cap) of the benchmark's solve workload
RVC_GRAPHS = ((12, 18, 21, 9), (18, 26, 24, 16), (22, 31, 22, 18))


def _rvc_graph(nv, ne, seed):
    """The benchmark's fixed random graph draw, relabelled by Random(0)."""
    draw = random.Random(seed)
    pairs = draw.sample([(u, v) for u in range(nv) for v in range(u + 1, nv)], ne)
    relabel = random.Random(0)
    vmap = list(range(nv))
    relabel.shuffle(vmap)
    relabel.shuffle(pairs)
    tokens = [f"v{k}" for k in range(1, nv + 1)]
    return Graph.build(tokens, [(tokens[vmap[u]], tokens[vmap[v]]) for u, v in pairs])


def _graph_dual(n, pairs):
    """One vertex per graph edge, one hyperedge per graph vertex (its star).

    Every vertex lies in two edges and edge sizes are the graph degrees,
    which reaches the branch rules for edges of three and more members.
    """
    tokens = [f"{u}-{v}" for u, v in pairs]
    return Hypergraph.build(
        tokens,
        [(f"s{w}", [t for t, p in zip(tokens, pairs) if w in p]) for w in range(n)],
    )


def corpus():
    """(label, hypergraph, weight cap) for every golden run."""
    runs = [(f"tight{n}", gen_tight(n), None) for n in range(1, 9)]
    draw = random.Random(2017)
    for seed in range(40):
        nv = draw.randint(5, 18)
        ne = draw.randint(4, 18)
        density = draw.choice((0.15, 0.2, 0.3, 0.4))
        h = gen_random(nv, ne, density, seed).hypergraph
        label = f"random{nv}x{ne}d{density}s{seed}"
        for cap in (None, ne // 3, 2 * ne // 3):
            runs.append((label, h, cap))
    for seed in range(12):
        n = draw.randint(6, 9)
        pairs = draw.sample([(u, v) for u in range(n) for v in range(u + 1, n)], draw.randint(n + 2, 2 * n))
        h = _graph_dual(n, pairs)
        for cap in (None, n // 2, n):
            runs.append((f"dual{n}x{len(pairs)}s{seed}", h, cap))
    for n in range(4, 8):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        runs.append((f"k{n}dual", _graph_dual(n, pairs), None))
    for nv, ne, seed, cap in RVC_GRAPHS:
        runs.append((f"rvc{nv}x{ne}s{seed}", edge_hypergraph(_rvc_graph(nv, ne, seed)), cap))
    return runs


def record(label, h, cap):
    """One golden line: the emission digest and the counters of one run."""
    digest = hashlib.sha1()

    def sink(pair):
        digest.update(f"{sorted(pair.r1)} {sorted(pair.r2)}\n".encode())

    st = enumerate_minimal_rhs(h, weight_cap=cap, sink=sink)
    return json.dumps(
        {
            "label": label,
            "cap": cap,
            "sha1": digest.hexdigest(),
            "emitted": st.emitted,
            "nodes": st.nodes,
            "max_gap": st.max_gap,
            "rule_counts": dict(sorted(st.rule_counts.items())),
        },
        sort_keys=True,
    )


RUNS = corpus()
EXPECTED = GOLDEN.read_text().splitlines() if GOLDEN.is_file() else []


@pytest.mark.parametrize("k", range(len(RUNS)), ids=[f"{r[0]}-cap{r[2]}" for r in RUNS])
def test_enumeration_matches_golden(k):
    assert len(EXPECTED) == len(RUNS), "golden file out of step with the corpus"
    assert record(*RUNS[k]) == EXPECTED[k]


@pytest.mark.parametrize("k", range(len(RUNS)), ids=[f"{r[0]}-cap{r[2]}" for r in RUNS])
def test_sinkless_run_counts_as_the_golden(k):
    # without a sink the search is drained, not skipped: the counters are
    # those of the run that hands every pair over
    label, h, cap = RUNS[k]
    st = enumerate_minimal_rhs(h, weight_cap=cap)
    golden = json.loads(EXPECTED[k])
    assert (st.emitted, st.nodes, st.max_gap, st.rule_counts) == (
        golden["emitted"],
        golden["nodes"],
        golden["max_gap"],
        golden["rule_counts"],
    )


CAPPED = [run for run in RUNS if run[2] is not None]


@pytest.mark.parametrize("label, h, cap", CAPPED, ids=[f"{r[0]}-cap{r[2]}" for r in CAPPED])
def test_capped_run_filters_the_uncapped_one(label, h, cap):
    # the cap prune drops only subtrees without a light enough pair, so
    # the capped emissions are the uncapped ones of weight at most the
    # cap, in the same order
    capped = list(iter_minimal_rhs(h, weight_cap=cap))
    assert capped == [p for p in iter_minimal_rhs(h) if weight_pair(p) <= cap]


if __name__ == "__main__":
    for run in RUNS:
        print(record(*run))
