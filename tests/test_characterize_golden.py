"""Golden answers of the structural minimality checkers.

For every graph on 1 to 4 vertices, seeded graphs on 5 and 6 vertices and
seeded ``gen_random`` instances with a correspondence on 1 to 6 vertices,
the checked-in ``golden/characterize.txt`` holds one sha1 per instance
over, in order:

- graphs: ``minimal_rdf_violation`` and ``po_minimal_rdf_violation`` on
  every assignment, ``is_minimal_dominating_set`` on every vertex subset
  and ``private_neighborhood`` of each of its members (recorded under the
  label ``private_neighborhood_report``), then the two hypergraph
  checkers below on the closed-neighborhood hypergraph;
- hypergraphs: ``minimal_rhs_violation`` on every pair and
  ``minimal_rhf_violation`` on every assignment.

The checkers return the name of the first violated condition, so a
change to the order of the conditions or to any name shows up here. A
second test asserts that the corpus meets every condition that each
checker can reach.

Regenerate the file only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_characterize_golden.py > tests/golden/characterize.txt
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from pathlib import Path

import pytest

from romanhs.characterize import (
    minimal_rdf_violation,
    minimal_rhf_violation,
    minimal_rhs_violation,
    po_minimal_rdf_violation,
    private_neighborhood,
)
from romanhs.core import Graph, RhsPair, bits, closed_neighborhood_hypergraph
from romanhs.enumeration import gen_random
from romanhs.extend import is_minimal_dominating_set

GOLDEN = Path(__file__).parent / "golden" / "characterize.txt"

# every value each checker can return. The rhf and rdf checkers never
# name redundant-two-vertex: a 2's private edge (neighbor) other than its
# corresponding one is no 1's corresponding edge, since those avoid the
# 2s, so the 2 is not redundant on the edges the 1s leave.
CONDITIONS = {
    "minimal_rhs_violation": {
        "r1-edge-hit-by-r2", "unhit-edge", "redundant-r2-vertex", None,
    },
    "minimal_rhf_violation": {
        "tau-collision-on-ones", "one-vertex-edge-hit-by-two",
        "two-vertex-without-private-edge", "unhit-edge", None,
    },
    "minimal_rdf_violation": {
        "one-adjacent-to-two", "two-vertex-without-private-neighbor",
        "undominated-vertex", None,
    },
    "po_minimal_rdf_violation": {
        "one-adjacent-to-two", "undominated-vertex", "redundant-two-vertex", None,
    },
}


def _graph(n: int, pairs) -> Graph:
    names = [f"v{i}" for i in range(n)]
    return Graph.build(names, [(names[u], names[v]) for u, v in pairs])


def corpus() -> list[tuple[str, str, tuple]]:
    """(label, kind, instance) per run: kind "graph" holds a Graph, kind
    "tau" a hypergraph and its correspondence."""
    runs = []
    for n in range(1, 5):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(1 << len(pairs)):
            chosen = [p for j, p in enumerate(pairs) if (k >> j) & 1]
            runs.append((f"all{n}e{k}", "graph", (_graph(n, chosen),)))
    rng = random.Random(16)
    for n in (5, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for k in range(6):
            p = rng.choice((0.2, 0.35, 0.5))
            chosen = [pr for pr in pairs if rng.random() < p]
            runs.append((f"rand{n}p{p}k{k}", "graph", (_graph(n, chosen),)))
    draw = random.Random(61)
    for seed in range(40):
        nv = draw.randint(1, 6)
        ne = draw.randint(1, 6)
        density = draw.choice((0.2, 0.3, 0.4, 0.5))
        hf = gen_random(nv, ne, density, seed, with_tau=True)
        runs.append((f"tau{nv}x{ne}d{density}s{seed}", "tau", (hf.hypergraph, hf.tau)))
    return runs


def _hypergraph_answers(h, tau, put) -> None:
    for r1m in range(1 << h.n_edges):
        for r2m in range(1 << h.n_vertices):
            put("minimal_rhs_violation", minimal_rhs_violation(h, RhsPair.from_masks(r1m, r2m)))
    for f in itertools.product((0, 1, 2), repeat=h.n_vertices):
        put("minimal_rhf_violation", minimal_rhf_violation(h, tau, f))


@functools.cache
def run(k: int) -> tuple[str, frozenset]:
    """The golden line of run k, and the (checker, answer) pairs it met
    for the checkers that name conditions."""
    label, kind, inst = RUNS[k]
    digest = hashlib.sha1()
    seen = set()

    def put(checker: str, answer) -> None:
        digest.update(repr((checker, answer)).encode())
        if checker in CONDITIONS:
            seen.add((checker, answer))

    if kind == "graph":
        (g,) = inst
        n = g.n_vertices
        for f in itertools.product((0, 1, 2), repeat=n):
            put("minimal_rdf_violation", minimal_rdf_violation(g, f))
            put("po_minimal_rdf_violation", po_minimal_rdf_violation(g, f))
        for dm in range(1 << n):
            d = list(bits(dm))
            put("is_minimal_dominating_set", is_minimal_dominating_set(g, d))
            # under the label of the report that once gave this tuple, so
            # the digests stay those of the checked-in file
            put(
                "private_neighborhood_report",
                (d, [(v, sorted(private_neighborhood(g, d, v))) for v in d]),
            )
        _hypergraph_answers(*closed_neighborhood_hypergraph(g), put)
    else:
        _hypergraph_answers(*inst, put)
    return f"{label} {digest.hexdigest()}", frozenset(seen)


RUNS = corpus()
EXPECTED = GOLDEN.read_text().splitlines() if GOLDEN.is_file() else []


@pytest.mark.parametrize("k", range(len(RUNS)), ids=[r[0] for r in RUNS])
def test_checkers_match_golden(k):
    assert len(EXPECTED) == len(RUNS), "golden file out of step with the corpus"
    assert run(k)[0] == EXPECTED[k]


def test_corpus_meets_every_condition():
    met: dict[str, set] = {name: set() for name in CONDITIONS}
    for k in range(len(RUNS)):
        for checker, answer in run(k)[1]:
            met[checker].add(answer)
    assert met == CONDITIONS


if __name__ == "__main__":
    for k in range(len(RUNS)):
        print(run(k)[0])
