"""Golden optima, witnesses and node counts of the exact solvers.

For every instance of a fixed corpus (seeded random hypergraphs of mixed
size and density, with and without a correspondence, the fixed instances
of the benchmark's solve and cli workloads, and the tight family) the
checked-in ``golden/exact.txt`` holds the optimum weight, the witness
(the R1 and R2 masks of ``exact_min_rhs``, the assignment of
``exact_min_rhf``) and the node count of the search that produced it.

The witness is the first optimum leaf of the search tree in depth-first
order, so a stronger lower bound or a faster kernel leaves it unchanged.
The test asserts an equal weight, witness and node count, so a change
that prunes more shows up here too, and the file is regenerated with it.

Regenerate the file only for an intended change of the search tree:

    PYTHONPATH=src python tests/test_optimize_golden.py > tests/golden/exact.txt
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from romanhs.enumeration import gen_random, gen_tight
from romanhs.optimize import exact_min_rhf, exact_min_rhs

GOLDEN = Path(__file__).parent / "golden" / "exact.txt"

# (vertices, edges, density, seed, with a correspondence): the exact
# instances of the benchmark's solve workload and the cli's opt.hg/tau.hg
FIXED = (
    (34, 68, 0.1, 3, False),
    (13, 20, 0.25, 8, False),
    (16, 30, 0.15, 13, False),
    (20, 30, 0.15, 10, True),
    (9, 12, 0.3, 9, True),
)


def corpus():
    """(label, hypergraph, correspondence or None) for every run."""
    runs = []
    draw = random.Random(2016)
    for seed in range(64):
        nv = draw.randint(5, 26)
        ne = draw.randint(4, 40)
        density = draw.choice((0.1, 0.15, 0.2, 0.3, 0.4))
        runs.append((f"random{nv}x{ne}d{density}s{seed}", gen_random(nv, ne, density, seed).hypergraph, None))
    for seed in range(100, 132):
        nv = draw.randint(4, 12)
        ne = draw.randint(3, 14)
        density = draw.choice((0.15, 0.2, 0.3, 0.4))
        hf = gen_random(nv, ne, density, seed, with_tau=True)
        # an empty edge admits no hitting function
        if all(hf.hypergraph.edge_members):
            runs.append((f"tau{nv}x{ne}d{density}s{seed}", hf.hypergraph, hf.tau))
    for nv, ne, density, seed, tau in FIXED:
        hf = gen_random(nv, ne, density, seed, with_tau=tau)
        runs.append((f"fixed{nv}x{ne}d{density}s{seed}{'tau' if tau else ''}", hf.hypergraph, hf.tau))
    for n in range(1, 9):
        runs.append((f"tight{n}", gen_tight(n), None))
    return runs


def record(label, h, tau):
    """One golden entry: the optimum, its witness and the node count."""
    if tau is not None:
        res = exact_min_rhf(h, tau)
        witness = list(res.witness)
    else:
        res = exact_min_rhs(h)
        witness = [res.witness.r1_mask(), res.witness.r2_mask()]
    return {"label": label, "weight": res.weight, "witness": witness, "nodes": res.nodes}


RUNS = corpus()
EXPECTED = [json.loads(line) for line in GOLDEN.read_text().splitlines()] if GOLDEN.is_file() else []


@pytest.mark.parametrize("k", range(len(RUNS)), ids=[r[0] for r in RUNS])
def test_exact_matches_golden(k):
    assert len(EXPECTED) == len(RUNS), "golden file out of step with the corpus"
    got, want = record(*RUNS[k]), EXPECTED[k]
    assert (got["label"], got["weight"], got["witness"]) == (want["label"], want["weight"], want["witness"])
    assert got["nodes"] == want["nodes"]


if __name__ == "__main__":
    for run in RUNS:
        print(json.dumps(record(*run), sort_keys=True))
