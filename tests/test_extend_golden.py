"""Golden decisions and witnesses of the extension solvers.

For seeded corpora of every public extension routine (ext_rhs,
ext_rhf_surjective, ext_rhf_general with both strategies, bounded_ext_rd
and ext_ds_split) the checked-in
``golden/extend.txt`` holds the decision and the exact witness, or the
class and message of the error raised (InputError for malformed input or
a violated precondition, GuardRefused past the work limit). The witness
is the first one each search finds, so any change to the search order,
the fill or the validation shows up here.

Regenerate the file only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_extend_golden.py > tests/golden/extend.txt
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from corpus import (
    capped_paths_text,
    connected_graphs_upto,
    random_assignment,
    random_split_graph,
)
from romanhs.core import (
    BoundedRdInstance,
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    closed_neighborhood_hypergraph,
    parse_graph_text,
)
from romanhs.enumeration import brute_enumerate_minimal_rhf, gen_random
from romanhs.errors import GuardRefused, InputError
from romanhs.extend import (
    bounded_ext_rd,
    ext_ds_split,
    ext_rhf_general,
    ext_rhf_surjective,
    ext_rhs,
)

GOLDEN = Path(__file__).parent / "golden" / "extend.txt"


def _tau_instance(draw: random.Random, seed: int, max_v: int, max_e: int):
    nv = draw.randint(1, max_v)
    ne = draw.randint(1, max_e)
    density = draw.choice((0.15, 0.2, 0.3, 0.4))
    hf = gen_random(nv, ne, density, seed, with_tau=True)
    return f"{nv}x{ne}d{density}s{seed}", hf.hypergraph, hf.tau


def _random_graph(draw: random.Random, max_n: int) -> Graph:
    n = draw.randint(1, max_n)
    names = [f"v{i}" for i in range(n)]
    p = draw.choice((0.2, 0.35, 0.5))
    edges = [
        (names[u], names[v])
        for u in range(n)
        for v in range(u + 1, n)
        if draw.random() < p
    ]
    return Graph.build(names, edges)


def _one_edge(n: int) -> tuple[Hypergraph, Correspondence]:
    names = [f"x{i}" for i in range(n)]
    return Hypergraph.build(names, [("e", names)]), Correspondence((0,) * n)


def _below(draw: random.Random, h: Hypergraph, tau, zeros: float):
    """An assignment below a random minimal rhf, or a random one if none."""
    minimal = brute_enumerate_minimal_rhf(h, tau)
    if not minimal:
        return random_assignment(draw, h.n_vertices)
    top = draw.choice(minimal)
    return tuple(0 if draw.random() < zeros else draw.randint(min(v, 1), v) for v in top)


def _prehit(draw: random.Random, h: Hypergraph, tau, f):
    """f with a 2 on some member of most unhit preimage-free edges."""
    f = list(f)
    for i in range(h.n_edges):
        m = h.edge_members[i]
        hit = any(f[x] == 2 for x in range(len(f)) if (m >> x) & 1)
        if m and not (tau.range_mask >> i) & 1 and not hit and draw.random() < 0.85:
            f[draw.choice([x for x in range(len(f)) if (m >> x) & 1])] = 2
    return tuple(f)


def corpus():
    """(label, routine name, zero-argument call) for every run."""
    runs = []
    draw = random.Random(2023)

    for seed in range(60):
        nv, ne = draw.randint(1, 12), draw.randint(1, 14)
        density = draw.choice((0.15, 0.25, 0.4))
        h = gen_random(nv, ne, density, seed).hypergraph
        for k in range(3):
            pair = RhsPair.from_masks(
                draw.getrandbits(ne) & draw.getrandbits(ne),
                draw.getrandbits(nv) & draw.getrandbits(nv) & draw.getrandbits(nv),
            )
            runs.append((f"{nv}x{ne}d{density}s{seed}/{k}", "ext_rhs", lambda h=h, p=pair: ext_rhs(h, p)))
    h1 = gen_random(3, 2, 0.5, 0).hypergraph
    runs.append(("out-of-range", "ext_rhs", lambda: ext_rhs(h1, RhsPair.from_masks(0, 1 << 3))))

    for gi, g in enumerate(connected_graphs_upto(4)[::3]):
        h, tau = closed_neighborhood_hypergraph(g)
        for k in range(3):
            f = random_assignment(draw, g.n_vertices)
            runs.append((f"closed-nbhd-g{gi}/{k}", "ext_rhf_surjective", lambda h=h, t=tau, f=f: ext_rhf_surjective(h, t, f)))
    for seed in range(200, 260):
        label, h, tau = _tau_instance(draw, seed, 8, 9)
        for k in range(2):
            f = _prehit(draw, h, tau, _below(draw, h, tau, 0.3) if k else random_assignment(draw, h.n_vertices))
            runs.append((f"{label}/{k}", "ext_rhf_surjective", lambda h=h, t=tau, f=f: ext_rhf_surjective(h, t, f)))
    h2, tau2 = _one_edge(3)
    runs.append(("bad-length", "ext_rhf_surjective", lambda: ext_rhf_surjective(h2, tau2, (0, 0))))
    runs.append(("bad-value", "ext_rhf_surjective", lambda: ext_rhf_surjective(h2, tau2, (0, 3, 0))))
    runs.append(("bad-tau", "ext_rhf_surjective", lambda: ext_rhf_surjective(h2, Correspondence((0, 1, 0)), (0, 0, 0))))

    for seed in range(300, 380):
        label, h, tau = _tau_instance(draw, seed, 8, 10)
        for k in range(2):
            f = _below(draw, h, tau, 0.4) if k else random_assignment(draw, h.n_vertices)
            for strategy in ("sweep", "witness"):
                runs.append((f"{label}/{k}/{strategy}", "ext_rhf_general", lambda h=h, t=tau, f=f, s=strategy: ext_rhf_general(h, t, f, strategy=s)))
    for seed in range(400, 430):
        label, h, tau = _tau_instance(draw, seed, 16, 20)
        f = tuple(draw.choice((0, 0, 0, 0, 0, 1, 1, 2)) for _ in range(h.n_vertices))
        runs.append((f"{label}/witness", "ext_rhf_general", lambda h=h, t=tau, f=f: ext_rhf_general(h, t, f, strategy="witness")))
    h13, tau13 = _one_edge(13)
    runs.append(("one-edge13/sweep", "ext_rhf_general", lambda: ext_rhf_general(h13, tau13, (0,) * 13, strategy="sweep")))
    runs.append(("one-edge13/1/sweep", "ext_rhf_general", lambda: ext_rhf_general(h13, tau13, (1,) + (0,) * 12, strategy="sweep")))
    names = [f"x{i}" for i in range(21)]
    h21 = Hypergraph.build(names, [(f"e{i}", [x]) for i, x in enumerate(names)])
    tau21 = Correspondence(tuple(range(21)))
    runs.append(("private21/witness", "ext_rhf_general", lambda: ext_rhf_general(h21, tau21, (1,) * 21, strategy="witness")))
    names = [f"x{j}" for j in range(5)]
    edges = [(f"t{j}", [x]) for j, x in enumerate(names)]
    edges += [(f"p{j}_{k}", [x]) for j, x in enumerate(names) for k in range(17)]
    h5 = Hypergraph.build(names, edges + [("free", names)])
    tau5 = Correspondence(tuple(range(5)))
    runs.append(("maps-17-pow-5/witness", "ext_rhf_general", lambda: ext_rhf_general(h5, tau5, (2,) * 5, strategy="witness")))
    runs.append(("bad-strategy", "ext_rhf_general", lambda: ext_rhf_general(h2, tau2, (0, 0, 0), strategy="fast")))

    graphs = connected_graphs_upto(4)[::2] + [_random_graph(draw, 12) for _ in range(40)]
    for gi, g in enumerate(graphs):
        for k in range(3):
            lower = tuple(draw.choice((0, 0, 0, 1, 2)) for _ in range(g.n_vertices))
            upper = tuple(draw.choice((0, 1, 2, 2)) for _ in range(g.n_vertices))
            inst = BoundedRdInstance.build(g, lower, upper)
            runs.append((f"g{gi}/{k}", "bounded_ext_rd", lambda i=inst: bounded_ext_rd(i)))
    for k in (3, 8, 21):
        gf = parse_graph_text(capped_paths_text(k))
        inst = BoundedRdInstance.build(gf.graph, gf.assignment, gf.upper)
        runs.append((f"capped-paths{k}", "bounded_ext_rd", lambda i=inst: bounded_ext_rd(i)))

    for k in range(80):
        g, clique, indep = random_split_graph(draw, max_n=9)
        split = ({g.vertex_id(t) for t in clique}, {g.vertex_id(t) for t in indep})
        u = {v for v in range(g.n_vertices) if draw.random() < 0.2}
        runs.append((f"split{k}", "ext_ds_split", lambda g=g, s=split, u=u: ext_ds_split(g, s, u)))
    gs, clique, indep = random_split_graph(random.Random(5), max_n=6)
    split = ({gs.vertex_id(t) for t in clique}, {gs.vertex_id(t) for t in indep})
    runs.append(("unknown-vertex", "ext_ds_split", lambda: ext_ds_split(gs, split, {gs.n_vertices})))
    runs.append(("not-a-partition", "ext_ds_split", lambda: ext_ds_split(gs, (split[0], set()), set())))

    # the two guard instances above with a preimage-free edge that no
    # closure 2 hits, so the witness search goes on past its first 2-set
    h21f = Hypergraph.build(h21.vertex_tokens, [(f"e{i}", [x]) for i, x in enumerate(h21.vertex_tokens)] + [("free", h21.vertex_tokens)])
    runs.append(("private21-free/witness", "ext_rhf_general", lambda: ext_rhf_general(h21f, tau21, (1,) * 21, strategy="witness")))
    h5f = Hypergraph.build(names + ["y"], edges + [("free", names), ("ty", ["y"]), ("loose", ["y"])])
    tau5f = Correspondence(tuple(range(5)) + (h5f.edge_id("ty"),))
    runs.append(("maps-17-pow-5-loose/witness", "ext_rhf_general", lambda: ext_rhf_general(h5f, tau5f, (2,) * 5 + (0,), strategy="witness")))
    return runs


def _witness(w):
    if isinstance(w, RhsPair):
        return [w.r1_mask(), w.r2_mask()]
    if isinstance(w, frozenset):
        return sorted(w)
    return list(w)


def record(label, routine, call):
    """One golden entry: the decision and witness, or the error raised."""
    entry = {"label": label, "routine": routine}
    try:
        out = call()
    except (InputError, GuardRefused) as e:
        entry["error"] = [type(e).__name__, str(e)]
        return entry
    if isinstance(out, bool):
        entry["decision"] = out
    else:
        entry["decision"] = out.decision
        entry["witness"] = None if out.witness is None else _witness(out.witness)
    return entry


RUNS = corpus()
EXPECTED = GOLDEN.read_text().splitlines() if GOLDEN.is_file() else []


@pytest.mark.parametrize("k", range(len(RUNS)), ids=[f"{r[1]}:{r[0]}" for r in RUNS])
def test_extension_matches_golden(k):
    assert len(EXPECTED) == len(RUNS), "golden file out of step with the corpus"
    assert json.dumps(record(*RUNS[k]), sort_keys=True) == EXPECTED[k]


if __name__ == "__main__":
    for run in RUNS:
        print(json.dumps(record(*run), sort_keys=True))
