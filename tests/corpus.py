"""Shared instance builders for the test suite.

Everything here is test-side plumbing: worked examples used across
modules, exhaustive small-graph generators, and seeded random instance
builders kept independent of the library's own generators so the two can
cross-check each other.
"""

from __future__ import annotations

import itertools
import random
from typing import Iterator, Mapping

from romanhs.core import (
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    _assignment,
    _instance_masks,
    _level_masks,
    _rhf_violation,
    bits,
)


def build_ex1() -> Hypergraph:
    return Hypergraph.build(
        ["a", "b", "c", "d"],
        [
            ("1", ["a", "b"]),
            ("2", ["a"]),
            ("3", ["b"]),
            ("4", ["a", "c"]),
            ("5", ["c", "d"]),
        ],
    )


def ex1_tau(h: Hypergraph) -> Correspondence:
    return Correspondence.from_tokens(h, {"a": "1", "b": "3", "c": "4", "d": "5"})


def build_ex2() -> Hypergraph:
    return Hypergraph.build(
        ["a", "b", "c", "d", "e"],
        [
            ("1", ["a", "b"]),
            ("2", ["b", "c"]),
            ("3", ["b", "e"]),
            ("4", ["b", "c", "d"]),
            ("5", ["d", "e"]),
        ],
    )


def ex2_tau(h: Hypergraph) -> Correspondence:
    return Correspondence.from_tokens(
        h, {"a": "1", "b": "1", "c": "2", "d": "4", "e": "3"}
    )


def path_graph(n: int) -> Graph:
    names = [f"v{i}" for i in range(n)]
    return Graph.build(names, [(names[i], names[i + 1]) for i in range(n - 1)])


def complete_graph(n: int) -> Graph:
    names = [f"v{i}" for i in range(n)]
    return Graph.build(names, list(itertools.combinations(names, 2)))


def star_graph(leaves: int) -> Graph:
    names = ["c"] + [f"l{i}" for i in range(leaves)]
    return Graph.build(names, [("c", l) for l in names[1:]])


def assignment_of(obj, values: Mapping[str, int]) -> tuple[int, ...]:
    """Assignment tuple from a token->value map; absent tokens are 0."""
    f = [0] * obj.n_vertices
    for tok, v in values.items():
        f[obj.vertex_id(tok)] = v
    return tuple(f)


def all_assignments(n: int) -> Iterator[tuple[int, ...]]:
    return itertools.product((0, 1, 2), repeat=n)


def all_pairs(h: Hypergraph) -> Iterator[RhsPair]:
    for r1m in range(1 << h.n_edges):
        for r2m in range(1 << h.n_vertices):
            yield RhsPair.from_masks(r1m, r2m)


def from_networkx(nxg) -> Graph:
    names = {v: f"v{i}" for i, v in enumerate(sorted(nxg.nodes, key=str))}
    return Graph.build(
        [names[v] for v in sorted(nxg.nodes, key=str)],
        [(names[u], names[v]) for u, v in nxg.edges],
    )


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    if n <= 1:
        return True
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    seen = 1
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in range(n):
            if (adj[u] >> v) & 1 and not (seen >> v) & 1:
                seen |= 1 << v
                frontier.append(v)
    return seen == (1 << n) - 1


def connected_graphs_upto(max_n: int) -> list[Graph]:
    """Every labeled connected graph on 1..max_n vertices."""
    out = []
    for n in range(1, max_n + 1):
        slots = list(itertools.combinations(range(n), 2))
        names = [f"v{i}" for i in range(n)]
        for pick in range(1 << len(slots)):
            edges = [slots[j] for j in range(len(slots)) if (pick >> j) & 1]
            if _connected(n, edges):
                out.append(
                    Graph.build(names, [(names[u], names[v]) for u, v in edges])
                )
    return out


def atlas_graphs_upto(max_n: int) -> list[Graph]:
    """All graphs up to isomorphism with at most max_n vertices."""
    from networkx.generators.atlas import graph_atlas_g

    return [
        from_networkx(g) for g in graph_atlas_g() if g.number_of_nodes() <= max_n
    ]


def random_hypergraph(
    rng: random.Random, max_v: int = 6, max_e: int = 6, density: float = 0.45
) -> Hypergraph:
    nv = rng.randint(0, max_v)
    ne = rng.randint(0, max_e)
    names = [f"x{i}" for i in range(nv)]
    edges = []
    for i in range(ne):
        members = [t for t in names if rng.random() < density]
        edges.append((f"e{i}", members))
    return Hypergraph.build(names, edges)


def random_tau(rng: random.Random, h: Hypergraph) -> Correspondence | None:
    """Uniform containing edge per vertex; None when some vertex is in no edge."""
    mapping = []
    for x in range(h.n_vertices):
        containing = [i for i in range(h.n_edges) if (h.edge_members[i] >> x) & 1]
        if not containing:
            return None
        mapping.append(rng.choice(containing))
    return Correspondence(tuple(mapping))


def random_instance_with_tau(
    rng: random.Random, max_v: int = 6, max_e: int = 6
) -> tuple[Hypergraph, Correspondence]:
    """Random hypergraph where every vertex lies in some edge, plus a tau."""
    while True:
        h = random_hypergraph(rng, max_v, max_e)
        if h.n_vertices and not h.n_edges:
            continue
        tau = random_tau(rng, h)
        if tau is not None:
            return h, tau


def random_pair(rng: random.Random, h: Hypergraph) -> RhsPair:
    r1m = rng.getrandbits(h.n_edges) if h.n_edges else 0
    r2m = rng.getrandbits(h.n_vertices) if h.n_vertices else 0
    return RhsPair.from_masks(r1m, r2m)


def random_assignment(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.choice((0, 0, 1, 2)) for _ in range(n))


def random_split_graph(
    rng: random.Random, max_n: int = 8
) -> tuple[Graph, set[str], set[str]]:
    """Graph plus a (clique, independent) partition that witnesses splitness."""
    n = rng.randint(1, max_n)
    nc = rng.randint(0, n)
    names = [f"v{i}" for i in range(n)]
    clique = set(names[:nc])
    indep = set(names[nc:])
    edges = list(itertools.combinations(sorted(clique), 2))
    for c in sorted(clique):
        for i in sorted(indep):
            if rng.random() < 0.5:
                edges.append((c, i))
    return Graph.build(names, edges), clique, indep

def brute_min_rhs_weight(h: Hypergraph) -> int:
    """Exhaustive optimum: best R2 plus the forced unhit R1 edges."""
    best = None
    for r2m in range(1 << h.n_vertices):
        w = 2 * bin(r2m).count("1")
        w += sum(1 for m in h.edge_members if not m & r2m)
        if best is None or w < best:
            best = w
    return best


def brute_min_rhf_weight(h: Hypergraph, tau: Correspondence) -> int | None:
    """Exhaustive assignment optimum; None when no hitting function exists."""
    from romanhs.core import is_rhf

    best = None
    for f in all_assignments(h.n_vertices):
        if is_rhf(h, tau, f) and (best is None or sum(f) < best):
            best = sum(f)
    return best


def brute_min_rdf_weight(g: Graph) -> int | None:
    from romanhs.core import is_rdf

    best = None
    for f in all_assignments(g.n_vertices):
        if is_rdf(g, f) and (best is None or sum(f) < best):
            best = sum(f)
    return best


def brute_min_vc_size(g: Graph) -> int:
    best = None
    for cm in range(1 << g.n_vertices):
        if all((cm >> u) & 1 or (cm >> v) & 1 for u, v in g.edges):
            size = bin(cm).count("1")
            if best is None or size < best:
                best = size
    return best


def brute_min_rvc_weight(g: Graph) -> int:
    """Best 2|R2| plus one per edge left uncovered (the forced R1)."""
    best = None
    for r2m in range(1 << g.n_vertices):
        w = 2 * bin(r2m).count("1")
        w += sum(
            1
            for u, v in g.edges
            if not (r2m >> u) & 1 and not (r2m >> v) & 1
        )
        if best is None or w < best:
            best = w
    return best


def minimal_dominating_sets(g: Graph) -> set[frozenset[int]]:
    from romanhs.extend import is_minimal_dominating_set

    out = set()
    for dm in range(1 << g.n_vertices):
        d = frozenset(v for v in range(g.n_vertices) if (dm >> v) & 1)
        if is_minimal_dominating_set(g, d):
            out.add(d)
    return out


def capped_paths_text(k: int, z: bool = True) -> str:
    """Graph file of k paths u-v-w, each with its middle vertex capped at 0.

    A vertex capped at 0 needs a neighbor at 2, so u or w rises to 2, and
    there are 2^k ways to choose. With z, an isolated vertex whose lower
    and upper values are both 2, no minimal rdf fits, since lowering z to
    1 keeps any rdf valid; without z, one does.
    """
    head = "vertex z" if z else "vertex"
    lines = [head + "".join(f" u{j} v{j} w{j}" for j in range(k))]
    for j in range(k):
        lines += [f"gedge u{j} v{j}", f"gedge v{j} w{j}", f"upper v{j} 0"]
    if z:
        lines.append("assign z 2")
    return "\n".join(lines) + "\n"


def general_sweep(
    h: Hypergraph, tau: Correspondence, f: tuple[int, ...]
) -> tuple[int, ...] | None:
    """Reference for the general extension question: the first minimal rhf
    above f in the lexicographic order of itertools.product, or None.

    A depth-first search over the assignments above f, vertex 0 first and
    each vertex's values ascending. A prefix is dropped once it breaks a
    condition of a minimal rhf that no completion repairs: two 1s share a
    corresponding edge, a 1's corresponding edge holds a 2, a 2 has no
    private edge besides its corresponding one, or an edge is neither hit
    nor claimed once its highest member is decided. Later 2s only take
    privacy away, and only from the 2s they share an edge with, so a new 2
    rechecks itself and, when it makes an edge of earlier 2s hit twice, the
    earlier 2s. So every complete candidate is a minimal rhf (an empty
    edge, never hit, answers no at once). It spends no work budget.
    """
    n = h.n_vertices
    f_ones, f_twos = _level_masks(f, n)
    members, incidence, mapping = inst = _instance_masks(h, tau)
    if not all(members):
        return None
    # the edges that can be private to x as a 2
    own = [inc & ~(1 << i) for inc, i in zip(incidence, mapping)]
    # the edges whose highest member is x
    closes = [0] * n
    for i, m in enumerate(members):
        closes[m.bit_length() - 1] |= 1 << i
    # a node: the next vertex, its 1s and 2s, the 1s' corresponding edges
    # and the union of their members, and the edges its 2s hit at least
    # once and at least twice; a 2 keeps its own edges that are hit once
    stack = [(0, 0, 0, 0, 0, 0, 0)]
    pop, push = stack.pop, stack.append
    while stack:
        x, m1, m2, img, cover, hit, multi = pop()
        if x == n:
            assert _rhf_violation(*inst, m1, m2) is None
            return _assignment(n, m1, m2)
        bit = 1 << x
        # the edges that x must hit or claim now; a 2 on x hits them all
        unmet = closes[x] & ~(img | hit)
        # push the largest value first, so the smallest is expanded first
        if not cover & bit:
            inc = incidence[x]
            shared = hit & inc
            twice = multi | shared
            if own[x] & ~twice and (
                not shared & ~multi or all(own[y] & ~twice for y in bits(m2))
            ):
                push((x + 1, m1, m2 | bit, img, cover, hit | inc, twice))
        if not f_twos & bit:
            i = mapping[x]
            if not (img | hit) >> i & 1 and not unmet & ~(1 << i):
                push(
                    (x + 1, m1 | bit, m2, img | 1 << i, cover | members[i], hit, multi)
                )
            if not f_ones & bit and not unmet:
                push((x + 1, m1, m2, img, cover, hit, multi))
    return None
