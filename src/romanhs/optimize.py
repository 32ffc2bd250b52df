"""Minimum-weight solvers for the Roman problem family.

exact_min_rhs is a branch-and-reduce search whose reduction rules commit
cheap vertices out of R2 (degree at most 2) and force obligatory ones in
(three or more private singleton edges), so branches only ever touch
vertices of degree 3 and up. exact_min_rhf rides on the edge-twinning
reduction. The greedy pair gives the classical logarithmic guarantee,
and the Roman vertex/edge cover solvers close out the graph variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .core import (
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    RomanAssignment,
    bits,
    is_rhf,
    is_rhs,
    weight_pair,
)
from .enumeration import EnumerationStats, enumerate_minimal_rhs
from .errors import InputError
from .reduce import rhf_to_rhs


@dataclass(frozen=True)
class OptResult:
    """Optimum weight, a witness attaining it, and search effort."""

    weight: int
    witness: Union[RhsPair, RomanAssignment]
    nodes: int = 0


# ---------------------------------------------------------------------------
# Greedy approximation


def _greedy_cover(h: Hypergraph) -> frozenset[int]:
    """Max-coverage greedy hitting set over the distinct edge contents."""
    live = sorted({m for m in h.edge_members if m})
    chosen = []
    while live:
        best_x, best_cover = -1, 0
        for x in range(h.n_vertices):
            cover = sum(1 for m in live if (m >> x) & 1)
            if cover > best_cover:
                best_x, best_cover = x, cover
        chosen.append(best_x)
        live = [m for m in live if not (m >> best_x) & 1]
    return frozenset(chosen)


def greedy_rhs(h: Hypergraph) -> tuple[RhsPair, int]:
    """Greedy pair within 2(ln|I|+1) of the optimum.

    Edges with no members cannot be hit and land in R1; everything else
    is hit by the greedy cover. Coverage ties break toward the smallest
    vertex id, so the result is deterministic.
    """
    r1 = frozenset(i for i in range(h.n_edges) if not h.edge_members[i])
    pair = RhsPair(r1, _greedy_cover(h))
    assert is_rhs(h, pair)
    return pair, weight_pair(pair)


def greedy_rhf(
    h: Hypergraph, tau: Correspondence
) -> tuple[RomanAssignment, int]:
    """Assignment with the greedy cover at 2 and nothing at 1."""
    tau.validate(h)
    if any(m == 0 for m in h.edge_members):
        raise InputError(
            "an edge with no members admits no hitting function"
        )
    cover = _greedy_cover(h)
    f = tuple(2 if x in cover else 0 for x in range(h.n_vertices))
    assert is_rhf(h, tau, f)
    return f, sum(f)


# ---------------------------------------------------------------------------
# Exact minimum Roman hitting set


class _MinRhsSearch:
    __slots__ = ("members", "inc", "n", "best_w", "best", "nodes")

    def __init__(self, h: Hypergraph) -> None:
        self.members = h.edge_members
        self.inc = tuple(h.incidence_mask(x) for x in range(h.n_vertices))
        self.n = h.n_vertices
        self.best_w: int | None = None
        self.best: tuple[int, int] | None = None
        self.nodes = 0

    def run(self) -> OptResult:
        self._node((1 << self.n) - 1, (1 << len(self.members)) - 1, 0, 0)
        assert self.best is not None
        return OptResult(
            self.best_w, RhsPair.from_masks(*self.best), self.nodes
        )

    def _reduce(
        self, livev: int, live_e: int, r1m: int, r2m: int
    ) -> tuple[int, int, int, int]:
        members = self.members
        inc = self.inc
        while True:
            drained = 0
            for i in bits(live_e):
                if not members[i] & livev:
                    drained |= 1 << i
            if drained:
                r1m |= drained
                live_e &= ~drained
                continue
            x = next(
                (
                    x
                    for x in bits(livev)
                    if bin(inc[x] & live_e).count("1") <= 2
                ),
                -1,
            )
            if x >= 0:
                livev &= ~(1 << x)
                continue
            forced = -1
            for x in bits(livev):
                xbit = 1 << x
                singles = sum(
                    1
                    for i in bits(inc[x] & live_e)
                    if members[i] & livev == xbit
                )
                if singles >= 3:
                    forced = x
                    break
            if forced < 0:
                return livev, live_e, r1m, r2m
            livev &= ~(1 << forced)
            live_e &= ~self.inc[forced]
            r2m |= 1 << forced

    def _node(self, livev: int, live_e: int, r1m: int, r2m: int) -> None:
        livev, live_e, r1m, r2m = self._reduce(livev, live_e, r1m, r2m)
        self.nodes += 1
        w = bin(r1m).count("1") + 2 * bin(r2m).count("1")
        if not live_e:
            if self.best_w is None or w < self.best_w:
                self.best_w = w
                self.best = (r1m, r2m)
            return
        inc = self.inc
        degs = [(x, bin(inc[x] & live_e).count("1")) for x in bits(livev)]
        d = bin(live_e).count("1")
        delta = max(deg for _, deg in degs)
        lb = -(-2 * d // max(2, delta))
        if self.best_w is not None and w + lb >= self.best_w:
            return
        x3 = next((x for x, deg in degs if deg == 3), -1)
        if x3 >= 0:
            xbit = 1 << x3
            self._node(livev & ~xbit, live_e, r1m, r2m)
            others = 0
            for i in bits(inc[x3] & live_e):
                others |= self.members[i] & livev
            others &= ~xbit
            self._node(
                livev & ~xbit & ~others,
                live_e & ~inc[x3],
                r1m,
                r2m | xbit,
            )
            return
        x4 = next((x for x, deg in degs if deg >= 4), -1)
        if x4 >= 0:
            xbit = 1 << x4
            self._node(livev & ~xbit, live_e & ~inc[x4], r1m, r2m | xbit)
            self._node(livev & ~xbit, live_e, r1m, r2m)
            return
        raise RuntimeError("no branching rule applies; search is stuck")


def exact_min_rhs(h: Hypergraph) -> OptResult:
    """Global minimum pair weight by branch and reduce.

    Reductions: drained edges move to R1; vertices covering at most two
    live edges leave (R1 can do their job at no extra cost); vertices
    carrying three or more singleton edges enter R2 (any solution
    without them pays more). Branching takes a degree-3 vertex with the
    exchange argument that its R2-case needs no co-member in R2, and
    otherwise splits plainly on a vertex of degree 4 or more. A best-so-
    far bound with the covering lower bound ceil(2d/max(2, maxdeg))
    prunes hopeless trunks. Nodes are counted after each reduction pass.
    """
    res = _MinRhsSearch(h).run()
    assert is_rhs(h, res.witness)
    assert weight_pair(res.witness) == res.weight
    return res


def exact_min_rhf(h: Hypergraph, tau: Correspondence) -> OptResult:
    """Global minimum assignment weight via the edge-twinning reduction.

    Twinning makes unclaimable edges expensive enough that hitting-set
    optima agree with hitting-function optima; the backward mapper turns
    the optimal pair into an assignment of the same weight.
    """
    ro = rhf_to_rhs(h, tau)
    inner = exact_min_rhs(ro.instance)
    f = ro.backward(inner.witness)
    assert sum(f) == inner.weight
    return OptResult(inner.weight, f, inner.nodes)


# ---------------------------------------------------------------------------
# Roman vertex cover and Roman edge cover


def edge_hypergraph(g: Graph) -> Hypergraph:
    """Each graph edge becomes a 2-element hyperedge over the vertices.

    Minimal Roman vertex covers of the graph are exactly the minimal
    pairs of this hypergraph. Edge tokens join the endpoint tokens with
    a tilde, in declaration order, so edge indices carry over.
    """
    return Hypergraph(
        g.vertex_tokens,
        tuple(
            f"{g.vertex_tokens[u]}~{g.vertex_tokens[v]}" for u, v in g.edges
        ),
        tuple((1 << u) | (1 << v) for u, v in g.edges),
    )


def incidence_hypergraph(g: Graph) -> Hypergraph:
    """Each vertex becomes the hyperedge of its incident graph edges.

    Hitting pairs here are Roman edge covers of the graph: R1 picks
    vertices to leave to the cheap guard, R2 picks protecting edges.
    """
    edge_tokens = tuple(
        f"{g.vertex_tokens[u]}~{g.vertex_tokens[v]}" for u, v in g.edges
    )
    incident = [0] * g.n_vertices
    for idx, (u, v) in enumerate(g.edges):
        incident[u] |= 1 << idx
        incident[v] |= 1 << idx
    return Hypergraph(edge_tokens, g.vertex_tokens, tuple(incident))


def _rvc_decide_counted(g: Graph, k: int) -> tuple[bool, int]:
    if k < 0:
        raise InputError("the weight budget must be nonnegative")
    edges = g.edges
    nodes = 0

    def rec(dead_v: int, dead_e: int, budget: int) -> bool:
        nonlocal nodes
        nodes += 1
        live = [
            (idx, u, v)
            for idx, (u, v) in enumerate(edges)
            if not (dead_e >> idx) & 1
            and not (dead_v >> u) & 1
            and not (dead_v >> v) & 1
        ]
        if not live:
            return True
        if budget <= 0:
            return False
        if budget == 1:
            return len(live) == 1
        idx, u, v = live[0]
        return (
            rec(dead_v | 1 << u, dead_e, budget - 2)
            or rec(dead_v | 1 << v, dead_e, budget - 2)
            or rec(dead_v, dead_e | 1 << idx, budget - 1)
        )

    return rec(0, 0, k), nodes


def rvc_decide(g: Graph, k: int) -> bool:
    """Is there a Roman vertex cover of weight at most k?

    Branches on the first live edge: protect one endpoint (budget -2,
    either side) or leave the edge to the guard (budget -1). A single
    remaining edge fits a budget of exactly 1, the empty edge set fits
    any budget.
    """
    return _rvc_decide_counted(g, k)[0]


def rvc_enumerate(
    g: Graph, k: int, sink: Callable[[RhsPair], None] | None = None
) -> EnumerationStats:
    """Emit every minimal Roman vertex cover of weight at most k once.

    Runs the minimal-pair enumerator on the edge hypergraph with the
    weight cap. R1 indices in emitted pairs are graph edge indices. The
    cap only prunes: the search expands a subset of the nodes of the
    uncapped enumeration, so that enumeration's node count bounds the
    total work and every gap between emissions. The linear delay of the
    uncapped run does not carry over, because an expanded subtree may
    hold no cover light enough; on a 12-vertex, 18-edge graph with k = 12
    two emissions lie 75 expanded nodes apart, past the uncapped bound
    2(|X| + |I|) + 2 = 62.
    """
    if k < 0:
        raise InputError("the weight budget must be nonnegative")
    return enumerate_minimal_rhs(edge_hypergraph(g), weight_cap=k, sink=sink)


def rec_min(g: Graph) -> OptResult:
    """Minimum Roman edge cover: weight |V|, attained by (V, empty).

    Every vertex must be paid for at least once: an R2 edge pays 2 and
    serves at most its 2 endpoints, an R1 vertex pays 1 for itself, so
    no pair beats |V|, and putting every vertex into R1 reaches it.
    """
    witness = RhsPair(frozenset(range(g.n_vertices)), frozenset())
    assert is_rhs(incidence_hypergraph(g), witness)
    return OptResult(g.n_vertices, witness, 0)
