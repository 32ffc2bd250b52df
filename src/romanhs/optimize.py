"""Minimum-weight solvers for the Roman problem family.

exact_min_rhs is a branch-and-reduce search whose reduction rules commit
cheap vertices out of R2 (degree at most 2) and force obligatory ones in
(three or more private singleton edges), so branches only ever touch
vertices of degree 3 and up. It runs depth first from an explicit stack
of mask nodes (live vertices, live edges, R1, R2). Each node is
reduced to a fixpoint on a summary of bit-sliced live-degree and
singleton-edge masks, so a whole batch of vertices leaves at once. Only
the root builds the summary in one pass over its edges; every child
carries its parent's summary on the stack and derives its own through
two exact updates. Dropping vertices re-reads only the live edges they
were in; taking a vertex into R2 recounts only the degrees of the other
members of its live edges. Two lower bounds prune against the best
weight so far: the covering bound ceil(2d / max(2, maxdeg)), whose
maxdeg the summary narrows to the d4 vertices, and a maximal packing of
live edges in which no vertex lies in more than two of them. The
covering test stops once its answer is known: the bound falls as maxdeg
grows, so the d4 walk stops at the first vertex that takes it below what
the node still needs, and is skipped when ceil(2d / 4) already is. The
packing is carried on the stack like the summary: a node drops what left
of the last packing on its path and tops it up only around the vertices
that freed. Because the tree does not depend on the incumbent, the
witness is always the first optimum leaf in depth-first order, whatever
the bounds prune.
exact_min_rhf rides on the edge-twinning reduction. The search takes
edge and incidence masks, not a Hypergraph, so rvc_decide runs it on a
graph's edge masks with the weight budget as its starting incumbent,
stopping at the first cover that fits. The greedy pair gives the
classical logarithmic guarantee, and the Roman vertex cover lister and
the Roman edge cover optimum close out the graph variants.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .core import (
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    RomanAssignment,
    _Frozen,
    _assignment,
    _edge_masks,
    _edge_token_ids,
    _instance_masks,
    _is_rhf,
    _is_rhs,
    _prebuilt,
    _require_nonempty_edges,
    bits,
    mask_of,
    weight_pair,
)
from .enumeration import EnumerationStats, _enumerate
from .errors import InputError


class OptResult(_Frozen):
    """Optimum weight, a witness attaining it, and search effort."""

    __slots__ = _fields = ("weight", "witness", "nodes")
    weight: int
    witness: RhsPair | RomanAssignment
    nodes: int

    def __init__(self, weight: int, witness: RhsPair | RomanAssignment, nodes: int = 0) -> None:
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "nodes", nodes)


# ---------------------------------------------------------------------------
# Greedy approximation


def _greedy_cover(h: Hypergraph) -> frozenset[int]:
    """Max-coverage greedy hitting set over the distinct edge contents.

    Each vertex keeps the number of live edges it would hit, and one
    bucket mask per count holds the vertices at that count. The pick is
    the lowest vertex of the highest non-empty bucket, the first maximum,
    so ties go to the smallest vertex id; hitting an edge moves each
    member down one bucket. Counts only fall, so the top bucket only
    moves down, and the whole run is linear in the incidences.
    """
    live = {m for m in h.edge_members if m}
    count = [0] * h.n_vertices
    edges_of: list[list[int]] = [[] for _ in range(h.n_vertices)]
    for m in live:
        for x in bits(m):
            count[x] += 1
            edges_of[x].append(m)
    bucket = [0] * (max(count, default=0) + 1)
    for x, c in enumerate(count):
        bucket[c] |= 1 << x
    top = len(bucket) - 1
    chosen = []
    while live:
        while not bucket[top]:
            top -= 1
        best = (bucket[top] & -bucket[top]).bit_length() - 1
        chosen.append(best)
        for m in edges_of[best]:
            if m in live:
                live.remove(m)
                for x in bits(m):
                    c = count[x]
                    bucket[c] ^= 1 << x
                    bucket[c - 1] |= 1 << x
                    count[x] = c - 1
    return frozenset(chosen)


def greedy_rhs(h: Hypergraph) -> tuple[RhsPair, int]:
    """Greedy pair within 2(ln|I|+1) of the optimum.

    Edges with no members cannot be hit and land in R1; everything else
    is hit by the greedy cover. Coverage ties break toward the smallest
    vertex id, so the result is deterministic.
    """
    r1 = frozenset(i for i in range(h.n_edges) if not h.edge_members[i])
    pair = RhsPair(r1, _greedy_cover(h))
    assert _is_rhs(h.edge_members, pair.r1m, pair.r2m)
    return pair, weight_pair(pair)


def greedy_rhf(
    h: Hypergraph, tau: Correspondence
) -> tuple[RomanAssignment, int]:
    """Assignment with the greedy cover at 2 and nothing at 1."""
    tau.validate(h)
    _require_nonempty_edges(h)
    cover = mask_of(_greedy_cover(h))
    assert _is_rhf(*_instance_masks(h, tau), 0, cover)
    return _assignment(h.n_vertices, 0, cover), 2 * cover.bit_count()


# ---------------------------------------------------------------------------
# Exact minimum Roman hitting set

# a packing of live edges: the packed-edge mask and the live vertices in
# at least one (u1) and at least two (u2) packed edges
Packing = tuple[int, int, int]


def _repack(
    members: Sequence[int], inc: Sequence[int], livev: int, live_e: int,
    pack: Packing | None,
) -> Packing:
    """A maximal packing of the live edges, in which no live vertex lies
    in more than two packed edges, derived from an earlier one.

    pack was maximal for a superset of today's live vertices and edges
    (None: the empty packing, every live edge a candidate). Removing
    edges or vertices keeps a packing a packing: the packed edges that
    left go, the live members of those edges recount, and the vertices
    that left clear. An unpacked live edge was blocked by a vertex of
    the old u2, so only edges through a vertex that left u2 can join;
    they are tried greedily in index order, which leaves it maximal.
    """
    if pack is None:
        packed = u1 = u2 = 0
        cand = live_e
    else:
        packed, u1, u2 = pack
        freed = u2
        gone = packed & ~live_e
        if gone:
            packed ^= gone
            hit = 0
            while gone:
                low = gone & -gone
                gone ^= low
                hit |= members[low.bit_length() - 1]
            u1 &= ~hit
            u2 &= ~hit
            hit &= livev
            while hit:
                yb = hit & -hit
                hit ^= yb
                c = inc[yb.bit_length() - 1] & packed
                if c:
                    u1 |= yb
                    if c & (c - 1):
                        u2 |= yb
        u1 &= livev
        u2 &= livev
        freed ^= u2
        cand = 0
        while freed:
            yb = freed & -freed
            freed ^= yb
            cand |= inc[yb.bit_length() - 1]
        cand &= live_e & ~packed
    while cand:
        low = cand & -cand
        cand ^= low
        cur = members[low.bit_length() - 1] & livev
        if not cur & u2:
            u2 |= u1 & cur
            u1 |= cur
            packed |= low
    return packed, u1, u2


def _min_rhs_search(
    members: Sequence[int], inc: Sequence[int], budget: int | None = None
) -> OptResult:
    """Depth-first branch and reduce from an explicit stack of int nodes,
    over the instance's edge member and vertex incidence masks.

    With a budget the incumbent starts at budget + 1, so the bounds cut
    every heavier subtree, and the search stops at the first leaf of
    weight at most budget; weight -1 with an empty witness says there is
    none.
    """
    best_w = -1 if budget is None else budget + 1
    best = (0, 0)
    nodes = 0
    # the root's summary, in one pass over its edges: drained edges,
    # live-degree masks d1..d4 and the vertices alone in 1, 2, 3+ live
    # edges (s1..s3)
    d1 = d2 = d3 = d4 = s1 = s2 = s3 = drained = 0
    for i, cur in enumerate(members):
        if not cur:
            drained |= 1 << i
            continue
        d4 |= d3 & cur
        d3 |= d2 & cur
        d2 |= d1 & cur
        d1 |= cur
        if not cur & (cur - 1):
            s3 |= s2 & cur
            s2 |= s1 & cur
            s1 |= cur
    # livev, live_e, r1m, r2m, the parent's summary, the pending updates
    # of it (the live edges that lost a dropped member, reread, or left
    # with a taken vertex, recount), and the last packing on the path
    stack = [(
        (1 << len(inc)) - 1, ((1 << len(members)) - 1) ^ drained, drained, 0,
        (d1, d2, d3, d4, s1, s2, s3), 0, 0, None,
    )]
    push = stack.append
    pop = stack.pop
    while stack:
        livev, live_e, r1m, r2m, summary, reread, recount, pack = pop()
        d1, d2, d3, d4, s1, s2, s3 = summary
        while True:
            # drop the vertices that left from the summary (every mask
            # lies within d1)
            if d1 & ~livev:
                d1 &= livev
                d2 &= livev
                d3 &= livev
                d4 &= livev
                s1 &= livev
                s2 &= livev
                s3 &= livev
            if reread:
                # drop: the other vertices keep their degrees; an edge with
                # no live member left drains to R1, one with one left adds
                # to that member's singleton count
                drained = 0
                while reread:
                    low = reread & -reread
                    reread ^= low
                    cur = members[low.bit_length() - 1] & livev
                    if not cur:
                        drained |= low
                    elif not cur & (cur - 1):
                        s3 |= s2 & cur
                        s2 |= s1 & cur
                        s1 |= cur
                r1m |= drained
                live_e ^= drained
            elif recount:
                # take: nothing drains and no singleton count moves; the
                # other live members of the edges that left recount degrees
                hit = 0
                while recount:
                    low = recount & -recount
                    recount ^= low
                    hit |= members[low.bit_length() - 1]
                hit &= livev
                d1 &= ~hit
                d2 &= ~hit
                d3 &= ~hit
                d4 &= ~hit
                while hit:
                    yb = hit & -hit
                    hit ^= yb
                    deg = (inc[yb.bit_length() - 1] & live_e).bit_count()
                    if deg:
                        d1 |= yb
                        if deg > 1:
                            d2 |= yb
                            if deg > 2:
                                d3 |= yb
                                if deg > 3:
                                    d4 |= yb
            # vertices of live degree at most 2 leave at once (R1 does their
            # job at no extra cost)
            weak = livev & ~d3
            if weak:
                livev ^= weak
                while weak:
                    low = weak & -weak
                    weak ^= low
                    reread |= inc[low.bit_length() - 1]
                reread &= live_e
                continue
            if not s3:
                break
            # three or more singleton edges: the lowest such vertex joins R2
            xb = s3 & -s3
            r2m |= xb
            livev ^= xb
            recount = inc[xb.bit_length() - 1] & live_e
            live_e ^= recount
        nodes += 1
        w = r1m.bit_count() + 2 * r2m.bit_count()
        if not live_e:
            if best_w < 0 or w < best_w:
                best_w = w
                best = (r1m, r2m)
                if budget is not None:
                    break
            continue
        # every live vertex has live degree 3 or more
        assert livev == d3
        if best_w >= 0:
            # the covering bound ceil(2d / maxdeg) falls as maxdeg grows and
            # only d4 vertices have degree above 3: it cannot prune when
            # ceil(2d / 4) is below need, else it prunes unless a d4 vertex
            # brings it below need
            need = best_w - w
            d = live_e.bit_count()
            if not d4:
                if -(-2 * d // 3) >= need:
                    continue
            elif -(-2 * d // 4) >= need:
                rest = d4
                while rest:
                    low = rest & -rest
                    rest ^= low
                    if -(-2 * d // (inc[low.bit_length() - 1] & live_e).bit_count()) < need:
                        break
                else:
                    continue
            pack = _repack(members, inc, livev, live_e, pack)
            if w + pack[0].bit_count() >= best_w:
                continue
        summary = (d1, d2, d3, d4, s1, s2, s3)
        x3 = d3 & ~d4
        if x3:
            # children are pushed in reverse: exclude first, then include
            # with no co-member in R2 (exchange); the include child drops
            # xb's live co-members, whose other live edges it re-reads, and
            # no vertex left loses a live edge
            xb = x3 & -x3
            ex = inc[xb.bit_length() - 1] & live_e
            gone = 0
            rest = ex
            while rest:
                low = rest & -rest
                rest ^= low
                gone |= members[low.bit_length() - 1]
            gone &= livev
            reread = 0
            rest = gone ^ xb
            while rest:
                low = rest & -rest
                rest ^= low
                reread |= inc[low.bit_length() - 1]
            push((livev ^ gone, live_e ^ ex, r1m, r2m | xb, summary, reread & live_e & ~ex, 0, pack))
            push((livev ^ xb, live_e, r1m, r2m, summary, ex, 0, pack))
        else:
            # include the lowest vertex first, then exclude it
            xb = livev & -livev
            ex = inc[xb.bit_length() - 1] & live_e
            push((livev ^ xb, live_e, r1m, r2m, summary, ex, 0, pack))
            push((livev ^ xb, live_e ^ ex, r1m, r2m | xb, summary, 0, ex, pack))
    if budget is not None and best_w > budget:
        best_w = -1
    return OptResult(best_w, RhsPair.from_masks(*best), nodes)


def exact_min_rhs(h: Hypergraph) -> OptResult:
    """Global minimum pair weight by branch and reduce.

    The search runs depth first from an explicit stack whose nodes are
    four masks: the live vertices and live edges and the R1 and R2 masks.
    Each node is first reduced to a fixpoint on a summary: bit-sliced
    live-degree masks d1..d4 and masks s1..s3 of the vertices alone in
    one, two and three or more live edges. Drained edges move to R1 and
    every vertex of live degree at most 2 leaves at once (R1 can do its
    job at no extra cost); then the lowest vertex carrying three or more
    singleton edges enters R2 (any solution without it pays more), one
    at a time, until neither applies. Nodes are counted after the
    reduction.

    Only the root builds the summary in one pass over its edges. Each
    stack entry carries, next to its node's four masks, the parent's
    summary and the update that turns it into the child's; two exact
    updates keep the summary current from there. Dropping a set of vertices
    re-reads only the live edges they were in: the other vertices keep
    their degrees, an edge left with no live member drains to R1, and
    one left with one adds to that member's singleton count. Taking a
    vertex into R2 removes its live edges and recounts only the degrees
    of their other live members; nothing drains and no singleton count
    moves. Every child derives its summary so: the exclude child of
    either branch drops the branch vertex, the include child of the
    degree-3 branch drops it with its live co-members, which leaves every
    other vertex its degree, and the include child of the other branch
    takes it. Every state the reduction passes through is the one a full
    pass after each step gives, so the tree, the node counts and the
    witnesses are too.

    Branching takes the lowest vertex of live degree exactly 3, excluded
    first and then included with no co-member in R2 (an exchange
    argument), and otherwise the lowest live vertex, included first. A
    node is pruned when its weight plus a lower bound on the rest reaches
    the best weight so far. There are two bounds. The first is the
    covering bound ceil(2d / max(2, maxdeg)) over the d live edges; every
    live vertex has live degree 3 or more there, so maxdeg is 3 or the
    largest degree among the d4 vertices. The bound falls as maxdeg
    grows, so its test stops once the answer is known: with no d4
    vertex maxdeg is 3 without a walk; when ceil(2d / 4) is below what
    the node still needs (the best weight less its own) the test cannot
    prune and walks nothing; otherwise the walk stops at the first d4
    vertex whose degree takes the bound below that need, and the node is
    pruned only when none does. The prune decisions are those of the
    full maximum. The second bound, only when the first does not prune,
    is the size of a maximal packing of live edges in which no vertex
    lies in more than two packed edges. Each stack entry also carries
    the last packing computed on its path, shared by both children. A
    node drops the packed edges that left, recounts their live members
    and clears the vertices that left; then it tries, greedily in index
    order, only the unpacked live edges through a vertex that is no
    longer in two packed edges, since every other one is still blocked.
    The first node on a path to need the bound starts from the empty
    packing, with every live edge a candidate. Removing edges and
    vertices keeps a packing a packing, and the top-up leaves it
    maximal, so the bound is valid; its value can differ from a packing
    built afresh, and so can the node counts.

    The tree does not depend on the incumbent, both bounds are valid and
    the incumbent changes only on a strictly lower weight, so the witness
    is the first optimum leaf of the tree in depth-first order; a
    stronger bound prunes more nodes but finds the same witness.
    """
    res = _min_rhs_search(h.edge_members, h.incidence_masks)
    assert _is_rhs(h.edge_members, res.witness.r1m, res.witness.r2m)
    assert weight_pair(res.witness) == res.weight
    return res


def exact_min_rhf(h: Hypergraph, tau: Correspondence) -> OptResult:
    """Global minimum assignment weight via the edge-twinning reduction.

    Twinning makes unclaimable edges expensive enough that hitting-set
    optima agree with hitting-function optima; the backward mapper turns
    the optimal pair into an assignment of the same weight.
    """
    # imported here, its only user, so min-rhs, rvc and rec do not compile it
    from .reduce import rhf_to_rhs

    ro = rhf_to_rhs(h, tau)
    inner = exact_min_rhs(ro.instance)
    f = ro.backward(inner.witness)
    assert sum(f) == inner.weight
    return OptResult(inner.weight, f, inner.nodes)


# ---------------------------------------------------------------------------
# Roman vertex cover and Roman edge cover


def incidence_hypergraph(g: Graph) -> Hypergraph:
    """Each vertex becomes the hyperedge of its incident graph edges.

    Hitting pairs here are Roman edge covers of the graph: R1 picks
    vertices to leave to the cheap guard, R2 picks protecting edges. It
    is edge_hypergraph transposed, refusing the same token collisions.
    """
    ids = _edge_token_ids(g)
    members, inc = _edge_masks(g)
    return _prebuilt(tuple(ids), g.vertex_tokens, inc, ids, g._vertex_ids, members)


def _rvc_decide_counted(g: Graph, k: int) -> tuple[bool, int]:
    if k < 0:
        raise InputError("the weight budget must be nonnegative")
    res = _min_rhs_search(*_edge_masks(g), budget=k)
    return res.weight >= 0, res.nodes


def rvc_decide(g: Graph, k: int) -> bool:
    """Is there a Roman vertex cover of weight at most k?

    Roman vertex covers are the Roman hitting sets of the edge
    hypergraph, so this runs the exact_min_rhs search on the graph's edge
    masks, with no token hypergraph built, and k as a budget: the same
    reductions and branches, an incumbent that starts at k + 1 so the
    lower bounds cut every subtree heavier than k, and a stop at the
    first cover of weight at most k. The empty edge set fits any budget.
    """
    return _rvc_decide_counted(g, k)[0]


def rvc_enumerate(
    g: Graph, k: int, sink: Callable[[RhsPair], None] | None = None
) -> EnumerationStats:
    """Emit every minimal Roman vertex cover of weight at most k once.

    Runs the minimal-pair enumerator on the graph's edge masks, with no
    token hypergraph built, under the weight cap. R1 indices in emitted
    pairs are graph edge indices. The cap only prunes: the search expands
    a subset of the nodes of the uncapped enumeration, so that
    enumeration's node count bounds the total work and every gap between
    emissions. The cap prune adds the covering and the packing lower
    bounds to the weight so far. An expanded subtree may still hold no
    cover light enough, so the linear delay of the uncapped run does not
    carry over: under a cap its bound 2(|X| + |I|) + 2 is not guaranteed.
    On G(30, 0.1) drawn with random.Random(1) over the pairs u < v in
    order (49 edges, optimum 28), k = 30 leaves a gap of 275 nodes
    against a bound of 160.
    """
    if k < 0:
        raise InputError("the weight budget must be nonnegative")
    return _enumerate(*_edge_masks(g), k, sink)


def rec_min(g: Graph) -> OptResult:
    """Minimum Roman edge cover: weight |V|, attained by (V, empty).

    Every vertex must be paid for at least once: an R2 edge pays 2 and
    serves at most its 2 endpoints, an R1 vertex pays 1 for itself, so
    no pair beats |V|, and putting every vertex into R1 reaches it.
    """
    witness = RhsPair(frozenset(range(g.n_vertices)), frozenset())
    # the incidence hypergraph's edges are the graph's vertex incidences
    assert _is_rhs(_edge_masks(g)[1], witness.r1m, witness.r2m)
    return OptResult(g.n_vertices, witness, 0)
