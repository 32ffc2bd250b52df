"""Reductions connecting the Roman problem family.

Each constructor packages a target instance with solution mappers in both
directions and the integer offset that exact optima obey (target optimum =
source optimum + offset). The split-graph reduction is the exception: it
relates minimal solutions one-to-one rather than weights, and carries a
nominal offset of 0.

Backward mappers validate their input and normalize it first, so they
accept any valid target solution, not only mapped-forward ones. Forward
mappers insist on a valid source solution where the image would otherwise
be meaningless. A mapper that needs a hitting function or a hitting set
checks it through one helper per kind (``_rhf`` for assignments, ``_rhs``
for pairs) that validates it once; results and asserts work on bitset
masks, and a reduction validates its correspondence once, when built.

The module sits on core and errors alone: the 1-fill rule is core's
_complete, and the split-graph view lives here, next to its one reduction.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Sequence

from .core import (
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    RomanAssignment,
    VertexId,
    _Frozen,
    _assignment,
    _closed_masks,
    _complete,
    _edge_masks,
    _instance_masks,
    _is_rhf,
    _is_rhs,
    _level_masks,
    _require_nonempty_edges,
    _vertex_mask,
    bits,
    closed_neighborhood_hypergraph,
    frozenset_of,
    mask_of,
    validate_assignment,
    weight_assignment,
    weight_pair,
)
from .errors import GuardRefused, InputError


class ReductionOutput(_Frozen):
    """Target instance, solution mappers, and the exact-weight offset."""

    __slots__ = _fields = ("instance", "forward", "backward", "offset")
    instance: object
    forward: Callable
    backward: Callable
    offset: int

    def __init__(
        self, instance: object, forward: Callable, backward: Callable, offset: int
    ) -> None:
        object.__setattr__(self, "instance", instance)
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "backward", backward)
        object.__setattr__(self, "offset", offset)


def _fresh_token(base: str, used: set[str]) -> str:
    # append apostrophes until the token avoids everything chosen so far
    tok = base
    while tok in used:
        tok += "'"
    used.add(tok)
    return tok


def _rhf(
    h: Hypergraph, tau: Correspondence, f: Sequence[int], budget: int | None = None
) -> tuple[int, int]:
    """The level masks of f, refused unless f is an rhf within the budget."""
    ones, twos = _level_masks(f, h.n_vertices)
    if budget is not None and ones.bit_count() + 2 * twos.bit_count() > budget:
        raise InputError(f"assignment weight exceeds the budget {budget}")
    if not _is_rhf(*_instance_masks(h, tau), ones, twos):
        raise InputError("assignment is not a hitting function")
    return ones, twos


def _rhs(
    h: Hypergraph, pair: RhsPair, message: str, budget: int | None = None
) -> RhsPair:
    """pair, refused unless it is an rhs of h within the budget."""
    pair.validate(h)
    if budget is not None and weight_pair(pair) > budget:
        raise InputError(f"pair weight exceeds the budget {budget}")
    if not _is_rhs(h.edge_members, pair.r1m, pair.r2m):
        raise InputError(message)
    return pair


def rd_to_rhf(g: Graph) -> ReductionOutput:
    """Roman domination as a hitting function on closed neighborhoods.

    An assignment is an rdf of the graph exactly when it is an rhf of
    the target, minimal exactly when minimal there, so both mappers are
    the identity and the offset is 0. The backward mapper refuses an
    assignment that is not an rhf of the target.
    """
    h, tau = closed_neighborhood_hypergraph(g)

    def backward(f: Sequence[int]) -> RomanAssignment:
        return _assignment(g.n_vertices, *_rhf(h, tau, f))

    forward = partial(validate_assignment, n=g.n_vertices)
    return ReductionOutput((h, tau), forward, backward, 0)


def rhf_to_rhs(h: Hypergraph, tau: Correspondence) -> ReductionOutput:
    """Hitting function to hitting set by twinning unclaimable edges.

    Every edge without a correspondence preimage gets a same-content
    twin. A pair can afford one unclaimable edge in R1, but never its
    twin as well, so optimal pairs hit those edges, and hitting them is
    exactly what assignments must do. Optima coincide (offset 0).
    """
    tau.validate(h)
    _require_nonempty_edges(h)
    rng = tau.range_mask
    twin_of = [i for i in range(h.n_edges) if not (rng >> i) & 1]
    used = set(h.edge_tokens)
    twin_tokens = [_fresh_token(h.edge_tokens[i] + "'", used) for i in twin_of]
    target = Hypergraph(
        h.vertex_tokens,
        h.edge_tokens + tuple(twin_tokens),
        h.edge_members + tuple(h.edge_members[i] for i in twin_of),
    )

    def forward(f: Sequence[int]) -> RhsPair:
        twos = _rhf(h, tau, f)[1]
        r1m = target.all_edges_mask & ~target.incidence_set_mask(twos)
        return RhsPair.from_masks(r1m, twos)

    def backward(pair: RhsPair) -> RomanAssignment:
        r2m = _rhs(target, pair, "pair does not solve the twinned instance").r2m
        for i in twin_of:
            e = h.edge_members[i]
            if not e & r2m:
                # both slots were occupied; trade them for hitting the edge
                r2m |= e & -e
        # every edge the 2s now miss is in R1 and has a preimage
        inst = _instance_masks(h, tau)
        ones = _complete(*inst, 0, r2m)
        assert _is_rhf(*inst, ones, r2m)
        f = _assignment(h.n_vertices, ones, r2m)
        assert weight_assignment(f) <= weight_pair(pair)
        return f

    return ReductionOutput(target, forward, backward, 0)


def rhs_to_rhf(h: Hypergraph, k: int) -> ReductionOutput:
    """Hitting set to hitting function, for the weight-k decision.

    Each edge gains an index vertex whose correspondence points back at
    the edge, so value 1 there stands for putting the edge into R1. A
    universal edge over the original vertices forces some original
    2-vertex whenever the budget is below the edge count; above that the
    question is trivially yes and the construction is refused.
    """
    if k < 0:
        raise InputError("the weight budget must be nonnegative")
    if k >= h.n_edges:
        raise GuardRefused(
            "trivial yes: putting every edge into R1 costs "
            f"{h.n_edges} <= {k}"
        )
    n = h.n_vertices
    low = (1 << n) - 1
    used = set(h.vertex_tokens)
    index_tokens = [_fresh_token(t, used) for t in h.edge_tokens]
    target = Hypergraph(
        h.vertex_tokens + tuple(index_tokens),
        h.edge_tokens + (_fresh_token("a", set(h.edge_tokens)),),
        tuple(m | 1 << (n + i) for i, m in enumerate(h.edge_members)) + (low,),
    )
    # the original vertices claim the universal edge a, the last one
    tau2 = Correspondence((h.n_edges,) * n + tuple(range(h.n_edges)))

    def forward(pair: RhsPair) -> RomanAssignment:
        _rhs(h, pair, "pair is not a Roman hitting set", k)
        assert _is_rhf(*_instance_masks(target, tau2), pair.r1m << n, pair.r2m)
        return _assignment(target.n_vertices, pair.r1m << n, pair.r2m)

    def backward(f: Sequence[int]) -> RhsPair:
        ones, twos = _rhf(target, tau2, f, k)
        # an index vertex lies in one edge only, so a 1 there claims it as
        # well as a 2; a 1 on an original vertex claims only the edge a
        pair = RhsPair.from_masks((ones | twos) >> n, twos & low)
        assert _is_rhs(h.edge_members, pair.r1m, pair.r2m) and weight_pair(pair) <= k
        return pair

    return ReductionOutput((target, tau2), forward, backward, 0)


def rhf_to_rd_gadget(h: Hypergraph, tau: Correspondence) -> ReductionOutput:
    """Split-graph gadget whose Roman domination optimum sits 2 higher.

    One apex dominates two pendants and a clique over the vertex stand-ins,
    so the apex costs a flat 2 in every reasonable rdf. Edge stand-ins
    hang off their members: value 1 on w_i plays the role of a claiming
    1 in the source, and unclaimable edges get a second stand-in u_i to
    forbid that move. Offset +2.
    """
    tau.validate(h)
    _require_nonempty_edges(h)
    n = h.n_vertices
    rng = tau.range_mask
    unclaimable = [i for i in range(h.n_edges) if not (rng >> i) & 1]
    v_base = 3
    w_base = v_base + n
    u_base = w_base + h.n_edges
    tokens = (
        ["a", "b", "c"]
        + ["v_" + t for t in h.vertex_tokens]
        + ["w_" + t for t in h.edge_tokens]
        + ["u_" + h.edge_tokens[i] for i in unclaimable]
    )
    pairs: list[tuple[int, int]] = [(0, 1), (0, 2)]
    pairs += [(0, v_base + x) for x in range(n)]
    pairs += [(v_base + x, v_base + y) for x, y in combinations(range(n), 2)]
    for i in range(h.n_edges):
        pairs += [(v_base + x, w_base + i) for x in bits(h.edge_members[i])]
    for k, i in enumerate(unclaimable):
        pairs += [(v_base + x, u_base + k) for x in bits(h.edge_members[i])]
    gadget = Graph(tuple(tokens), tuple(pairs))
    size = gadget.n_vertices
    closed = _closed_masks(gadget)  # rdfs are its rhfs

    def forward(f: Sequence[int]) -> RomanAssignment:
        ones, twos = _rhf(h, tau, f)
        g1, g2 = tau.image_mask(ones) << w_base, 1 | twos << v_base
        assert _is_rhf(*closed, g1, g2)
        g = _assignment(size, g1, g2)
        assert weight_assignment(g) <= ones.bit_count() + 2 * twos.bit_count() + 2
        return g

    def backward(gv: Sequence[int]) -> RomanAssignment:
        ones, twos = _level_masks(gv, size)
        if not _is_rhf(*closed, ones, twos):
            raise InputError("assignment does not dominate the gadget")
        # normalise: the apex never loses (if it is not a 2, both pendants
        # pay >= 1); a 2 on an edge stand-in, or 1s on both stand-ins of
        # an unclaimable edge, give way to a 2 on the edge's first member,
        # which dominates strictly more; a lone 1 on an unclaimable edge's
        # stand-in proves that a member 2 exists already, and 1s on vertex
        # stand-ins dominate nothing
        moved = (twos >> w_base) & h.all_edges_mask
        for k, i in enumerate(unclaimable):
            u = u_base + k
            if (twos >> u) & 1 or (ones >> u) & (ones >> (w_base + i)) & 1:
                moved |= 1 << i
        r2m = (twos >> v_base) & ((1 << n) - 1)
        for i in bits(moved):
            m = h.edge_members[i]
            r2m |= m & -m
        claimed = (ones >> w_base) & rng
        assert _is_rhf(*closed, claimed << w_base, 1 | r2m << v_base)
        r1m = tau.first_preimages(claimed)
        assert _is_rhf(*_instance_masks(h, tau), r1m, r2m)
        f = _assignment(n, r1m, r2m)
        assert weight_assignment(f) <= ones.bit_count() + 2 * twos.bit_count() - 2
        return f

    return ReductionOutput(gadget, forward, backward, 2)


def vc_to_rvc(g: Graph) -> ReductionOutput:
    """Vertex cover to Roman vertex cover via one pendant per vertex.

    Pendant edges make every vertex worth protecting: a cover C becomes
    R2=C with the pendant edges of the uncovered side in R1, weight
    |C| + |V|. Offset +|V|.
    """
    n = g.n_vertices
    m = len(g.edges)
    low = (1 << n) - 1
    used = set(g.vertex_tokens)
    pend_tokens = [_fresh_token(t + "'", used) for t in g.vertex_tokens]
    target = Graph(
        g.vertex_tokens + tuple(pend_tokens),
        g.edges + tuple((v, n + v) for v in range(n)),
    )
    target_members = _edge_masks(target)[0]

    def forward(cover: Iterable[VertexId]) -> RhsPair:
        cm = _vertex_mask(g, cover, "cover")
        # the pendant edges the cover leaves open go to R1
        pair = RhsPair.from_masks((low & ~cm) << m, cm)
        if not _is_rhs(target_members, pair.r1m, pair.r2m):
            raise InputError("not a vertex cover")
        return pair

    def backward(pair: RhsPair) -> frozenset[VertexId]:
        if pair.r1m >> (m + n) or pair.r2m >> (2 * n):
            raise InputError("solution indexes outside the gadget")
        if not _is_rhs(target_members, pair.r1m, pair.r2m):
            raise InputError("pair does not cover the gadget")
        # pendant 2s only cover pendant edges, so the original 2s cover
        # every original edge outside R1; the rest get their lower endpoint
        cm = pair.r2m & low
        for u, v in g.edges:
            if not (cm >> u) & 1 and not (cm >> v) & 1:
                cm |= 1 << min(u, v)
        return frozenset_of(cm)

    return ReductionOutput(target, forward, backward, n)


def split_partition(g: Graph) -> tuple[list[int], list[int]]:
    """Degree-based clique/independent partition attempt.

    The m vertices of largest degree form a clique exactly when the graph
    is split, for m the last position i with degree >= i-1; the
    validation in split_hypergraph rejects every other graph.
    """
    deg = [g.neighbors_mask(v).bit_count() for v in range(g.n_vertices)]
    order = sorted(range(g.n_vertices), key=lambda v: (-deg[v], v))
    m = 0
    for i, v in enumerate(order, 1):
        if deg[v] >= i - 1:
            m = i
    return order[:m], order[m:]


def _validate_split(g: Graph, clique: set[int], indep: set[int]) -> None:
    if clique & indep or clique | indep != set(range(g.n_vertices)):
        raise InputError("split parts must partition the vertex set")
    for v in clique:
        for u in clique:
            if u > v and not (g.neighbors_mask(v) >> u) & 1:
                raise InputError("clique part is not a clique")
    for v in indep:
        if g.neighbors_mask(v) & mask_of(indep):
            raise InputError("independent part is not independent")


def split_hypergraph(
    g: Graph, split: tuple[Iterable[VertexId], Iterable[VertexId]]
) -> tuple[Hypergraph, list[VertexId], list[VertexId]]:
    """Hypergraph view of a split graph, after the clique-side move.

    The clique side becomes the universe and each independent vertex
    contributes its clique neighborhood as an edge. Clique vertices
    without independent neighbors are moved to the independent side
    first (one suffices: a moved vertex neighbors the whole remaining
    clique), which keeps the partition valid. Returns the hypergraph
    plus the sorted clique and independent vertex lists that fix the
    id translation.
    """
    clique = set(split[0])
    indep = set(split[1])
    _validate_split(g, clique, indep)
    movers = sorted(
        v for v in clique if not g.neighbors_mask(v) & mask_of(indep)
    )
    if movers:
        clique.discard(movers[0])
        indep.add(movers[0])
    c_list = sorted(clique)
    i_list = sorted(indep)
    h = Hypergraph.build(
        [g.vertex_tokens[v] for v in c_list],
        [
            (
                g.vertex_tokens[i],
                [
                    g.vertex_tokens[v]
                    for v in bits(g.neighbors_mask(i))
                    if v in clique
                ],
            )
            for i in i_list
        ],
    )
    return h, c_list, i_list


def ds_split_to_rhs(
    g: Graph, split: tuple[Iterable[VertexId], Iterable[VertexId]]
) -> ReductionOutput:
    """Split-graph domination as a hitting set problem.

    Minimal dominating sets correspond one-to-one with minimal pairs of
    the hypergraph view (an R1 edge stands for its independent vertex,
    an R2 universe member for a clique vertex). The correspondence
    preserves solutions, not weights; the offset is nominal. The backward
    mapper refuses a pair that is not an rhs of the target.
    """
    h, c_list, i_list = split_hypergraph(g, split)
    c_pos = {v: k for k, v in enumerate(c_list)}
    i_pos = {v: k for k, v in enumerate(i_list)}

    def forward(d: Iterable[VertexId]) -> RhsPair:
        dm = _vertex_mask(g, d, "dominating set")
        return RhsPair(
            frozenset(i_pos[v] for v in bits(dm) if v in i_pos),
            frozenset(c_pos[v] for v in bits(dm) if v in c_pos),
        )

    def backward(pair: RhsPair) -> frozenset[VertexId]:
        pair = _rhs(h, pair, "pair is not a Roman hitting set")
        return frozenset(
            {i_list[k] for k in pair.r1} | {c_list[x] for x in pair.r2}
        )

    return ReductionOutput(h, forward, backward, 0)


def two_section(h: Hypergraph) -> Graph:
    """Graph on the universe joining every co-member pair.

    Only simple hypergraphs (pairwise distinct edge contents) are
    accepted; the domination-style notions transfer exactly there.
    """
    if len(set(h.edge_members)) != h.n_edges:
        raise InputError(
            "the two-section is defined for simple hypergraphs; "
            "duplicate edge contents found"
        )
    pairs = set()
    for m in h.edge_members:
        pairs.update(combinations(bits(m), 2))
    return Graph(h.vertex_tokens, tuple(sorted(pairs)))


def is_hypergraph_rdf(h: Hypergraph, f: Sequence[int]) -> bool:
    """Every 0-vertex shares an edge with a 2-vertex.

    This is Roman domination read on the hypergraph directly; it agrees
    with graph Roman domination on the two-section.
    """
    return _hypergraph_rdf(h, *_level_masks(f, h.n_vertices))


def _hypergraph_rdf(h: Hypergraph, ones: int, twos: int) -> bool:
    """is_hypergraph_rdf on level masks."""
    reach = 0
    for i in bits(h.incidence_set_mask(twos)):
        reach |= h.edge_members[i]
    return not h.all_vertices_mask & ~(ones | twos) & ~reach


def hrd_to_rd_two_section(h: Hypergraph) -> ReductionOutput:
    """Hypergraph Roman domination as Roman domination on the two-section.

    The target is ``two_section(h)``. An rdf there dominates the
    hypergraph as it stands, so the backward mapper is the identity; it
    refuses an assignment that is not an rdf of the two-section. There is
    no forward mapper, and the offset is 0.
    """
    g2 = two_section(h)
    closed = _closed_masks(g2)

    def backward(f: Sequence[int]) -> RomanAssignment:
        ones, twos = _level_masks(f, g2.n_vertices)
        if not _is_rhf(*closed, ones, twos):
            raise InputError("assignment does not dominate the two-section")
        assert _hypergraph_rdf(h, ones, twos)
        return _assignment(g2.n_vertices, ones, twos)

    return ReductionOutput(g2, None, backward, 0)
