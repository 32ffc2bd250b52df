"""Reductions connecting the Roman problem family.

Each constructor packages a target instance with solution mappers in both
directions and the integer offset that exact optima obey (target optimum =
source optimum + offset). The split-graph reduction is the exception: it
relates minimal solutions one-to-one rather than weights, and carries a
nominal offset of 0.

Backward mappers validate their input and normalize it first, so they
accept any valid target solution, not only mapped-forward ones. Forward
mappers insist on a valid source solution where the image would otherwise
be meaningless.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .core import (
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    RomanAssignment,
    VertexId,
    _require_nonempty_edges,
    bits,
    closed_neighborhood_hypergraph,
    is_rdf,
    is_rhf,
    is_rhs,
    level_mask,
    mask_of,
    validate_assignment,
    weight_assignment,
    weight_pair,
)
from .errors import GuardRefused, InputError
from .extend import _assignment, _complete, split_hypergraph


@dataclass(frozen=True)
class ReductionOutput:
    """Target instance, solution mappers, and the exact-weight offset."""

    instance: object
    forward: Callable
    backward: Callable
    offset: int


def _fresh_token(base: str, used: set[str]) -> str:
    # append apostrophes until the token avoids everything chosen so far
    tok = base
    while tok in used:
        tok += "'"
    used.add(tok)
    return tok


def rd_to_rhf(g: Graph) -> ReductionOutput:
    """Roman domination as a hitting function on closed neighborhoods.

    An assignment is an rdf of the graph exactly when it is an rhf of
    the target, minimal exactly when minimal there, so both mappers are
    the identity and the offset is 0. The backward mapper refuses an
    assignment that is not an rhf of the target.
    """
    h, tau = closed_neighborhood_hypergraph(g)
    n = g.n_vertices

    def forward(f: Sequence[int]) -> RomanAssignment:
        return validate_assignment(f, n)

    def backward(f: Sequence[int]) -> RomanAssignment:
        f = validate_assignment(f, n)
        if not is_rhf(h, tau, f):
            raise InputError("assignment is not a hitting function")
        return f

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
        f = validate_assignment(f, h.n_vertices)
        if not is_rhf(h, tau, f):
            raise InputError("assignment is not a hitting function")
        twos = level_mask(f, 2)
        r1 = [
            i
            for i in range(target.n_edges)
            if not target.edge_members[i] & twos
        ]
        return RhsPair(frozenset(r1), frozenset(bits(twos)))

    def backward(pair: RhsPair) -> RomanAssignment:
        pair.validate(target)
        if not is_rhs(target, pair):
            raise InputError("pair does not solve the twinned instance")
        r2m = pair.r2m
        for i in twin_of:
            e = h.edge_members[i]
            if not e & r2m:
                # both slots were occupied; trade them for hitting the edge
                r2m |= e & -e
        # every edge the 2s now miss is in R1 and has a preimage
        f = _assignment(h.n_vertices, _complete(h, tau, 0, r2m), r2m)
        assert is_rhf(h, tau, f)
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
    used = set(h.vertex_tokens)
    index_tokens = [_fresh_token(t, used) for t in h.edge_tokens]
    eused = set(h.edge_tokens)
    a_token = _fresh_token("a", eused)
    target = Hypergraph(
        h.vertex_tokens + tuple(index_tokens),
        h.edge_tokens + (a_token,),
        tuple(
            m | (1 << (n + i)) for i, m in enumerate(h.edge_members)
        )
        + ((1 << n) - 1,),
    )
    a_edge = h.n_edges
    tau2 = Correspondence(
        tuple([a_edge] * n + list(range(h.n_edges)))
    )

    def forward(pair: RhsPair) -> RomanAssignment:
        pair.validate(h)
        if weight_pair(pair) > k:
            raise InputError(f"pair weight exceeds the budget {k}")
        if not is_rhs(h, pair):
            raise InputError("pair is not a Roman hitting set")
        vals = [0] * target.n_vertices
        for x in pair.r2:
            vals[x] = 2
        for i in pair.r1:
            vals[n + i] = 1
        f = tuple(vals)
        assert is_rhf(target, tau2, f)
        return f

    def backward(f: Sequence[int]) -> RhsPair:
        f = validate_assignment(f, target.n_vertices)
        if weight_assignment(f) > k:
            raise InputError(f"assignment weight exceeds the budget {k}")
        if not is_rhf(target, tau2, f):
            raise InputError("assignment is not a hitting function")
        vals = list(f)
        for i in range(h.n_edges):
            # an index vertex lies in one edge only; 1 claims it as well
            if vals[n + i] == 2:
                vals[n + i] = 1
        assert any(vals[x] == 2 for x in range(n))
        for x in range(n):
            if vals[x] == 1:
                vals[x] = 0
        pair = RhsPair(
            frozenset(i for i in range(h.n_edges) if vals[n + i] == 1),
            frozenset(x for x in range(n) if vals[x] == 2),
        )
        assert is_rhs(h, pair) and weight_pair(pair) <= k
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
    u_id = {i: w_base + h.n_edges + k for k, i in enumerate(unclaimable)}
    tokens = (
        ["a", "b", "c"]
        + ["v_" + t for t in h.vertex_tokens]
        + ["w_" + t for t in h.edge_tokens]
        + ["u_" + h.edge_tokens[i] for i in unclaimable]
    )
    pairs: list[tuple[int, int]] = [(0, 1), (0, 2)]
    pairs += [(0, v_base + x) for x in range(n)]
    pairs += [
        (v_base + x, v_base + y)
        for x in range(n)
        for y in range(x + 1, n)
    ]
    for i in range(h.n_edges):
        pairs += [(v_base + x, w_base + i) for x in bits(h.edge_members[i])]
    for i in unclaimable:
        pairs += [(v_base + x, u_id[i]) for x in bits(h.edge_members[i])]
    gadget = Graph(tuple(tokens), tuple(pairs))

    def forward(f: Sequence[int]) -> RomanAssignment:
        f = validate_assignment(f, n)
        if not is_rhf(h, tau, f):
            raise InputError("assignment is not a hitting function")
        vals = [0] * gadget.n_vertices
        vals[0] = 2
        claimed = tau.image_mask(level_mask(f, 1))
        for x in range(n):
            if f[x] == 2:
                vals[v_base + x] = 2
        for i in bits(claimed):
            vals[w_base + i] = 1
        g = tuple(vals)
        assert is_rdf(gadget, g)
        assert weight_assignment(g) <= weight_assignment(f) + 2
        return g

    def backward(gv: Sequence[int]) -> RomanAssignment:
        gv = validate_assignment(gv, gadget.n_vertices)
        if not is_rdf(gadget, gv):
            raise InputError("assignment does not dominate the gadget")
        vals = list(gv)
        # the apex never loses: if it is not a 2, both pendants pay >= 1
        if vals[0] != 2:
            vals[0] = 2
        vals[1] = vals[2] = 0
        for i in range(h.n_edges):
            spots = [w_base + i] + ([u_id[i]] if i in u_id else [])
            for s in spots:
                if vals[s] == 2:
                    # a member stand-in dominates strictly more
                    vals[s] = 0
                    m = h.edge_members[i]
                    vals[v_base + (m & -m).bit_length() - 1] = 2
        for i in unclaimable:
            total = vals[w_base + i] + vals[u_id[i]]
            if total >= 2:
                vals[w_base + i] = 0
                vals[u_id[i]] = 0
                m = h.edge_members[i]
                vals[v_base + (m & -m).bit_length() - 1] = 2
            elif total == 1:
                # the 0-valued twin proves a member 2 exists already
                vals[w_base + i] = 0
                vals[u_id[i]] = 0
        for x in range(n):
            if vals[v_base + x] == 1:
                vals[v_base + x] = 0
        assert is_rdf(gadget, vals)
        out = [0] * n
        for x in range(n):
            if vals[v_base + x] == 2:
                out[x] = 2
        for i in range(h.n_edges):
            if vals[w_base + i] != 1:
                continue
            pre = tau.preimage_mask(i)
            assert pre, "a surviving 1 on an unclaimable edge stand-in"
            x = (pre & -pre).bit_length() - 1
            if out[x] != 2:
                out[x] = 1
        f = tuple(out)
        assert is_rhf(h, tau, f)
        assert weight_assignment(f) <= weight_assignment(gv) - 2
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
    used = set(g.vertex_tokens)
    pend_tokens = [_fresh_token(t + "'", used) for t in g.vertex_tokens]
    target = Graph(
        g.vertex_tokens + tuple(pend_tokens),
        g.edges + tuple((v, n + v) for v in range(n)),
    )

    def forward(cover: Iterable[VertexId]) -> RhsPair:
        c = set(cover)
        if c - set(range(n)):
            raise InputError("cover contains an unknown vertex")
        cm = mask_of(c)
        for u, v in g.edges:
            if not (cm >> u) & 1 and not (cm >> v) & 1:
                raise InputError("not a vertex cover")
        return RhsPair(
            frozenset(m + v for v in range(n) if v not in c),
            frozenset(c),
        )

    def backward(pair: RhsPair) -> frozenset[VertexId]:
        r1 = set(pair.r1)
        r2 = set(pair.r2)
        if any(not 0 <= i < m + n for i in r1) or any(
            not 0 <= v < 2 * n for v in r2
        ):
            raise InputError("solution indexes outside the gadget")
        for idx, (u, v) in enumerate(target.edges):
            if idx not in r1 and u not in r2 and v not in r2:
                raise InputError("pair does not cover the gadget")
        while True:
            pendants = sorted(v for v in r2 if v >= n)
            for p in pendants:
                # a pendant 2 covers one edge; one R1 slot does the same
                r2.discard(p)
                r1.add(m + (p - n))
            r1 = {
                idx
                for idx in r1
                if target.edges[idx][0] not in r2
                and target.edges[idx][1] not in r2
            }
            originals = sorted(idx for idx in r1 if idx < m)
            if not originals:
                break
            idx = originals[0]
            u = min(target.edges[idx])
            r1.discard(idx)
            r1.discard(m + u)
            r2.add(u)
        cover = frozenset(r2)
        cm = mask_of(cover)
        assert all((cm >> u) & 1 or (cm >> v) & 1 for u, v in g.edges)
        return cover

    return ReductionOutput(target, forward, backward, n)


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
        ds = set(d)
        if ds - set(range(g.n_vertices)):
            raise InputError("dominating set contains an unknown vertex")
        return RhsPair(
            frozenset(i_pos[v] for v in ds if v in i_pos),
            frozenset(c_pos[v] for v in ds if v in c_pos),
        )

    def backward(pair: RhsPair) -> frozenset[VertexId]:
        if not is_rhs(h, pair.validate(h)):
            raise InputError("pair is not a Roman hitting set")
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
        xs = list(bits(m))
        for idx, x in enumerate(xs):
            for y in xs[idx + 1 :]:
                pairs.add((x, y))
    return Graph(h.vertex_tokens, tuple(sorted(pairs)))


def is_hypergraph_rdf(h: Hypergraph, f: Sequence[int]) -> bool:
    """Every 0-vertex shares an edge with a 2-vertex.

    This is Roman domination read on the hypergraph directly; it agrees
    with graph Roman domination on the two-section.
    """
    f = validate_assignment(f, h.n_vertices)
    twos = level_mask(f, 2)
    for x, v in enumerate(f):
        if v != 0:
            continue
        hit = False
        for i in bits(h.incidence_mask(x)):
            if h.edge_members[i] & twos:
                hit = True
                break
        if not hit:
            return False
    return True
