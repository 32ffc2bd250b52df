"""Extension solvers: can a pre-solution grow into a minimal solution?

ext_rhs settles the pair question outright in polynomial time. For
assignments the polynomial algorithm (ext_rhf_surjective) needs every edge
without correspondence preimage to be pre-hit; the general solver falls
back to bounded exponential search, either by sweeping all larger
assignments or by searching for an extensibility witness after the
promotion closure. Graph-side, bounded_ext_rd answers the two-sided Roman
domination extension question by branching on dominators for the vertices
capped at 0, and ext_ds_split answers minimal-dominating-set extension on
split graphs through ext_rhs.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .characterize import (
    ExtensionWitness,
    check_extension_witness,
    is_minimal_rhf_theorem,
    is_minimal_rhs_theorem,
)
from .core import (
    BoundedRdInstance,
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    RomanAssignment,
    VertexId,
    bits,
    closed_neighborhood_hypergraph,
    level_mask,
    mask_of,
    validate_assignment,
)
from .errors import GuardRefused, InputError

# the general solver's sweep is exponential in the count of 0s and 1s
GENERAL_GUARD = 20

Witness = Union[RhsPair, RomanAssignment, frozenset]


@dataclass(frozen=True)
class ExtAnswer:
    """Decision plus, on yes, a minimal solution dominating the pre-solution."""

    decision: bool
    witness: Witness | None = None


def ext_rhs(h: Hypergraph, u: RhsPair) -> ExtAnswer:
    """Is there a minimal rhs above the pre-solution (componentwise)?

    No exactly when some pre-picked edge already meets the pre-picked
    vertices, or some pre-picked vertex can never hit anything alone.
    Otherwise filling every unhit edge into R1 completes a minimal rhs
    that keeps R2 as given.
    """
    u.validate(h)
    r1m = u.r1_mask()
    r2m = u.r2_mask()
    for x in bits(r2m):
        if h.incidence_mask(x) & r1m:
            return ExtAnswer(False)
    for x in bits(r2m):
        if not h.incidence_mask(x) & ~h.incidence_set_mask(r2m & ~(1 << x)):
            return ExtAnswer(False)
    m1 = r1m | (h.all_edges_mask & ~(h.incidence_set_mask(r2m) | r1m))
    return ExtAnswer(True, RhsPair.from_masks(m1, r2m))


def promote_closure(
    h: Hypergraph, tau: Correspondence, f: Sequence[int]
) -> RomanAssignment:
    """Raise forced 1s to 2 until a fixpoint.

    Two 1-vertices sharing a corresponding edge can never both stay 1 in a
    minimal rhf above f, and a 1 whose corresponding edge holds a 2 has
    lost its job; both promotions preserve extensibility exactly. The
    result has an injective correspondence on its 1-set.
    """
    tau.validate(h)
    vals = list(validate_assignment(f, h.n_vertices))
    changed = True
    while changed:
        changed = False
        groups: dict[int, list[int]] = {}
        for x, v in enumerate(vals):
            if v == 1:
                groups.setdefault(tau.mapping[x], []).append(x)
        for xs in groups.values():
            if len(xs) >= 2:
                for x in xs:
                    vals[x] = 2
                changed = True
        twos = level_mask(vals, 2)
        for y, v in enumerate(vals):
            if v == 1 and h.edge_members[tau.mapping[y]] & twos:
                vals[y] = 2
                changed = True
    return tuple(vals)


def ext_rhf_surjective(
    h: Hypergraph, tau: Correspondence, g: Sequence[int]
) -> ExtAnswer:
    """Polynomial extension check for assignments.

    Requires every edge without correspondence preimage to contain a
    2-vertex of g already (always true for surjective correspondences).
    Promotes forced 1s, then rejects when some 2 has no private edge other
    than its corresponding one; otherwise edges still unhit and unclaimed
    get a 1 on the smallest preimage member.
    """
    tau.validate(h)
    g = validate_assignment(g, h.n_vertices)
    twos = level_mask(g, 2)
    no_pre = h.all_edges_mask & ~tau.range_mask
    if no_pre & ~h.incidence_set_mask(twos):
        raise InputError(
            "an edge without correspondence preimage is not pre-hit; "
            "use the general solver"
        )
    m1 = level_mask(g, 1)
    m2 = twos
    groups: dict[int, list[int]] = {}
    for x in bits(m1):
        groups.setdefault(tau.mapping[x], []).append(x)
    for xs in groups.values():
        if len(xs) >= 2:
            for x in xs:
                m1 &= ~(1 << x)
                m2 |= 1 << x
    queue = list(bits(m2))
    while queue:
        x = queue.pop()
        inc_x = h.incidence_mask(x)
        for y in list(bits(m1)):
            if (inc_x >> tau.mapping[y]) & 1:
                m1 &= ~(1 << y)
                m2 |= 1 << y
                queue.append(y)
    for x in bits(m2):
        priv = (
            h.incidence_mask(x)
            & ~h.incidence_set_mask(m2 & ~(1 << x))
            & ~(1 << tau.mapping[x])
        )
        if not priv:
            return ExtAnswer(False)
    tau_m1 = 0
    for x in bits(m1):
        tau_m1 |= 1 << tau.mapping[x]
    fills = 0
    for i in bits(h.all_edges_mask & ~(h.incidence_set_mask(m2) | tau_m1)):
        pre = tau.preimage_mask(i)
        fills |= pre & -pre
    ones = m1 | fills
    f = tuple(
        2 if (m2 >> x) & 1 else 1 if (ones >> x) & 1 else 0
        for x in range(h.n_vertices)
    )
    return ExtAnswer(True, f)


def _sweep_ranges(f: RomanAssignment) -> list[tuple[int, ...]]:
    return [(0, 1, 2) if v == 0 else (1, 2) if v == 1 else (2,) for v in f]


def _general_sweep(
    h: Hypergraph, tau: Correspondence, f: RomanAssignment
) -> ExtAnswer:
    for g in itertools.product(*_sweep_ranges(f)):
        if is_minimal_rhf_theorem(h, tau, g):
            return ExtAnswer(True, g)
    return ExtAnswer(False)


def _witness_to_assignment(
    h: Hypergraph,
    tau: Correspondence,
    fc: RomanAssignment,
    r2m: int,
    rho: dict[int, int],
) -> RomanAssignment:
    # leftover preimage-free edges get hit by a fresh minimal hitting set
    # carved out of the vertices no planned edge touches
    ones = level_mask(fc, 1) & ~r2m
    covered = 0
    for x in bits(ones):
        covered |= h.edge_members[tau.mapping[x]]
    for x in bits(r2m):
        covered |= h.edge_members[rho[x]]
    no_pre = h.all_edges_mask & ~tau.range_mask
    leftover = [
        i
        for i in bits(no_pre)
        if not h.edge_members[i] & r2m
    ]
    pool = 0
    for i in leftover:
        pool |= h.edge_members[i]
    pool &= ~covered
    cut = [h.edge_members[i] & pool for i in leftover]
    d = pool
    for x in bits(pool):
        trimmed = d & ~(1 << x)
        if all(e & trimmed for e in cut):
            d = trimmed
    g2 = r2m | d
    hit = h.incidence_set_mask(g2)
    fills = 0
    for i in bits(h.all_edges_mask & ~hit):
        pre = tau.preimage_mask(i)
        own = pre & ones
        pick = own if own else pre & -pre
        fills |= pick & -pick
    g = tuple(
        2 if (g2 >> x) & 1 else 1 if (fills >> x) & 1 else 0
        for x in range(h.n_vertices)
    )
    assert is_minimal_rhf_theorem(h, tau, g)
    assert all(a <= b for a, b in zip(fc, g))
    return g


def _general_witness(
    h: Hypergraph, tau: Correspondence, f: RomanAssignment
) -> ExtAnswer:
    fc = promote_closure(h, tau, f)
    ones = level_mask(fc, 1)
    twos = level_mask(fc, 2)
    ones_list = list(bits(ones))
    no_pre = h.all_edges_mask & ~tau.range_mask
    for pick in range(1 << len(ones_list)):
        r2m = twos
        for j, x in enumerate(ones_list):
            if (pick >> j) & 1:
                r2m |= 1 << x
        if any(
            h.edge_members[tau.mapping[x]] & r2m for x in bits(ones & ~r2m)
        ):
            continue
        cands: list[list[int]] = []
        for x in bits(r2m):
            cs = [
                i
                for i in bits(h.incidence_mask(x))
                if i != tau.mapping[x] and h.edge_members[i] & r2m == 1 << x
            ]
            if not cs:
                break
            cands.append(cs)
        else:
            members = list(bits(r2m))
            if not no_pre:
                rho = {x: cs[0] for x, cs in zip(members, cands)}
                w = ExtensionWitness.build(set(members), rho)
                if check_extension_witness(h, tau, fc, w):
                    return ExtAnswer(
                        True, _witness_to_assignment(h, tau, fc, r2m, rho)
                    )
                continue
            for combo in itertools.product(*cands):
                rho = dict(zip(members, combo))
                w = ExtensionWitness.build(set(members), rho)
                if check_extension_witness(h, tau, fc, w):
                    return ExtAnswer(
                        True, _witness_to_assignment(h, tau, fc, r2m, rho)
                    )
    return ExtAnswer(False)


def ext_rhf_general(
    h: Hypergraph,
    tau: Correspondence,
    f: Sequence[int],
    strategy: str = "sweep",
) -> ExtAnswer:
    """Is there a minimal rhf above f, for arbitrary correspondences?

    Exponential in the count of vertices below 2, so guarded. The sweep
    strategy tries every assignment above f; the witness strategy runs the
    promotion closure and searches for a 2-set plus private-edge map whose
    constraints certify extensibility. Both return the same decision.
    """
    tau.validate(h)
    f = validate_assignment(f, h.n_vertices)
    low = sum(1 for v in f if v < 2)
    if low > GENERAL_GUARD:
        raise GuardRefused(
            f"general extension solver is limited to {GENERAL_GUARD} "
            f"vertices below 2, got {low}"
        )
    if strategy == "sweep":
        return _general_sweep(h, tau, f)
    if strategy == "witness":
        return _general_witness(h, tau, f)
    raise InputError(f"unknown strategy {strategy!r}")


def bounded_ext_rd(inst: BoundedRdInstance) -> ExtAnswer:
    """Is there a minimal rdf between the two assignments?

    A 1 of the lower assignment next to one of its 2s must rise to 2 in
    any candidate, so the cap rejects some instances outright. Every
    vertex capped at 0 needs a dominator capped at 2 that is not adjacent
    to a pinned 1; the solver branches over those choices, re-closes, and
    finishes with the polynomial extension check on the closed
    neighborhood hypergraph. Witnesses never exceed the cap: the final
    check adds no 2s beyond the closure and fills 1s only next to chosen
    dominators' undominated slack.
    """
    g, f, up = inst.graph, inst.lower, inst.upper
    n = g.n_vertices
    if any(f[v] > up[v] for v in range(n)):
        return ExtAnswer(False)

    def close(vals: list[int]) -> list[int] | None:
        changed = True
        while changed:
            changed = False
            twos = level_mask(vals, 2)
            for v, val in enumerate(vals):
                if val == 1 and g.neighbors_mask(v) & twos:
                    if up[v] < 2:
                        return None
                    vals[v] = 2
                    changed = True
        return vals

    base = close(list(f))
    if base is None:
        return ExtAnswer(False)
    pinned = mask_of(
        v for v in range(n) if f[v] == 1 and up[v] == 1
    )
    banned = g.closed_set_mask(pinned) & ~pinned
    cands = []
    for v in range(n):
        if up[v] != 0:
            continue
        cs = [
            u
            for u in bits(g.neighbors_mask(v))
            if up[u] == 2 and not (banned >> u) & 1
        ]
        if not cs:
            return ExtAnswer(False)
        cands.append(cs)
    hh, tt = closed_neighborhood_hypergraph(g)
    seen: set[tuple[int, ...]] = set()
    for combo in itertools.product(*cands):
        vals = list(base)
        for u in combo:
            vals[u] = 2
        closed = close(vals)
        if closed is None:
            continue
        key = tuple(closed)
        if key in seen:
            continue
        seen.add(key)
        ans = ext_rhf_surjective(hh, tt, key)
        if ans.decision:
            w = ans.witness
            assert all(f[v] <= w[v] <= up[v] for v in range(n))
            return ExtAnswer(True, w)
    return ExtAnswer(False)


def is_minimal_dominating_set(g: Graph, d: Iterable[VertexId]) -> bool:
    """Every vertex is in or next to d, and every member has a private dominee."""
    dm = mask_of(d)
    full = (1 << g.n_vertices) - 1
    if g.closed_set_mask(dm) != full:
        return False
    for v in bits(dm):
        if not g.closed_mask(v) & ~g.closed_set_mask(dm & ~(1 << v)):
            return False
    return True


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


def _validate_split(
    g: Graph, clique: set[int], indep: set[int]
) -> None:
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


def ext_ds_split(
    g: Graph,
    split: tuple[Iterable[VertexId], Iterable[VertexId]],
    u: Iterable[VertexId],
) -> ExtAnswer:
    """Minimal-dominating-set extension on a split graph.

    Picking an edge of the hypergraph view into R1 stands for picking
    its independent vertex, so ext_rhs settles the question.
    """
    u_set = set(u)
    if u_set - set(range(g.n_vertices)):
        raise InputError("pre-solution contains an unknown vertex")
    h, c_list, i_list = split_hypergraph(g, split)
    c_pos = {v: k for k, v in enumerate(c_list)}
    pre = RhsPair(
        frozenset(k for k, i in enumerate(i_list) if i in u_set),
        frozenset(c_pos[v] for v in u_set if v in c_pos),
    )
    ans = ext_rhs(h, pre)
    if not ans.decision:
        return ExtAnswer(False)
    wit = ans.witness
    d = frozenset(
        {i_list[k] for k in wit.r1} | {c_list[x] for x in wit.r2}
    )
    assert u_set <= d and is_minimal_dominating_set(g, d)
    return ExtAnswer(True, d)
