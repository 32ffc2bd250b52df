"""Extension solvers: can a pre-solution grow into a minimal solution?

ext_rhs settles the pair question in polynomial time, and ext_ds_split
the split-graph dominating-set one through it. One core for assignments,
the general extension search (_general_witness), answers
ext_rhf_surjective (where it decides at its root), ext_rhf_general (an
NP-complete question once tau is not surjective) and bounded_ext_rd (the
caps become preimage-free edges and a starting cover). The public
functions validate and find the preimage-free edges, then run private
cores on core's three mask sequences (a hypergraph's _instance_masks or
a graph's closed neighborhoods), which validate nothing.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .core import (
    BoundedRdInstance,
    Correspondence,
    Graph,
    Hypergraph,
    Masks,
    RhsPair,
    RomanAssignment,
    VertexId,
    _Frozen,
    _assignment,
    _closed_masks,
    _complete,
    _hit_counts,
    _instance_masks,
    _level_masks,
    _minimal_r1,
    _pair_violation,
    _rhf_violation,
    _union,
    _vertex_mask,
    bits,
    frozenset_of,
)
from .errors import InputError, WorkBudget

Witness = RhsPair | RomanAssignment | frozenset


class ExtAnswer(_Frozen):
    """Decision plus, on yes, a minimal solution dominating the pre-solution."""

    __slots__ = _fields = ("decision", "witness")
    decision: bool
    witness: Witness | None

    def __init__(self, decision: bool, witness: Witness | None = None) -> None:
        _SET_DECISION(self, decision)
        _SET_WITNESS(self, witness)


# the slot descriptors' setters bypass the refusing __setattr__ at half the
# cost of object.__setattr__; ext_rhs builds one answer per call
_SET_DECISION = ExtAnswer.decision.__set__
_SET_WITNESS = ExtAnswer.witness.__set__


def ext_rhs(h: Hypergraph, u: RhsPair) -> ExtAnswer:
    """Is there a minimal rhs above the pre-solution (componentwise)?

    No exactly when some pre-picked edge already meets the pre-picked
    vertices, or some pre-picked vertex can never hit anything alone.
    Otherwise the unique minimal rhs with 2-set R2 lies above: its 1-part
    is every edge R2 misses, R1 included.
    """
    u.validate(h)
    r1m = _minimal_r1(h.edge_members, h.incidence_masks, u.r1m, u.r2m)
    if r1m is None:
        return ExtAnswer(False)
    return ExtAnswer(True, RhsPair.from_masks(r1m, u.r2m))


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
    m1, m2 = _promote(*_instance_masks(h, tau), *_level_masks(f, h.n_vertices))
    return _assignment(h.n_vertices, m1, m2)


def _promote(
    members: Masks, inc: Masks, mapping: Masks, m1: int, m2: int
) -> tuple[int, int]:
    """promote_closure on masks: the fixpoint's 1s and 2s."""
    first: dict[int, int] = {}
    clash = 0
    for x in bits(m1):
        y = first.setdefault(mapping[x], x)
        if y != x:
            clash |= 1 << x | 1 << y
    m1 &= ~clash
    m2 |= clash
    changed = True
    while changed:
        changed = False
        for y in bits(m1):
            if members[mapping[y]] & m2:
                m1 &= ~(1 << y)
                m2 |= 1 << y
                changed = True
    return m1, m2


def ext_rhf_surjective(
    h: Hypergraph, tau: Correspondence, g: Sequence[int]
) -> ExtAnswer:
    """Polynomial extension check for assignments.

    Requires every edge without correspondence preimage to contain a
    2-vertex of g already (always true for surjective correspondences),
    so the general extension search decides at its root: after the
    promotion closure, no when some 2 has no private edge other than its
    corresponding one; else every 1 stays, and edges unhit and unclaimed
    get a 1 on the smallest preimage member.
    """
    tau.validate(h)
    ones, twos = _level_masks(g, h.n_vertices)
    free = h.all_edges_mask & ~tau.range_mask
    if free & ~h.incidence_set_mask(twos):
        raise InputError(
            "an edge without correspondence preimage is not pre-hit; "
            "use the general solver"
        )
    inst = _instance_masks(h, tau)
    return _general_witness(*inst, free, *_promote(*inst, ones, twos), 0)


def _general_witness(
    members: Masks, inc: Masks, mapping: Masks,
    free: int, ones: int, twos: int, cover: int,
) -> ExtAnswer:
    """The one rhf-extension search, on a promotion closure's 1s and 2s
    (each caller closes f first, _promote), the preimage-free edges and
    the starting cover: vertices that may never become 2 (0 for an rhf
    question; bounded_ext_rd's vertices capped below 2).

    Depth first from an explicit stack, it settles each node (_settle)
    and decides the closure's 1s, lowest first and keep before promote,
    so the all-keep leaf comes first; then _carve maps each 2 to a private
    edge, and fresh 2s hit what the loose edges (the preimage-free edges
    the 2s miss) keep uncovered. Each node popped costs one unit.
    """
    n = len(inc)
    zeros = (1 << n) - 1 & ~(ones | twos)
    spend = WorkBudget("general extension search").spend
    # a node: the undecided 1s, the planned 2s, the edges they hit at
    # least once and at least twice, the cover: the starting cover and
    # the vertices the kept 1s' corresponding edges cover
    stack = [(ones, twos, *_hit_counts(inc, twos), cover)]
    pop, push = stack.pop, stack.append
    while stack:
        spend(1)
        node = _settle(members, inc, mapping, free, zeros, *pop())
        if node is None:
            continue
        todo, r2, once, twice, cover = node
        loose = free & ~once
        if loose and todo:
            # later 2s only take candidates away, so the planned 2s must
            # map now onto the loose edges that no undecided 1 can hit
            fixed = sum(1 << i for i in bits(loose) if not members[i] & todo) if r2 else 0
            if fixed and _carve(members, inc, mapping, r2, twice, cover, fixed, spend) is None:
                continue
            # keep the 1s lowest first, pushing each one's promote child;
            # when keeping them all covers no loose edge whole, no node on
            # the way dies or forces a 2, so walk to the all-keep leaf at
            # once, paying its nodes; else keep the lowest and settle that
            kept = cover
            for x in bits(todo):
                kept |= members[mapping[x]]
            alive = all(members[i] & ~kept for i in bits(loose))
            walk = todo if alive else todo & -todo
            for x in bits(walk):
                low = 1 << x
                todo ^= low
                if not low & cover:
                    push((todo, r2 | low, once | inc[x], twice | once & inc[x], cover))
                cover |= members[mapping[x]]
            if not alive:
                push((todo, r2, once, twice, cover))
                continue
            spend(walk.bit_count())
        if loose and r2:
            cover = _carve(members, inc, mapping, r2, twice, cover, loose, spend)
            if cover is None:
                continue
        # fresh 2s: a minimal hitting set of what the loose edges keep
        # uncovered
        cut = [members[i] & ~cover for i in bits(loose)]
        d = _union(members, loose) & ~cover
        for x in bits(d):
            if all(e & d & ~(1 << x) for e in cut):
                d &= ~(1 << x)
        g2 = r2 | d
        g1 = _complete(members, inc, mapping, ones & ~r2, g2)
        assert _rhf_violation(members, inc, mapping, g1, g2) is None
        # the witness lies above the closure, so above f, pointwise
        assert not twos & ~g2 and not ones & ~(g1 | g2)
        return ExtAnswer(True, _assignment(n, g1, g2))
    return ExtAnswer(False)


def _settle(
    members: Masks, inc: Masks, mapping: Masks, free: int, zeros: int,
    todo: int, r2: int, once: int, twice: int, cover: int,
) -> tuple[int, int, int, int, int] | None:
    """The node with its forced 2s promoted, or None when no completion
    passes. A 1 must become 2 when its corresponding edge holds a 2, and
    so must the last uncovered 1 of a loose edge that no fresh 2 (an
    uncovered 0) can hit. A node dies once a 2 has no candidate private
    edge (one it hits alone, not its corresponding edge), _narrow fails
    or a forced 1 is covered: the kept 1s' corresponding edges cover
    their members, and no member of the cover may become 2."""
    while True:
        for x in bits(r2):
            if not inc[x] & ~twice & ~(1 << mapping[x]):
                return None
        loose = free & ~once
        if loose and r2:
            cover = _narrow(members, inc, mapping, r2, twice, cover, loose)
            if cover is None:
                return None
        forced = 0
        for x in bits(todo):
            if members[mapping[x]] & r2:
                forced |= 1 << x
        while loose:
            low = loose & -loose
            loose ^= low
            left = members[low.bit_length() - 1] & ~cover
            if not left & zeros and not left & (left - 1):
                if not left:
                    return None
                forced |= left
        if not forced:
            return todo, r2, once, twice, cover
        if forced & cover:
            return None
        todo ^= forced
        r2 |= forced
        for x in bits(forced):
            twice |= once & inc[x]
            once |= inc[x]


def _narrow(
    members: Masks, inc: Masks, mapping: Masks,
    twos: int, twice: int, cover: int, loose: int,
) -> int | None:
    """The cover grown by what the 2s of twos must cover, or None once no
    completion passes: a loose edge inside the cover is never hit. A 2
    with no viable candidate (one that, added to the cover, leaves each
    loose edge a member outside) fails; the members all its viable
    candidates share join the cover, to a fixpoint."""
    edges = [members[i] for i in bits(loose)]
    grew = True
    while grew:
        if not all(e & ~cover for e in edges):
            return None
        grew = False
        for x in bits(twos):
            shared = -1
            for i in bits(inc[x] & ~twice & ~(1 << mapping[x])):
                if all(e & ~(cover | members[i]) for e in edges):
                    shared &= members[i]
            if shared == -1:
                return None
            grew = grew or bool(shared & ~cover)
            cover |= shared
    return cover


def _carve(
    members: Masks, inc: Masks, mapping: Masks,
    r2: int, twice: int, cover: int, loose: int, spend: Callable[[int], None],
) -> int | None:
    """The cover once each 2 of r2 maps to a private edge whose members
    join it, or None when every map covers a loose edge whole. The 2s
    split into groups whose candidates reach disjoint loose edges, each
    searched depth first on its own, lowest 2 and edge first, with
    _narrow on each node; so the groups' first passing maps are together
    the first of all the 2s, and a group that reaches none needs none."""
    groups: list[tuple[int, int]] = []
    for x in bits(r2):
        reach = _union(members, inc[x] & ~twice & ~(1 << mapping[x])) & ~cover
        twos, edges = 1 << x, sum(1 << i for i in bits(loose) if members[i] & reach)
        for g in [g for g in groups if g[1] & edges]:
            groups.remove(g)
            twos, edges = twos | g[0], edges | g[1]
        groups.append((twos, edges))
    final = cover
    for twos, edges in groups:
        if not edges:
            continue
        stack = [(twos, cover)]
        while stack:
            spend(1)
            todo, part = stack.pop()
            part = _narrow(members, inc, mapping, todo, twice, part, edges)
            if part is None:
                continue
            if not todo:
                final |= part
                break
            x = (todo & -todo).bit_length() - 1
            for i in reversed(list(bits(inc[x] & ~twice & ~(1 << mapping[x])))):
                stack.append((todo & ~(1 << x), part | members[i]))
        else:
            return None
    return final


def ext_rhf_general(
    h: Hypergraph, tau: Correspondence, f: Sequence[int], strategy: str = "sweep"
) -> ExtAnswer:
    """Is there a minimal rhf above f, for arbitrary correspondences?

    NP-complete once tau is not surjective: the general extension search
    spends one unit of the work budget per node. strategy is kept for
    compatibility: "sweep" and "witness" both run it, others are refused.
    """
    tau.validate(h)
    ones, twos = _level_masks(f, h.n_vertices)
    if strategy not in ("sweep", "witness"):
        raise InputError(f"unknown strategy {strategy!r}")
    inst = _instance_masks(h, tau)
    free = h.all_edges_mask & ~tau.range_mask
    return _general_witness(*inst, free, *_promote(*inst, ones, twos), 0)


def bounded_ext_rd(inst: BoundedRdInstance) -> ExtAnswer:
    """Is there a minimal rdf between the two assignments?

    A 1 of the lower assignment next to one of its 2s must rise to 2, so
    the cap rejects some instances outright. Else one general extension
    search on the closed neighborhoods decides, the caps its input: N[v]
    for v capped at 0 is a preimage-free edge, which only a 2 can hit,
    and the vertices capped below 2 start in the cover, which no 2 enters.
    """
    g, f, up = inst.graph, inst.lower, inst.upper
    n = g.n_vertices
    f1, f2 = _level_masks(f, n)
    cap1, cap2 = _level_masks(up, n)
    cap0 = (1 << n) - 1 & ~(cap1 | cap2)
    # some lower value lies above its cap
    if f2 & ~cap2 or f1 & cap0:
        return ExtAnswer(False)
    nbhd = _closed_masks(g)
    # on N[.] with the identity correspondence the promotion closure
    # raises exactly the 1s next to a 2
    m1, m2 = _promote(*nbhd, f1, f2)
    if m2 & ~cap2:
        return ExtAnswer(False)
    ans = _general_witness(*nbhd, cap0, m1, m2, cap0 | cap1)
    assert not ans.decision or all(map(int.__le__, ans.witness, up))
    return ans


def is_minimal_dominating_set(g: Graph, d: Iterable[VertexId]) -> bool:
    """Every vertex is in or next to d, and every member has a private
    dominee: d is a minimal hitting set of the closed neighborhoods."""
    closed = _closed_masks(g)[0]
    return _pair_violation(closed, closed, 0, _vertex_mask(g, d, "vertex set")) is None


def ext_ds_split(
    g: Graph,
    split: tuple[Iterable[VertexId], Iterable[VertexId]],
    u: Iterable[VertexId],
) -> ExtAnswer:
    """Minimal-dominating-set extension on a split graph.

    reduce.ds_split_to_rhs carries the pre-solution to a pair of the
    hypergraph view and minimal pairs back to minimal dominating sets,
    so ext_rhs settles the question.
    """
    from .reduce import ds_split_to_rhs

    u_set = frozenset_of(_vertex_mask(g, u, "pre-solution"))
    ro = ds_split_to_rhs(g, split)
    ans = ext_rhs(ro.instance, ro.forward(u_set))
    if not ans.decision:
        return ExtAnswer(False)
    d = ro.backward(ans.witness)
    assert u_set <= d and is_minimal_dominating_set(g, d)
    return ExtAnswer(True, d)
