"""Extension solvers: can a pre-solution grow into a minimal solution?

ext_rhs settles the pair question outright in polynomial time. For
assignments one core, the witness search, looks after the promotion
closure for a planned 2-set plus a privately hit edge for each member
(checked by check_extension_witness). Its first 2-set decides in
polynomial time when the closure's 2s hit every edge without
correspondence preimage, as ext_rhf_surjective requires; otherwise
ext_rhf_general searches on, or by default sweeps the larger assignments
depth first, dropping a prefix once it breaks a condition no completion
repairs. Both searches spend a work budget (errors.WorkBudget) as they
run, one unit per node, 2-set or private-edge map tried, and are refused
once it passes the limit. Graph-side, bounded_ext_rd branches on
dominators for the vertices capped at 0 and runs the witness search on
each closure, and ext_ds_split answers minimal-dominating-set extension
on split graphs by ext_rhs through reduce.ds_split_to_rhs.

The public functions validate once; their loops call private cores on
masks that validate nothing (_promote, _general_witness, _witness_cover,
and core's _complete, _rhf_violation, _pair_violation and _minimal_r1),
which take an instance as core's three sequences: a hypergraph's
_instance_masks, or a graph's closed-neighborhood masks, so the graph
solvers build no hypergraph. ext_rhs is one hit-count pass over R2's
incidences (_minimal_r1). Outside the sweep, which carries its own hit
counts from prefix to prefix, a 2's private edges are the edges it hits
that are not hit twice. is_minimal_dominating_set is the pair check on
the closed neighborhoods.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence

from .core import (
    BoundedRdInstance,
    Correspondence,
    EdgeIndex,
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
    _id_mask,
    _image,
    _instance_masks,
    _level_masks,
    _minimal_r1,
    _pair_violation,
    _rhf_violation,
    _union,
    _vertex_mask,
    bits,
    frozenset_of,
    mask_of,
    submasks,
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
    so the witness search (ext_rhf_general's witness strategy) decides at
    its first 2-set: it promotes forced 1s, then rejects when some 2 has
    no private edge other than its corresponding one; otherwise edges
    still unhit and unclaimed get a 1 on the smallest preimage member.
    """
    tau.validate(h)
    ones, twos = _level_masks(g, h.n_vertices)
    if h.all_edges_mask & ~tau.range_mask & ~h.incidence_set_mask(twos):
        raise InputError(
            "an edge without correspondence preimage is not pre-hit; "
            "use the general solver"
        )
    inst = _instance_masks(h, tau)
    return _general_witness(*inst, *_promote(*inst, ones, twos))


def _general_sweep(
    h: Hypergraph, tau: Correspondence, f_ones: int, f_twos: int
) -> ExtAnswer:
    """Depth-first search over the assignments above f, vertex 0 first and
    each vertex's values ascending, so complete candidates arrive in the
    lexicographic order of itertools.product and the first minimal rhf
    found is the same.

    A prefix is dropped once it breaks a condition of a minimal rhf that
    no completion repairs: two 1s share a corresponding edge, a 1's
    corresponding edge holds a 2, a 2 has no private edge besides its
    corresponding one, or an edge is neither hit nor claimed once its
    highest member is decided. Later 2s only take privacy away, and only
    from the 2s they share an edge with, so a new 2 rechecks itself and,
    when it makes an edge of earlier 2s hit twice, the earlier 2s. So
    every complete candidate is a minimal rhf (an empty edge, never hit,
    answers no at once). Each node popped costs one unit of work.
    """
    n = h.n_vertices
    spend = WorkBudget("general extension sweep").spend
    members, incidence, mapping = inst = _instance_masks(h, tau)
    if not all(members):
        return ExtAnswer(False)
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
        spend(1)
        x, m1, m2, img, cover, hit, multi = pop()
        if x == n:
            assert _rhf_violation(*inst, m1, m2) is None
            return ExtAnswer(True, _assignment(n, m1, m2))
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
    return ExtAnswer(False)


class ExtensionWitness(_Frozen):
    """Certificate that an assignment can grow into a minimal rhf.

    r2 is the planned 2-set; it must contain the current 2s and stay inside
    the current 1s and 2s. rho assigns every member an edge it hits alone,
    different from its corresponding edge.
    """

    __slots__ = _fields = ("r2", "rho")
    r2: frozenset[VertexId]
    rho: tuple[tuple[VertexId, EdgeIndex], ...]

    def __init__(
        self, r2: frozenset[VertexId], rho: tuple[tuple[VertexId, EdgeIndex], ...]
    ) -> None:
        object.__setattr__(self, "r2", r2)
        object.__setattr__(self, "rho", rho)

    @classmethod
    def build(
        cls, r2: Iterable[VertexId], rho: Mapping[VertexId, EdgeIndex]
    ) -> "ExtensionWitness":
        return cls(frozenset(r2), tuple(sorted(rho.items())))

    def rho_map(self) -> dict[VertexId, EdgeIndex]:
        return dict(self.rho)


def check_extension_witness(
    h: Hypergraph,
    tau: Correspondence,
    f: Sequence[int],
    w: ExtensionWitness,
) -> bool:
    """Evaluate the witness constraints against an assignment.

    The correspondence must be injective on the assignment's 1-set (apply
    the promotion closure first when it is not); a malformed witness is an
    input error. Constraints: every member's certificate edge differs from
    its corresponding edge and meets the planned 2-set in that member only;
    corresponding edges of the remaining 1s avoid the planned 2-set; and
    every edge without correspondence preimage that is swallowed by the
    certificate and remaining-1 edges must meet the planned 2-set (such an
    edge could never gain a private hitter or a fresh 1 later).
    """
    tau.validate(h)
    ones, twos = _level_masks(f, h.n_vertices)
    if tau.image_mask(ones).bit_count() != ones.bit_count():
        raise InputError(
            "correspondence collides on 1-vertices; apply the promotion "
            "closure before checking witnesses"
        )
    r2m = _id_mask(w.r2, "witness 2-set contains an unknown vertex", h.n_vertices - 1)
    if twos & ~r2m or r2m & ~(ones | twos):
        raise InputError("witness 2-set must contain the 2s and avoid the 0s")
    rho = w.rho_map()
    if set(rho) != set(w.r2) or len(w.rho) != len(w.r2):
        raise InputError("witness map must cover exactly the witness 2-set")
    if any(not 0 <= i < h.n_edges for i in rho.values()):
        raise InputError("witness map targets an unknown edge index")

    if any(
        i == tau.mapping[x] or h.edge_members[i] & r2m != 1 << x
        for x, i in rho.items()
    ):
        return False
    rest = ones & ~r2m
    if any(h.edge_members[tau.mapping[x]] & r2m for x in bits(rest)):
        return False
    loose = h.all_edges_mask & ~tau.range_mask & ~h.incidence_set_mask(r2m)
    inst = _instance_masks(h, tau)
    return _witness_cover(*inst, rest, rho.values(), loose) is not None


def _witness_cover(
    members: Masks, inc: Masks, mapping: Masks,
    rest: int, targets: Iterable[EdgeIndex], loose: int,
) -> list[int] | None:
    """The part of each loose edge (a preimage-free edge that misses the
    planned 2-set) that neither the remaining 1s' corresponding edges nor
    the certificate edges touch, or None when some part is empty."""
    covered = 0
    for i in itertools.chain(bits(_image(mapping, rest)), targets):
        covered |= members[i]
    cut = [members[i] & ~covered for i in bits(loose)]
    return cut if all(cut) else None


def _carve(
    members: Masks, inc: Masks, mapping: Masks,
    rest: int, cands: list[int], loose: int, budget: WorkBudget,
) -> int | None:
    """Fresh 2s for the loose edges: a minimal hitting set of their parts
    that the first private-edge map in product order leaves untouched, so
    the remaining 1s keep their corresponding edges; None when every map
    swallows a loose edge. Each map tried costs one unit of work."""
    for combo in itertools.product(*(list(bits(c)) for c in cands)):
        budget.spend(1)
        cut = _witness_cover(members, inc, mapping, rest, combo, loose)
        if cut is not None:
            d = 0
            for e in cut:
                d |= e
            for x in bits(d):
                trimmed = d & ~(1 << x)
                if all(e & trimmed for e in cut):
                    d = trimmed
            return d
    return None


def _general_witness(
    members: Masks, inc: Masks, mapping: Masks, ones: int, twos: int
) -> ExtAnswer:
    """The witness search on a promotion closure's 1s and 2s, the one
    rhf-extension core; each caller closes f first (_promote).

    It tries the 2-sets the closure's 1s allow, its 2s alone first, and
    for each the private-edge maps; the first that passes yields the
    witness. The first 2-set decides without search when a closure 2 has
    no candidate edge (none has at any larger 2-set) or when it hits every
    preimage-free edge (every map passes). Each 2-set and each map tried
    costs one unit of work.
    """
    inst = members, inc, mapping
    budget = WorkBudget("witness extension search")
    no_pre = (1 << len(members)) - 1 & ~mask_of(mapping)
    for sub in submasks(ones):
        budget.spend(1)
        r2m = twos | sub
        rest = ones & ~sub
        # the closure's 1s keep their corresponding edges free of its 2s
        if sub and any(members[mapping[x]] & r2m for x in bits(rest)):
            continue
        # every other witness constraint holds by construction of the
        # candidate edges
        once, twice = _hit_counts(inc, r2m)
        cands = [inc[x] & ~twice & ~(1 << mapping[x]) for x in bits(r2m)]
        if not all(cands):
            if not sub:
                break
            continue
        loose = no_pre & ~once
        d = _carve(*inst, rest, cands, loose, budget) if loose else 0
        if d is not None:
            g2 = r2m | d
            g1 = _complete(*inst, rest, g2)
            assert _rhf_violation(*inst, g1, g2) is None
            # the witness lies above the closure, so above f, pointwise
            assert not twos & ~g2 and not ones & ~(g1 | g2)
            return ExtAnswer(True, _assignment(len(inc), g1, g2))
    return ExtAnswer(False)


def ext_rhf_general(
    h: Hypergraph,
    tau: Correspondence,
    f: Sequence[int],
    strategy: str = "sweep",
) -> ExtAnswer:
    """Is there a minimal rhf above f, for arbitrary correspondences?

    Both strategies are exponential, so each spends a work budget
    (errors.WorkBudget) as it runs and is refused once that passes the
    shared limit; both return the same decision. The sweep strategy walks
    the assignments above f depth first in lexicographic order, drops a
    prefix once it breaks a condition of a minimal rhf that no completion
    repairs, and returns the first minimal rhf it meets; each node costs
    one unit. The witness strategy runs the promotion closure and searches
    for a 2-set plus private-edge map whose constraints certify
    extensibility, the core ext_rhf_surjective runs too; each 2-set over
    the closure's 1s and each map costs one unit, and the 0s cost it
    nothing exponential.
    """
    tau.validate(h)
    ones, twos = _level_masks(f, h.n_vertices)
    if strategy == "sweep":
        return _general_sweep(h, tau, ones, twos)
    if strategy == "witness":
        inst = _instance_masks(h, tau)
        return _general_witness(*inst, *_promote(*inst, ones, twos))
    raise InputError(f"unknown strategy {strategy!r}")


def bounded_ext_rd(inst: BoundedRdInstance) -> ExtAnswer:
    """Is there a minimal rdf between the two assignments?

    A 1 of the lower assignment next to one of its 2s must rise to 2 in
    any candidate, so the cap rejects some instances outright. Every
    vertex capped at 0 needs a dominator capped at 2 that is not adjacent
    to a pinned 1; the solver branches over those choices, re-closes, and
    finishes with the polynomial extension check on the closed
    neighborhood hypergraph (the witness search, which decides at its
    first 2-set there). The choices are exponential in the vertices
    capped at 0, so their number is spent from the work budget before the
    first is tried. Witnesses never exceed the cap: the final check adds
    no 2s beyond the closure and fills 1s only next to chosen dominators'
    undominated slack.
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

    def close(m1: int, m2: int) -> tuple[int, int] | None:
        # on N[.] with the identity correspondence the promotion closure
        # raises exactly the 1s next to a 2
        m1, m2 = _promote(*nbhd, m1, m2)
        return None if m2 & ~cap2 else (m1, m2)

    base = close(f1, f2)
    if base is None:
        return ExtAnswer(False)
    pinned = f1 & cap1
    banned = _union(nbhd[1], pinned) & ~pinned  # N[pinned] - pinned
    cands = []
    for v in bits(cap0):
        cs = list(bits(g.neighbors_mask(v) & cap2 & ~banned))
        if not cs:
            return ExtAnswer(False)
        cands.append(cs)
    WorkBudget("bounded extension dominator search").spend(
        math.prod(len(cs) for cs in cands)
    )
    seen: set[tuple[int, int]] = set()
    for combo in itertools.product(*cands):
        key = close(base[0], base[1] | mask_of(combo))
        if key is None or key in seen:
            continue
        seen.add(key)
        # the key is closed, and the identity is surjective, so the witness
        # search decides at its first 2-set
        ans = _general_witness(*nbhd, *key)
        if ans.decision:
            assert all(a <= b <= c for a, b, c in zip(f, ans.witness, up))
            return ans
    return ExtAnswer(False)


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
