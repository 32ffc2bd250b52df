"""Enumerating all minimal Roman hitting sets with polynomial delay.

The enumerator runs a branch and reduce search over a shrinking instance:
vertices leave the universe when committed to never join R2, edges leave
the live set once hit or moved to R1. Reduction rules handle forced moves,
eight branch rules split on a vertex or an edge, and an extension check
prunes subtrees that cannot produce another minimal pair. Every surviving
leaf emits one minimal pair, each exactly once, and the number of expanded
nodes between consecutive emissions stays linear in the instance size.

The search runs depth first from an explicit stack, so its depth is not
bounded by the interpreter's recursion limit, and a node is six ints:
the live vertices and live edges, the R1 and R2 masks, and two edge
masks ``once`` and ``twice`` holding the edges hit by at least one and
at least two R2 vertices (plus the outcome of its extension check). An
R2 vertex x keeps a private edge exactly when ``inc[x] & once & ~twice``
is non-empty, so the extension check only re-tests the vertices a child
adds to R2, when it adds more than one (a lone one keeps its live edges,
which no R2 vertex hit), and the R2 owners of edges the child moves from
``once`` to ``twice``. A node's live-edge summary applies both reduction
rules and chooses the branch rule: bit-sliced live-degree masks (degree
at least 1, 2 and 3), the members of 2-member edges, and the live edges
with 1, 2 and 3 live members. A node builds it in one pass over its live
edges, except the first child of a node with many live edges: it is
popped right after its parent and starts from the parent's summary, held
in local variables only. It resizes the edges that lost a member,
recounts the degrees of the members of edges that left, and rechecks the
members of edges that left size 2. The descent to the first pair then
costs what changes on the way down, not its depth times the live edges.
A node popped with no live edge is a leaf and skips the pass: its
summary is empty, so its live vertices go under RR1 and, under a cap, it
is dropped exactly when its weight passes the cap. A leaf that survives
emits its pair, an ``RhsPair`` the search builds where it finds it. Each
child is described by what it adds to R2, what it deletes and the
drained edge it moves to R1, and the children are pushed in reverse so
they are expanded in rule order.

An optional weight cap turns the enumerator into a bounded-weight lister
(used for Roman vertex covers). The cap prune tests two lower bounds on
the cost still needed for the live edges against what the cap leaves.
The covering bound ceil(2d / max(2, maxdeg)) reads its degrees from the
node's summary mask d3 and stops once the answer is known: it falls as
maxdeg grows, so the walk stops at the first d3 vertex that takes it to
the cap's room or below. The greedy packing of live edges, in which no
vertex lies in more than two packed edges, is rebuilt at the node in a
load order fixed once per run (the exact solver carries its packing on
its stack instead). The prune only drops subtrees that hold no pair
within the cap, so the emissions are those of the uncapped run filtered
by weight, in the same order.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Callable, Iterable, Iterator, Sequence

from .core import (
    Correspondence,
    Hypergraph,
    HypergraphFile,
    RhsPair,
    RomanAssignment,
    _Record,
    _instance_masks,
    _level_masks,
    _minimal_r1,
    _rhf_violation,
    bits,
    mask_of,
)
from .errors import InputError, WorkBudget

Sink = Callable[[RhsPair], None]


class EnumerationStats(_Record):
    """Counters reported by a full enumeration run."""

    __slots__ = _fields = ("emitted", "nodes", "max_gap", "rule_counts")
    emitted: int
    nodes: int
    max_gap: int
    rule_counts: dict[str, int]

    def __init__(
        self,
        emitted: int = 0,
        nodes: int = 0,
        max_gap: int = 0,
        rule_counts: dict[str, int] | None = None,
    ) -> None:
        self.emitted = emitted
        self.nodes = nodes
        self.max_gap = max_gap
        self.rule_counts = {} if rule_counts is None else rule_counts


def _degree_prunes(
    inc: Sequence[int], top: int, floor: int, live_e: int, need: int
) -> bool:
    """Does the covering bound ceil(2d / max(floor, maxdeg)) over the d
    live edges pass need?

    An R2 vertex hits at most maxdeg live edges at cost 2 and an R1 edge
    costs 1, so every live edge costs at least 2 / maxdeg. top holds the
    live vertices of live degree above floor (the enumerator's d3 with
    floor 2, the exact search's d4 with floor 3). The bound falls as
    maxdeg grows, so the walk over top stops at the first vertex whose
    degree brings it to need or below, and is skipped when
    ceil(2d / (floor + 1)) already is.
    """
    d = live_e.bit_count()
    if not top:
        return -(-2 * d // floor) > need
    if -(-2 * d // (floor + 1)) <= need:
        return False
    rest = top
    while rest:
        low = rest & -rest
        rest ^= low
        if -(-2 * d // (inc[low.bit_length() - 1] & live_e).bit_count()) <= need:
            return False
    return True


def _packing_bound(
    members: tuple[int, ...], order: Iterable[int], livev: int, live_e: int
) -> int:
    """Size of a greedy packing of the live edges, taken in a static order.

    No live vertex lies in more than two packed edges (u1, u2: in at
    least one, two). An R2 vertex hits at most two packed edges at cost
    2 and an R1 edge costs 1, so hitting the packed edges alone costs at
    least the packing size.
    """
    u1 = u2 = size = 0
    for i in order:
        if live_e >> i & 1:
            cur = members[i] & livev
            if not cur & u2:
                u2 |= u1 & cur
                u1 |= cur
                size += 1
    return size


def _load_order(members: Sequence[int], inc: Sequence[int]) -> list[int]:
    """Edge indices by ascending sum of member degrees, ties by index.

    Lightly loaded edges share few vertices with others, so packing them
    first leaves room for more packed edges.
    """
    load = [0] * len(members)
    for m in inc:
        # each vertex adds its degree to every edge it lies in
        d = m.bit_count()
        while m:
            low = m & -m
            load[low.bit_length() - 1] += d
            m ^= low
    return sorted(range(len(members)), key=load.__getitem__)


# the first child of a node with more live edges than this derives its
# live-edge summary from the parent's; below it a full pass is cheaper.
# Deriving after every expansion cost the enumerate benchmark 22% of its
# pairs per second, cutoffs 4 to 32 timed alike and 64 slowed the deep
# descents (BENCH_22.json, "cutoff")
_DERIVE_ABOVE = 16


def _search(
    members: Sequence[int], inc: Sequence[int], cap: int | None, stats: EnumerationStats
) -> Iterator[RhsPair]:
    """Yield the minimal pairs, as RhsPairs, of the instance given by its
    edge member and vertex incidence masks; fill stats at the end."""
    rc = stats.rule_counts
    order = None if cap is None else _load_order(members, inc)
    nodes = emitted = gap = max_gap = 0
    # livev, live_e, r1m, r2m, once, twice, and whether every R2 vertex
    # still has a private edge: tested when the node is pushed, acted on
    # after its reduction rules, which run (and count) on every node
    stack = [((1 << len(inc)) - 1, (1 << len(members)) - 1, 0, 0, 0, 0, True)]
    push = stack.append
    pop = stack.pop
    derive = False
    from_masks = RhsPair.from_masks
    while stack:
        livev, live_e, r1m, r2m, once, twice, private = pop()
        if not live_e:
            # a leaf: no live edge, so an empty summary; the shared tail
            # then puts every live vertex under RR1, and the cap prune,
            # with no live edge, drops the node exactly when its weight
            # passes the cap
            derive = False
            d1 = d3 = drained = 0
        elif derive:
            # the first child of the node just expanded, whose summary is
            # still in pv, pe, d1/d2/d3, s2 and m1/m2/m3: resize the edges
            # that lost a member, recount the degrees of the members of
            # edges that left, recheck s2 for members of edges that left
            # size 2
            derive = False
            gone = pe ^ live_e
            lost = redo = recheck = drained = 0
            for x in bits(pv ^ livev):
                lost |= inc[x]
            lost &= live_e
            for i in bits(gone):
                redo |= members[i]
            for i in bits(m2 & (gone | lost)):
                recheck |= members[i]
            same = live_e & ~lost
            m1 &= same
            m2 &= same
            m3 &= same
            s2 &= livev
            for i in bits(lost):
                cur = members[i] & livev
                size = cur.bit_count()
                if not size:
                    drained |= 1 << i
                elif size == 1:
                    m1 |= 1 << i
                elif size == 2:
                    m2 |= 1 << i
                    s2 |= cur
                elif size == 3:
                    m3 |= 1 << i
            redo &= livev
            keep = livev & ~redo
            d1 &= keep
            d2 &= keep
            d3 &= keep
            for x in bits(redo):
                deg = (inc[x] & live_e).bit_count()
                if deg:
                    d1 |= 1 << x
                    if deg > 1:
                        d2 |= 1 << x
                        if deg > 2:
                            d3 |= 1 << x
            for x in bits(recheck & s2):
                if not inc[x] & m2:
                    s2 ^= 1 << x
        else:
            # one pass over the live edges: drained edges, live-degree
            # masks d1/d2/d3, members of 2-edges, live edges of 1, 2, 3
            # members
            d1 = d2 = d3 = s2 = m1 = m2 = m3 = drained = 0
            rest = live_e
            while rest:
                low = rest & -rest
                rest ^= low
                cur = members[low.bit_length() - 1] & livev
                if not cur:
                    drained |= low
                    continue
                d3 |= d2 & cur
                d2 |= d1 & cur
                d1 |= cur
                size = cur.bit_count()
                if size == 1:
                    m1 |= low
                elif size == 2:
                    s2 |= cur
                    m2 |= low
                elif size == 3:
                    m3 |= low
        if livev != d1:
            # vertices out of live edges can never earn a private edge
            rc["RR1"] = rc.get("RR1", 0) + (livev ^ d1).bit_count()
            livev = d1
        if drained:
            # drained edges can only be satisfied through R1
            rc["RR2"] = rc.get("RR2", 0) + drained.bit_count()
            live_e ^= drained
            r1m |= drained
        if not private:
            continue
        if cap is not None:
            # both bounds are at most the live edge count, so they can only
            # prune where moving every live edge to R1 would pass the cap;
            # the packing is computed only where the degree bound passes
            w = r1m.bit_count() + 2 * r2m.bit_count()
            if w + live_e.bit_count() > cap and (
                _degree_prunes(inc, d3, 2, live_e, cap - w)
                or w + _packing_bound(members, order, livev, live_e) > cap
            ):
                continue
        nodes += 1
        gap += 1
        if not live_e:
            emitted += 1
            if gap > max_gap:
                max_gap = gap
            gap = 0
            yield from_masks(r1m, r2m)
            continue

        # children as (measure drop, R2 additions, deletions, R1 edge)
        deg1 = d1 & ~d2
        if m1:
            rule = "BR1"
            e1 = (m1 & -m1).bit_length() - 1
            xb = members[e1] & livev
            kids = ((2, 0, xb, 1 << e1), (2, xb, 0, 0))
        elif d3:
            rule = "BR2"
            xb = d3 & -d3
            kids = ((4, xb, 0, 0), (1, 0, xb, 0))
        elif deg1:
            # the lowest degree-1 vertex in a 2-member edge (BR3), else the
            # lowest degree-1 vertex, whose edge has three or more (BR4)
            xb = deg1 & s2 or deg1
            xb &= -xb
            i = (inc[xb.bit_length() - 1] & live_e).bit_length() - 1
            other = members[i] & livev & ~xb
            if deg1 & s2:
                rule = "BR3"
                kids = (
                    (3, xb, other, 0),
                    (3, other, xb, 0),
                    (3, 0, xb | other, 1 << i),
                )
            else:
                rule = "BR4"
                kids = ((4, xb, other, 0), (1, 0, xb, 0))
        else:
            # every free vertex has two live edges; the lexicographically
            # first pair of twins (equal live incidence), if any
            first: dict[int, int] = {}
            twins = None
            for x in bits(livev):
                w = first.setdefault(inc[x] & live_e, x)
                if w != x and (twins is None or w < twins[0]):
                    twins = (w, x)
            if twins is not None:
                rule = "BR5"
                xb, yb = 1 << twins[0], 1 << twins[1]
                kids = ((4, xb, yb, 0), (4, yb, xb, 0), (2, 0, xb | yb, 0))
            elif m2:
                rule = "BR6"
                e2 = (m2 & -m2).bit_length() - 1
                cur = members[e2] & livev
                xb = cur & -cur
                kids = ((3, xb, 0, 0), (4, cur ^ xb, xb, 0), (3, 0, cur, 1 << e2))
            elif m3:
                rule = "BR7"
                e3 = (m3 & -m3).bit_length() - 1
                cur = members[e3] & livev
                xb = cur & -cur
                yb = (cur ^ xb) & -(cur ^ xb)
                kids = (
                    (3, xb, 0, 0),
                    (4, yb, xb, 0),
                    (5, cur ^ xb ^ yb, xb | yb, 0),
                    (4, 0, cur, 1 << e3),
                )
            else:
                # remaining shape: every free vertex has two live edges,
                # every live edge has at least four live members
                assert livev and d1 == d2 and not d3
                rule = "BR8"
                xb = livev & -livev
                ex = inc[xb.bit_length() - 1] & live_e
                i = (ex & -ex).bit_length() - 1
                cur = members[i] & livev & ~xb
                yb = cur & -cur
                ey = inc[yb.bit_length() - 1] & live_e
                k = (ey & ~(1 << i)).bit_length() - 1
                assert k != (ex & ~(ex & -ex)).bit_length() - 1
                kids = (
                    (1, 0, xb, 0),
                    (4, xb, yb, 0),
                    (8, xb | yb, members[k] & livev, 0),
                )
        rc[rule] = rc.get(rule, 0) + 1
        mu = livev.bit_count() + live_e.bit_count()
        for comp, add, delete, r1b in reversed(kids):
            c_once, c_twice, hit = once, twice, 0
            if add & (add - 1):
                rest = add
                while rest:
                    low = rest & -rest
                    rest ^= low
                    ex = inc[low.bit_length() - 1]
                    c_twice |= c_once & ex
                    c_once |= ex
                    hit |= ex
            elif add:
                # one new R2 vertex, as in almost every child: one lookup
                hit = inc[add.bit_length() - 1]
                c_twice = twice | once & hit
                c_once = once | hit
            c_livev = livev & ~(add | delete)
            c_live_e = live_e & ~(hit | r1b)
            assert not r1b or not members[r1b.bit_length() - 1] & c_livev
            assert c_livev.bit_count() + c_live_e.bit_count() <= mu - comp
            ok = True
            if add:
                # only new R2 vertices and the owners of edges that just
                # gained a second R2 hit can have lost their private edge;
                # a lone new vertex keeps one: RR1 left it a live edge,
                # which no R2 vertex hit
                suspects = add if add & (add - 1) else 0
                newly = c_twice & ~twice
                if newly:
                    for i in bits(newly):
                        suspects |= members[i] & r2m
                priv = c_once & ~c_twice
                while suspects:
                    low = suspects & -suspects
                    suspects ^= low
                    if not inc[low.bit_length() - 1] & priv:
                        ok = False
                        break
            push((c_livev, c_live_e, r1m | r1b, r2m | add, c_once, c_twice, ok))
        if live_e.bit_count() > _DERIVE_ABOVE:
            # the next pop is the first child pushed last
            derive = True
            pv, pe = livev, live_e
    stats.emitted = emitted
    stats.nodes = nodes
    stats.max_gap = max(max_gap, gap)


def _checked_cap(weight_cap: int | None) -> int | None:
    if weight_cap is not None and weight_cap < 0:
        raise InputError("weight cap must be nonnegative")
    return weight_cap


def iter_minimal_rhs(
    h: Hypergraph, weight_cap: int | None = None
) -> Iterator[RhsPair]:
    """Yield every minimal rhs of h exactly once, lazily.

    The order and the weight cap are those of enumerate_minimal_rhs. The
    generator is the search itself, which builds each pair where it finds
    it, so it advances only as far as the consumer reads, and
    itertools.islice stops it early.
    """
    cap = _checked_cap(weight_cap)
    return _search(h.edge_members, h.incidence_masks, cap, EnumerationStats())


def enumerate_minimal_rhs(
    h: Hypergraph,
    weight_cap: int | None = None,
    sink: Sink | None = None,
) -> EnumerationStats:
    """Emit every minimal rhs of h exactly once into the sink.

    With a weight cap only pairs of weight at most the cap are emitted and
    heavier subtrees are pruned; without one the emission order has
    polynomial delay measured in expanded nodes.
    """
    cap = _checked_cap(weight_cap)
    return _enumerate(h.edge_members, h.incidence_masks, cap, sink)


def _enumerate(
    members: Sequence[int], inc: Sequence[int], cap: int | None, sink: Sink | None
) -> EnumerationStats:
    """enumerate_minimal_rhs on edge member and vertex incidence masks."""
    stats = EnumerationStats()
    pairs = _search(members, inc, cap, stats)
    if sink is None:
        for _ in pairs:
            pass
    else:
        for pair in pairs:
            sink(pair)
    return stats


def brute_enumerate_minimal_rhs(h: Hypergraph) -> list[RhsPair]:
    """All minimal rhs by scanning the 2-sets; small instances only.

    The scan visits the 2^|X| vertex masks in ascending order, all spent
    from the work budget before it starts. Fixing the 2-set forces the
    1-part to be exactly the unhit edges, so a mask has a minimal pair
    exactly when each of its vertices hits some edge alone.
    """
    WorkBudget("brute rhs enumeration").spend(1 << h.n_vertices)
    out = []
    for r2m in range(1 << h.n_vertices):
        r1m = _minimal_r1(h.edge_members, h.incidence_masks, 0, r2m)
        if r1m is not None:
            out.append(RhsPair.from_masks(r1m, r2m))
    return out


def brute_enumerate_minimal_rhf(
    h: Hypergraph, tau: Correspondence
) -> list[RomanAssignment]:
    """All minimal rhf by scanning every assignment; small instances only.

    The 3^|X| assignments come in lexicographic order, all spent from the
    work budget before the scan starts.
    """
    WorkBudget("brute rhf enumeration").spend(3**h.n_vertices)
    tau.validate(h)
    inst = _instance_masks(h, tau)
    return [
        f
        for f in itertools.product((0, 1, 2), repeat=h.n_vertices)
        if _rhf_violation(*inst, *_level_masks(f, h.n_vertices)) is None
    ]


def gen_tight(n: int) -> Hypergraph:
    """n pairwise disjoint 2-element edges; it has exactly 3^n minimal rhs."""
    if n < 1:
        raise InputError("tight family needs n >= 1")
    vertices = [f"x{k}" for k in range(1, 2 * n + 1)]
    edges = [
        (f"e{i}", [f"x{2 * i - 1}", f"x{2 * i}"]) for i in range(1, n + 1)
    ]
    return Hypergraph.build(vertices, edges)


def gen_random(
    nv: int,
    ne: int,
    density: float,
    seed: int,
    with_tau: bool = False,
    with_preset: bool = False,
) -> HypergraphFile:
    """Seeded random instance, optionally with a correspondence and presets.

    Membership is an independent coin per vertex and edge. A requested
    correspondence picks a uniform containing edge per vertex, inserting
    the vertex into a random edge first when nothing contains it.
    """
    if nv < 0 or ne < 0:
        raise InputError("vertex and edge counts must be nonnegative")
    if not 0.0 <= density <= 1.0:
        raise InputError("density must be within [0, 1]")
    if with_tau and nv > 0 and ne == 0:
        raise InputError("a correspondence needs at least one edge")
    rng = random.Random(seed)
    members = [
        mask_of(k for k in range(nv) if rng.random() < density) for _ in range(ne)
    ]
    tau = None
    if with_tau:
        mapping = []
        for k in range(nv):
            containing = [i for i, m in enumerate(members) if m >> k & 1]
            if not containing:
                i = rng.randrange(ne)
                members[i] |= 1 << k
                containing = [i]
            mapping.append(rng.choice(containing))
        tau = Correspondence(tuple(mapping))
    h = Hypergraph(
        tuple(f"x{k}" for k in range(1, nv + 1)),
        tuple(f"e{i}" for i in range(1, ne + 1)),
        tuple(members),
    )
    preset = RhsPair(frozenset(), frozenset())
    if with_preset:
        preset = RhsPair(
            frozenset(i for i in range(ne) if rng.random() < 0.15),
            frozenset(x for x in range(nv) if rng.random() < 0.15),
        )
    return HypergraphFile(h, tau, (0,) * nv, preset)
