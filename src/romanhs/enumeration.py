"""Enumerating all minimal Roman hitting sets with polynomial delay.

The enumerator runs a branch and reduce search over a shrinking instance:
vertices leave the universe when committed to never join R2, edges leave
the live set once hit or moved to R1. Reduction rules handle forced moves,
eight branch rules split on a vertex or an edge, and an extension check
prunes subtrees that cannot produce another minimal pair. Every surviving
leaf emits one minimal pair, each exactly once, and the number of expanded
nodes between consecutive emissions stays linear in the instance size.

An optional weight cap turns the enumerator into a bounded-weight lister
(used for Roman vertex covers); the cap prune uses a lower bound on the
cost still needed for the live edges.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

from .characterize import is_minimal_rhf_theorem
from .core import (
    Correspondence,
    Hypergraph,
    HypergraphFile,
    RhsPair,
    RomanAssignment,
    bits,
)
from .errors import GuardRefused, InputError

BRUTE_ENUM_RHS_LIMIT = 20
BRUTE_ENUM_RHF_LIMIT = 12

Sink = Callable[[RhsPair], None]


@dataclass
class EnumerationStats:
    """Counters reported by a full enumeration run."""

    emitted: int = 0
    nodes: int = 0
    max_gap: int = 0
    rule_counts: dict[str, int] = field(default_factory=dict)


def _popcount(mask: int) -> int:
    return mask.bit_count()


class _State:
    __slots__ = ("livev", "live_e", "r1m", "r2m", "cnt", "sole", "priv")

    def __init__(self, livev, live_e, r1m, r2m, cnt, sole, priv):
        self.livev = livev
        self.live_e = live_e
        self.r1m = r1m
        self.r2m = r2m
        self.cnt = cnt
        self.sole = sole
        self.priv = priv

    def clone(self) -> "_State":
        return _State(
            self.livev,
            self.live_e,
            self.r1m,
            self.r2m,
            self.cnt.copy(),
            self.sole.copy(),
            self.priv.copy(),
        )

    def mu(self) -> int:
        return _popcount(self.livev) + _popcount(self.live_e)


class _Enumerator:
    def __init__(self, h: Hypergraph, weight_cap: int | None, sink: Sink | None):
        self.h = h
        self.inc = [h.incidence_mask(x) for x in range(h.n_vertices)]
        self.members = h.edge_members
        self.cap = weight_cap
        self.sink = sink
        self.stats = EnumerationStats()
        self.gap = 0

    def run(self) -> EnumerationStats:
        h = self.h
        root = _State(
            (1 << h.n_vertices) - 1,
            (1 << h.n_edges) - 1,
            0,
            0,
            [0] * h.n_edges,
            [-1] * h.n_edges,
            [0] * h.n_vertices,
        )
        self._node(root)
        self.stats.max_gap = max(self.stats.max_gap, self.gap)
        return self.stats

    def _count(self, rule: str) -> None:
        rc = self.stats.rule_counts
        rc[rule] = rc.get(rule, 0) + 1

    # ---- state operations -------------------------------------------------

    def _add_r2(self, st: _State, x: int) -> None:
        st.livev &= ~(1 << x)
        st.r2m |= 1 << x
        for i in bits(self.inc[x]):
            st.cnt[i] += 1
            if st.cnt[i] == 1:
                st.sole[i] = x
                st.priv[x] += 1
            elif st.cnt[i] == 2:
                st.priv[st.sole[i]] -= 1
                st.sole[i] = -1
        st.live_e &= ~self.inc[x]

    def _delete(self, st: _State, xs: int) -> None:
        st.livev &= ~xs

    def _add_r1(self, st: _State, i: int) -> None:
        # only called once the edge has no live member left
        assert not self.members[i] & st.livev
        st.live_e &= ~(1 << i)
        st.r1m |= 1 << i

    def _reduce(self, st: _State) -> None:
        # vertices out of live edges can never earn a private edge
        for x in bits(st.livev):
            if not self.inc[x] & st.live_e:
                st.livev &= ~(1 << x)
                self._count("RR1")
        # drained edges can only be satisfied through R1
        for i in bits(st.live_e):
            if not self.members[i] & st.livev:
                self._add_r1(st, i)
                self._count("RR2")

    # ---- search -----------------------------------------------------------

    def _node(self, st: _State) -> None:
        self._reduce(st)
        for x in bits(st.r2m):
            if st.priv[x] == 0:
                return
        if self.cap is not None:
            live = _popcount(st.live_e)
            delta = 0
            for x in bits(st.livev):
                delta = max(delta, _popcount(self.inc[x] & st.live_e))
            denom = max(2, delta)
            lower = (2 * live + denom - 1) // denom
            weight = _popcount(st.r1m) + 2 * _popcount(st.r2m)
            if weight + lower > self.cap:
                return
        self.stats.nodes += 1
        self.gap += 1
        if not st.live_e:
            self.stats.emitted += 1
            self.stats.max_gap = max(self.stats.max_gap, self.gap)
            self.gap = 0
            if self.sink is not None:
                self.sink(RhsPair.from_masks(st.r1m, st.r2m))
            return
        self._branch(st)

    def _cur(self, st: _State, i: int) -> int:
        return self.members[i] & st.livev

    def _branch(self, st: _State) -> None:
        mu = st.mu()
        live_edges = list(bits(st.live_e))
        free = list(bits(st.livev))
        deg = {x: _popcount(self.inc[x] & st.live_e) for x in free}

        def child(comp: int, ops: Callable[[_State], None]) -> None:
            c = st.clone()
            ops(c)
            assert c.mu() <= mu - comp
            self._node(c)

        for i in live_edges:
            cur = self._cur(st, i)
            if _popcount(cur) == 1:
                self._count("BR1")
                x = cur.bit_length() - 1

                def a1(c, i=i, x=x):
                    self._delete(c, 1 << x)
                    self._add_r1(c, i)

                child(2, a1)
                child(2, lambda c, x=x: self._add_r2(c, x))
                return
        for x in free:
            if deg[x] >= 3:
                self._count("BR2")
                child(4, lambda c, x=x: self._add_r2(c, x))
                child(1, lambda c, x=x: self._delete(c, 1 << x))
                return
        for x in free:
            if deg[x] == 1:
                i = (self.inc[x] & st.live_e).bit_length() - 1
                cur = self._cur(st, i)
                if _popcount(cur) == 2:
                    self._count("BR3")
                    y = (cur & ~(1 << x)).bit_length() - 1

                    def a1(c, x=x, y=y):
                        self._add_r2(c, x)
                        self._delete(c, 1 << y)

                    def a2(c, x=x, y=y):
                        self._add_r2(c, y)
                        self._delete(c, 1 << x)

                    def a3(c, i=i, x=x, y=y):
                        self._delete(c, (1 << x) | (1 << y))
                        self._add_r1(c, i)

                    child(3, a1)
                    child(3, a2)
                    child(3, a3)
                    return
        for x in free:
            if deg[x] == 1:
                i = (self.inc[x] & st.live_e).bit_length() - 1
                cur = self._cur(st, i)
                if _popcount(cur) >= 3:
                    self._count("BR4")

                    def a1(c, i=i, x=x, cur=cur):
                        self._add_r2(c, x)
                        self._delete(c, cur & ~(1 << x))

                    child(4, a1)
                    child(1, lambda c, x=x: self._delete(c, 1 << x))
                    return
        for xi, x in enumerate(free):
            ex = self.inc[x] & st.live_e
            for y in free[xi + 1 :]:
                if self.inc[y] & st.live_e == ex:
                    self._count("BR5")

                    def a1(c, x=x, y=y):
                        self._add_r2(c, x)
                        self._delete(c, 1 << y)

                    def a2(c, x=x, y=y):
                        self._add_r2(c, y)
                        self._delete(c, 1 << x)

                    child(4, a1)
                    child(4, a2)
                    child(
                        2,
                        lambda c, x=x, y=y: self._delete(
                            c, (1 << x) | (1 << y)
                        ),
                    )
                    return
        for i in live_edges:
            cur = self._cur(st, i)
            if _popcount(cur) == 2:
                self._count("BR6")
                x = cur & -cur
                y = cur & ~x

                def a2(c, x=x, y=y):
                    self._add_r2(c, y.bit_length() - 1)
                    self._delete(c, x)

                def a3(c, i=i, cur=cur):
                    self._delete(c, cur)
                    self._add_r1(c, i)

                child(3, lambda c, x=x: self._add_r2(c, x.bit_length() - 1))
                child(4, a2)
                child(3, a3)
                return
        for i in live_edges:
            cur = self._cur(st, i)
            if _popcount(cur) == 3:
                self._count("BR7")
                x, y, z = list(bits(cur))

                def a2(c, x=x, y=y):
                    self._add_r2(c, y)
                    self._delete(c, 1 << x)

                def a3(c, x=x, y=y, z=z):
                    self._add_r2(c, z)
                    self._delete(c, (1 << x) | (1 << y))

                def a4(c, i=i, cur=cur):
                    self._delete(c, cur)
                    self._add_r1(c, i)

                child(3, lambda c, x=x: self._add_r2(c, x))
                child(4, a2)
                child(5, a3)
                child(4, a4)
                return
        if free:
            # remaining shape: every free vertex has two live edges, every
            # live edge has at least four live members
            assert all(deg[x] == 2 for x in free)
            assert all(
                _popcount(self._cur(st, i)) >= 4 for i in live_edges
            )
            self._count("BR8")
            x = free[0]
            ex = self.inc[x] & st.live_e
            i = (ex & -ex).bit_length() - 1
            y = (self._cur(st, i) & ~(1 << x) & -(self._cur(st, i) & ~(1 << x))).bit_length() - 1
            ey = self.inc[y] & st.live_e
            k = (ey & ~(1 << i)).bit_length() - 1
            assert k != (ex & ~(ex & -ex)).bit_length() - 1

            def a2(c, x=x, y=y):
                self._add_r2(c, x)
                self._delete(c, 1 << y)

            def a3(c, x=x, y=y, k=k):
                self._add_r2(c, x)
                self._add_r2(c, y)
                self._delete(c, self._cur(c, k))

            child(1, lambda c, x=x: self._delete(c, 1 << x))
            child(4, a2)
            child(8, a3)
            return
        raise RuntimeError("no branching rule applies; enumeration is stuck")


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
    if weight_cap is not None and weight_cap < 0:
        raise InputError("weight cap must be nonnegative")
    return _Enumerator(h, weight_cap, sink).run()


def minimal_pair_for_r2(h: Hypergraph, r2_mask: int) -> RhsPair | None:
    """The unique minimal rhs with 2-set r2_mask, or None.

    Fixing the 2-set forces the 1-part to be exactly the unhit edges, so
    a minimal pair exists for the mask exactly when every chosen vertex
    hits some edge alone.
    """
    for x in bits(r2_mask):
        if not h.incidence_mask(x) & ~h.incidence_set_mask(
            r2_mask & ~(1 << x)
        ):
            return None
    r1m = h.all_edges_mask & ~h.incidence_set_mask(r2_mask)
    return RhsPair.from_masks(r1m, r2_mask)


def brute_enumerate_minimal_rhs(
    h: Hypergraph, part: int = 0, stride: int = 1
) -> list[RhsPair]:
    """All minimal rhs by scanning the 2-sets; small instances only.

    The scan visits 2^|X| vertex masks, so the guard bounds |X|. With a
    stride only the masks part, part + stride, ... are scanned: the
    stride parts of one instance together give the full result.
    """
    if h.n_vertices > BRUTE_ENUM_RHS_LIMIT:
        raise GuardRefused(
            f"brute enumeration is limited to {BRUTE_ENUM_RHS_LIMIT} "
            f"vertices, got {h.n_vertices}"
        )
    out = []
    for r2m in range(part, 1 << h.n_vertices, stride):
        pair = minimal_pair_for_r2(h, r2m)
        if pair is not None:
            out.append(pair)
    return out


def brute_enumerate_minimal_rhf(
    h: Hypergraph, tau: Correspondence, part: int = 0, stride: int = 1
) -> list[RomanAssignment]:
    """All minimal rhf by scanning every assignment; small instances only.

    Assignments come in lexicographic order; with a stride only every
    stride-th of them, starting at index part, is scanned.
    """
    if h.n_vertices > BRUTE_ENUM_RHF_LIMIT:
        raise GuardRefused(
            f"brute rhf enumeration is limited to {BRUTE_ENUM_RHF_LIMIT} "
            f"vertices, got {h.n_vertices}"
        )
    tau.validate(h)
    candidates = itertools.product((0, 1, 2), repeat=h.n_vertices)
    return [
        f
        for f in itertools.islice(candidates, part, None, stride)
        if is_minimal_rhf_theorem(h, tau, f)
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
    vertices = [f"x{k}" for k in range(1, nv + 1)]
    members = [
        [v for v in vertices if rng.random() < density] for _ in range(ne)
    ]
    tau = None
    if with_tau:
        mapping = []
        for k, v in enumerate(vertices):
            containing = [i for i, ms in enumerate(members) if v in ms]
            if not containing:
                i = rng.randrange(ne)
                members[i].append(v)
                containing = [i]
            mapping.append(rng.choice(containing))
        tau = Correspondence(tuple(mapping))
    h = Hypergraph.build(
        vertices,
        [(f"e{i + 1}", sorted(ms, key=vertices.index)) for i, ms in enumerate(members)],
    )
    preset = RhsPair(frozenset(), frozenset())
    if with_preset:
        preset = RhsPair(
            frozenset(i for i in range(ne) if rng.random() < 0.15),
            frozenset(x for x in range(nv) if rng.random() < 0.15),
        )
    return HypergraphFile(h, tau, (0,) * nv, preset)
