"""Core types for Roman hitting structures.

A hypergraph is a universe of vertices together with an indexed sequence of
hyperedges; duplicate edge contents are allowed, so edges are identified by
index, not by content. A correspondence assigns to every vertex one edge
containing it. On top of these live three kinds of candidate solutions:

* Roman assignment: a value in {0,1,2} per vertex.
* Roman hitting function (rhf): an assignment where every edge either
  contains a 2-vertex or is the corresponding edge of some 1-vertex.
* Roman hitting set (rhs): a pair (R1, R2) of an index set and a vertex set
  where every index is in R1 or its edge meets R2. Weight is |R1| + 2|R2|.

Graphs carry Roman dominating functions (rdf): every 0-vertex needs a
neighbor with value 2. The closed-neighborhood hypergraph of a graph turns
rdf questions into rhf/rhs questions with the identity correspondence.

Everything is token-based at the boundary and dense-integer based inside:
tokens get dense ids in declaration order, and sets of ids are plain Python
ints used as bitsets. An RhsPair stores its two sets as such masks; its r1
and r2 are read-only IdSet views over them that build nothing, so handing a
pair over costs two ints however large its sets are. All public containers
are immutable. The validity predicates check their input once, then answer
through private cores on masks (_is_rhs, _is_rhf) that callers holding
validated masks use directly, as they do the minimality cores here
(_pair_violation, _rhf_violation) and the 1-fill rule _complete. These
cores take an instance as plain sequences, not objects: the edge member
masks, the vertex incidence masks and the correspondence (_instance_masks
of a hypergraph). A graph passes its closed neighborhoods as both members
and incidences, with the identity correspondence (_closed_masks), and
builds no Hypergraph; the Roman vertex cover searches take its edge
hypergraph's member and incidence masks (_edge_masks). A Graph builds
both sets of masks once, in its constructor's pass over the edges, so
no query rebuilds them. Outside the incremental counts of the enumerator
and the general extension search, every privacy test reads _hit_counts: a
member x of a vertex set hits inc[x] & ~twice alone.
"""

from __future__ import annotations

import re
from collections.abc import Set
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError

VertexId = int
EdgeIndex = int
# edge member masks, vertex incidence masks or a correspondence, as the
# private cores take them
Masks = Sequence[int]

_TOKEN_RE = re.compile(r"^[^\s#{},=]+$")


def _check_token(token: str, line_no: int | None = None) -> str:
    if not _TOKEN_RE.match(token):
        where = f" (line {line_no})" if line_no is not None else ""
        raise InputError(f"invalid token {token!r}{where}")
    return token


class _Record:
    """The library's record types, without the cost of importing dataclasses.

    A record names its fields in ``_fields``, keeps them in ``__slots__``
    and sets them in its own ``__init__``, which takes them in that order.
    Records are equal when they are of the same class with equal fields;
    the repr is ``Name(field=value, ...)``; pickling rebuilds a record
    through its constructor. A plain record is mutable and unhashable.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _field_values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._field_values() == other._field_values()

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"

    def __reduce__(self) -> tuple:
        return type(self), self._field_values()


class _Frozen(_Record):
    """An immutable record: it hashes its fields and refuses assignment and
    deletion. Its ``__init__`` sets the slots through ``object.__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __hash__(self) -> int:
        return hash(self._field_values())


def bits(mask: int) -> Iterator[int]:
    """Iterate the set bits of a mask in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(ids: Iterable[int]) -> int:
    m = 0
    for i in ids:
        m |= 1 << i
    return m


class IdSet(Set):
    """Read-only set of ids over a bitset mask; builds nothing.

    Iteration is ascending, ``len`` is the bit count and ``in`` is a bit
    test. A view equals, and hashes like, the frozenset of the same ids;
    set operators return frozensets.
    """

    __slots__ = ("_mask",)

    def __init__(self, mask: int) -> None:
        self._mask = mask

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __iter__(self) -> Iterator[int]:
        return bits(self._mask)

    def __contains__(self, x: object) -> bool:
        return isinstance(x, int) and x >= 0 and (self._mask >> x) & 1 == 1

    __hash__ = Set._hash

    @classmethod
    def _from_iterable(cls, it: Iterable[int]) -> frozenset[int]:
        return frozenset(it)

    def __repr__(self) -> str:
        return f"IdSet({list(self)})"


def frozenset_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


class Hypergraph(_Frozen):
    """Universe plus indexed hyperedges, both named by tokens.

    ``edge_members[i]`` is the bitset of vertex ids in edge i. Empty edges
    and an empty universe are legal. Incidence masks (edge ids containing a
    vertex) are precomputed; they and the token lookups take no part in
    equality, hash or repr.
    """

    _fields = ("vertex_tokens", "edge_tokens", "edge_members")
    __slots__ = _fields + ("_vertex_ids", "_edge_ids", "_incidence")
    vertex_tokens: tuple[str, ...]
    edge_tokens: tuple[str, ...]
    edge_members: tuple[int, ...]
    _vertex_ids: Mapping[str, int]
    _edge_ids: Mapping[str, int]
    _incidence: tuple[int, ...]

    def __init__(
        self,
        vertex_tokens: tuple[str, ...],
        edge_tokens: tuple[str, ...],
        edge_members: tuple[int, ...],
    ) -> None:
        if len(edge_tokens) != len(edge_members):
            raise InputError("edge token/member count mismatch")
        vids = {t: i for i, t in enumerate(vertex_tokens)}
        if len(vids) != len(vertex_tokens):
            raise InputError("duplicate vertex token")
        eids = {t: i for i, t in enumerate(edge_tokens)}
        if len(eids) != len(edge_tokens):
            raise InputError("duplicate edge token")
        full = (1 << len(vertex_tokens)) - 1
        inc = [0] * len(vertex_tokens)
        for i, members in enumerate(edge_members):
            if members & ~full:
                raise InputError(f"edge {edge_tokens[i]!r} has out-of-range members")
            for x in bits(members):
                inc[x] |= 1 << i
        object.__setattr__(self, "vertex_tokens", vertex_tokens)
        object.__setattr__(self, "edge_tokens", edge_tokens)
        object.__setattr__(self, "edge_members", edge_members)
        object.__setattr__(self, "_vertex_ids", vids)
        object.__setattr__(self, "_edge_ids", eids)
        object.__setattr__(self, "_incidence", tuple(inc))

    @classmethod
    def build(
        cls,
        vertices: Sequence[str],
        edges: Sequence[tuple[str, Sequence[str]]],
    ) -> "Hypergraph":
        """Construct from tokens: vertices, then (edge token, member tokens)."""
        vids = {t: i for i, t in enumerate(vertices)}
        members = []
        for etok, mtoks in edges:
            m = 0
            for t in mtoks:
                if t not in vids:
                    raise InputError(f"edge {etok!r} uses unknown vertex {t!r}")
                m |= 1 << vids[t]
            members.append(m)
        return cls(tuple(vertices), tuple(e for e, _ in edges), tuple(members))

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_tokens)

    @property
    def n_edges(self) -> int:
        return len(self.edge_tokens)

    @property
    def all_vertices_mask(self) -> int:
        return (1 << self.n_vertices) - 1

    @property
    def all_edges_mask(self) -> int:
        return (1 << self.n_edges) - 1

    def vertex_id(self, token: str) -> VertexId:
        try:
            return self._vertex_ids[token]
        except KeyError:
            raise InputError(f"unknown vertex token {token!r}") from None

    def edge_id(self, token: str) -> EdgeIndex:
        try:
            return self._edge_ids[token]
        except KeyError:
            raise InputError(f"unknown edge token {token!r}") from None

    def incidence_mask(self, x: VertexId) -> int:
        return self._incidence[x]

    @property
    def incidence_masks(self) -> tuple[int, ...]:
        """incidence_mask(x) of every vertex x, as one tuple."""
        return self._incidence

    def incidence_set_mask(self, vertex_mask: int) -> int:
        return _union(self._incidence, vertex_mask)

    def hit_counts(self, vertex_mask: int) -> tuple[int, int]:
        """The edges the vertices hit at least once and at least twice; a
        member x hits the edges incidence_mask(x) & ~twice alone."""
        return _hit_counts(self._incidence, vertex_mask)


def _union(inc: Masks, vertex_mask: int) -> int:
    """The edges the vertices hit, from their incidence masks."""
    m = 0
    while vertex_mask:
        low = vertex_mask & -vertex_mask
        m |= inc[low.bit_length() - 1]
        vertex_mask ^= low
    return m


def _hit_counts(inc: Masks, vertex_mask: int) -> tuple[int, int]:
    """Hypergraph.hit_counts on incidence masks, one pass over the vertices."""
    once = twice = 0
    while vertex_mask:
        low = vertex_mask & -vertex_mask
        m = inc[low.bit_length() - 1]
        twice |= once & m
        once |= m
        vertex_mask ^= low
    return once, twice


class Correspondence(_Frozen):
    """Total map vertex -> edge index with the vertex inside its edge."""

    __slots__ = _fields = ("mapping",)
    mapping: tuple[EdgeIndex, ...]

    def __init__(self, mapping: tuple[EdgeIndex, ...]) -> None:
        object.__setattr__(self, "mapping", mapping)

    @classmethod
    def from_tokens(cls, h: Hypergraph, pairs: Mapping[str, str]) -> "Correspondence":
        if set(pairs) != set(h.vertex_tokens):
            missing = sorted(set(h.vertex_tokens) - set(pairs))
            extra = sorted(set(pairs) - set(h.vertex_tokens))
            raise InputError(
                f"correspondence must cover the universe exactly "
                f"(missing {missing}, unknown {extra})"
            )
        mapping = [0] * h.n_vertices
        for vtok, etok in pairs.items():
            mapping[h.vertex_id(vtok)] = h.edge_id(etok)
        tau = cls(tuple(mapping))
        tau.validate(h)
        return tau

    def validate(self, h: Hypergraph) -> None:
        if len(self.mapping) != h.n_vertices:
            raise InputError("correspondence length differs from universe size")
        members = h.edge_members
        m = len(members)
        for x, i in enumerate(self.mapping):
            if not 0 <= i < m or not (members[i] >> x) & 1:
                raise InputError(
                    f"vertex {h.vertex_tokens[x]!r} not contained in its "
                    f"assigned edge"
                )

    def first_preimages(self, edge_mask: int) -> int:
        """The smallest preimage of every edge in the mask that has one."""
        return _first_preimages(self.mapping, edge_mask)

    def image_mask(self, vertex_mask: int) -> int:
        return _image(self.mapping, vertex_mask)

    @property
    def range_mask(self) -> int:
        return mask_of(self.mapping)


# A Roman assignment is a plain tuple of values in {0,1,2}, one per vertex
# in dense-id order. Kept as a bare tuple so brute-force sweeps stay cheap.
RomanAssignment = tuple[int, ...]


def validate_assignment(values: Sequence[int], n: int) -> RomanAssignment:
    f = tuple(values)
    _level_masks(f, n)
    return f


def _level_masks(values: Iterable[int], n: int) -> tuple[int, int]:
    """The (ones, twos) masks of an assignment over n vertices, in one pass
    that refuses a wrong length, then a value outside 0, 1 and 2."""
    ones = twos = 0
    bit = 1
    bad = False
    for v in values:
        if v == 1:
            ones |= bit
        elif v == 2:
            twos |= bit
        elif v != 0:
            bad = True
        bit <<= 1
    if bit >> n != 1:
        raise InputError(f"assignment has {bit.bit_length() - 1} entries, expected {n}")
    if bad:
        raise InputError("assignment values must be 0, 1 or 2")
    return ones, twos


def _assignment(n: int, ones: int, twos: int) -> RomanAssignment:
    return tuple(
        2 if (twos >> x) & 1 else 1 if (ones >> x) & 1 else 0 for x in range(n)
    )


_MAX_ID = (1 << 20) - 1


def _id_mask(ids: Iterable[int], message: str, top: int = _MAX_ID) -> int:
    """Mask of the ids; an id outside 0..top is refused with message."""
    m = 0
    for i in ids:
        # refused before the shift, which would allocate the whole width
        if not 0 <= i <= top:
            raise InputError(message)
        m |= 1 << i
    return m


def _vertex_mask(g: "Graph", ids: Iterable[VertexId], what: str) -> int:
    """Mask of a vertex set of g, named what in the refusal of an id
    outside the graph."""
    return _id_mask(ids, f"{what} contains an unknown vertex", g.n_vertices - 1)


class RhsPair(_Frozen):
    """Candidate Roman hitting set: edge indices R1 and vertices R2.

    The pair is two bitset masks, ``r1m`` and ``r2m``; equality and hash
    work on them. ``r1`` and ``r2`` are IdSet views over the masks, so
    they compare and hash equal to frozensets but are not frozensets, and
    building a pair from masks (``from_masks``) copies no ids. Pairs are
    immutable, and pickle through ``from_masks``. ``validate`` checks the
    ids against a hypergraph.

    Building a pair from ids refuses a negative id, and any id above
    2^20 - 1, before allocating a mask as wide as the largest id. A mask
    at that bound takes 128 KiB, while the instances the library can
    search have a few thousand ids at most; without the bound, a single
    id of 10^8 would hold 13 MB before ``validate`` could refuse it.
    """

    __slots__ = ("r1m", "r2m")
    _fields = ("r1", "r2")
    r1m: int
    r2m: int

    def __init__(self, r1: Iterable[EdgeIndex], r2: Iterable[VertexId]) -> None:
        _SET_R1M(self, _id_mask(r1, _R1_RANGE))
        _SET_R2M(self, _id_mask(r2, _R2_RANGE))

    @classmethod
    def from_masks(cls, r1_mask: int, r2_mask: int) -> "RhsPair":
        pair = _NEW(cls)
        _SET_R1M(pair, r1_mask)
        _SET_R2M(pair, r2_mask)
        return pair

    @classmethod
    def from_tokens(
        cls, h: Hypergraph, r1_tokens: Iterable[str], r2_tokens: Iterable[str]
    ) -> "RhsPair":
        return cls.from_masks(
            mask_of(h.edge_id(t) for t in r1_tokens),
            mask_of(h.vertex_id(t) for t in r2_tokens),
        )

    # a view runs no interpreted __init__; a plain slot store is faster
    # than calling the slot's setter, which from_masks needs for a pair
    @property
    def r1(self) -> IdSet:
        view = _NEW(IdSet)
        view._mask = self.r1m
        return view

    @property
    def r2(self) -> IdSet:
        view = _NEW(IdSet)
        view._mask = self.r2m
        return view

    def r1_mask(self) -> int:
        return self.r1m

    def r2_mask(self) -> int:
        return self.r2m

    def validate(self, h: Hypergraph) -> "RhsPair":
        if self.r1m >> h.n_edges:
            raise InputError(_R1_RANGE)
        if self.r2m >> h.n_vertices:
            raise InputError(_R2_RANGE)
        return self

    def _field_values(self) -> tuple[int, int]:
        return self.r1m, self.r2m

    def __reduce__(self) -> tuple:
        return RhsPair.from_masks, (self.r1m, self.r2m)


_R1_RANGE = "R1 contains an out-of-range edge index"
_R2_RANGE = "R2 contains an out-of-range vertex id"
# the slot descriptors' setters bypass the refusing __setattr__
_SET_R1M = RhsPair.r1m.__set__
_SET_R2M = RhsPair.r2m.__set__
_NEW = object.__new__


def weight_assignment(f: Sequence[int]) -> int:
    """Weight of a Roman assignment: the sum of its values."""
    return sum(f)


def weight_pair(pair: RhsPair) -> int:
    """Weight of a hitting-set pair: |R1| + 2 |R2|."""
    return pair.r1m.bit_count() + 2 * pair.r2m.bit_count()


def is_rhs(h: Hypergraph, pair: RhsPair) -> bool:
    """Every index is in R1 or its edge meets R2; the pair must fit h."""
    pair.validate(h)
    return _is_rhs(h.edge_members, pair.r1m, pair.r2m)


def _is_rhs(members: Sequence[int], r1m: int, r2m: int) -> bool:
    """is_rhs on edge masks, so instances derived from a graph need no Hypergraph."""
    # a plain loop takes half the time of all() over a generator
    for i, m in enumerate(members):
        if not m & r2m and not r1m >> i & 1:
            return False
    return True


def is_rhf(h: Hypergraph, tau: Correspondence, f: Sequence[int]) -> bool:
    """Every edge has a 2-vertex, or a 1-vertex whose corresponding edge it is."""
    tau.validate(h)
    return _is_rhf(*_instance_masks(h, tau), *_level_masks(f, h.n_vertices))


def _instance_masks(h: Hypergraph, tau: Correspondence) -> tuple[Masks, Masks, Masks]:
    """The three sequences the private cores take, for a hypergraph."""
    return h.edge_members, h._incidence, tau.mapping


def _image(mapping: Masks, vertex_mask: int) -> int:
    """The corresponding edges of the vertices in the mask."""
    m = 0
    for x in bits(vertex_mask):
        m |= 1 << mapping[x]
    return m


def _first_preimages(mapping: Masks, edge_mask: int) -> int:
    m = 0
    for x, i in enumerate(mapping):
        if edge_mask >> i & 1:
            m |= 1 << x
            edge_mask &= ~(1 << i)
    return m


def _is_rhf(members: Masks, inc: Masks, mapping: Masks, ones: int, twos: int) -> bool:
    """is_rhf on level masks."""
    unhit = (1 << len(members)) - 1 & ~_union(inc, twos)
    return not unhit & ~_image(mapping, ones)


def _complete(members: Masks, inc: Masks, mapping: Masks, ones: int, twos: int) -> int:
    """The 1s plus a 1 on the smallest preimage member of every edge that
    the 2s miss and the 1s do not claim."""
    claimed = _union(inc, twos) | _image(mapping, ones)
    return ones | _first_preimages(mapping, (1 << len(members)) - 1 & ~claimed)


def _pair_violation(members: Masks, inc: Masks, r1m: int, r2m: int) -> str | None:
    """characterize.minimal_rhs_violation on masks; a pair has no
    correspondence. Once R1 is untouched, the edges a 2 hits alone all
    lie outside R1."""
    once, twice = _hit_counts(inc, r2m)
    if r1m & once:
        return "r1-edge-hit-by-r2"
    if (1 << len(members)) - 1 & ~r1m & ~once:
        return "unhit-edge"
    for x in bits(r2m):
        if not inc[x] & ~twice:
            return "redundant-r2-vertex"
    return None


def _minimal_r1(members: Masks, inc: Masks, r1m: int, r2m: int) -> int | None:
    """The R1 mask of the minimal pair with 2-set r2m, every edge r2m
    misses, from one hit-count pass; None when r1m meets an edge r2m hits
    or a 2 hits no edge alone, so that no minimal pair lies above (r1m, r2m)."""
    once, twice = _hit_counts(inc, r2m)
    if r1m & once:
        return None
    # the bit loop inlined: this is ext_rhs's whole cost past validation
    m = r2m
    while m:
        low = m & -m
        if not inc[low.bit_length() - 1] & ~twice:
            return None
        m ^= low
    return (1 << len(members)) - 1 & ~once


def _rhf_violation(
    members: Masks, inc: Masks, mapping: Masks, ones: int, twos: int
) -> str | None:
    """characterize.minimal_rhf_violation on level masks. The collision
    test needs no hit counts, so brute sweeps over every assignment drop
    most candidates before any are computed."""
    seen = _image(mapping, ones)
    if seen.bit_count() != ones.bit_count():
        return "tau-collision-on-ones"
    once, twice = _hit_counts(inc, twos)
    if seen & once:
        return "one-vertex-edge-hit-by-two"
    for x in bits(twos):
        if not inc[x] & ~twice & ~(1 << mapping[x]):
            return "two-vertex-without-private-edge"
    if (1 << len(members)) - 1 & ~seen & ~once:
        return "unhit-edge"
    return None


def _require_nonempty_edges(h: Hypergraph) -> None:
    """Refuse a hypergraph on which no hitting function exists."""
    if not all(h.edge_members):
        raise InputError("an edge with no members admits no hitting function")


class Graph(_Frozen):
    """Undirected simple graph with token-named vertices.

    ``edges`` stores id pairs (u < v) in declaration order; a pair given
    as (v, u) is stored as (u, v). Self-loops and duplicate edges are
    rejected. The one pass over the edges also builds the masks the
    queries read: the closed neighborhoods, as the cores' three sequences
    (_closed_masks), and the edge hypergraph's member and incidence masks
    (_edge_masks). They and the token lookup take no part in equality,
    hash, repr or pickling, which rebuilds them through the constructor.
    """

    _fields = ("vertex_tokens", "edges")
    __slots__ = _fields + ("_vertex_ids", "_closed", "_edge")
    vertex_tokens: tuple[str, ...]
    edges: tuple[tuple[VertexId, VertexId], ...]
    _vertex_ids: Mapping[str, int]
    _closed: tuple[tuple[int, ...], tuple[int, ...], range]
    _edge: tuple[tuple[int, ...], tuple[int, ...]]

    def __init__(
        self,
        vertex_tokens: tuple[str, ...],
        edges: tuple[tuple[VertexId, VertexId], ...],
    ) -> None:
        vids = {t: i for i, t in enumerate(vertex_tokens)}
        if len(vids) != len(vertex_tokens):
            raise InputError("duplicate vertex token")
        n = len(vertex_tokens)
        closed = [1 << v for v in range(n)]
        inc = [0] * n
        members = []
        pairs = []
        bit = 1  # 1 << i for edge i
        for u, v in edges:
            if u > v:
                u, v = v, u
            elif u == v:
                raise InputError("self-loop")
            if not (0 <= u and v < n):
                raise InputError("edge endpoint out of range")
            bu, bv = 1 << u, 1 << v
            if closed[u] & bv:
                raise InputError("duplicate edge")
            closed[u] |= bv
            closed[v] |= bu
            members.append(bu | bv)
            inc[u] |= bit
            inc[v] |= bit
            bit <<= 1
            pairs.append((u, v))
        closed_t = tuple(closed)
        object.__setattr__(self, "vertex_tokens", vertex_tokens)
        object.__setattr__(self, "edges", tuple(pairs))
        object.__setattr__(self, "_vertex_ids", vids)
        object.__setattr__(self, "_closed", (closed_t, closed_t, range(n)))
        object.__setattr__(self, "_edge", (tuple(members), tuple(inc)))

    @classmethod
    def build(
        cls, vertices: Sequence[str], edges: Sequence[tuple[str, str]]
    ) -> "Graph":
        vids = {t: i for i, t in enumerate(vertices)}
        pairs = []
        for a, b in edges:
            if a not in vids or b not in vids:
                raise InputError(f"edge ({a!r}, {b!r}) uses unknown vertex")
            pairs.append((vids[a], vids[b]))
        return cls(tuple(vertices), tuple(pairs))

    @property
    def n_vertices(self) -> int:
        return len(self.vertex_tokens)

    def vertex_id(self, token: str) -> VertexId:
        try:
            return self._vertex_ids[token]
        except KeyError:
            raise InputError(f"unknown vertex token {token!r}") from None

    def neighbors_mask(self, v: VertexId) -> int:
        """The neighbors of v as a mask; InputError for an id outside the graph."""
        if not 0 <= v < len(self.vertex_tokens):
            raise InputError(f"unknown vertex id {v}")
        return self._closed[0][v] & ~(1 << v)


class BoundedRdInstance(_Frozen):
    """Graph with a lower assignment f and an upper assignment h.

    The question it models: is there a minimal Roman dominating function g
    with f <= g <= h pointwise? An absent upper bound means h = 2 everywhere.
    """

    __slots__ = _fields = ("graph", "lower", "upper")
    graph: Graph
    lower: RomanAssignment
    upper: RomanAssignment

    def __init__(self, graph: Graph, lower: RomanAssignment, upper: RomanAssignment) -> None:
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @classmethod
    def build(
        cls,
        graph: Graph,
        lower: Sequence[int],
        upper: Sequence[int] | None = None,
    ) -> "BoundedRdInstance":
        n = graph.n_vertices
        low = validate_assignment(lower, n)
        up = validate_assignment(upper, n) if upper is not None else (2,) * n
        return cls(graph, low, up)


def is_rdf(g: Graph, f: Sequence[int]) -> bool:
    """Every 0-vertex has a neighbor with value 2: an rhf on N[.]."""
    return _is_rhf(*_closed_masks(g), *_level_masks(f, g.n_vertices))


def _closed_masks(g: Graph) -> tuple[Masks, Masks, Masks]:
    """closed_neighborhood_hypergraph(g) as the cores' three sequences,
    stored on the graph: N[v] is vertex v's edge and, since N[u] holds v
    exactly when N[v] holds u, also its incidence; the correspondence is
    the identity."""
    return g._closed


def _prebuilt(*slots: object) -> Hypergraph:
    """A Hypergraph from its six slots, in order, derived from a checked
    graph: the constructor's checks and transpose would cost the graph
    callers far more than their own work."""
    h = _NEW(Hypergraph)
    for slot, value in zip(Hypergraph.__slots__, slots, strict=True):
        object.__setattr__(h, slot, value)
    return h


def closed_neighborhood_hypergraph(g: Graph) -> tuple[Hypergraph, Correspondence]:
    """Hypergraph of closed neighborhoods, with the identity correspondence.

    Vertex v's edge is N[v], reusing v's token as the edge token. An
    assignment is an rdf of the graph exactly when it is an rhf here, and
    (f^-1(1), f^-1(2)) read as a pair is an rhs exactly when f is an rhf.

    The graph is already checked, and every vertex's incidence is its own
    edge, so the hypergraph takes the closed neighborhoods the graph
    stores (_closed_masks) as both.
    """
    closed = _closed_masks(g)[0]
    vids = g._vertex_ids
    h = _prebuilt(g.vertex_tokens, g.vertex_tokens, closed, vids, vids, closed)
    return h, Correspondence(tuple(range(g.n_vertices)))


def _edge_masks(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The edge hypergraph as masks, stored on the graph: edge i holds u
    and v, and the incidences of u and v hold edge i."""
    return g._edge


def _edge_token_ids(g: Graph) -> dict[str, int]:
    """Edge token to edge id; a token joins the endpoint tokens with a tilde.
    A vertex token may hold a tilde, so two edges can get one token (a~b
    with c, and a with b~c); such a token is refused by name."""
    ids: dict[str, int] = {}
    for i, (u, v) in enumerate(g.edges):
        token = f"{g.vertex_tokens[u]}~{g.vertex_tokens[v]}"
        if ids.setdefault(token, i) != i:
            raise InputError(f"duplicate edge token {token!r}")
    return ids


def edge_hypergraph(g: Graph) -> Hypergraph:
    """Each graph edge becomes a 2-element hyperedge over the vertices.

    Minimal Roman vertex covers of the graph are exactly the minimal
    pairs of this hypergraph. Edge tokens join the endpoint tokens with
    a tilde, in declaration order, so edge indices carry over. Its member
    and incidence masks are the ones the graph stores (_edge_masks), on
    which the searches run alone; only what prints or reads edge tokens
    needs this.
    """
    ids = _edge_token_ids(g)
    members, inc = _edge_masks(g)
    return _prebuilt(g.vertex_tokens, tuple(ids), members, g._vertex_ids, ids, inc)


# ---------------------------------------------------------------------------
# Instance files
#
# Hypergraph files are line oriented, '#' starts a comment, tokens are
# whitespace separated:
#   universe <tok> ...           (one or more lines, concatenated)
#   edge <etok> <tok> ...        (vertex list may be empty)
#   tau <tok> <etok>             (optional; must cover every vertex if present)
#   assign <tok> <0|1|2>         (missing vertices default to 0)
#   preset1 <etok> ...           (pre-solution R1 part)
#   preset2 <tok> ...            (pre-solution R2 part)
# Bare solution files hold only the assign, preset1 and preset2 lines.
# Graph files:
#   vertex <tok> ...
#   gedge <tok> <tok>
#   assign <tok> <0|1|2>         (lower assignment, default 0)
#   upper <tok> <0|1|2>          (upper assignment, default 2)
# ---------------------------------------------------------------------------


class HypergraphFile(_Frozen):
    __slots__ = _fields = ("hypergraph", "tau", "assignment", "preset")
    hypergraph: Hypergraph
    tau: Correspondence | None
    assignment: RomanAssignment
    preset: RhsPair

    def __init__(
        self,
        hypergraph: Hypergraph,
        tau: Correspondence | None,
        assignment: RomanAssignment,
        preset: RhsPair,
    ) -> None:
        object.__setattr__(self, "hypergraph", hypergraph)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "preset", preset)


class GraphFile(_Frozen):
    __slots__ = _fields = ("graph", "assignment", "upper")
    graph: Graph
    assignment: RomanAssignment
    upper: RomanAssignment

    def __init__(self, graph: Graph, assignment: RomanAssignment, upper: RomanAssignment) -> None:
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "assignment", assignment)
        object.__setattr__(self, "upper", upper)


def _content_lines(text: str) -> list[tuple[int, list[str]]]:
    out = []
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append((no, line.split()))
    return out


def _read_value(store: dict[str, int], kind: str, args: list[str], no: int) -> None:
    """One ``assign`` or ``upper`` line: a vertex token and 0, 1 or 2."""
    if len(args) != 2 or args[1] not in ("0", "1", "2"):
        raise InputError(f"{kind} line needs vertex and 0|1|2 (line {no})")
    if args[0] in store:
        raise InputError(f"duplicate {kind} for {args[0]!r} (line {no})")
    store[args[0]] = int(args[1])


def _values(
    space: Hypergraph | Graph, pairs: Mapping[str, int], default: int
) -> RomanAssignment:
    f = [default] * space.n_vertices
    for t, v in pairs.items():
        f[space.vertex_id(t)] = v
    return tuple(f)


class SolutionLines(_Record):
    """The ``assign``, ``preset1`` and ``preset2`` lines of a file, as tokens.

    Hypergraph files carry them next to the instance; a bare solution file
    (``rhs-tool reduce --map-solution``) holds nothing else.
    """

    __slots__ = _fields = ("assign", "preset1", "preset2")
    assign: dict[str, int]
    preset1: list[str]
    preset2: list[str]

    def __init__(
        self,
        assign: dict[str, int] | None = None,
        preset1: list[str] | None = None,
        preset2: list[str] | None = None,
    ) -> None:
        self.assign = {} if assign is None else assign
        self.preset1 = [] if preset1 is None else preset1
        self.preset2 = [] if preset2 is None else preset2

    def take(self, kind: str, args: list[str], no: int) -> bool:
        """Record one line if it is a solution directive; say whether it was."""
        if kind == "assign":
            _read_value(self.assign, kind, args, no)
        elif kind == "preset1":
            self.preset1.extend(args)
        elif kind == "preset2":
            self.preset2.extend(args)
        else:
            return False
        return True

    def assignment(self, space: Hypergraph | Graph) -> RomanAssignment:
        """The assigned values over the vertices of space, zero elsewhere."""
        return _values(space, self.assign, 0)

    def pair(self, h: Hypergraph) -> RhsPair:
        return RhsPair.from_tokens(h, self.preset1, self.preset2)


def parse_solution_text(text: str) -> SolutionLines:
    """A bare solution file: assign, preset1 and preset2 lines only."""
    sol = SolutionLines()
    for no, parts in _content_lines(text):
        if not sol.take(parts[0], parts[1:], no):
            raise InputError(f"unknown directive {parts[0]!r} (line {no})")
    return sol


def parse_hypergraph_text(text: str) -> HypergraphFile:
    vertices: list[str] = []
    vseen: set[str] = set()
    edges: list[tuple[str, list[str]]] = []
    eseen: set[str] = set()
    tau_pairs: dict[str, str] = {}
    sol = SolutionLines()

    for no, parts in _content_lines(text):
        kind, args = parts[0], parts[1:]
        if kind == "universe":
            for t in args:
                _check_token(t, no)
                if t in vseen:
                    raise InputError(f"duplicate vertex token {t!r} (line {no})")
                vseen.add(t)
                vertices.append(t)
        elif kind == "edge":
            if not args:
                raise InputError(f"edge line needs a token (line {no})")
            etok = _check_token(args[0], no)
            if etok in eseen:
                raise InputError(f"duplicate edge token {etok!r} (line {no})")
            eseen.add(etok)
            edges.append((etok, args[1:]))
        elif kind == "tau":
            if len(args) != 2:
                raise InputError(f"tau line needs vertex and edge (line {no})")
            if args[0] in tau_pairs:
                raise InputError(f"duplicate tau for {args[0]!r} (line {no})")
            tau_pairs[args[0]] = args[1]
        elif not sol.take(kind, args, no):
            raise InputError(f"unknown directive {kind!r} (line {no})")

    h = Hypergraph.build(vertices, edges)
    tau = Correspondence.from_tokens(h, tau_pairs) if tau_pairs else None
    return HypergraphFile(h, tau, sol.assignment(h), sol.pair(h))


def parse_graph_text(text: str) -> GraphFile:
    vertices: list[str] = []
    vseen: set[str] = set()
    edges: list[tuple[str, str]] = []
    assign_pairs: dict[str, int] = {}
    upper_pairs: dict[str, int] = {}

    for no, parts in _content_lines(text):
        kind, args = parts[0], parts[1:]
        if kind == "vertex":
            for t in args:
                _check_token(t, no)
                if t in vseen:
                    raise InputError(f"duplicate vertex token {t!r} (line {no})")
                vseen.add(t)
                vertices.append(t)
        elif kind == "gedge":
            if len(args) != 2:
                raise InputError(f"gedge line needs two vertices (line {no})")
            edges.append((args[0], args[1]))
        elif kind in ("assign", "upper"):
            _read_value(assign_pairs if kind == "assign" else upper_pairs, kind, args, no)
        else:
            raise InputError(f"unknown directive {kind!r} (line {no})")

    g = Graph.build(vertices, edges)
    return GraphFile(g, _values(g, assign_pairs, 0), _values(g, upper_pairs, 2))


def serialize_hypergraph_file(hf: HypergraphFile) -> str:
    """Canonical text: tokens in declaration order, one edge per line,
    zero assignments and empty presets omitted. Parsing the result gives
    back an equal HypergraphFile, byte for byte on canonical inputs."""
    h = hf.hypergraph
    lines = ["universe" + "".join(" " + t for t in h.vertex_tokens)]
    for i, etok in enumerate(h.edge_tokens):
        lines.append(
            "edge " + etok + "".join(" " + h.vertex_tokens[x] for x in bits(h.edge_members[i]))
        )
    if hf.tau is not None:
        for x in range(h.n_vertices):
            lines.append(f"tau {h.vertex_tokens[x]} {h.edge_tokens[hf.tau.mapping[x]]}")
    for x, v in enumerate(hf.assignment):
        if v:
            lines.append(f"assign {h.vertex_tokens[x]} {v}")
    if hf.preset.r1m:
        lines.append("preset1" + "".join(" " + h.edge_tokens[i] for i in bits(hf.preset.r1m)))
    if hf.preset.r2m:
        lines.append("preset2" + "".join(" " + h.vertex_tokens[x] for x in bits(hf.preset.r2m)))
    return "\n".join(lines) + "\n"


def serialize_graph_file(gf: GraphFile) -> str:
    g = gf.graph
    lines = ["vertex" + "".join(" " + t for t in g.vertex_tokens)]
    for u, v in g.edges:
        lines.append(f"gedge {g.vertex_tokens[u]} {g.vertex_tokens[v]}")
    for x, v in enumerate(gf.assignment):
        if v:
            lines.append(f"assign {g.vertex_tokens[x]} {v}")
    for x, v in enumerate(gf.upper):
        if v != 2:
            lines.append(f"upper {g.vertex_tokens[x]} {v}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Printed solutions
#
# One line per solution, tokens in ascending dense id order:
#   pairs        R1={<edge tokens>} R2={<vertex tokens>} w=<int>
#   assignments  f: <tok>=<val> ... w=<int>   (zeros omitted)
#   vertex sets  <label>={<vertex tokens>} size=<int>
# or, as JSON, one object per line with sorted keys; pair and assignment
# objects read back through pair_from_json and assignment_from_json. The
# dict literals list their keys in sorted order, so json.dumps needs no
# sort_keys and uses its cached default encoder; json is imported in the
# functions, so a process that prints no JSON does not load it.
# ---------------------------------------------------------------------------


def format_pair(h: Hypergraph, pair: RhsPair) -> str:
    r1 = ",".join(h.edge_tokens[i] for i in bits(pair.r1m))
    r2 = ",".join(h.vertex_tokens[x] for x in bits(pair.r2m))
    return f"R1={{{r1}}} R2={{{r2}}} w={weight_pair(pair)}"


def format_assignment(tokens: Sequence[str], f: Sequence[int]) -> str:
    cells = "".join(
        f"{tokens[v]}={val} " for v, val in enumerate(f) if val
    )
    return f"f: {cells}w={sum(f)}"


def format_vertex_set(
    tokens: Sequence[str], chosen: Sequence[int], label: str
) -> str:
    body = ",".join(tokens[v] for v in sorted(chosen))
    return f"{label}={{{body}}} size={len(set(chosen))}"


def pair_to_json(h: Hypergraph, pair: RhsPair) -> str:
    import json

    return json.dumps(
        {
            "r1": [h.edge_tokens[i] for i in bits(pair.r1m)],
            "r2": [h.vertex_tokens[x] for x in bits(pair.r2m)],
            "w": weight_pair(pair),
        }
    )


def pair_from_json(h: Hypergraph, line: str) -> RhsPair:
    obj = _load_json_object(line)
    pair = RhsPair.from_tokens(h, _json_tokens(obj, "r1"), _json_tokens(obj, "r2"))
    _check_json_weight(obj, weight_pair(pair), "pair")
    return pair


def assignment_to_json(tokens: Sequence[str], f: Sequence[int]) -> str:
    import json

    return json.dumps(
        {
            "ones": [tokens[v] for v, val in enumerate(f) if val == 1],
            "twos": [tokens[v] for v, val in enumerate(f) if val == 2],
            "w": sum(f),
        }
    )


def assignment_from_json(
    tokens: Sequence[str], line: str
) -> RomanAssignment:
    obj = _load_json_object(line)
    ids = {t: v for v, t in enumerate(tokens)}
    vals = [0] * len(tokens)
    for level, key in ((1, "ones"), (2, "twos")):
        for t in _json_tokens(obj, key):
            if t not in ids:
                raise InputError(f"unknown token {t!r} in json solution")
            if vals[ids[t]]:
                raise InputError(f"token {t!r} sits at two levels in json solution")
            vals[ids[t]] = level
    _check_json_weight(obj, sum(vals), "assignment")
    return tuple(vals)


def set_to_json(
    tokens: Sequence[str], chosen: Sequence[int]
) -> str:
    import json

    picked = sorted(set(chosen))
    return json.dumps({"set": [tokens[v] for v in picked], "size": len(picked)})


def _load_json_object(line: str) -> dict:
    import json

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad json solution: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("json solution must be one object")
    return obj


def _json_tokens(obj: dict, key: str) -> list[str]:
    """obj[key], an empty list when absent: a list of distinct strings."""
    tokens = obj.get(key, [])
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise InputError(f"json field {key!r} must be a list of tokens")
    if len(set(tokens)) != len(tokens):
        raise InputError(f"json field {key!r} repeats a token")
    return tokens


def _check_json_weight(obj: dict, weight: int, what: str) -> None:
    w = obj.get("w")
    # a bool is an int to isinstance; true must not read as the weight 1
    if type(w) is not int:
        raise InputError("json field 'w' must be an integer")
    if w != weight:
        raise InputError(f"json {what} carries the wrong weight")
