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
ints used as bitsets. All public containers are immutable.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import InputError

VertexId = int
EdgeIndex = int

_TOKEN_RE = re.compile(r"^[^\s#{},=]+$")


def _check_token(token: str, line_no: int | None = None) -> str:
    if not _TOKEN_RE.match(token):
        where = f" (line {line_no})" if line_no is not None else ""
        raise InputError(f"invalid token {token!r}{where}")
    return token


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


def frozenset_of(mask: int) -> frozenset[int]:
    return frozenset(bits(mask))


@dataclass(frozen=True)
class Hypergraph:
    """Universe plus indexed hyperedges, both named by tokens.

    ``edge_members[i]`` is the bitset of vertex ids in edge i. Empty edges
    and an empty universe are legal. Incidence masks (edge ids containing a
    vertex) are precomputed.
    """

    vertex_tokens: tuple[str, ...]
    edge_tokens: tuple[str, ...]
    edge_members: tuple[int, ...]
    _vertex_ids: Mapping[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )
    _edge_ids: Mapping[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )
    _incidence: tuple[int, ...] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if len(self.edge_tokens) != len(self.edge_members):
            raise InputError("edge token/member count mismatch")
        vids = {t: i for i, t in enumerate(self.vertex_tokens)}
        if len(vids) != len(self.vertex_tokens):
            raise InputError("duplicate vertex token")
        eids = {t: i for i, t in enumerate(self.edge_tokens)}
        if len(eids) != len(self.edge_tokens):
            raise InputError("duplicate edge token")
        full = (1 << len(self.vertex_tokens)) - 1
        inc = [0] * len(self.vertex_tokens)
        for i, members in enumerate(self.edge_members):
            if members & ~full:
                raise InputError(f"edge {self.edge_tokens[i]!r} has out-of-range members")
            for x in bits(members):
                inc[x] |= 1 << i
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
        if len(vids) != len(vertices):
            raise InputError("duplicate vertex token")
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

    def incidence_set_mask(self, vertex_mask: int) -> int:
        m = 0
        for x in bits(vertex_mask):
            m |= self._incidence[x]
        return m


def incidence(h: Hypergraph, x: VertexId) -> frozenset[EdgeIndex]:
    """Indices of all edges containing vertex x."""
    return frozenset_of(h.incidence_mask(x))


def incidence_of_set(h: Hypergraph, xs: Iterable[VertexId]) -> frozenset[EdgeIndex]:
    """Union of the incidences of a vertex set."""
    return frozenset_of(h.incidence_set_mask(mask_of(xs)))


@dataclass(frozen=True)
class Correspondence:
    """Total map vertex -> edge index with the vertex inside its edge."""

    mapping: tuple[EdgeIndex, ...]

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
        for x, i in enumerate(self.mapping):
            if not 0 <= i < h.n_edges or not (h.edge_members[i] >> x) & 1:
                raise InputError(
                    f"vertex {h.vertex_tokens[x]!r} not contained in its "
                    f"assigned edge"
                )

    def preimage_mask(self, i: EdgeIndex) -> int:
        m = 0
        for x, e in enumerate(self.mapping):
            if e == i:
                m |= 1 << x
        return m

    def image_mask(self, vertex_mask: int) -> int:
        m = 0
        for x in bits(vertex_mask):
            m |= 1 << self.mapping[x]
        return m

    @property
    def range_mask(self) -> int:
        return self.image_mask((1 << len(self.mapping)) - 1)


# A Roman assignment is a plain tuple of values in {0,1,2}, one per vertex
# in dense-id order. Kept as a bare tuple so brute-force sweeps stay cheap.
RomanAssignment = tuple[int, ...]


def validate_assignment(values: Sequence[int], n: int) -> RomanAssignment:
    f = tuple(values)
    if len(f) != n:
        raise InputError(f"assignment has {len(f)} entries, expected {n}")
    if any(v not in (0, 1, 2) for v in f):
        raise InputError("assignment values must be 0, 1 or 2")
    return f


def level_mask(f: Sequence[int], value: int) -> int:
    """Bitset of vertices where the assignment equals the given value."""
    m = 0
    for x, v in enumerate(f):
        if v == value:
            m |= 1 << x
    return m


@dataclass(frozen=True)
class RhsPair:
    """Candidate Roman hitting set: edge indices R1 and vertices R2."""

    r1: frozenset[EdgeIndex]
    r2: frozenset[VertexId]

    @classmethod
    def from_masks(cls, r1_mask: int, r2_mask: int) -> "RhsPair":
        return cls(frozenset_of(r1_mask), frozenset_of(r2_mask))

    @classmethod
    def from_tokens(
        cls, h: Hypergraph, r1_tokens: Iterable[str], r2_tokens: Iterable[str]
    ) -> "RhsPair":
        return cls(
            frozenset(h.edge_id(t) for t in r1_tokens),
            frozenset(h.vertex_id(t) for t in r2_tokens),
        )

    def r1_mask(self) -> int:
        return mask_of(self.r1)

    def r2_mask(self) -> int:
        return mask_of(self.r2)

    def validate(self, h: Hypergraph) -> "RhsPair":
        if any(not 0 <= i < h.n_edges for i in self.r1):
            raise InputError("R1 contains an out-of-range edge index")
        if any(not 0 <= x < h.n_vertices for x in self.r2):
            raise InputError("R2 contains an out-of-range vertex id")
        return self


def weight_assignment(f: Sequence[int]) -> int:
    """Weight of a Roman assignment: the sum of its values."""
    return sum(f)


def weight_pair(pair: RhsPair) -> int:
    """Weight of a hitting-set pair: |R1| + 2 |R2|."""
    return len(pair.r1) + 2 * len(pair.r2)


def is_rhs(h: Hypergraph, pair: RhsPair) -> bool:
    """Every index is in R1 or its edge meets R2."""
    r1 = pair.r1_mask()
    r2 = pair.r2_mask()
    for i in range(h.n_edges):
        if not ((r1 >> i) & 1) and not (h.edge_members[i] & r2):
            return False
    return True


def is_rhf(h: Hypergraph, tau: Correspondence, f: Sequence[int]) -> bool:
    """Every edge has a 2-vertex, or a 1-vertex whose corresponding edge it is."""
    tau.validate(h)
    twos = level_mask(f, 2)
    tau_hit = 0
    for x, v in enumerate(f):
        if v == 1:
            tau_hit |= 1 << tau.mapping[x]
    for i in range(h.n_edges):
        if not (h.edge_members[i] & twos) and not ((tau_hit >> i) & 1):
            return False
    return True


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph with token-named vertices.

    ``edges`` stores id pairs (u < v) in declaration order; adjacency masks
    are precomputed. Self-loops and duplicate edges are rejected.
    """

    vertex_tokens: tuple[str, ...]
    edges: tuple[tuple[VertexId, VertexId], ...]
    _vertex_ids: Mapping[str, int] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )
    _adjacency: tuple[int, ...] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        vids = {t: i for i, t in enumerate(self.vertex_tokens)}
        if len(vids) != len(self.vertex_tokens):
            raise InputError("duplicate vertex token")
        n = len(self.vertex_tokens)
        adj = [0] * n
        seen = set()
        for u, v in self.edges:
            if u == v:
                raise InputError("self-loop")
            if not (0 <= u < n and 0 <= v < n):
                raise InputError("edge endpoint out of range")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise InputError("duplicate edge")
            seen.add(key)
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "_vertex_ids", vids)
        object.__setattr__(self, "_adjacency", tuple(adj))

    @classmethod
    def build(
        cls, vertices: Sequence[str], edges: Sequence[tuple[str, str]]
    ) -> "Graph":
        vids = {t: i for i, t in enumerate(vertices)}
        if len(vids) != len(vertices):
            raise InputError("duplicate vertex token")
        pairs = []
        for a, b in edges:
            if a not in vids or b not in vids:
                raise InputError(f"edge ({a!r}, {b!r}) uses unknown vertex")
            u, v = vids[a], vids[b]
            pairs.append((min(u, v), max(u, v)))
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
        return self._adjacency[v]

    def closed_mask(self, v: VertexId) -> int:
        return self._adjacency[v] | (1 << v)

    def closed_set_mask(self, vertex_mask: int) -> int:
        m = vertex_mask
        for v in bits(vertex_mask):
            m |= self._adjacency[v]
        return m


@dataclass(frozen=True)
class BoundedRdInstance:
    """Graph with a lower assignment f and an upper assignment h.

    The question it models: is there a minimal Roman dominating function g
    with f <= g <= h pointwise? An absent upper bound means h = 2 everywhere.
    """

    graph: Graph
    lower: RomanAssignment
    upper: RomanAssignment

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
    """Every 0-vertex has a neighbor with value 2."""
    twos = level_mask(f, 2)
    for v, val in enumerate(f):
        if val == 0 and not (g.neighbors_mask(v) & twos):
            return False
    return True


def closed_neighborhood_hypergraph(g: Graph) -> tuple[Hypergraph, Correspondence]:
    """Hypergraph of closed neighborhoods, with the identity correspondence.

    Vertex v's edge is N[v], reusing v's token as the edge token. An
    assignment is an rdf of the graph exactly when it is an rhf here, and
    (f^-1(1), f^-1(2)) read as a pair is an rhs exactly when f is an rhf.
    """
    h = Hypergraph(
        g.vertex_tokens,
        g.vertex_tokens,
        tuple(g.closed_mask(v) for v in range(g.n_vertices)),
    )
    tau = Correspondence(tuple(range(g.n_vertices)))
    return h, tau


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


@dataclass(frozen=True)
class HypergraphFile:
    hypergraph: Hypergraph
    tau: Correspondence | None
    assignment: RomanAssignment
    preset: RhsPair


@dataclass(frozen=True)
class GraphFile:
    graph: Graph
    assignment: RomanAssignment
    upper: RomanAssignment


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


@dataclass
class SolutionLines:
    """The ``assign``, ``preset1`` and ``preset2`` lines of a file, as tokens.

    Hypergraph files carry them next to the instance; a bare solution file
    (``rhs-tool reduce --map-solution``) holds nothing else.
    """

    assign: dict[str, int] = field(default_factory=dict)
    preset1: list[str] = field(default_factory=list)
    preset2: list[str] = field(default_factory=list)

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
    if hf.preset.r1:
        lines.append("preset1" + "".join(" " + h.edge_tokens[i] for i in sorted(hf.preset.r1)))
    if hf.preset.r2:
        lines.append("preset2" + "".join(" " + h.vertex_tokens[x] for x in sorted(hf.preset.r2)))
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
# objects read back through pair_from_json and assignment_from_json.
# ---------------------------------------------------------------------------


def format_pair(h: Hypergraph, pair: RhsPair) -> str:
    r1 = ",".join(h.edge_tokens[i] for i in sorted(pair.r1))
    r2 = ",".join(h.vertex_tokens[x] for x in sorted(pair.r2))
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
    return json.dumps(
        {
            "r1": [h.edge_tokens[i] for i in sorted(pair.r1)],
            "r2": [h.vertex_tokens[x] for x in sorted(pair.r2)],
            "w": weight_pair(pair),
        },
        sort_keys=True,
    )


def pair_from_json(h: Hypergraph, line: str) -> RhsPair:
    obj = _load_json_object(line)
    pair = RhsPair.from_tokens(h, obj.get("r1", []), obj.get("r2", []))
    if obj.get("w") != weight_pair(pair):
        raise InputError("json pair carries the wrong weight")
    return pair


def assignment_to_json(tokens: Sequence[str], f: Sequence[int]) -> str:
    return json.dumps(
        {
            "ones": [tokens[v] for v, val in enumerate(f) if val == 1],
            "twos": [tokens[v] for v, val in enumerate(f) if val == 2],
            "w": sum(f),
        },
        sort_keys=True,
    )


def assignment_from_json(
    tokens: Sequence[str], line: str
) -> RomanAssignment:
    obj = _load_json_object(line)
    ids = {t: v for v, t in enumerate(tokens)}
    vals = [0] * len(tokens)
    for level, key in ((1, "ones"), (2, "twos")):
        for t in obj.get(key, []):
            if t not in ids:
                raise InputError(f"unknown token {t!r} in json solution")
            vals[ids[t]] = level
    if obj.get("w") != sum(vals):
        raise InputError("json assignment carries the wrong weight")
    return tuple(vals)


def set_to_json(
    tokens: Sequence[str], chosen: Sequence[int]
) -> str:
    picked = sorted(set(chosen))
    return json.dumps(
        {"set": [tokens[v] for v in picked], "size": len(picked)},
        sort_keys=True,
    )


def _load_json_object(line: str) -> dict:
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad json solution: {exc}") from exc
    if not isinstance(obj, dict):
        raise InputError("json solution must be one object")
    return obj
