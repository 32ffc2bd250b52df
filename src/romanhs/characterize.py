"""Minimality checks for Roman hitting structures.

Every solution notion gets two independent checkers. The structural one
decides minimality through local conditions (disjointness, private edges or
neighbors, minimal hitting or dominating subsets) and reports the first
violated condition by name. The brute-force one goes back to the
definition: the candidate must be valid and every single-step reduction of
it invalid. Validity is upward closed in each order, so single-step
reductions find a strictly smaller valid object whenever one exists at all;
tests pit the two checkers against each other on exhaustive corpora.

The structural checkers read privacy from core's hit counts: a 2 hits
alone exactly its edges that are not hit twice, so each check runs in
time linear in the 2s plus the edges. Graph minimality is hypergraph
minimality on the closed neighborhoods with the identity correspondence:
the rdf checkers and extend's is_minimal_dominating_set run the rhf or
the pair core on the graph's closed-neighborhood masks, building no
hypergraph, the rdf checkers renaming its conditions through one table,
and the rdf oracles test rhf validity there.

Public checkers and oracles validate once, then answer through core's
private mask cores, which the solvers share; no solver imports this module.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterable, Sequence

from .core import (
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    VertexId,
    _closed_masks,
    _hit_counts,
    _instance_masks,
    _is_rhf,
    _is_rhs,
    _level_masks,
    _pair_violation,
    _rhf_violation,
    _vertex_mask,
    bits,
    frozenset_of,
)
from .errors import InputError


def private_neighborhood(
    g: Graph, d: Iterable[VertexId], v: VertexId
) -> frozenset[VertexId]:
    """Closed neighbors of v that no other member of d reaches: N[v]-N[d-{v}]."""
    dm = _vertex_mask(g, d, "vertex set")
    if not (0 <= v and dm >> v & 1):
        raise InputError("vertex is not a member of the given set")
    closed = _closed_masks(g)[0]
    return frozenset_of(closed[v] & ~_hit_counts(closed, dm)[1])


# ---------------------------------------------------------------------------
# Structural minimality checkers. Each returns the identifier of the first
# violated condition, or None when the candidate is minimal; the is_*
# wrappers reduce that to a boolean. The conditions imply validity, so the
# checkers are total: they answer correctly even for invalid candidates.
# ---------------------------------------------------------------------------


def minimal_rhs_violation(h: Hypergraph, pair: RhsPair) -> str | None:
    """Minimal rhs: R1 edges untouched by R2, R2 a minimal hitting set of the rest."""
    pair.validate(h)
    return _pair_violation(h.edge_members, h.incidence_masks, pair.r1m, pair.r2m)


def is_minimal_rhs_theorem(h: Hypergraph, pair: RhsPair) -> bool:
    return minimal_rhs_violation(h, pair) is None


def minimal_rhf_violation(
    h: Hypergraph, tau: Correspondence, f: Sequence[int]
) -> str | None:
    """Minimal rhf, via four conditions.

    The correspondence must be injective on the 1-set; corresponding edges
    of 1-vertices must avoid the 2-set; every 2-vertex needs a private edge
    other than its corresponding one; and the 2-set must be a minimal
    hitting set of the edges whose correspondence preimage holds no
    1-vertex. The 2-set is minimal there once the second and third hold,
    since a 2's private edge then lies outside the 1s' corresponding
    edges, so only the hitting part is checked.
    """
    tau.validate(h)
    return _rhf_violation(*_instance_masks(h, tau), *_level_masks(f, h.n_vertices))


def is_minimal_rhf_theorem(
    h: Hypergraph, tau: Correspondence, f: Sequence[int]
) -> bool:
    return minimal_rhf_violation(h, tau, f) is None


# The graph checkers run the hypergraph checkers on the closed
# neighborhoods with the identity correspondence, which never collides;
# their conditions come in the same order and are renamed by this table.
_RDF_NAMES = {
    "one-vertex-edge-hit-by-two": "one-adjacent-to-two",
    "r1-edge-hit-by-r2": "one-adjacent-to-two",
    "two-vertex-without-private-edge": "two-vertex-without-private-neighbor",
    "unhit-edge": "undominated-vertex",
    "redundant-r2-vertex": "redundant-two-vertex",
    None: None,
}


def minimal_rdf_violation(g: Graph, f: Sequence[int]) -> str | None:
    """Minimal rdf: no 1 next to a 2, every 2 privately dominates someone
    besides itself, and the 2-set minimally dominates the 0/2 subgraph."""
    ones, twos = _level_masks(f, g.n_vertices)
    return _RDF_NAMES[_rhf_violation(*_closed_masks(g), ones, twos)]


def is_minimal_rdf_theorem(g: Graph, f: Sequence[int]) -> bool:
    return minimal_rdf_violation(g, f) is None


def po_minimal_rdf_violation(g: Graph, f: Sequence[int]) -> str | None:
    """Minimality when values may only drop to 0: the private-neighbor
    condition is waived, the other two conditions stay. The assignment read
    as the pair (1s, 2s) is checked on the closed neighborhoods."""
    ones, twos = _level_masks(f, g.n_vertices)
    closed = _closed_masks(g)[0]
    return _RDF_NAMES[_pair_violation(closed, closed, ones, twos)]


def is_po_minimal_rdf_theorem(g: Graph, f: Sequence[int]) -> bool:
    return po_minimal_rdf_violation(g, f) is None


# ---------------------------------------------------------------------------
# Definition-level brute-force oracles
#
# Each validates its input once and then makes at most |R1| + |R2| + 1 (or
# n + 1) validity checks on masks, so they are polynomial and take no work
# guard at any size.
# ---------------------------------------------------------------------------


def _brute_minimal(
    valid: Callable[[int, int], bool], ones: int, twos: int, twos_to_zero: bool = False
) -> bool:
    """valid(ones, twos) holds, and fails once any single member is lowered:
    a 1 to 0, and a 2 to 1, or to 0 when twos_to_zero (as a removal from a
    pair's R1 or R2 is)."""
    return valid(ones, twos) and not (
        any(valid(ones & ~(1 << x), twos) for x in bits(ones))
        or any(
            valid(ones if twos_to_zero else ones | 1 << x, twos & ~(1 << x))
            for x in bits(twos)
        )
    )


def brute_minimal_rhs(h: Hypergraph, pair: RhsPair) -> bool:
    """Valid, and no single removal from R1 or R2 stays valid."""
    pair.validate(h)
    valid = partial(_is_rhs, h.edge_members)
    return _brute_minimal(valid, pair.r1m, pair.r2m, twos_to_zero=True)


def brute_minimal_rhf(
    h: Hypergraph, tau: Correspondence, f: Sequence[int]
) -> bool:
    """Valid, and no single one-step lowering of a value stays valid."""
    ones, twos = _level_masks(f, h.n_vertices)
    tau.validate(h)
    return _brute_minimal(partial(_is_rhf, *_instance_masks(h, tau)), ones, twos)


def brute_minimal_rdf(g: Graph, f: Sequence[int]) -> bool:
    """Valid, and no single one-step lowering of a value stays valid."""
    valid = partial(_is_rhf, *_closed_masks(g))
    return _brute_minimal(valid, *_level_masks(f, g.n_vertices))


def brute_minimal_po_rdf(g: Graph, f: Sequence[int]) -> bool:
    """Valid, and zeroing any single nonzero value breaks validity."""
    ones, twos = _level_masks(f, g.n_vertices)
    valid = partial(_is_rhf, *_closed_masks(g))
    return _brute_minimal(valid, ones, twos, twos_to_zero=True)
