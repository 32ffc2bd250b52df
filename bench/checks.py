"""Independent correctness checks for the benchmark.

Nothing here imports romanhs. Instances arrive as plain data: the number
of vertices and the tuple of edge member bitmasks (bit x set when vertex
x is in the edge). The checkers go back to the definitions:

* a pair (R1, R2) is a Roman hitting set when every edge is in R1 or
  meets R2, and it is minimal when it is valid and no single element of
  R1 or R2 can be removed with the pair staying valid;
* an assignment f with correspondence tau is a Roman hitting function
  when every edge holds a 2-vertex or is tau(x) of some 1-vertex x, and
  it is minimal when no single value can be lowered by one with the
  assignment staying valid.

The brute-force references scan every candidate and are only run on
instances small enough to scan.
"""

from __future__ import annotations

import itertools
import json
import math
import re


def bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_rhs(members, r1, r2):
    for i, m in enumerate(members):
        if not (r1 >> i) & 1 and not m & r2:
            return False
    return True


def is_minimal_rhs(members, r1, r2):
    """Valid, no R1 edge hit by R2, and no single element removable."""
    if not is_rhs(members, r1, r2):
        return False
    if any(members[i] & r2 for i in bits(r1)):
        return False
    if any(is_rhs(members, r1 & ~(1 << i), r2) for i in bits(r1)):
        return False
    return not any(is_rhs(members, r1, r2 & ~(1 << x)) for x in bits(r2))


def unhit_edges(members, r2):
    r1 = 0
    for i, m in enumerate(members):
        if not m & r2:
            r1 |= 1 << i
    return r1


def brute_minimal_pairs(nv, members):
    """Every minimal pair, by scanning all 2^nv vertex sets for R2.

    A minimal pair puts exactly the edges R2 misses into R1 (an R1 edge
    hit by R2 could be dropped), so each R2 candidate has one R1 to test.
    """
    out = set()
    for r2 in range(1 << nv):
        r1 = unhit_edges(members, r2)
        if is_minimal_rhs(members, r1, r2):
            out.add((r1, r2))
    return out


def pair_weight(r1, r2):
    return r1.bit_count() + 2 * r2.bit_count()


def brute_min_rhs(nv, members):
    return min(
        pair_weight(unhit_edges(members, r2), r2) for r2 in range(1 << nv)
    )


def is_rhf(members, tau, f):
    twos = 0
    claimed = 0
    for x, v in enumerate(f):
        if v == 2:
            twos |= 1 << x
        elif v == 1:
            claimed |= 1 << tau[x]
    for i, m in enumerate(members):
        if not m & twos and not (claimed >> i) & 1:
            return False
    return True


def is_minimal_rhf(members, tau, f):
    """Valid, and no single value can be lowered by one."""
    f = tuple(f)
    if not is_rhf(members, tau, f):
        return False
    for x, v in enumerate(f):
        if v and is_rhf(members, tau, f[:x] + (v - 1,) + f[x + 1 :]):
            return False
    return True


def brute_min_rhf(nv, members, tau):
    best = None
    for f in itertools.product((0, 1, 2), repeat=nv):
        w = sum(f)
        if (best is None or w < best) and is_rhf(members, tau, f):
            best = w
    return best


def greedy_ratio_bound(n_edges):
    """The greedy guarantee 2(ln|I| + 1)."""
    return 2 * (math.log(max(n_edges, 1)) + 1)


# ---------------------------------------------------------------------------
# Reading the command line tool's output. The grammar is the documented one:
#   pairs        R1={e1,e2} R2={x1} w=3      or {"r1": [...], "r2": [...], "w": 3}
#   assignments  f: x1=2 x3=1 w=3            or {"ones": [...], "twos": [...], "w": 3}

_PAIR_LINE = re.compile(r"R1=\{([^}]*)\} R2=\{([^}]*)\} w=(\d+)\Z")
_ASSIGN_LINE = re.compile(r"f:((?: [^ =]+=[12])*) w=(\d+)\Z")


def _mask(ids, tokens):
    m = 0
    for t in tokens:
        m |= 1 << ids[t]
    return m


def parse_pair_line(line, vertex_ids, edge_ids):
    """(r1 mask, r2 mask) from one printed pair; raises ValueError."""
    if line.startswith("{"):
        obj = json.loads(line)
        r1, r2, w = obj["r1"], obj["r2"], obj["w"]
    else:
        m = _PAIR_LINE.match(line)
        if m is None:
            raise ValueError(f"not a pair line: {line!r}")
        r1 = [t for t in m[1].split(",") if t]
        r2 = [t for t in m[2].split(",") if t]
        w = int(m[3])
    pair = (_mask(edge_ids, r1), _mask(vertex_ids, r2))
    if pair_weight(*pair) != w:
        raise ValueError(f"printed weight disagrees with the pair: {line!r}")
    return pair


def parse_assignment_line(line, vertex_ids):
    """Assignment tuple from one printed assignment; raises ValueError."""
    f = [0] * len(vertex_ids)
    if line.startswith("{"):
        obj = json.loads(line)
        for level, key in ((1, "ones"), (2, "twos")):
            for t in obj[key]:
                f[vertex_ids[t]] = level
        w = obj["w"]
    else:
        m = _ASSIGN_LINE.match(line)
        if m is None:
            raise ValueError(f"not an assignment line: {line!r}")
        for cell in m[1].split():
            t, v = cell.split("=")
            f[vertex_ids[t]] = int(v)
        w = int(m[2])
    if sum(f) != w:
        raise ValueError(f"printed weight disagrees with the assignment: {line!r}")
    return tuple(f)


class Failures:
    """Collects failed checks; the run is correct when none failed."""

    def __init__(self):
        self.messages = []

    def expect(self, ok, message):
        if not ok:
            self.messages.append(message)
        return ok
