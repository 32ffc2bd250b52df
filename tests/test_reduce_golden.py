"""Golden targets and mapped solutions of the seven reductions.

For small seeded instances of every reduction (rd_to_rhf, rhf_to_rhs,
rhs_to_rhf, rhf_to_rd_gadget, vc_to_rvc, ds_split_to_rhs and the
two-section reduction) the construction and every mapper call are
recorded: the target instance and offset, then the image of each source
solution under the forward mapper and of each target solution under the
backward mapper, or the class and message of the error raised. Forward
inputs are every source solution (all assignments, vertex subsets or
pairs) plus a few malformed ones; backward inputs are every target
solution where there are at most a few thousand, and otherwise seeded
samples, half of them raised until they solve the target, followed by
every forward image. The two-section reduction has no forward mapper; its
instances record ``is_hypergraph_rdf`` on every assignment instead.

``golden/reduce.txt`` holds one sha1 of those records per instance, so a
mismatch names the instance but not the call.

Regenerate the file only for an intended change of behaviour:

    PYTHONPATH=src python tests/test_reduce_golden.py > tests/golden/reduce.txt
"""

from __future__ import annotations

import hashlib
import itertools
import random
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from corpus import (
    brute_min_rhs_weight,
    build_ex2,
    connected_graphs_upto,
    ex2_tau,
    random_hypergraph,
    random_instance_with_tau,
    random_split_graph,
)
from romanhs.core import (
    Correspondence,
    Graph,
    Hypergraph,
    RhsPair,
    closed_neighborhood_hypergraph,
    edge_hypergraph,
)
from romanhs.errors import GuardRefused, InputError
from romanhs.reduce import (
    ds_split_to_rhs,
    hrd_to_rd_two_section,
    is_hypergraph_rdf,
    rd_to_rhf,
    rhf_to_rd_gadget,
    rhf_to_rhs,
    rhs_to_rhf,
    vc_to_rvc,
)

GOLDEN = Path(__file__).parent / "golden" / "reduce.txt"
# backward inputs are exhaustive up to this many, sampled above it
EXHAUSTIVE = 4096
SAMPLES = 600


def _assignments(n: int):
    return list(itertools.product((0, 1, 2), repeat=n)) + [(0,) * (n + 1), (3,) * n]


def _subsets(n: int):
    subsets = [frozenset(v for v in range(n) if (m >> v) & 1) for m in range(1 << n)]
    return subsets + [frozenset({n})]


def _pairs(n_edges: int, n_vertices: int):
    pairs = [
        RhsPair.from_masks(r1m, r2m)
        for r1m in range(1 << n_edges)
        for r2m in range(1 << n_vertices)
    ]
    return pairs + [RhsPair.from_masks(1 << n_edges, 0), RhsPair.from_masks(0, 1 << n_vertices)]


def _raise_rhf(rng, h: Hypergraph, tau: Correspondence, f):
    """f with every unhit edge hit: a 2 on a member or a 1 on a preimage."""
    f = list(f)
    for i, m in enumerate(h.edge_members):
        twos = sum(1 << x for x, v in enumerate(f) if v == 2)
        claimed = any(v == 1 and tau.mapping[x] == i for x, v in enumerate(f))
        if m & twos or claimed:
            continue
        pre = [x for x in range(len(f)) if tau.mapping[x] == i]
        members = [x for x in range(len(f)) if (m >> x) & 1]
        if pre and (not members or rng.random() < 0.5):
            # a preimage vertex lies in edge i, so it holds no 2 here
            f[rng.choice(pre)] = 1
        elif members:
            f[rng.choice(members)] = 2
    return tuple(f)


def _raise_rdf(rng, g: Graph, f):
    """f with every undominated 0 raised to 1 or 2, in a random order."""
    f = list(f)
    order = list(range(len(f)))
    rng.shuffle(order)
    for v in order:
        twos = sum(1 << x for x, val in enumerate(f) if val == 2)
        if f[v] == 0 and not g.neighbors_mask(v) & twos:
            f[v] = rng.choice((1, 2))
    return tuple(f)


def _raise_rhs(rng, h: Hypergraph, pair: RhsPair) -> RhsPair:
    """pair with every unhit edge put into R1 or hit by a member in R2."""
    r1m, r2m = pair.r1m, pair.r2m
    for i, m in enumerate(h.edge_members):
        if (r1m >> i) & 1 or m & r2m:
            continue
        members = [x for x in range(h.n_vertices) if (m >> x) & 1]
        if members and rng.random() < 0.5:
            r2m |= 1 << rng.choice(members)
        else:
            r1m |= 1 << i
    return RhsPair.from_masks(r1m, r2m)


def _target_assignments(rng, n: int, solve):
    if 3**n <= EXHAUSTIVE:
        return _assignments(n)
    raw = [tuple(rng.choice((0, 0, 1, 2)) for _ in range(n)) for _ in range(SAMPLES)]
    return raw[: SAMPLES // 2] + [solve(f) for f in raw[SAMPLES // 2 :]]


def _target_pairs(rng, h: Hypergraph):
    if 1 << (h.n_edges + h.n_vertices) <= EXHAUSTIVE:
        return _pairs(h.n_edges, h.n_vertices)
    raw = [
        RhsPair.from_masks(rng.getrandbits(h.n_edges), rng.getrandbits(h.n_vertices))
        for _ in range(SAMPLES)
    ]
    raw[0] = RhsPair.from_masks(1 << h.n_edges, 0)
    return raw[: SAMPLES // 2] + [_raise_rhs(rng, h, p) for p in raw[SAMPLES // 2 :]]


def _instance(obj):
    if isinstance(obj, Graph):
        return ("graph", obj.vertex_tokens, obj.edges)
    if isinstance(obj, Hypergraph):
        return ("hypergraph", obj.vertex_tokens, obj.edge_tokens, obj.edge_members)
    h, tau = obj
    return _instance(h) + (tau.mapping,)


def _value(out):
    if isinstance(out, RhsPair):
        return ("pair", out.r1m, out.r2m)
    if isinstance(out, frozenset):
        return ("set",) + tuple(sorted(out))
    return out


class Case(NamedTuple):
    """One instance: the builder of its reduction, the mapper that takes
    the source inputs (given the built reduction), the source inputs, and
    the target inputs of the backward mapper (given the built reduction
    and a Random seeded by the label). Everything stays lazy so that
    collecting the tests costs little."""

    reduction: str
    label: str
    build: Callable
    source_map: Callable
    sources: Callable
    targets: Callable


def _forward(ro):
    return ro.forward


def _rd_cases():
    rng = random.Random(11)
    graphs = connected_graphs_upto(3)
    for n in (4, 5, 6):
        names = [f"v{i}" for i in range(n)]
        edges = [(a, b) for a, b in itertools.combinations(names, 2) if rng.random() < 0.4]
        graphs.append(Graph.build(names, edges))
    for k, g in enumerate(graphs):
        yield Case(
            "rd_to_rhf", f"g{k}n{g.n_vertices}", partial(rd_to_rhf, g), _forward,
            partial(_assignments, g.n_vertices),
            lambda ro, r: _assignments(ro.instance[0].n_vertices),
        )


def _tau_instances(seed: int, count: int, max_v: int, max_e: int):
    rng = random.Random(seed)
    out = [("ex2", build_ex2(), ex2_tau(build_ex2()))]
    for k, g in enumerate(connected_graphs_upto(3)[1::2]):
        out.append((f"nbhd{k}", *closed_neighborhood_hypergraph(g)))
    while len(out) < count:
        h, tau = random_instance_with_tau(rng, max_v, max_e)
        if all(h.edge_members):
            out.append((f"r{len(out)}", h, tau))
    one = Hypergraph.build(["x"], [("e", ["x"]), ("empty", [])])
    out.append(("empty-edge", one, Correspondence((0,))))
    out.append(("bad-tau", one, Correspondence((1,))))
    return out


def _rhf_to_rhs_cases():
    for label, h, tau in _tau_instances(22, 14, 5, 5):
        yield Case(
            "rhf_to_rhs", label, partial(rhf_to_rhs, h, tau), _forward,
            partial(_assignments, h.n_vertices),
            lambda ro, r: _target_pairs(r, ro.instance),
        )


def _rhs_to_rhf_targets(ro, rng):
    """Sampled assignments, plus every forward image with one value
    raised: a 2 on an index vertex or a 1 on an original vertex is
    normalised away by the backward mapper."""
    h, tau = ro.instance
    out = _target_assignments(rng, h.n_vertices, partial(_raise_rhf, rng, h, tau))
    m = h.n_edges - 1
    for r1m in range(1 << m):
        for r2m in range(1 << (h.n_vertices - m)):
            try:
                f = list(ro.forward(RhsPair.from_masks(r1m, r2m)))
            except InputError:
                continue
            x = rng.randrange(len(f))
            f[x] = min(f[x] + 1, 2)
            out.append(tuple(f))
    return out


def _rhs_to_rhf_cases():
    rng = random.Random(33)
    for k in range(10):
        names = [f"x{i}" for i in range(rng.randint(1, 4))]
        edges = [
            (f"e{i}", [t for t in names if rng.random() < 0.6])
            for i in range(rng.randint(1, 6))
        ]
        h = Hypergraph.build(names, edges)
        # budgets from the optimum up to |E|, which is refused as trivial;
        # the first instance also tries a negative one
        budgets = sorted({min(brute_min_rhs_weight(h), h.n_edges), h.n_edges - 1, h.n_edges})
        for b in budgets + [-1] * (k == 0):
            yield Case(
                "rhs_to_rhf", f"r{k}k{b}", partial(rhs_to_rhf, h, b), _forward,
                partial(_pairs, h.n_edges, h.n_vertices), _rhs_to_rhf_targets,
            )


def _gadget_targets(ro, rng):
    g = ro.instance
    return _target_assignments(rng, g.n_vertices, partial(_raise_rdf, rng, g))


def _gadget_cases():
    for label, h, tau in _tau_instances(44, 10, 4, 4):
        yield Case(
            "rhf_to_rd_gadget", label, partial(rhf_to_rd_gadget, h, tau), _forward,
            partial(_assignments, h.n_vertices), _gadget_targets,
        )


def _vc_cases():
    rng = random.Random(55)
    graphs = connected_graphs_upto(3) + [Graph.build(["a", "b"], [])]
    for n in (4, 4, 5, 5, 6):
        names = [f"v{i}" for i in range(n)]
        edges = [(a, b) for a, b in itertools.combinations(names, 2) if rng.random() < 0.45]
        graphs.append(Graph.build(names, edges))
    for k, g in enumerate(graphs):
        yield Case(
            "vc_to_rvc", f"g{k}n{g.n_vertices}", partial(vc_to_rvc, g), _forward,
            partial(_subsets, g.n_vertices),
            lambda ro, r: _target_pairs(r, edge_hypergraph(ro.instance)),
        )


def _ds_cases():
    rng = random.Random(66)
    for k in range(10):
        g, clique, indep = random_split_graph(rng, max_n=7)
        split = ({g.vertex_id(t) for t in clique}, {g.vertex_id(t) for t in indep})
        yield Case(
            "ds_split_to_rhs", f"s{k}n{g.n_vertices}", partial(ds_split_to_rhs, g, split),
            _forward, partial(_subsets, g.n_vertices),
            lambda ro, r: _target_pairs(r, ro.instance),
        )
    g, clique, indep = random_split_graph(random.Random(5), max_n=6)
    not_split = ({g.vertex_id(t) for t in clique}, set())
    yield Case(
        "ds_split_to_rhs", "not-a-partition", partial(ds_split_to_rhs, g, not_split),
        _forward, list, lambda ro, r: [],
    )


def _two_section_cases():
    rng = random.Random(77)
    hs = [build_ex2()]
    while len(hs) < 9:
        h = random_hypergraph(rng, 6, 5)
        if len(set(h.edge_members)) == h.n_edges:
            hs.append(h)
    hs.append(Hypergraph.build(["x", "y"], [("e", ["x", "y"]), ("f", ["y", "x"])]))
    for k, h in enumerate(hs):
        # the reduction has no forward mapper; the sources go through
        # the hypergraph's own Roman domination test instead
        yield Case(
            "two_section", f"h{k}n{h.n_vertices}", partial(hrd_to_rd_two_section, h),
            lambda ro, h=h: partial(is_hypergraph_rdf, h),
            partial(_assignments, h.n_vertices),
            lambda ro, r: _assignments(ro.instance.n_vertices),
        )


def corpus() -> list[Case]:
    return list(
        itertools.chain(
            _rd_cases(), _rhf_to_rhs_cases(), _rhs_to_rhf_cases(), _gadget_cases(),
            _vc_cases(), _ds_cases(), _two_section_cases(),
        )
    )


def record(case: Case) -> str:
    """One golden line: the reduction, the label, and the sha1 of the
    construction and of every mapper result in order. Each solution the
    forward mapper returns is mapped back after the target inputs."""
    digest = hashlib.sha1()

    def put(value) -> None:
        digest.update(repr(value).encode())

    def call(fn, arg):
        try:
            out = fn(arg)
        except (InputError, GuardRefused) as e:
            put((type(e).__name__, str(e)))
            return None
        put(_value(out))
        return out

    try:
        ro = case.build()
    except (InputError, GuardRefused) as e:
        put((type(e).__name__, str(e)))
    else:
        put((_instance(ro.instance), ro.offset))
        source_map = case.source_map(ro)
        images = [call(source_map, s) for s in case.sources()]
        rng = random.Random(f"{case.reduction}/{case.label}")
        for t in case.targets(ro, rng):
            call(ro.backward, t)
        for image in images:
            if image is not None and not isinstance(image, bool):
                call(ro.backward, image)
    return f"{case.reduction} {case.label} {digest.hexdigest()}"


RUNS = corpus()
EXPECTED = GOLDEN.read_text().splitlines() if GOLDEN.is_file() else []


@pytest.mark.parametrize("k", range(len(RUNS)), ids=[f"{c.reduction}:{c.label}" for c in RUNS])
def test_reduction_matches_golden(k):
    assert len(EXPECTED) == len(RUNS), "golden file out of step with the corpus"
    assert record(RUNS[k]) == EXPECTED[k]


if __name__ == "__main__":
    for case in RUNS:
        print(record(case))
