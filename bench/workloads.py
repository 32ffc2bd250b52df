"""The three workloads: inputs made from the seed, the fixed operations of
one round, and the independent checks of their outputs.

Every workload is built in set-up from library generators with fixed
generator seeds. The benchmark's --seed then relabels each random instance:
it permutes vertex ids and edge order (and graph vertices and edges). A
relabelled instance has the same solutions up to names, so the amount of
work stays put while the search order changes. Redrawing the random
instances from the seed instead moved node counts by 15-30% between seeds,
more than any bound this benchmark can keep.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import os
import random
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable

import checks
from checks import Failures, bits


@dataclass
class Outcome:
    """What one operation handed back to the benchmark."""

    results: int
    nodes: int = 0
    max_gap: int = 0
    value: object = None
    stamps: array = None  # perf_counter at the start and at each streamed result
    stats: list = field(default_factory=list)  # EnumerationStats seen
    stdout_bytes: int = 0


@dataclass
class Op:
    name: str
    run: Callable[[], Outcome]


class _Enough(Exception):
    """Raised by a sink to stop an enumeration after its first pairs."""


def _no_trace(name, fn):
    return fn


# ---------------------------------------------------------------------------
# Seeded instances


def _relabel_hf(lib, hf, rng):
    """The instance with vertex ids and edge order permuted by rng."""
    core = lib.core
    h = hf.hypergraph
    vmap = list(range(h.n_vertices))
    rng.shuffle(vmap)
    order = list(range(h.n_edges))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}

    def move(mask):
        return sum(1 << vmap[x] for x in bits(mask))

    members = tuple(move(h.edge_members[i]) for i in order)
    tau = None
    if hf.tau is not None:
        mapping = [0] * h.n_vertices
        for x, i in enumerate(hf.tau.mapping):
            mapping[vmap[x]] = new_index[i]
        tau = core.Correspondence(tuple(mapping))
    return core.HypergraphFile(
        core.Hypergraph(h.vertex_tokens, h.edge_tokens, members),
        tau,
        (0,) * h.n_vertices,
        core.RhsPair(frozenset(), frozenset()),
    )


def _text_round_trip(lib, hf):
    """Serialise and parse back: set-up pays for parsing instance text."""
    text = lib.core.serialize_hypergraph_file(hf)
    return text, lib.core.parse_hypergraph_text(text)


def _plain_hf(lib, h):
    return lib.core.HypergraphFile(h, None, (0,) * h.n_vertices, lib.core.RhsPair(frozenset(), frozenset()))


def _random_graph_text(lib, nv, ne, base_seed, rng):
    """A graph with ne random edges from a fixed draw, relabelled by rng."""
    draw = random.Random(base_seed)
    pairs = draw.sample([(u, v) for u in range(nv) for v in range(u + 1, nv)], ne)
    vmap = list(range(nv))
    rng.shuffle(vmap)
    rng.shuffle(pairs)
    tokens = [f"v{k}" for k in range(1, nv + 1)]
    edges = [(tokens[vmap[u]], tokens[vmap[v]]) for u, v in pairs]
    g = lib.core.Graph.build(tokens, edges)
    gf = lib.core.GraphFile(g, (0,) * nv, (2,) * nv)
    text = lib.core.serialize_graph_file(gf)
    return text, lib.core.parse_graph_text(text)


def _instance(lib, rng, nv, ne, density, seed, with_tau=False):
    hf = lib.enumeration.gen_random(nv, ne, density, seed, with_tau=with_tau)
    return _text_round_trip(lib, _relabel_hf(lib, hf, rng))


def _path(lib, n, rng):
    """A path on n vertices: edge k holds vertices k and k+1 after relabelling."""
    vmap = list(range(n))
    rng.shuffle(vmap)
    tokens = [f"p{k}" for k in range(1, n + 1)]
    edges = [
        (f"q{k}", [tokens[vmap[k]], tokens[vmap[k + 1]]]) for k in range(n - 1)
    ]
    return _text_round_trip(lib, _plain_hf(lib, lib.core.Hypergraph.build(tokens, edges)))


def _masks(pair):
    return sum(1 << i for i in pair.r1), sum(1 << x for x in pair.r2)


def _edge_members(g):
    return tuple((1 << u) | (1 << v) for u, v in g.edges)


# ---------------------------------------------------------------------------
# enumerate


class EnumerateWorkload:
    """Streams every minimal pair of each input into a consuming sink."""

    name = "enumerate"
    children_rss = False

    TIGHT = (7, 8, 9, 10)
    # (vertices, edges, density, generator seed, brute-force checked)
    RANDOM = (
        (14, 9, 0.3, 1, True),
        (20, 14, 0.2, 5, False),
        (10, 18, 0.3, 2, True),
        (12, 22, 0.2, 4, True),
        (14, 28, 0.15, 7, False),
    )
    DEEP = 300
    BROKEN = 400
    FIRST_PAIRS = 1000

    def setup(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)
        self.texts = []
        self.inputs = []  # (label, hypergraph, brute-force checked)
        for k in self.TIGHT:
            text, hf = _text_round_trip(lib, _plain_hf(lib, lib.enumeration.gen_tight(k)))
            self.texts.append(text)
            self.inputs.append((f"tight{k}", hf.hypergraph, False))
        for nv, ne, dens, gseed, brute in self.RANDOM:
            text, hf = _instance(lib, rng, nv, ne, dens, gseed)
            self.texts.append(text)
            self.inputs.append((f"random{nv}x{ne}", hf.hypergraph, brute))
        self.deep = lib.enumeration.gen_tight(self.DEEP)
        self.broken = lib.enumeration.gen_tight(self.BROKEN)
        self.check_seed = seed

    def ops(self, wrap=_no_trace):
        enum = wrap("enumeration.enumerate_minimal_rhs", self.lib.enumeration.enumerate_minimal_rhs)
        ops = [Op(label, self._stream(enum, wrap, h)) for label, h, _ in self.inputs]
        ops.append(Op("deep_first_pairs", self._stream(enum, wrap, self.deep, self.FIRST_PAIRS)))
        # fails today: the recursive search overflows the interpreter stack
        ops.append(Op("deep400_first_pairs", self._stream(enum, wrap, self.broken, self.FIRST_PAIRS)))
        return ops

    @staticmethod
    def _stream(enum, wrap, h, limit=None):
        """Streams the minimal pairs of h, or the first `limit` of them,
        into a sink that adds up their weights and stamps the time."""

        def run():
            clock = time.perf_counter
            stamps = array("d", [clock()])
            stamp = stamps.append
            weight = [0]

            def sink(pair):
                weight[0] += len(pair.r1) + 2 * len(pair.r2)
                stamp(clock())
                if limit is not None and len(stamps) > limit:
                    raise _Enough

            try:
                st = enum(h, sink=wrap("bench.sink", sink))
            except _Enough:
                st = None  # stopped early, the library hands back no counters
            n = len(stamps) - 1
            if st is None:
                return Outcome(n, value=(n, weight[0]), stamps=stamps)
            return Outcome(n, st.nodes, st.max_gap, (n, weight[0]), stamps, [st])

        return run

    def check(self, values, fail: Failures):
        enumerate_ = self.lib.enumeration.enumerate_minimal_rhs
        self.replay_pairs = []
        for label, h, brute in self.inputs:
            pairs = []
            st = enumerate_(h, sink=pairs.append)
            masks = [_masks(p) for p in pairs]
            members = h.edge_members
            self.replay_pairs.extend((h, p) for p in pairs[:2000])
            fail.expect(values.get(label) == (len(pairs), sum(checks.pair_weight(*m) for m in masks)),
                        f"{label}: timed rounds and the check run disagree")
            fail.expect(len(set(masks)) == len(masks), f"{label}: a pair was emitted twice")
            fail.expect(st.emitted == len(pairs), f"{label}: emitted counter differs from the pairs")
            bound = 2 * (h.n_vertices + h.n_edges) + 2
            fail.expect(st.max_gap <= bound, f"{label}: max_gap {st.max_gap} over the delay bound {bound}")
            if label.startswith("tight"):
                k = h.n_edges
                fail.expect(len(pairs) == 3**k, f"{label}: {len(pairs)} pairs, expected 3^{k}")
            if brute:
                fail.expect(set(masks) == checks.brute_minimal_pairs(h.n_vertices, members),
                            f"{label}: emitted set differs from the brute-force set")
            else:
                bad = [m for m in masks if not checks.is_minimal_rhs(members, *m)]
                fail.expect(not bad, f"{label}: {len(bad)} emitted pairs are not minimal")
        for label, h in (("deep_first_pairs", self.deep), ("deep400_first_pairs", self.broken)):
            if label not in values:
                continue  # the operation failed; counted, not checked
            pairs = []

            def sink(pair, pairs=pairs):
                pairs.append(_masks(pair))
                if len(pairs) >= self.FIRST_PAIRS:
                    raise _Enough

            try:
                enumerate_(h, sink=sink)
            except _Enough:
                pass
            fail.expect(values[label] == (len(pairs), sum(checks.pair_weight(*m) for m in pairs)),
                        f"{label}: timed rounds and the check run disagree")
            fail.expect(len(pairs) == self.FIRST_PAIRS and len(set(pairs)) == len(pairs),
                        f"{label}: expected {self.FIRST_PAIRS} distinct pairs")
            sample = random.Random(self.check_seed).sample(pairs, 8)
            fail.expect(all(checks.is_minimal_rhs(h.edge_members, *m) for m in sample),
                        f"{label}: a sampled pair is not minimal")


# ---------------------------------------------------------------------------
# solve


class SolveWorkload:
    """Answers optimisation, listing, decision and extension queries."""

    name = "solve"
    children_rss = False

    PATH = 200
    EXT_RHS_QUERIES = 100
    EXT_RHF_QUERIES = 8
    # (vertices, edges, generator seed, weight cap); the first is brute-forced
    GRAPHS = ((12, 18, 21, 9), (18, 26, 24, 16), (22, 31, 22, 18))

    def setup(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)
        self.texts = []

        def hyper(*args, **kw):
            text, hf = _instance(lib, rng, *args, **kw)
            self.texts.append(text)
            return hf

        def fixed(nv, ne, density, gseed, with_tau=False):
            # searches with node counters run on instances the seed leaves
            # alone: relabelling moved their node counts by a factor of two
            hf = lib.enumeration.gen_random(nv, ne, density, gseed, with_tau=with_tau)
            text, hf = _text_round_trip(lib, hf)
            self.texts.append(text)
            return hf

        self.big = fixed(34, 68, 0.1, 3).hypergraph
        self.small = fixed(13, 20, 0.25, 8).hypergraph
        text, hf = _path(lib, self.PATH, rng)
        self.texts.append(text)
        self.path = hf.hypergraph
        self.rhf_small = fixed(9, 12, 0.3, 9, with_tau=True)
        self.rhf_big = fixed(20, 30, 0.15, 10, with_tau=True)
        self.graphs = []
        for nv, ne, gseed, cap in self.GRAPHS:
            text, gf = _random_graph_text(lib, nv, ne, gseed, random.Random(0))
            self.texts.append(text)
            self.graphs.append((gf.graph, cap))
        self.ext_hf = fixed(8, 10, 0.3, 11, with_tau=True)
        draw = random.Random(11)
        self.ext_fs = [
            tuple(draw.choice((0, 0, 0, 1, 2)) for _ in range(self.ext_hf.hypergraph.n_vertices))
            for _ in range(self.EXT_RHF_QUERIES)
        ]
        # short queries that all answer yes: a vertex that hits something,
        # and edges it misses; the latency median sits among them
        self.pre_h = hyper(60, 120, 0.08, 12).hypergraph
        hitting = [x for x in range(self.pre_h.n_vertices) if self.pre_h.incidence_mask(x)]
        self.presets = []
        for _ in range(self.EXT_RHS_QUERIES):
            x = rng.choice(hitting)
            missed = [i for i in range(self.pre_h.n_edges) if not (self.pre_h.edge_members[i] >> x) & 1]
            r1 = frozenset(i for i in missed if rng.random() < 0.15)
            self.presets.append(lib.core.RhsPair(r1, frozenset((x,))))
        self.rhf_instances = [self.rhf_small, self.rhf_big]
        for hf in (self.rhf_small, self.rhf_big, self.ext_hf):
            if not all(hf.hypergraph.edge_members):
                raise ValueError("hitting-function instances need non-empty edges")

    def rhf_candidates(self):
        return sweep_candidates(self.ext_hf.hypergraph, self.ext_hf.tau, self.ext_fs)

    def ops(self, wrap=_no_trace):
        opt, ext = self.lib.optimize, self.lib.extend
        exact = wrap("optimize.exact_min_rhs", opt.exact_min_rhs)
        exact_rhf = wrap("optimize.exact_min_rhf", opt.exact_min_rhf)
        greedy = wrap("optimize.greedy_rhs", opt.greedy_rhs)
        rvc_enum = wrap("optimize.rvc_enumerate", opt.rvc_enumerate)
        rvc_decide = wrap("optimize.rvc_decide", opt.rvc_decide)
        sweep = wrap("extend.general_sweep", ext.ext_rhf_general)
        witness = wrap("extend.general_witness", ext.ext_rhf_general)
        ext_rhs = wrap("extend.ext_rhs", ext.ext_rhs)
        ops = []

        def solved(fn, *args):
            def run():
                res = fn(*args)
                return Outcome(1, res.nodes, value=(res.weight, res.witness))
            return run

        for label, h in (("exact_big", self.big), ("exact_small", self.small), ("exact_path", self.path)):
            ops.append(Op(label, solved(exact, h)))
        for label, hf in (("exact_rhf_small", self.rhf_small), ("exact_rhf_big", self.rhf_big)):
            ops.append(Op(label, solved(exact_rhf, hf.hypergraph, hf.tau)))
        for label, h in (("greedy_path", self.path), ("greedy_big", self.big)):
            ops.append(Op(label, lambda h=h: Outcome(1, value=greedy(h))))
        for k, (g, cap) in enumerate(self.graphs):
            def listing(g=g, cap=cap):
                pairs = []
                st = rvc_enum(g, cap, sink=pairs.append)
                return Outcome(1, st.nodes, st.max_gap, tuple(_masks(p) for p in pairs), stats=[st])
            ops.append(Op(f"rvc_enumerate{k}", listing))
            for b in (cap - 6, cap - 4):
                ops.append(Op(f"rvc_decide{k}_k{b}", lambda g=g, b=b: Outcome(1, value=rvc_decide(g, b))))
        h, tau = self.ext_hf.hypergraph, self.ext_hf.tau
        for q, f in enumerate(self.ext_fs):
            ops.append(Op(f"ext_sweep{q}", lambda f=f: Outcome(1, value=sweep(h, tau, f, strategy="sweep"))))
            ops.append(Op(f"ext_witness{q}", lambda f=f: Outcome(1, value=witness(h, tau, f, strategy="witness"))))
        for q, u in enumerate(self.presets):
            ops.append(Op(f"ext_rhs{q}", lambda u=u: Outcome(1, value=ext_rhs(self.pre_h, u))))
        return ops

    def check(self, values, fail: Failures):
        self.replay_pairs = []
        greedy_w = {}
        for label, h in (("greedy_path", self.path), ("greedy_big", self.big)):
            pair, w = values[label]
            m = _masks(pair)
            greedy_w[label] = w
            fail.expect(checks.is_rhs(h.edge_members, *m) and checks.pair_weight(*m) == w,
                        f"{label}: greedy pair invalid or weight wrong")
        optimum = {}
        for label, h in (("exact_big", self.big), ("exact_small", self.small), ("exact_path", self.path)):
            w, pair = values[label]
            m = _masks(pair)
            optimum[label] = w
            self.replay_pairs.append((h, pair))
            fail.expect(checks.is_rhs(h.edge_members, *m) and checks.pair_weight(*m) == w,
                        f"{label}: witness invalid or weight wrong")
        fail.expect(optimum["exact_small"] == checks.brute_min_rhs(self.small.n_vertices, self.small.edge_members),
                    "exact_small: optimum differs from brute force")
        # on a path every R2 vertex covers at most two edges at cost 2
        fail.expect(optimum["exact_path"] == self.path.n_edges, "exact_path: optimum is not |I|")
        self.greedy_over_exact = sum(greedy_w.values()) / (optimum["exact_path"] + optimum["exact_big"])
        for label, ex in (("greedy_path", "exact_path"), ("greedy_big", "exact_big")):
            h = self.path if ex == "exact_path" else self.big
            fail.expect(optimum[ex] <= greedy_w[label] <= checks.greedy_ratio_bound(h.n_edges) * optimum[ex],
                        f"{label}: greedy weight outside [optimum, 2(ln|I|+1) optimum]")
        for label, hf in (("exact_rhf_small", self.rhf_small), ("exact_rhf_big", self.rhf_big)):
            w, f = values[label]
            h = hf.hypergraph
            fail.expect(checks.is_rhf(h.edge_members, hf.tau.mapping, f) and sum(f) == w,
                        f"{label}: witness invalid or weight wrong")
            if label == "exact_rhf_small":
                fail.expect(w == checks.brute_min_rhf(h.n_vertices, h.edge_members, hf.tau.mapping),
                            f"{label}: optimum differs from brute force")
            else:
                _, gw = self.lib.optimize.greedy_rhf(h, hf.tau)
                fail.expect(w <= gw, f"{label}: optimum above the greedy weight")
        for k, (g, cap) in enumerate(self.graphs):
            listed = values[f"rvc_enumerate{k}"]
            members = _edge_members(g)
            fail.expect(len(set(listed)) == len(listed), f"rvc_enumerate{k}: a pair was listed twice")
            fail.expect(all(checks.pair_weight(*m) <= cap and checks.is_minimal_rhs(members, *m) for m in listed),
                        f"rvc_enumerate{k}: a listed pair is too heavy or not minimal")
            if k == 0:
                brute = {m for m in checks.brute_minimal_pairs(g.n_vertices, members) if checks.pair_weight(*m) <= cap}
                fail.expect(set(listed) == brute, f"rvc_enumerate{k}: listed set differs from brute force")
            for b in (cap - 6, cap - 4):
                expected = any(checks.pair_weight(*m) <= b for m in listed)
                fail.expect(values[f"rvc_decide{k}_k{b}"] == expected,
                            f"rvc_decide{k}_k{b}: decision disagrees with the listed pairs")
        h, tau = self.ext_hf.hypergraph, self.ext_hf.tau
        for q, f in enumerate(self.ext_fs):
            a, b = values[f"ext_sweep{q}"], values[f"ext_witness{q}"]
            fail.expect(a.decision == b.decision, f"ext{q}: sweep and witness strategies disagree")
            for ans in (a, b):
                if ans.decision:
                    fail.expect(all(x <= y for x, y in zip(f, ans.witness))
                                and checks.is_minimal_rhf(h.edge_members, tau.mapping, ans.witness),
                                f"ext{q}: witness not above f or not minimal")
            if not a.decision:
                fail.expect(not _some_minimal_rhf_above(h, tau.mapping, f),
                            f"ext{q}: answered no, but brute force finds a minimal rhf above f")
        members = self.pre_h.edge_members
        for q, u in enumerate(self.presets):
            # R2 = {x} and R1 = every edge x misses is minimal and lies above
            # the preset, so the answer must be yes
            ans = values[f"ext_rhs{q}"]
            u1, u2 = _masks(u)
            fail.expect(ans.decision, f"ext_rhs{q}: answered no, but a minimal pair lies above the preset")
            if ans.decision:
                m = _masks(ans.witness)
                fail.expect(checks.is_minimal_rhs(members, *m) and m[0] & u1 == u1 and m[1] & u2 == u2,
                            f"ext_rhs{q}: witness not minimal or not above the preset")
                self.replay_pairs.append((self.pre_h, ans.witness))


def _some_minimal_rhf_above(h, tau, f):
    ranges = [range(v, 3) for v in f]
    return any(checks.is_minimal_rhf(h.edge_members, tau, g) for g in itertools.product(*ranges))


def sweep_candidates(h, tau, fs, per_query=300):
    """The first assignments the general sweep tests above each f."""
    out = []
    for f in fs:
        ranges = [range(v, 3) for v in f]
        out.extend((h, tau, g) for g in itertools.islice(itertools.product(*ranges), per_query))
    return out


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliCall:
    label: str
    argv: list
    head: bool = False  # the reader closes the pipe after the first line


class CliWorkload:
    """One-at-a-time `python -m romanhs.cli` child processes."""

    name = "cli"
    children_rss = True

    def setup(self, lib, seed, workdir):
        self.lib = lib
        rng = random.Random(seed)
        self.texts = []
        self.files = {}

        def write(name, text):
            path = os.path.join(workdir, name)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            if not name.endswith(".sol"):
                self.texts.append(text)
            self.files[name] = path
            return path

        core = lib.core
        for k in (8, 10):
            text, _ = _text_round_trip(lib, _plain_hf(lib, lib.enumeration.gen_tight(k)))
            write(f"t{k}.hg", text)
        self.hf = {}
        for name, args in (("wide.hg", (14, 9, 0.3, 1)), ("tall.hg", (12, 22, 0.2, 4))):
            text, self.hf[name] = _instance(lib, rng, *args)
            write(name, text)
        # the exact solvers' node counts stay seed-free, as in solve
        for name, args, tau in (("opt.hg", (16, 30, 0.15, 13), False), ("tau.hg", (9, 12, 0.3, 9), True)):
            text, self.hf[name] = _text_round_trip(lib, lib.enumeration.gen_random(*args, with_tau=tau))
            write(name, text)
        # an extension query: the tau instance with a seeded assignment
        base = self.hf["tau.hg"]
        f = tuple(rng.choice((0, 0, 0, 1, 2)) for _ in range(base.hypergraph.n_vertices))
        text, self.hf["ext.hg"] = _text_round_trip(
            lib, core.HypergraphFile(base.hypergraph, base.tau, f, base.preset))
        write("ext.hg", text)
        # an rhs extension query and a pair to check, on the wide instance
        wide = self.hf["wide.hg"].hypergraph
        pre = core.RhsPair(frozenset(), frozenset(rng.sample(range(wide.n_vertices), 2)))
        text, self.hf["pre.hg"] = _text_round_trip(lib, core.HypergraphFile(wide, None, (0,) * wide.n_vertices, pre))
        write("pre.hg", text)
        r2 = rng.sample(range(wide.n_vertices), 3)
        self.check_pair = (checks.unhit_edges(wide.edge_members, sum(1 << x for x in r2)), sum(1 << x for x in r2))
        pair_opt = "R1={};R2={}".format(
            ",".join(wide.edge_tokens[i] for i in bits(self.check_pair[0])),
            ",".join(wide.vertex_tokens[x] for x in bits(self.check_pair[1])),
        )
        # a target solution for reduce --map-solution: every vertex at 2
        tau_h = self.hf["tau.hg"].hypergraph
        write("all2.sol", "preset2 " + " ".join(tau_h.vertex_tokens) + "\n")
        text, gf = _random_graph_text(lib, 12, 18, 21, random.Random(0))
        write("rvc.g", text)
        self.graph = gf.graph
        self.gen_seed = rng.randrange(1 << 16)
        self.gen_random = lib.core.serialize_hypergraph_file(
            lib.enumeration.gen_random(14, 9, 0.3, self.gen_seed, with_tau=True))
        self.gen_tight = lib.core.serialize_hypergraph_file(_plain_hf(lib, lib.enumeration.gen_tight(6)))
        self.rvc_k = 9
        F = self.files
        self.calls = [
            CliCall("enum_t8", ["enum-rhs", F["t8.hg"]]),
            CliCall("enum_t8_json", ["enum-rhs", F["t8.hg"], "--json"]),
            CliCall("enum_wide", ["enum-rhs", F["wide.hg"]]),
            CliCall("enum_tall_json", ["enum-rhs", F["tall.hg"], "--json"]),
            # fails today: a closed pipe ends the process with a traceback
            CliCall("enum_t10_head", ["enum-rhs", F["t10.hg"]], head=True),
            CliCall("min_rhs_exact", ["min-rhs", F["opt.hg"], "--method", "exact"]),
            CliCall("min_rhs_greedy", ["min-rhs", F["opt.hg"], "--method", "greedy", "--json"]),
            CliCall("min_rhf_exact", ["min-rhf", F["tau.hg"], "--method", "exact"]),
            CliCall("min_rhf_greedy", ["min-rhf", F["tau.hg"], "--method", "greedy"]),
            CliCall("check_min_rhs", ["check", "min-rhs", F["pre.hg"], "--pair", pair_opt]),
            CliCall("check_witness", ["check", "witness", F["pre.hg"], "--pair", pair_opt]),
            CliCall("ext_rhs", ["ext-rhs", F["pre.hg"]]),
            CliCall("ext_rhf_witness", ["ext-rhf", F["ext.hg"], "--general", "--strategy", "witness"]),
            CliCall("reduce_rhf_to_rhs", ["reduce", "rhf-to-rhs", F["tau.hg"], os.path.join(workdir, "twinned.hg"),
                                          "--map-solution", F["all2.sol"]]),
            CliCall("rvc_decide", ["rvc", "decide", F["rvc.g"], "-k", str(self.rvc_k)]),
            CliCall("gen_tight", ["gen", "tight", "6"]),
            CliCall("gen_random", ["gen", "random", "14", "9", "0.3", "--seed", str(self.gen_seed), "--with-tau"]),
        ]
        self.env = cli_env()
        self.rhf_instances = [self.hf["tau.hg"]]

    def ops(self, wrap=_no_trace):
        return [Op(c.label, wrap("cli.process", self._process(c))) for c in self.calls]

    def _process(self, call):
        argv = [sys.executable, "-m", "romanhs.cli", *call.argv]

        def run():
            if call.head:
                with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env) as p:
                    try:
                        first = p.stdout.readline()
                        p.stdout.close()
                        err = p.stderr.read()
                        code = p.wait(timeout=120)
                    except BaseException:
                        p.kill()
                        raise
                out = first
            else:
                p = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, timeout=120)
                code, out, err = p.returncode, p.stdout, p.stderr
            if code != 0:
                raise RuntimeError(f"{call.label} exited {code}: {err.decode(errors='replace')[-200:]}")
            counters = _stderr_counters(err.decode())
            return Outcome(1, counters.get("nodes", 0), counters.get("max_gap", 0),
                           (out.decode(), counters), stdout_bytes=len(out))

        return run

    def check(self, values, fail: Failures):
        lib = self.lib
        self.replay_pairs = []
        out = {k: v[0] for k, v in values.items()}
        stat = {k: v[1] for k, v in values.items()}

        def ids(h):
            return ({t: i for i, t in enumerate(h.vertex_tokens)}, {t: i for i, t in enumerate(h.edge_tokens)})

        def pairs_of(label, h):
            vids, eids = ids(h)
            try:
                return [checks.parse_pair_line(line, vids, eids) for line in out[label].splitlines()]
            except (ValueError, KeyError) as exc:
                fail.expect(False, f"{label}: unreadable output ({exc})")
                return []

        t8 = lib.enumeration.gen_tight(8)
        for label in ("enum_t8", "enum_t8_json"):
            ps = pairs_of(label, t8)
            fail.expect(len(ps) == 3**8 == len(set(ps)), f"{label}: expected 3^8 distinct lines")
            fail.expect(all(checks.is_minimal_rhs(t8.edge_members, *m) for m in ps), f"{label}: a pair is not minimal")
            fail.expect(stat[label].get("emitted") == len(ps), f"{label}: emitted= disagrees with the lines")
        for label, name in (("enum_wide", "wide.hg"), ("enum_tall_json", "tall.hg")):
            h = self.hf[name].hypergraph
            ps = pairs_of(label, h)
            inproc = []
            lib.enumeration.enumerate_minimal_rhs(h, sink=inproc.append)
            self.replay_pairs.extend((h, p) for p in inproc)
            fail.expect(len(ps) == len(inproc), f"{label}: line count differs from the in-process count")
            fail.expect(set(ps) == checks.brute_minimal_pairs(h.n_vertices, h.edge_members),
                        f"{label}: printed set differs from brute force")
        if "enum_t10_head" in out:
            t10 = lib.enumeration.gen_tight(10)
            ps = pairs_of("enum_t10_head", t10)
            fail.expect(len(ps) == 1 and checks.is_minimal_rhs(t10.edge_members, *ps[0]),
                        "enum_t10_head: first line is not a minimal pair")
        opt = self.hf["opt.hg"].hypergraph
        (ex,), (gr,) = pairs_of("min_rhs_exact", opt), pairs_of("min_rhs_greedy", opt)
        best = checks.brute_min_rhs(opt.n_vertices, opt.edge_members)
        fail.expect(checks.is_rhs(opt.edge_members, *ex) and checks.pair_weight(*ex) == best,
                    "min_rhs_exact: not a valid pair of minimum weight")
        fail.expect(checks.is_rhs(opt.edge_members, *gr)
                    and best <= checks.pair_weight(*gr) <= checks.greedy_ratio_bound(opt.n_edges) * best,
                    "min_rhs_greedy: invalid, or outside the greedy ratio")
        tau_hf = self.hf["tau.hg"]
        th, tau = tau_hf.hypergraph, tau_hf.tau.mapping
        vids, _ = ids(th)

        def assignment(label):
            lines = out[label].splitlines()
            try:
                return checks.parse_assignment_line(lines[-1], vids)
            except (ValueError, KeyError, IndexError) as exc:
                fail.expect(False, f"{label}: unreadable output ({exc})")
                return (0,) * th.n_vertices

        f_ex, f_gr = assignment("min_rhf_exact"), assignment("min_rhf_greedy")
        best = checks.brute_min_rhf(th.n_vertices, th.edge_members, tau)
        fail.expect(checks.is_rhf(th.edge_members, tau, f_ex) and sum(f_ex) == best,
                    "min_rhf_exact: not a valid assignment of minimum weight")
        fail.expect(checks.is_rhf(th.edge_members, tau, f_gr) and sum(f_gr) >= best,
                    "min_rhf_greedy: invalid or below the optimum")
        wide = self.hf["pre.hg"].hypergraph
        minimal = checks.is_minimal_rhs(wide.edge_members, *self.check_pair)
        fail.expect(out["check_min_rhs"].strip() == f"minimal: {str(minimal).lower()}",
                    "check_min_rhs: answer differs from the definition")
        valid = checks.is_rhs(wide.edge_members, *self.check_pair)
        fail.expect(out["check_witness"].strip() == f"valid: {str(valid).lower()}",
                    "check_witness: answer differs from the definition")
        pre = self.hf["pre.hg"].preset
        u2 = sum(1 << x for x in pre.r2)
        above = [m for m in checks.brute_minimal_pairs(wide.n_vertices, wide.edge_members) if m[1] & u2 == u2]
        lines = out["ext_rhs"].splitlines()
        fail.expect(bool(lines) and lines[0] == ("yes" if above else "no"), "ext_rhs: decision differs from brute force")
        if above and len(lines) == 2:
            m = checks.parse_pair_line(lines[1], *ids(wide))
            fail.expect(m in above, "ext_rhs: witness not minimal or not above the preset")
        ext = self.hf["ext.hg"]
        lines = out["ext_rhf_witness"].splitlines()
        exists = _some_minimal_rhf_above(th, tau, ext.assignment)
        fail.expect(bool(lines) and lines[0] == ("yes" if exists else "no"),
                    "ext_rhf_witness: decision differs from brute force")
        if exists and len(lines) == 2:
            g = checks.parse_assignment_line(lines[1], vids)
            fail.expect(all(a <= b for a, b in zip(ext.assignment, g)) and checks.is_minimal_rhf(th.edge_members, tau, g),
                        "ext_rhf_witness: witness not above f or not minimal")
        lines = out["reduce_rhf_to_rhs"].splitlines()
        fail.expect(len(lines) == 2 and lines[0] == "offset=0", "reduce_rhf_to_rhs: expected offset=0 and a mapped solution")
        if len(lines) == 2:
            g = checks.parse_assignment_line(lines[1], vids)
            fail.expect(checks.is_rhf(th.edge_members, tau, g) and sum(g) <= 2 * th.n_vertices,
                        "reduce_rhf_to_rhs: mapped assignment invalid or heavier than the pair")
        members = _edge_members(self.graph)
        lightest = min(checks.pair_weight(*m) for m in checks.brute_minimal_pairs(self.graph.n_vertices, members))
        fail.expect(out["rvc_decide"].strip() == ("yes" if lightest <= self.rvc_k else "no"),
                    "rvc_decide: decision differs from brute force")
        fail.expect(out["gen_tight"] == self.gen_tight, "gen_tight: output differs from the library generator")
        fail.expect(out["gen_random"] == self.gen_random, "gen_random: output differs from the library generator")

    def rhf_candidates(self):
        ext = self.hf["ext.hg"]
        return sweep_candidates(ext.hypergraph, ext.tau, [ext.assignment])

    def main_inprocess(self, wrap):
        """Runs romanhs.cli.main on every argv of the round, stdout to a buffer."""
        main = wrap("cli.main_inprocess", self.lib.cli.main)
        for call in self.calls:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                main(call.argv)


def cli_env():
    """The environment of a child that imports romanhs from ./src."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return dict(os.environ, PYTHONPATH=src)


def _stderr_counters(text):
    out = {}
    for line in text.splitlines():
        key, sep, val = line.partition("=")
        if sep and val.isdigit():
            out[key] = out.get(key, 0) + int(val) if key != "max_gap" else max(out.get(key, 0), int(val))
    return out


WORKLOADS = {w.name: w for w in (EnumerateWorkload, SolveWorkload, CliWorkload)}
