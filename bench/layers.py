"""Tracing and per-layer metrics for the traced run.

Spans are recorded from the benchmark's side of each call into a layer:
name, start, end, parent span, the round and the operation that made the
call. They stay in memory and are written out when the run ends. Metrics
that no span can reach from outside are measured by replaying captured
inputs through the layer's public function.
"""

from __future__ import annotations

import functools
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import workloads

RULES = ("RR1", "RR2", "BR1", "BR2", "BR3", "BR4", "BR5", "BR6", "BR7", "BR8")


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent, round, op]
        self.stack = []
        self.round = 0
        self.op = ""

    def wrap(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.round, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    @functools.cached_property
    def totals(self):
        """{(name, round, op): [summed duration, summed duration of child spans]}, once recording is over"""
        out = defaultdict(lambda: [0.0, 0.0])
        for name, start, end, parent, rnd, op in self.spans:
            out[name, rnd, op][0] += end - start
            if parent >= 0:
                out[self.spans[parent][0], rnd, op][1] += end - start
        return out

    def median(self, name, ops=None, self_time=False):
        """Median over rounds of the named spans' summed (self) time."""
        rounds = defaultdict(float)
        for (name_, rnd, op), (total, child) in self.totals.items():
            if name_ == name and (ops is None or op in ops):
                rounds[rnd] += total - child if self_time else total
        return statistics.median(rounds.values()) if rounds else 0.0


def per_call(fn, items, min_time=0.02, repeats=3):
    """Fastest seconds per item over a few passes that each run min_time."""
    if not items:
        return 0.0
    best = None
    for _ in range(repeats):
        n = 0
        start = time.perf_counter()
        while True:
            for item in items:
                fn(item)
            n += len(items)
            took = time.perf_counter() - start
            if took >= min_time:
                break
        best = took / n if best is None else min(best, took / n)
    return best


def ref_loop_ms():
    """A fixed pure-Python loop that does not touch romanhs."""
    best = None
    for _ in range(5):
        start = time.perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) & 0xFFFF
        took = time.perf_counter() - start
        best = took if best is None else min(best, took)
    return best * 1e3


def interpreter_start_ms(env):
    times = []
    for _ in range(5):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import romanhs.cli"], env=env, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def layer_metrics(lib, workload, tracer, traced, plain):
    """Every per-layer metric; zero where the workload does not use the layer."""
    core, cli = lib.core, lib.cli
    m = defaultdict(float)
    first = traced.first_outcomes

    # core and characterize, replayed over captured inputs
    lines = sum(1 for text in workload.texts for ln in text.splitlines() if ln.split("#", 1)[0].strip())

    def parse(text):
        if text.startswith("vertex"):
            core.parse_graph_text(text)
        else:
            core.parse_hypergraph_text(text)

    m["core.parse_us_per_line"] = per_call(parse, workload.texts) * len(workload.texts) / lines * 1e6
    pairs = workload.replay_pairs
    masks = [(p.r1_mask(), p.r2_mask()) for _, p in pairs]
    if pairs:
        m["core.from_masks_us_per_pair"] = per_call(lambda rm: core.RhsPair.from_masks(*rm), masks) * 1e6
        m["core.is_rhs_us_per_call"] = per_call(lambda hp: core.is_rhs(*hp), pairs) * 1e6
        m["characterize.minimal_rhs_violation_us_per_call"] = (
            per_call(lambda hp: lib.characterize.minimal_rhs_violation(*hp), pairs) * 1e6)
        m["cli.format_pair_us_per_pair"] = per_call(lambda hp: cli.format_pair(*hp), pairs) * 1e6
        m["cli.pair_to_json_us_per_pair"] = per_call(lambda hp: cli.pair_to_json(*hp), pairs) * 1e6
    hypergraphs = list({id(h): h for h, _ in pairs}.values())
    bit_masks = [mk for h in hypergraphs for mk in h.edge_members + tuple(map(h.incidence_mask, range(h.n_vertices)))]
    n_bits = sum(mk.bit_count() for mk in bit_masks)
    if n_bits:
        m["core.bits_ns_per_bit"] = (
            per_call(lambda mk: sum(1 for _ in core.bits(mk)), bit_masks) * len(bit_masks) / n_bits * 1e9)
    rhf = getattr(workload, "rhf_candidates", lambda: [])()
    if rhf:
        m["characterize.is_minimal_rhf_us_per_call"] = (
            per_call(lambda q: lib.characterize.is_minimal_rhf_theorem(*q), rhf) * 1e6)

    # enumeration
    stats = [st for outs in first.values() for st in outs.stats]
    enum_ops = {name for name, outs in first.items() if outs.stats}
    m["enumeration.nodes"] = sum(st.nodes for st in stats)
    m["enumeration.emitted"] = sum(st.emitted for st in stats)
    m["enumeration.max_gap_nodes"] = max((st.max_gap for st in stats), default=0)
    for rule in RULES:
        m[f"enumeration.rule.{rule}"] = sum(st.rule_counts.get(rule, 0) for st in stats)
    for span in ("enumeration.enumerate_minimal_rhs", "optimize.rvc_enumerate"):
        kernel = tracer.median(span, enum_ops, self_time=True)
        if kernel:
            m["enumeration.kernel_s"] = kernel
            m["enumeration.sink_s"] = tracer.median("bench.sink", enum_ops)
            if m["enumeration.nodes"]:
                m["enumeration.us_per_node"] = kernel / m["enumeration.nodes"] * 1e6
    m["enumeration.deep_first_pairs_ms"] = tracer.median("enumeration.enumerate_minimal_rhs", {"deep_first_pairs"}) * 1e3

    # optimize, reduce, extend
    exact_ops = {n for n in first if n.startswith("exact_") and not n.startswith("exact_rhf")}
    m["optimize.exact_rhs_s"] = tracer.median("optimize.exact_min_rhs")
    m["optimize.exact_rhs_nodes"] = sum(first[n].nodes for n in exact_ops)
    if m["optimize.exact_rhs_nodes"]:
        m["optimize.exact_rhs_us_per_node"] = m["optimize.exact_rhs_s"] / m["optimize.exact_rhs_nodes"] * 1e6
    m["optimize.exact_rhf_s"] = tracer.median("optimize.exact_min_rhf")
    for hf in getattr(workload, "rhf_instances", []):
        m["reduce.rhf_to_rhs_s"] += per_call(lambda q: lib.reduce.rhf_to_rhs(*q), [(hf.hypergraph, hf.tau)])
    m["optimize.greedy_rhs_s"] = tracer.median("optimize.greedy_rhs")
    ratio = getattr(workload, "greedy_over_exact", None)
    if ratio:
        m["optimize.greedy_over_exact"] = ratio
    rvc = [st for n, outs in first.items() if n.startswith("rvc_enumerate") for st in outs.stats]
    m["optimize.rvc_enumerate_s"] = tracer.median("optimize.rvc_enumerate")
    m["optimize.rvc_enumerate_nodes"] = sum(st.nodes for st in rvc)
    if m["optimize.rvc_enumerate_nodes"]:
        m["optimize.rvc_enumerate_yield"] = sum(st.emitted for st in rvc) / m["optimize.rvc_enumerate_nodes"]
    m["optimize.rvc_enumerate_max_gap_nodes"] = max((st.max_gap for st in rvc), default=0)
    m["optimize.rvc_decide_s"] = tracer.median("optimize.rvc_decide")
    m["extend.general_sweep_s"] = tracer.median("extend.general_sweep")
    m["extend.general_witness_s"] = tracer.median("extend.general_witness")
    ext_rhs_calls = sum(1 for n in first if n.startswith("ext_rhs"))
    if ext_rhs_calls:
        m["extend.ext_rhs_us_per_call"] = tracer.median("extend.ext_rhs") / ext_rhs_calls * 1e6

    # cli
    m["cli.interpreter_start_ms"] = interpreter_start_ms(workloads.cli_env())
    if hasattr(workload, "main_inprocess"):
        start = time.perf_counter()
        workload.main_inprocess(tracer.wrap)
        m["cli.main_inprocess_s"] = time.perf_counter() - start
        out_bytes = sum(o.stdout_bytes for o in traced.first_outcomes.values())
        busy = sum(traced.op_time(n) for n in traced.first_outcomes)
        m["cli.stdout_mb_per_s"] = out_bytes / busy / 1e6

    m["host.ref_loop_ms"] = ref_loop_ms()
    m["host.probe_ms"] = statistics.median(traced.probes + plain.probes) * 1e3
    m["trace.overhead_s"] = traced.wall_s - plain.wall_s
    return m
