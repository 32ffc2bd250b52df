"""Layered benchmark for romanhs.

    python3 bench/run.py --workload {enumerate,solve,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src. The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics listed in BENCHMARK.json, with --trace 1 the per-layer
ones. See bench/README.md for the workloads and how the figures are taken.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_ROUNDS = 3
TRACED_ROUNDS = 3  # an enumerate round records about 100k spans
LATENCY_SAMPLES = 100  # p90 needs ten samples beyond it
LIBRARY = ("core", "characterize", "enumeration", "optimize", "reduce", "extend", "cli")

# Host-speed probe: the benchmark's own definition-level checker on a fixed
# 6-vertex hypergraph, pure Python like the library and blind to its changes.
PROBE_MEMBERS = (0b000111, 0b011100, 0b110001, 0b101010, 0b010101, 0b100110)
PROBE_NOMINAL = 0.42e-3  # the probe's time on the reference host in its usual state
PROBE_EVERY = 0.02  # seconds of work between probes


def host_probe():
    t0 = time.perf_counter()
    checks.brute_minimal_pairs(6, PROBE_MEMBERS)
    return time.perf_counter() - t0


def scale(took, before, after):
    """A timing scaled to the reference host speed, given the probes around it."""
    return took * 2 * PROBE_NOMINAL / (before + after)


class Scaler:
    """Times work in batches of at least PROBE_EVERY seconds, each between
    two probes, and scales every timing of a batch by the probes around it.

    This host moves between a slow state and one about 1.5 times faster,
    for a second or for a whole run at a time, and the library's code and
    the probe slow down alike.
    """

    def __init__(self):
        self.probes = [host_probe()]
        self.since = time.perf_counter()
        self.pending = []

    def add(self, name, took, out, last=False):
        """Queue one timing; returns the batch scaled once a probe closes it."""
        self.pending.append((name, took, out))
        if not last and time.perf_counter() - self.since < PROBE_EVERY:
            return []
        self.probes.append(host_probe())
        before, after = self.probes[-2:]
        done = [(name, took, scale(took, before, after), out) for name, took, out in self.pending]
        self.pending = []
        self.since = time.perf_counter()
        return done


class Library:
    """The romanhs modules, imported afresh."""

    def __init__(self):
        for name in [m for m in sys.modules if m == "romanhs" or m.startswith("romanhs.")]:
            del sys.modules[name]
        for name in LIBRARY:
            setattr(self, name, importlib.import_module(f"romanhs.{name}"))


class Measurement:
    """Whole rounds of one workload's operations, timed one by one.

    Times are scaled (see Scaler) and reported as medians over the run's
    rounds, which stay with the prevailing host state where a minimum
    would follow whichever state one repetition landed in.
    """

    def __init__(self, ops):
        self.names = [op.name for op in ops]
        self.rounds = 0
        self.failed_per_round = 0
        self.errors = {}
        self.first_outcomes = {}
        self.round_keys = []
        self.times = {name: [] for name in self.names}
        self.raw_times = {name: [] for name in self.names}
        self.probes = []
        self.round_latencies = []  # (p50, p90) of every round with enough results
        self.few_latencies = []  # pooled over the run where rounds yield too few

    def record_round(self, timed, probes):
        self.probes.extend(probes)
        key = []
        failed = 0
        lat = []
        for name, raw, took, out in timed:
            self.raw_times[name].append(raw)
            self.times[name].append(took)
            if out is None:
                failed += 1
                key.append((name, None))
                continue
            self.first_outcomes.setdefault(name, out)
            key.append((name, out.results, out.nodes, out.max_gap, _digest(out.value)))
            if out.stamps:
                factor = took / raw
                lat.extend((b - a) * factor for a, b in zip(out.stamps, out.stamps[1:]))
            else:
                lat.extend([took] * out.results)
        if len(lat) >= LATENCY_SAMPLES:
            self.round_latencies.append(_percentiles(lat))
        else:
            self.few_latencies.extend(lat)
        self.round_keys.append(tuple(key))
        self.failed_per_round = failed
        self.rounds += 1

    @property
    def steady(self):
        return all(k == self.round_keys[0] for k in self.round_keys)

    def op_time(self, name):
        return statistics.median(self.times[name])

    @property
    def wall_s(self):
        """One round's work, each operation at its median time."""
        return sum(self.op_time(name) for name in self.names)

    @property
    def raw_wall_s(self):
        return sum(statistics.median(self.raw_times[name]) for name in self.names)

    def latency(self):
        """(p50, p90) between consecutive results: the median over rounds
        of each round's percentiles, or pooled over the run where a round
        yields fewer than LATENCY_SAMPLES results."""
        if self.round_latencies:
            return tuple(statistics.median(r[i] for r in self.round_latencies) for i in (0, 1))
        return _percentiles(self.few_latencies)

    @property
    def results_per_round(self):
        return sum(out.results for out in self.first_outcomes.values())


def _digest(value):
    return hashlib.sha1(repr(value).encode()).hexdigest()


def _percentiles(samples):
    return statistics.median(samples), statistics.quantiles(samples, n=10)[8]


def run_rounds(ops, seconds, before_round, tracer=None, min_rounds=MIN_ROUNDS):
    """Whole rounds until the next one would end after `seconds`."""
    meas = Measurement(ops)
    start = time.perf_counter()
    last = 0.0
    while meas.rounds < min_rounds or time.perf_counter() - start + last <= seconds:
        before_round()
        round_start = time.perf_counter()
        scaler = Scaler()
        timed = []
        for k, op in enumerate(ops):
            if tracer is not None:
                tracer.round, tracer.op = meas.rounds, op.name
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # counted as a failed operation
                out = None
                meas.errors.setdefault(op.name, f"{type(exc).__name__}: {str(exc)[:160]}")
            timed.extend(scaler.add(op.name, time.perf_counter() - t0, out, last=k == len(ops) - 1))
        meas.record_round(timed, scaler.probes)
        last = time.perf_counter() - round_start
    return meas


def peak_rss_mb(children):
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def end_to_end(meas, setup_times, rss_mb):
    p50, p90 = meas.latency()
    firsts = meas.first_outcomes.values()
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": meas.wall_s,
        "results_per_s": meas.results_per_round / meas.wall_s,
        "latency_p50_us": p50 * 1e6,
        "latency_p90_us": p90 * 1e6,
        "peak_rss_mb": rss_mb,
        "search_nodes": sum(o.nodes for o in firsts),
        "max_gap_nodes": max(o.max_gap for o in firsts),
    }


def main(argv=None):
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "romanhs" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: run from a checkout that holds src/romanhs and BENCHMARK.json ({ROOT})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    spec = json.loads(spec_path.read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    setup_times = []

    def set_up():
        # repeated before every round, so that set-up is sampled across the
        # run like the operations are, not in one short burst at its start
        before = host_probe()
        t0 = time.perf_counter()
        work = workloads.WORKLOADS[args.workload]()
        work.setup(Library(), args.seed, str(workdir))
        setup_times.append(scale(time.perf_counter() - t0, before, host_probe()))
        gc.collect()  # the set-ups thrown away should not decide the peak RSS
        return work

    try:
        work = set_up()
        lib = work.lib
        tracer = None
        if args.trace:
            plain = run_rounds(work.ops(), args.seconds / 2, set_up)
            tracer = layers.Tracer()
            meas = run_rounds(work.ops(tracer.wrap), 0, set_up, tracer, min_rounds=TRACED_ROUNDS)
        else:
            meas = plain = run_rounds(work.ops(), args.seconds, set_up)
        rss_mb = peak_rss_mb(work.children_rss)

        fail = checks.Failures()
        for m in (plain, meas):
            fail.expect(m.steady, "a round's results or counters differ from the first round's")
        for name, err in meas.errors.items():
            print(f"failed operation {name}: {err}", file=sys.stderr)
        work.check({n: o.value for n, o in plain.first_outcomes.items()}, fail)
        for message in fail.messages:
            print(f"check failed: {message}", file=sys.stderr)

        if args.trace:
            values = layers.layer_metrics(lib, work, tracer, meas, plain)
            wanted = spec["per_layer"]
        else:
            values = end_to_end(meas, setup_times, rss_mb)
            wanted = spec["end_to_end"]
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        result = {
            "correct": not fail.messages,
            "attempted": len(meas.names) * meas.rounds,
            "failed": meas.failed_per_round * meas.rounds,
            "metrics": metrics,
        }
        OUT.mkdir(exist_ok=True)
        tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
        if tracer is not None:
            (OUT / f"spans_{tag}.json").write_text(json.dumps(tracer.spans))
        (OUT / f"result_{tag}.json").write_text(json.dumps(result, indent=1))
        print(f"rounds={meas.rounds} set-ups={len(setup_times)} unscaled wall_s={meas.raw_wall_s:.4f} "
              f"median probe={statistics.median(meas.probes) * 1e3:.4f} ms", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
