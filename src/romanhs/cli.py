"""Command line front end.

Every subcommand reads instances from the line-oriented file formats in
core and writes solutions to standard output in a fixed grammar, so a
repeated invocation is byte identical:

    pairs        R1={<edge tokens>} R2={<vertex tokens>} w=<int>
    assignments  f: <tok>=<val> ... w=<int>   (zeros omitted)
    vertex sets  <label>={<vertex tokens>} size=<int>

Tokens are listed in ascending dense id order. With --json each solution
becomes one JSON object per line with the same ordering; the library
reads pair and assignment objects back through pair_from_json and
assignment_from_json, while --map-solution files hold assign/preset
lines only. Statistics go to standard error as key=value lines.

Exit codes: 0 when the command completed (decision answers are printed,
not encoded), 1 for usage or input errors, 2 when a guard refused
the computation, 130 when interrupted (Ctrl-C). When the reader of
standard output goes away (``rhs-tool enum-rhs big.hg | head -1``) the
command stops, prints nothing more, not even its statistics, and exits 0.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from functools import partial
from pathlib import Path
from types import ModuleType
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

# the printed solution grammar lives in core; its names stay importable here
from .core import (
    BoundedRdInstance,
    Correspondence,
    Graph,
    GraphFile,
    Hypergraph,
    HypergraphFile,
    RhsPair,
    RomanAssignment,
    assignment_to_json,
    edge_hypergraph,
    format_assignment,
    format_pair,
    format_vertex_set,
    is_rhf,
    is_rhs,
    pair_to_json,
    parse_graph_text,
    parse_hypergraph_text,
    parse_solution_text,
    serialize_graph_file,
    serialize_hypergraph_file,
    set_to_json,
    weight_pair,
)
from .enumeration import (
    EnumerationStats,
    brute_enumerate_minimal_rhf,
    brute_enumerate_minimal_rhs,
    enumerate_minimal_rhs,
    gen_random,
    gen_tight,
)
from .errors import GuardRefused, InputError

# The handlers import characterize, extend, optimize and reduce themselves,
# so a process compiles only the modules its subcommand runs.
if TYPE_CHECKING:
    from .extend import ExtAnswer
    from .reduce import ReductionOutput

EMPTY_PAIR = RhsPair(frozenset(), frozenset())


class _Printer(NamedTuple):
    """One line renderer per solution kind."""

    pair: Callable[[Hypergraph, RhsPair], str]
    assignment: Callable[[Sequence[str], Sequence[int]], str]
    vertex_set: Callable[[Sequence[str], Sequence[int], str], str]


_TEXT = _Printer(format_pair, format_assignment, format_vertex_set)
_JSON = _Printer(
    pair_to_json,
    assignment_to_json,
    lambda tokens, chosen, label: set_to_json(tokens, chosen),
)


# ---------------------------------------------------------------------------
# Option and file handling

_PAIR_OPTION = re.compile(r"R1=(?P<r1>[^;]*);R2=(?P<r2>.*)\Z")


def parse_pair_option(h: Hypergraph, text: str) -> RhsPair:
    m = _PAIR_OPTION.fullmatch(text.strip())
    if m is None:
        raise InputError('pair option must look like "R1=e1,e2;R2=x1"')
    r1 = [t for t in m["r1"].split(",") if t]
    r2 = [t for t in m["r2"].split(",") if t]
    return RhsPair.from_tokens(h, r1, r2)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _hypergraph(path: str) -> HypergraphFile:
    return parse_hypergraph_text(_read_text(path))


def _graph(path: str) -> GraphFile:
    return parse_graph_text(_read_text(path))


def _require_tau(hf: HypergraphFile, what: str) -> Correspondence:
    if hf.tau is None:
        raise InputError(f"{what} needs tau lines in the instance file")
    return hf.tau


def _flush_stdout() -> None:
    # stdout is None in a process started with its descriptor closed
    if sys.stdout is not None:
        sys.stdout.flush()


def _stats(**counters: int) -> None:
    """key=value lines on stderr, once stdout has taken everything before.

    Flushing first means a reader that closed stdout early stops the run
    before any statistics of the cut-short output are printed.
    """
    _flush_stdout()
    for key, value in counters.items():
        print(f"{key}={value}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Subcommand handlers: each takes the parsed options and the printer that
# --json selected, and returns the exit code


def _answer(label: str, ok: bool) -> int:
    print(f"{label}: {str(ok).lower()}")
    return 0


def _cmd_check(args: argparse.Namespace, show: _Printer) -> int:
    from .characterize import (
        is_minimal_rdf_theorem,
        is_minimal_rhf_theorem,
        is_minimal_rhs_theorem,
        is_po_minimal_rdf_theorem,
    )

    if args.kind in ("min-rdf", "po-min-rdf"):
        gf = _graph(args.file)
        if args.kind == "min-rdf":
            return _answer("minimal", is_minimal_rdf_theorem(gf.graph, gf.assignment))
        return _answer("minimal", is_po_minimal_rdf_theorem(gf.graph, gf.assignment))
    hf = _hypergraph(args.file)
    h = hf.hypergraph
    if args.kind == "min-rhf":
        tau = _require_tau(hf, "check min-rhf")
        return _answer("minimal", is_minimal_rhf_theorem(h, tau, hf.assignment))
    pair = hf.preset if args.pair is None else parse_pair_option(h, args.pair)
    if args.kind == "min-rhs":
        return _answer("minimal", is_minimal_rhs_theorem(h, pair))
    # witness: plain validity of whatever solution the input carries
    if args.pair is not None or pair != EMPTY_PAIR:
        return _answer("valid", is_rhs(h, pair))
    if hf.tau is None:
        raise InputError(
            "witness check needs a pair (option or preset lines) "
            "or tau plus assign lines"
        )
    return _answer("valid", is_rhf(h, hf.tau, hf.assignment))


def _decision(ans: ExtAnswer, line: Callable[[Any], str]) -> int:
    """Print yes and the witness line, or no."""
    if ans.decision:
        print("yes")
        print(line(ans.witness))
    else:
        print("no")
    return 0


def _cmd_ext_rhs(args: argparse.Namespace, show: _Printer) -> int:
    from .extend import ext_rhs

    hf = _hypergraph(args.file)
    ans = ext_rhs(hf.hypergraph, hf.preset)
    return _decision(ans, partial(show.pair, hf.hypergraph))


def _cmd_ext_rhf(args: argparse.Namespace, show: _Printer) -> int:
    from .extend import ext_rhf_general, ext_rhf_surjective

    hf = _hypergraph(args.file)
    tau = _require_tau(hf, "ext-rhf")
    if args.general:
        ans = ext_rhf_general(
            hf.hypergraph, tau, hf.assignment, strategy=args.strategy
        )
    else:
        ans = ext_rhf_surjective(hf.hypergraph, tau, hf.assignment)
    return _decision(ans, partial(show.assignment, hf.hypergraph.vertex_tokens))


def _cmd_ext_rd_bounded(args: argparse.Namespace, show: _Printer) -> int:
    from .extend import bounded_ext_rd

    gf = _graph(args.file)
    ans = bounded_ext_rd(BoundedRdInstance.build(gf.graph, gf.assignment, gf.upper))
    return _decision(ans, partial(show.assignment, gf.graph.vertex_tokens))


def _cmd_ext_ds_split(args: argparse.Namespace, show: _Printer) -> int:
    from .extend import ext_ds_split

    gf = _graph(args.file)
    g = gf.graph
    u = [v for v, val in enumerate(gf.assignment) if val]
    ans = ext_ds_split(g, _split(g), u)
    return _decision(ans, lambda dom: show.vertex_set(g.vertex_tokens, dom, "D"))


def _print_enumeration(
    h: Hypergraph,
    show: _Printer,
    run: Callable[[Callable[[RhsPair], None]], EnumerationStats],
) -> int:
    """Stream the pairs a search emits, then its counters."""
    line = show.pair
    stats = run(lambda pair: print(line(h, pair)))
    _stats(emitted=stats.emitted, nodes=stats.nodes, max_gap=stats.max_gap)
    return 0


def _cmd_enum_rhs(args: argparse.Namespace, show: _Printer) -> int:
    h = _hypergraph(args.file).hypergraph
    return _print_enumeration(h, show, partial(enumerate_minimal_rhs, h, args.cap))


def _cmd_min_rhs(args: argparse.Namespace, show: _Printer) -> int:
    from .optimize import exact_min_rhs, greedy_rhs

    h = _hypergraph(args.file).hypergraph
    if args.method == "exact":
        res = exact_min_rhs(h)
        print(show.pair(h, res.witness))
        _stats(nodes=res.nodes)
    elif args.method == "greedy":
        print(show.pair(h, greedy_rhs(h)[0]))
    else:
        pairs = brute_enumerate_minimal_rhs(h)
        best = min(pairs, key=lambda p: (weight_pair(p), sorted(p.r1), sorted(p.r2)))
        print(show.pair(h, best))
        _stats(solutions=len(pairs))
    return 0


def _cmd_min_rhf(args: argparse.Namespace, show: _Printer) -> int:
    from .optimize import exact_min_rhf, greedy_rhf

    hf = _hypergraph(args.file)
    h = hf.hypergraph
    tau = _require_tau(hf, "min-rhf")
    if args.method == "exact":
        res = exact_min_rhf(h, tau)
        print(show.assignment(h.vertex_tokens, res.witness))
        _stats(nodes=res.nodes)
    elif args.method == "greedy":
        print(show.assignment(h.vertex_tokens, greedy_rhf(h, tau)[0]))
    else:
        fs = brute_enumerate_minimal_rhf(h, tau)
        if not fs:
            raise InputError("the instance admits no Roman hitting function")
        print(show.assignment(h.vertex_tokens, min(fs, key=lambda f: (sum(f), f))))
        _stats(solutions=len(fs))
    return 0


def _cmd_rvc(args: argparse.Namespace, show: _Printer) -> int:
    from .optimize import _rvc_decide_counted, rvc_enumerate

    g = _graph(args.file).graph
    if args.mode == "decide":
        ans, nodes = _rvc_decide_counted(g, args.k)
        print("yes" if ans else "no")
        _stats(nodes=nodes)
        return 0
    run = partial(rvc_enumerate, g, args.k)
    return _print_enumeration(edge_hypergraph(g), show, run)


def _cmd_rec(args: argparse.Namespace, show: _Printer) -> int:
    from .optimize import rec_min

    g = _graph(args.file).graph
    witness = rec_min(g).witness
    # R1 names graph vertices and R2 is empty: no derived edge token prints
    assert not witness.r2m
    print(show.pair(Hypergraph((), g.vertex_tokens, (0,) * g.n_vertices), witness))
    return 0


def _cmd_gen(args: argparse.Namespace, show: _Printer) -> int:
    if args.family == "tight":
        print(_instance_text(gen_tight(args.n)), end="")
        return 0
    hf = gen_random(
        args.nv,
        args.ne,
        args.density,
        args.seed,
        with_tau=args.with_tau,
        with_preset=args.with_preset,
    )
    print(serialize_hypergraph_file(hf), end="")
    return 0


def _cmd_oracle(args: argparse.Namespace, show: _Printer) -> int:
    hf = _hypergraph(args.file)
    h = hf.hypergraph
    if args.kind == "rhs":
        found, line = brute_enumerate_minimal_rhs(h), partial(show.pair, h)
    else:
        found = brute_enumerate_minimal_rhf(h, _require_tau(hf, "oracle rhf"))
        line = partial(show.assignment, h.vertex_tokens)
    for sol in found:
        print(line(sol))
    _stats(solutions=len(found))
    return 0


# ---------------------------------------------------------------------------
# Reductions


def _instance_text(instance: Graph | Hypergraph | tuple) -> str:
    """The file of a bare instance: a graph, a hypergraph, or a hypergraph
    with its correspondence."""
    if isinstance(instance, Graph):
        n = instance.n_vertices
        return serialize_graph_file(GraphFile(instance, (0,) * n, (2,) * n))
    h, tau = instance if isinstance(instance, tuple) else (instance, None)
    return serialize_hypergraph_file(
        HypergraphFile(h, tau, (0,) * h.n_vertices, EMPTY_PAIR)
    )


def _read_pair(h: Hypergraph, text: str) -> RhsPair:
    sol = parse_solution_text(text)
    if sol.assign:
        raise InputError("this reduction maps pair solutions, not assign lines")
    return sol.pair(h)


def _read_assignment(space: Hypergraph | Graph, text: str) -> RomanAssignment:
    sol = parse_solution_text(text)
    if sol.preset1 or sol.preset2:
        raise InputError("this reduction maps assignments, not preset lines")
    return sol.assignment(space)


def _reduce() -> ModuleType:
    """The reduce module, which only the reduce and ext-ds-split subcommands run."""
    from . import reduce

    return reduce


def _split(g: Graph) -> tuple[list[int], list[int]]:
    """The split partition that ext-ds-split and reduce ds-split-to-rhs use."""
    return _reduce().split_partition(g)


def _require_k(k: int | None) -> int:
    if k is None:
        raise InputError("reduce rhs-to-rhf needs -k")
    return k


class _Reduction(NamedTuple):
    """One `reduce NAME`: whether the source file is a graph file (else a
    hypergraph file); the builder of the target from the source and -k;
    the reader of a target solution file, which the backward mapper then
    validates; and how the mapped solution prints on the source: "pair",
    "assignment", or the label of a vertex set."""

    graph_source: bool
    build: Callable[[Any, int | None], ReductionOutput]
    read: Callable[[Any, str], Any]
    prints: str


_REDUCTIONS = {
    "rd-to-rhf": _Reduction(
        True,
        lambda gf, k: _reduce().rd_to_rhf(gf.graph),
        lambda target, text: _read_assignment(target[0], text),
        "assignment",
    ),
    "rhf-to-rhs": _Reduction(
        False,
        lambda hf, k: _reduce().rhf_to_rhs(hf.hypergraph, _require_tau(hf, "reduce rhf-to-rhs")),
        _read_pair,
        "assignment",
    ),
    "rhs-to-rhf": _Reduction(
        False,
        lambda hf, k: _reduce().rhs_to_rhf(hf.hypergraph, _require_k(k)),
        lambda target, text: _read_assignment(target[0], text),
        "pair",
    ),
    "rhf-to-rd": _Reduction(
        False,
        lambda hf, k: _reduce().rhf_to_rd_gadget(hf.hypergraph, _require_tau(hf, "reduce rhf-to-rd")),
        _read_assignment,
        "assignment",
    ),
    "vc-to-rvc": _Reduction(
        True,
        lambda gf, k: _reduce().vc_to_rvc(gf.graph),
        lambda g2, text: _read_pair(edge_hypergraph(g2), text),
        "C",
    ),
    "ds-split-to-rhs": _Reduction(
        True,
        lambda gf, k: _reduce().ds_split_to_rhs(gf.graph, _split(gf.graph)),
        _read_pair,
        "D",
    ),
    "two-section": _Reduction(
        False,
        lambda hf, k: _reduce().hrd_to_rd_two_section(hf.hypergraph),
        _read_assignment,
        "assignment",
    ),
}


def _cmd_reduce(args: argparse.Namespace, show: _Printer) -> int:
    red = _REDUCTIONS[args.name]
    sol_text = None if args.map_solution is None else _read_text(args.map_solution)
    src = _graph(args.file) if red.graph_source else _hypergraph(args.file)
    space = src.graph if red.graph_source else src.hypergraph
    ro = red.build(src, args.k)
    mapped = None
    if sol_text is not None:
        sol = ro.backward(red.read(ro.instance, sol_text))
        if red.prints == "pair":
            mapped = show.pair(space, sol)
        elif red.prints == "assignment":
            mapped = show.assignment(space.vertex_tokens, sol)
        else:
            mapped = show.vertex_set(space.vertex_tokens, sol, red.prints)
    _write_text(args.out, _instance_text(ro.instance))
    print(f"offset={ro.offset}")
    if mapped is not None:
        print(mapped)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as input errors (exit 1)."""

    def error(self, message: str) -> None:
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="rhs-tool",
        description="Roman hitting sets, functions, and their relatives.",
    )
    sub = top.add_subparsers(dest="cmd", required=True, parser_class=_Parser)
    with_json = []

    def command(name, func, help, *positionals, json=True):
        """A subcommand; a positional is a name or a (name, choices) pair."""
        p = sub.add_parser(name, help=help)
        for arg in positionals:
            dest, choices = (arg, None) if isinstance(arg, str) else arg
            p.add_argument(dest, choices=choices)
        p.set_defaults(func=func)
        if json:
            with_json.append(p)
        return p

    kinds = ["min-rhs", "min-rhf", "min-rdf", "po-min-rdf", "witness"]
    p = command("check", _cmd_check, "minimality or validity of a solution",
                ("kind", kinds), "file", json=False)
    p.add_argument("--pair", help='pair solution, e.g. "R1=1,2;R2=c"')
    command("ext-rhs", _cmd_ext_rhs, "minimal rhs extension of the preset", "file")
    p = command("ext-rhf", _cmd_ext_rhf, "minimal rhf extension of the assignment", "file")
    p.add_argument("--general", action="store_true")
    p.add_argument("--strategy", choices=["sweep", "witness"], default="sweep",
                   help="kept for compatibility; both values run the one search")
    command("ext-rd-bounded", _cmd_ext_rd_bounded,
            "minimal rdf between assign and upper", "file")
    command("ext-ds-split", _cmd_ext_ds_split,
            "minimal dominating set above the assigned vertices", "file")
    p = command("enum-rhs", _cmd_enum_rhs, "every minimal rhs, one per line", "file")
    p.add_argument("--cap", type=int, default=None, help="weight cap")
    methods = ["exact", "greedy", "brute"]
    p = command("min-rhs", _cmd_min_rhs, "minimum weight rhs", "file")
    p.add_argument("--method", choices=methods, default="exact")
    p = command("min-rhf", _cmd_min_rhf, "minimum weight rhf", "file")
    p.add_argument("--method", choices=methods, default="exact")
    p = command("rvc", _cmd_rvc, "Roman vertex cover", ("mode", ["decide", "enum"]), "file")
    p.add_argument("-k", type=int, required=True, help="weight budget")
    command("rec", _cmd_rec, "minimum Roman edge cover", "file")
    p = command("reduce", _cmd_reduce, "translate an instance",
                ("name", list(_REDUCTIONS)), "file", "out")
    p.add_argument("-k", type=int, default=None, help="budget (rhs-to-rhf)")
    p.add_argument("--map-solution", metavar="SOLFILE",
                   help="map a target solution back to the source instance")
    p = command("gen", _cmd_gen, "write a generated instance to stdout", json=False)
    fam = p.add_subparsers(dest="family", required=True, parser_class=_Parser)
    pt = fam.add_parser("tight", help="n disjoint 2-element edges")
    pt.add_argument("n", type=int)
    pr = fam.add_parser("random", help="seeded random hypergraph")
    pr.add_argument("nv", type=int)
    pr.add_argument("ne", type=int)
    pr.add_argument("density", type=float)
    pr.add_argument("--seed", type=int, required=True)
    pr.add_argument("--with-tau", action="store_true")
    pr.add_argument("--with-preset", action="store_true")
    command("oracle", _cmd_oracle, "brute-force enumeration oracle",
            ("kind", ["rhs", "rhf"]), "file")
    # --json goes last, where each subcommand's help has always listed it
    for p in with_json:
        p.add_argument("--json", action="store_true")
    return top


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args, _JSON if getattr(args, "json", False) else _TEXT)
        _flush_stdout()
        return code
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except GuardRefused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout. Point the descriptor at the null device
        # so the interpreter's final flush of what is still buffered does
        # not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except KeyboardInterrupt:
        return 130


if __name__ == "__main__":
    sys.exit(main())
