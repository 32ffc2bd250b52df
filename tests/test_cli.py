"""Command line behavior: grammar, exit codes, determinism, JSON."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from corpus import capped_paths_text
import romanhs
import romanhs.cli
from romanhs.cli import build_parser, format_assignment, format_pair, main
from romanhs.core import (
    RhsPair,
    assignment_from_json,
    pair_from_json,
    parse_graph_text,
    parse_hypergraph_text,
    serialize_hypergraph_file,
    weight_pair,
)
from romanhs.characterize import (
    is_minimal_rdf_theorem,
    is_minimal_rhf_theorem,
    is_minimal_rhs_theorem,
)
from romanhs.enumeration import (
    brute_enumerate_minimal_rhf,
    brute_enumerate_minimal_rhs,
    enumerate_minimal_rhs,
)
from romanhs.errors import InputError
from romanhs.optimize import exact_min_rhs

EX1 = """\
universe a b c d
edge 1 a b
edge 2 a
edge 3 b
edge 4 a c
edge 5 c d
"""

EX2 = """\
universe a b c d e
edge 1 a b
edge 2 b c
edge 3 b e
edge 4 b c d
edge 5 d e
tau a 1
tau b 1
tau c 2
tau d 4
tau e 3
"""

EX2_SURJECTIVE = """\
universe a b c d e
edge 1 a b
edge 2 b c
edge 3 b e
edge 4 b c d
edge 5 d e
tau a 1
tau b 2
tau c 4
tau d 5
tau e 3
"""

P3 = """\
vertex a b c
gedge a b
gedge b c
"""


@pytest.fixture
def run(capsys):
    def go(*argv):
        code = main([str(a) for a in argv])
        cap = capsys.readouterr()
        return code, cap.out, cap.err

    return go


@pytest.fixture
def write(tmp_path):
    def go(name, text):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    return go


def test_min_rhs_exact_worked_example(run, write):
    f = write("ex2.hg", EX2)
    code, out, err = run("min-rhs", f, "--method", "exact")
    assert code == 0
    assert out == "R1={5} R2={b} w=3\n"
    assert "nodes=" in err


def test_min_rhs_methods(run, write):
    f = write("ex1.hg", EX1)
    _, exact, _ = run("min-rhs", f, "--method", "exact")
    _, brute, berr = run("min-rhs", f, "--method", "brute")
    _, greedy, _ = run("min-rhs", f, "--method", "greedy")
    assert exact.strip().endswith("w=4")
    assert brute.strip().endswith("w=4")
    assert greedy == "R1={} R2={a,b,c} w=6\n"
    assert "solutions=" in berr


def test_check_minimal_worked_example(run, write):
    f = write("ex1.hg", EX1)
    code, out, _ = run("check", "min-rhs", f, "--pair", "R1=1,2,3;R2=c")
    assert code == 0 and out == "minimal: true\n"
    code, out, _ = run("check", "min-rhs", f, "--pair", "R1=1,2,3,4,5;R2=a")
    assert code == 0 and out == "minimal: false\n"


def test_check_min_rhf(run, write):
    f = write("ex2.hg", EX2 + "assign e 1\nassign b 2\n")
    code, out, _ = run("check", "min-rhf", f)
    assert code == 0 and out in ("minimal: true\n", "minimal: false\n")
    h = parse_hypergraph_text(EX2)
    want = is_minimal_rhf_theorem(
        h.hypergraph,
        parse_hypergraph_text(EX2 + "assign e 1\nassign b 2\n").tau,
        (0, 2, 0, 0, 1),
    )
    assert out == f"minimal: {str(want).lower()}\n"


def test_check_rdf_kinds(run, write):
    f = write("p3.g", P3 + "assign b 2\n")
    assert run("check", "min-rdf", f)[1] == "minimal: true\n"
    assert run("check", "po-min-rdf", f)[1] == "minimal: true\n"
    f = write("p3b.g", P3 + "assign a 2\nassign b 2\n")
    assert run("check", "min-rdf", f)[1] == "minimal: false\n"


def test_check_witness(run, write):
    f = write("ex1.hg", EX1)
    assert run("check", "witness", f, "--pair", "R1=3;R2=a,c")[1] == "valid: true\n"
    assert run("check", "witness", f, "--pair", "R1=;R2=a,c")[1] == "valid: false\n"
    g = write("ex2.hg", EX2 + "assign b 2\nassign d 2\n")
    assert run("check", "witness", g)[1] == "valid: true\n"
    code, _, err = run("check", "witness", write("bare.hg", EX1 + "# no solution\n"))
    assert code == 1 and "witness check needs" in err


def test_enum_tight_deterministic(run, write):
    code, text, _ = run("gen", "tight", "3")
    assert code == 0
    f = write("t3.hg", text)
    code, out1, err1 = run("enum-rhs", f)
    code2, out2, err2 = run("enum-rhs", f)
    assert code == code2 == 0
    assert out1 == out2 and err1 == err2
    assert len(out1.splitlines()) == 27
    assert "emitted=27" in err1


def test_enum_cap(run, write):
    f = write("t1.hg", "universe x1 x2\nedge e1 x1 x2\n")
    code, out, err = run("enum-rhs", f, "--cap", "1")
    assert code == 0 and out == "R1={e1} R2={} w=1\n"
    code, _, err = run("enum-rhs", f, "--cap", "-1")
    assert code == 1 and "error:" in err


def test_json_pair_round_trip(run, write):
    f = write("ex2.hg", EX2)
    _, out, _ = run("min-rhs", f, "--json")
    h = parse_hypergraph_text(EX2).hypergraph
    obj = json.loads(out)
    assert obj == {"r1": ["5"], "r2": ["b"], "w": 3}
    assert pair_from_json(h, out) == RhsPair.from_tokens(h, ["5"], ["b"])


def test_json_assignment_round_trip(run, write):
    f = write("ex2.hg", EX2)
    _, out, _ = run("min-rhf", f, "--method", "exact", "--json")
    h = parse_hypergraph_text(EX2).hypergraph
    f_tuple = assignment_from_json(h.vertex_tokens, out)
    assert sum(f_tuple) == 4
    assert json.loads(out)["w"] == 4
    line = format_assignment(h.vertex_tokens, f_tuple)
    assert line.endswith("w=4")


def test_ext_rhs(run, write):
    yes = write("yes.hg", EX1 + "preset1 2\n")
    code, out, _ = run("ext-rhs", yes)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "yes"
    h = parse_hypergraph_text(EX1).hypergraph
    r1, r2 = lines[1].split(" w=")[0].split(" R2=")
    r1 = [t for t in r1[4:-1].split(",") if t]
    r2 = [t for t in r2[1:-1].split(",") if t]
    assert is_minimal_rhs_theorem(h, RhsPair.from_tokens(h, r1, r2))
    no = write("no.hg", EX1 + "preset1 1\npreset2 a\n")
    assert run("ext-rhs", no)[1] == "no\n"


def test_ext_rhf(run, write):
    yes = write("yes.hg", EX2_SURJECTIVE)
    code, out, _ = run("ext-rhf", yes, "--json")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "yes"
    hf = parse_hypergraph_text(EX2_SURJECTIVE)
    f = assignment_from_json(hf.hypergraph.vertex_tokens, lines[1])
    assert is_minimal_rhf_theorem(hf.hypergraph, hf.tau, f)
    no_text = (
        "universe x y\nedge e1 x y\nedge e2 y\n"
        "tau x e1\ntau y e2\nassign x 1\nassign y 2\n"
    )
    no = write("no.hg", no_text)
    assert run("ext-rhf", no)[1] == "no\n"
    assert run("ext-rhf", no, "--general")[1] == "no\n"
    assert run("ext-rhf", no, "--general", "--strategy", "witness")[1] == "no\n"


def test_ext_rd_bounded(run, write):
    yes = write("p3.g", P3)
    code, out, _ = run("ext-rd-bounded", yes, "--json")
    lines = out.splitlines()
    assert code == 0 and lines[0] == "yes"
    g = parse_graph_text(P3).graph
    f = assignment_from_json(g.vertex_tokens, lines[1])
    assert is_minimal_rdf_theorem(g, f)
    no = write("p3no.g", P3 + "assign a 2\nassign b 2\nassign c 2\n")
    assert run("ext-rd-bounded", no)[1] == "no\n"
    code, out, _ = run("ext-rd-bounded", write("paths8.g", capped_paths_text(8)))
    assert code == 0 and out == "no\n"
    code, out, _ = run("ext-rd-bounded", write("paths21.g", capped_paths_text(21)))
    assert code == 0 and out == "no\n"


def test_ext_ds_split(run, write):
    star = "vertex c l0 l1\ngedge c l0\ngedge c l1\n"
    yes = write("star.g", star + "assign c 1\n")
    code, out, _ = run("ext-ds-split", yes)
    assert code == 0 and out == "yes\nD={c} size=1\n"
    no = write("star2.g", star + "assign c 1\nassign l0 1\n")
    assert run("ext-ds-split", no)[1] == "no\n"


def test_rvc(run, write):
    p2 = write("p2.g", "vertex u v\ngedge u v\n")
    assert run("rvc", "decide", p2, "-k", "1")[1] == "yes\n"
    assert run("rvc", "decide", p2, "-k", "0")[1] == "no\n"
    code, out, err = run("rvc", "enum", p2, "-k", "2")
    assert code == 0
    assert set(out.splitlines()) == {
        "R1={} R2={u} w=2",
        "R1={} R2={v} w=2",
        "R1={u~v} R2={} w=1",
    }
    assert len(out.splitlines()) == 3
    assert "emitted=3" in err
    assert run("rvc", "decide", p2, "-k", "-1")[0] == 1


def test_rec(run, write):
    k3 = write("k3.g", "vertex a b c\ngedge a b\ngedge a c\ngedge b c\n")
    code, out, _ = run("rec", k3)
    assert code == 0 and out == "R1={a,b,c} R2={} w=3\n"


def test_rec_prints_no_derived_edge_token(run, write):
    # both edges would derive the token a~b~c, but the witness (V, {})
    # names graph vertices only, so rec answers
    tilde = write("tilde.g", "vertex a~b c a b~c\ngedge a~b c\ngedge a b~c\n")
    code, out, err = run("rec", tilde)
    assert (code, out, err) == (0, "R1={a~b,c,a,b~c} R2={} w=4\n", "")
    code, out, _ = run("rec", tilde, "--json")
    assert code == 0
    assert json.loads(out) == {"r1": ["a~b", "c", "a", "b~c"], "r2": [], "w": 4}


def test_reduce_vc_to_rvc(run, write, tmp_path):
    src = write("p3.g", P3)
    out_path = str(tmp_path / "rvc.g")
    code, out, _ = run("reduce", "vc-to-rvc", src, out_path)
    assert code == 0 and out == "offset=3\n"
    g2 = parse_graph_text((tmp_path / "rvc.g").read_text()).graph
    assert g2.n_vertices == 6 and len(g2.edges) == 5
    sol = write("sol.txt", "preset1 a~a' c~c'\npreset2 b\n")
    code, out, _ = run(
        "reduce", "vc-to-rvc", src, out_path, "--map-solution", sol
    )
    assert code == 0
    assert out.splitlines() == ["offset=3", "C={b} size=1"]


def test_reduce_rhf_to_rhs_map(run, write, tmp_path):
    src = write("ex2.hg", EX2)
    out_path = str(tmp_path / "target.hg")
    code, out, _ = run("reduce", "rhf-to-rhs", src, out_path)
    assert code == 0 and out == "offset=0\n"
    target = parse_hypergraph_text((tmp_path / "target.hg").read_text())
    res = exact_min_rhs(target.hypergraph)
    sol_lines = []
    if res.witness.r1:
        sol_lines.append(
            "preset1 "
            + " ".join(target.hypergraph.edge_tokens[i] for i in sorted(res.witness.r1))
        )
    if res.witness.r2:
        sol_lines.append(
            "preset2 "
            + " ".join(target.hypergraph.vertex_tokens[x] for x in sorted(res.witness.r2))
        )
    sol = write("sol.txt", "\n".join(sol_lines) + "\n")
    code, out, _ = run(
        "reduce", "rhf-to-rhs", src, out_path, "--map-solution", sol
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "offset=0"
    assert lines[1].startswith("f: ") and lines[1].endswith(f"w={res.weight}")


def test_reduce_rhs_to_rhf_budgets(run, write, tmp_path):
    src = write("ex1.hg", EX1)
    out_path = str(tmp_path / "t.hg")
    assert run("reduce", "rhs-to-rhf", src, out_path, "-k", "4")[0] == 0
    assert run("reduce", "rhs-to-rhf", src, out_path, "-k", "99")[0] == 2
    assert run("reduce", "rhs-to-rhf", src, out_path)[0] == 1


def test_reduce_two_section(run, write, tmp_path):
    src = write("ex1.hg", EX1)
    out_path = str(tmp_path / "g.g")
    sol = write("sol.txt", "assign a 2\nassign c 2\n")
    code, out, _ = run(
        "reduce", "two-section", src, out_path, "--map-solution", sol
    )
    assert code == 0
    assert out.splitlines() == ["offset=0", "f: a=2 c=2 w=4"]
    g2 = parse_graph_text((tmp_path / "g.g").read_text()).graph
    assert sorted(
        (g2.vertex_tokens[u], g2.vertex_tokens[v]) for u, v in g2.edges
    ) == [("a", "b"), ("a", "c"), ("c", "d")]


def test_two_section_backward_validates():
    # the mapper raises on its own, so the check survives python -O
    hf = parse_hypergraph_text(EX1)
    ro = romanhs.cli._REDUCTIONS["two-section"].build(hf, None)
    assert ro.backward((2, 0, 2, 0)) == (2, 0, 2, 0)
    for bad in ((0, 0, 0, 0), (2, 0, 0, 0), (2, 0, 2)):
        with pytest.raises(InputError):
            ro.backward(bad)


def test_gen_random_deterministic(run):
    _, one, _ = run("gen", "random", "4", "3", "0.5", "--seed", "7", "--with-tau")
    _, two, _ = run("gen", "random", "4", "3", "0.5", "--seed", "7", "--with-tau")
    assert one == two
    hf = parse_hypergraph_text(one)
    assert serialize_hypergraph_file(hf) == one
    assert hf.tau is not None


def test_oracle_rhs(run, write):
    f = write("ex1.hg", EX1)
    code, one, err1 = run("oracle", "rhs", f)
    code2, two, err2 = run("oracle", "rhs", f)
    assert code == code2 == 0
    assert one == two and err1 == err2
    h = parse_hypergraph_text(EX1).hypergraph
    assert len(one.splitlines()) == len(brute_enumerate_minimal_rhs(h))


def test_oracle_rhf(run, write):
    f = write("ex2.hg", EX2)
    _, one, _ = run("oracle", "rhf", f)
    _, two, _ = run("oracle", "rhf", f)
    assert one == two
    hf = parse_hypergraph_text(EX2)
    want = brute_enumerate_minimal_rhf(hf.hypergraph, hf.tau)
    assert len(one.splitlines()) == len(want)
    for f_tuple, line in zip(sorted(want), one.splitlines()):
        assert format_assignment(hf.hypergraph.vertex_tokens, f_tuple) == line


def test_oracle_has_no_jobs_option(run, write):
    code, out, err = run("oracle", "rhs", write("ex1.hg", EX1), "--jobs", "2")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --jobs 2" in err


def test_oracle_guard_refusal(run, write):
    code, text, _ = run("gen", "tight", "11")
    f = write("t11.hg", text)
    code, _, err = run("oracle", "rhs", f)
    assert code == 2 and "refused:" in err


def test_oracle_rhs_guard_counts_vertices(run, write):
    # 12 vertices, 4096 masks to scan; the 14 edges do not add to the work
    _, text, _ = run(
        "gen", "random", "12", "14", "0.3", "--seed", "2", "--with-tau"
    )
    code, out, err = run("oracle", "rhs", write("r12.hg", text))
    assert code == 0
    h = parse_hypergraph_text(text).hypergraph
    want = []
    enumerate_minimal_rhs(h, sink=want.append)
    assert sorted(out.splitlines()) == sorted(format_pair(h, p) for p in want)
    assert f"solutions={len(want)}" in err


def test_closed_pipe_exits_quietly(run, write):
    _, text, _ = run("gen", "tight", "10")
    src = str(Path(romanhs.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    argv = [sys.executable, "-m", "romanhs.cli", "enum-rhs", write("t10.hg", text)]
    with subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert first.startswith(b"R1=")
    assert code == 0
    assert err == b""


def test_no_stdout_at_all(run, monkeypatch):
    # a process started with stdout closed has sys.stdout set to None
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["gen", "tight", "1"]) == 0


def test_interrupt_exits_130(run, write, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(romanhs.cli, "enumerate_minimal_rhs", interrupted)
    code, out, err = run("enum-rhs", write("ex1.hg", EX1))
    assert code == 130
    assert out == "" and "Traceback" not in err


def test_usage_and_input_errors(run, write):
    assert run("no-such-command")[0] == 1
    assert run("rvc", "decide", "x.g")[0] == 1
    code, _, err = run(
        "enum-rhs", write("bad.hg", "universe a\nbogus b\n")
    )
    assert code == 1 and "line 2" in err
    assert run("min-rhf", write("notau.hg", EX1))[0] == 1
    assert run("gen", "tight", "0")[0] == 1


def _command_paths(parser, prefix=()):
    """The argument prefix of every subcommand, nested ones included."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield prefix + (name,)
                yield from _command_paths(sub, prefix + (name,))


HELP_PATHS = [()] + list(_command_paths(build_parser()))


def test_help_paths_reach_the_nested_generators():
    assert {("gen", "tight"), ("gen", "random"), ("oracle",)} <= set(HELP_PATHS)


# argparse formats choices and metavars only when it renders help
@pytest.mark.parametrize("path", HELP_PATHS, ids=[" ".join(p) or "top" for p in HELP_PATHS])
def test_help_exits_zero(path, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*path, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(" ".join(("usage: rhs-tool", *path)))


def test_module_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "romanhs.cli", "gen", "tight", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "universe x1 x2\nedge e1 x1 x2\n"


def test_format_pair_grammar():
    h = parse_hypergraph_text(EX1).hypergraph
    pair = RhsPair.from_tokens(h, ["5", "3"], ["a"])
    assert format_pair(h, pair) == "R1={3,5} R2={a} w=4"
    empty = RhsPair(frozenset(), frozenset())
    assert format_pair(h, empty) == "R1={} R2={} w=0"
    assert weight_pair(pair) == 4
