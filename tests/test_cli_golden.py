"""Golden transcript of the command line.

Runs ``main`` in-process over every subcommand and compares, for each
call, the exit code, standard output, the ``key=value`` statistics lines
of standard error and any file the call writes against the checked-in
``golden/cli_transcript.txt``. Error messages are left out, so their
wording may change; everything a script could parse may not.

The expected file pins today's output byte for byte. Regenerate it only
for an intended change of output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_transcript.txt
"""

from __future__ import annotations

import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

from romanhs.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.txt"

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

P3 = "vertex a b c\ngedge a b\ngedge b c\n"
STAR = "vertex c l0 l1\ngedge c l0\ngedge c l1\n"
C4 = "vertex a b c d\ngedge a b\ngedge b c\ngedge c d\ngedge a d\n"

# Instance and solution files, written once per transcript. In an argv a
# "@name" stands for the path of that file (or of an output file).
FILES = {
    "ex1.hg": EX1,
    "ex1-pre-yes.hg": EX1 + "preset1 2\n",
    "ex1-pre-no.hg": EX1 + "preset1 1\npreset2 a\n",
    "ex1-pre-pair.hg": EX1 + "preset1 3\npreset2 a c\n",
    "ex2.hg": EX2,
    "ex2-min.hg": EX2 + "assign e 1\nassign b 2\n",
    "ex2-valid.hg": EX2 + "assign b 2\nassign d 2\n",
    "ex2-ext.hg": EX2 + "assign b 1\n",
    "ex2s.hg": EX2_SURJECTIVE,
    "rhf-no.hg": (
        "universe x y\nedge e1 x y\nedge e2 y\n"
        "tau x e1\ntau y e2\nassign x 1\nassign y 2\n"
    ),
    "empty-edge.hg": "universe x\nedge e1 x\nedge e2\ntau x e1\n",
    "t1.hg": "universe x1 x2\nedge e1 x1 x2\n",
    "t11.hg": "universe "
    + " ".join(f"x{k}" for k in range(1, 23))
    + "\n"
    + "".join(f"edge e{i} x{2 * i - 1} x{2 * i}\n" for i in range(1, 12)),
    "v13.hg": "universe "
    + " ".join(f"x{k}" for k in range(13))
    + "\n"
    + "".join(f"edge e{k} x{k}\ntau x{k} e{k}\n" for k in range(13)),
    "bad.hg": "universe a\nbogus b\n",
    "p3.g": P3,
    "p3-two.g": P3 + "assign b 2\n",
    "p3-twos.g": P3 + "assign a 2\nassign b 2\n",
    "p3-full.g": P3 + "assign a 2\nassign b 2\nassign c 2\n",
    "p3-upper.g": P3 + "assign a 1\nupper b 1\n",
    "p2.g": "vertex u v\ngedge u v\n",
    "k3.g": "vertex a b c\ngedge a b\ngedge a c\ngedge b c\n",
    "star-yes.g": STAR + "assign c 1\n",
    "star-no.g": STAR + "assign c 1\nassign l0 1\n",
    "c4.g": C4 + "assign a 1\n",
    "sol-rd-to-rhf.txt": "assign b 2\n",
    "sol-rd-to-rhf-bad.txt": "assign a 1\n",
    "sol-rhf-to-rhs.txt": "preset1 5 5'\npreset2 b\n",
    "sol-rhs-to-rhf.txt": "assign a 2\nassign 3 1\nassign 5 1\n",
    "sol-rhf-to-rd.txt": "assign a 2\nassign v_b 2\nassign w_5 1\nassign u_5 1\n",
    "sol-vc-to-rvc.txt": "preset1 a~a' c~c'\npreset2 b\n",
    "sol-ds-split.txt": "preset2 b\n",
    "sol-two-section.txt": "assign b 2\nassign d 2\n",
    "sol-two-section-bad.txt": "assign a 2\n",
    "sol-assign-for-pair.txt": "assign a 2\n",
    "sol-pair-for-assign.txt": "preset2 a\n",
    "sol-bogus.txt": "bogus a\n",
    "sol-json.txt": '{"r1": ["5", "5\'"], "r2": ["b"], "w": 4}\n',
}

CASES = [
    # check
    ["check", "min-rhs", "@ex1.hg", "--pair", "R1=1,2,3;R2=c"],
    ["check", "min-rhs", "@ex1.hg", "--pair", "R1=1,2,3,4,5;R2=a"],
    ["check", "min-rhs", "@ex1-pre-pair.hg"],
    ["check", "min-rhs", "@ex1.hg", "--pair", "bogus"],
    ["check", "min-rhf", "@ex2-min.hg"],
    ["check", "min-rhf", "@ex1.hg"],
    ["check", "min-rdf", "@p3-two.g"],
    ["check", "min-rdf", "@p3-twos.g"],
    ["check", "po-min-rdf", "@p3-two.g"],
    ["check", "po-min-rdf", "@p3-twos.g"],
    ["check", "witness", "@ex1.hg", "--pair", "R1=3;R2=a,c"],
    ["check", "witness", "@ex1.hg", "--pair", "R1=;R2=a,c"],
    ["check", "witness", "@ex1-pre-pair.hg"],
    ["check", "witness", "@ex2-valid.hg"],
    ["check", "witness", "@ex2.hg"],
    ["check", "witness", "@ex1.hg"],
    # usage error: check takes no --json
    ["check", "min-rhs", "@ex1.hg", "--json"],
    # extensions
    ["ext-rhs", "@ex1-pre-yes.hg"],
    ["ext-rhs", "@ex1-pre-yes.hg", "--json"],
    ["ext-rhs", "@ex1-pre-no.hg"],
    ["ext-rhf", "@ex2s.hg"],
    ["ext-rhf", "@ex2s.hg", "--json"],
    ["ext-rhf", "@rhf-no.hg"],
    ["ext-rhf", "@ex2-ext.hg", "--general"],
    ["ext-rhf", "@ex2-ext.hg", "--general", "--json"],
    ["ext-rhf", "@ex2-ext.hg", "--general", "--strategy", "witness"],
    ["ext-rhf", "@rhf-no.hg", "--general"],
    ["ext-rhf", "@rhf-no.hg", "--general", "--strategy", "witness"],
    ["ext-rhf", "@ex1.hg"],
    ["ext-rd-bounded", "@p3.g"],
    ["ext-rd-bounded", "@p3.g", "--json"],
    ["ext-rd-bounded", "@p3-upper.g"],
    ["ext-rd-bounded", "@p3-full.g"],
    ["ext-ds-split", "@star-yes.g"],
    ["ext-ds-split", "@star-yes.g", "--json"],
    ["ext-ds-split", "@star-no.g"],
    ["ext-ds-split", "@c4.g"],
    # enumeration
    ["enum-rhs", "@ex1.hg"],
    ["enum-rhs", "@ex1.hg", "--json"],
    ["enum-rhs", "@ex1.hg", "--cap", "4"],
    ["enum-rhs", "@ex1.hg", "--cap", "4", "--json"],
    ["enum-rhs", "@t1.hg", "--cap", "1"],
    ["enum-rhs", "@t1.hg", "--cap", "-1"],
    ["enum-rhs", "@bad.hg"],
    ["enum-rhs", "@missing.hg"],
    # optimisation
    ["min-rhs", "@ex1.hg"],
    ["min-rhs", "@ex2.hg", "--method", "exact"],
    ["min-rhs", "@ex2.hg", "--method", "exact", "--json"],
    ["min-rhs", "@ex1.hg", "--method", "greedy"],
    ["min-rhs", "@ex1.hg", "--method", "greedy", "--json"],
    ["min-rhs", "@ex1.hg", "--method", "brute"],
    ["min-rhs", "@ex1.hg", "--method", "brute", "--json"],
    ["min-rhs", "@t11.hg", "--method", "brute"],
    ["min-rhf", "@ex2.hg"],
    ["min-rhf", "@ex2.hg", "--method", "exact", "--json"],
    ["min-rhf", "@ex2.hg", "--method", "greedy"],
    ["min-rhf", "@ex2.hg", "--method", "greedy", "--json"],
    ["min-rhf", "@ex2.hg", "--method", "brute"],
    ["min-rhf", "@ex2.hg", "--method", "brute", "--json"],
    ["min-rhf", "@v13.hg", "--method", "brute"],
    ["min-rhf", "@ex1.hg"],
    ["min-rhf", "@empty-edge.hg", "--method", "brute"],
    # Roman vertex and edge cover
    ["rvc", "decide", "@p2.g", "-k", "1"],
    ["rvc", "decide", "@p2.g", "-k", "0"],
    ["rvc", "decide", "@k3.g", "-k", "3"],
    ["rvc", "decide", "@p2.g", "-k", "-1"],
    ["rvc", "enum", "@k3.g", "-k", "4"],
    ["rvc", "enum", "@k3.g", "-k", "4", "--json"],
    ["rvc", "decide", "@p2.g"],
    ["rec", "@k3.g"],
    ["rec", "@k3.g", "--json"],
    # reductions
    ["reduce", "rd-to-rhf", "@p3.g", "@target.out"],
    ["reduce", "rd-to-rhf", "@p3.g", "@target.out",
     "--map-solution", "@sol-rd-to-rhf.txt"],
    ["reduce", "rd-to-rhf", "@p3.g", "@target.out",
     "--map-solution", "@sol-rd-to-rhf.txt", "--json"],
    ["reduce", "rd-to-rhf", "@p3.g", "@target.out",
     "--map-solution", "@sol-rd-to-rhf-bad.txt"],
    ["reduce", "rd-to-rhf", "@p3.g", "@target.out",
     "--map-solution", "@sol-pair-for-assign.txt"],
    ["reduce", "rhf-to-rhs", "@ex2.hg", "@target.out"],
    ["reduce", "rhf-to-rhs", "@ex2.hg", "@target.out",
     "--map-solution", "@sol-rhf-to-rhs.txt"],
    ["reduce", "rhf-to-rhs", "@ex2.hg", "@target.out",
     "--map-solution", "@sol-rhf-to-rhs.txt", "--json"],
    ["reduce", "rhf-to-rhs", "@ex2.hg", "@target.out",
     "--map-solution", "@sol-assign-for-pair.txt"],
    ["reduce", "rhf-to-rhs", "@ex2.hg", "@target.out",
     "--map-solution", "@sol-json.txt"],
    ["reduce", "rhf-to-rhs", "@ex1.hg", "@target.out"],
    ["reduce", "rhs-to-rhf", "@ex1.hg", "@target.out", "-k", "4"],
    ["reduce", "rhs-to-rhf", "@ex1.hg", "@target.out", "-k", "4",
     "--map-solution", "@sol-rhs-to-rhf.txt"],
    ["reduce", "rhs-to-rhf", "@ex1.hg", "@target.out", "-k", "4",
     "--map-solution", "@sol-rhs-to-rhf.txt", "--json"],
    ["reduce", "rhs-to-rhf", "@ex1.hg", "@target.out", "-k", "99"],
    ["reduce", "rhs-to-rhf", "@ex1.hg", "@target.out"],
    ["reduce", "rhf-to-rd", "@ex2.hg", "@target.out"],
    ["reduce", "rhf-to-rd", "@ex2.hg", "@target.out",
     "--map-solution", "@sol-rhf-to-rd.txt"],
    ["reduce", "rhf-to-rd", "@ex2.hg", "@target.out",
     "--map-solution", "@sol-rhf-to-rd.txt", "--json"],
    ["reduce", "vc-to-rvc", "@p3.g", "@target.out"],
    ["reduce", "vc-to-rvc", "@p3.g", "@target.out",
     "--map-solution", "@sol-vc-to-rvc.txt"],
    ["reduce", "vc-to-rvc", "@p3.g", "@target.out",
     "--map-solution", "@sol-vc-to-rvc.txt", "--json"],
    ["reduce", "ds-split-to-rhs", "@p3.g", "@target.out"],
    ["reduce", "ds-split-to-rhs", "@p3.g", "@target.out",
     "--map-solution", "@sol-ds-split.txt"],
    ["reduce", "ds-split-to-rhs", "@p3.g", "@target.out",
     "--map-solution", "@sol-ds-split.txt", "--json"],
    ["reduce", "two-section", "@ex2.hg", "@target.out"],
    ["reduce", "two-section", "@ex2.hg", "@target.out",
     "--map-solution", "@sol-two-section.txt"],
    ["reduce", "two-section", "@ex2.hg", "@target.out",
     "--map-solution", "@sol-two-section.txt", "--json"],
    ["reduce", "two-section", "@ex2.hg", "@target.out",
     "--map-solution", "@sol-two-section-bad.txt"],
    ["reduce", "two-section", "@ex2.hg", "@target.out",
     "--map-solution", "@sol-bogus.txt"],
    ["reduce", "no-such", "@ex2.hg", "@target.out"],
    # generators
    ["gen", "tight", "2"],
    ["gen", "tight", "0"],
    ["gen", "random", "5", "4", "0.5", "--seed", "7"],
    ["gen", "random", "5", "4", "0.5", "--seed", "7", "--with-tau"],
    ["gen", "random", "5", "4", "0.5", "--seed", "7", "--with-preset"],
    ["gen", "random", "6", "5", "0.4", "--seed", "3", "--with-tau",
     "--with-preset"],
    # brute-force oracles
    ["oracle", "rhs", "@ex1.hg"],
    ["oracle", "rhs", "@ex1.hg", "--jobs", "1", "--json"],
    ["oracle", "rhs", "@ex1.hg", "--jobs", "2"],
    ["oracle", "rhs", "@ex1.hg", "--jobs", "2", "--json"],
    ["oracle", "rhs", "@ex1.hg", "--jobs", "0"],
    ["oracle", "rhs", "@t11.hg"],
    ["oracle", "rhs", "@t11.hg", "--jobs", "2"],
    ["oracle", "rhf", "@ex2.hg", "--jobs", "1"],
    ["oracle", "rhf", "@ex2.hg", "--json"],
    ["oracle", "rhf", "@ex2.hg", "--jobs", "2"],
    ["oracle", "rhf", "@ex2.hg", "--jobs", "2", "--json"],
    ["oracle", "rhf", "@v13.hg", "--jobs", "2"],
    ["oracle", "rhf", "@ex1.hg"],
    # usage errors
    [],
    ["no-such-command"],
    ["min-rhs", "@ex1.hg", "--method", "nope"],
]

_STAT_LINE = re.compile(r"[A-Za-z_]+=\S*")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def transcript(workdir: Path) -> str:
    """Every case's argv, exit code, stdout, stats lines and written file."""
    for name, text in FILES.items():
        (workdir / name).write_text(text, encoding="utf-8")
    parts = []
    for case in CASES:
        argv = [
            str(workdir / a[1:]) if a.startswith("@") else a for a in case
        ]
        code, out, err = _run(argv)
        stats = [ln for ln in err.splitlines() if _STAT_LINE.fullmatch(ln)]
        parts.append("$ rhs-tool " + " ".join(case).replace("@", ""))
        parts.append(f"exit {code}")
        parts.append("stdout:")
        parts.append(out)
        parts.append("stats:")
        parts.extend(line + "\n" for line in stats)
        written = workdir / "target.out"
        if written.exists():
            parts.append("wrote:")
            parts.append(written.read_text(encoding="utf-8"))
            written.unlink()
    return "\n".join(parts)


def test_cli_transcript_matches_golden(tmp_path):
    want = GOLDEN.read_text(encoding="utf-8")
    assert transcript(tmp_path) == want


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(transcript(Path(tmp)))
