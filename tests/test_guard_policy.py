"""One guard policy for exponential work.

Every exponential routine counts the candidates it would try and calls
errors.guard_work, the only place that refuses for size. The scan below
keeps it that way: a GuardRefused constructed anywhere else in the package
fails it, except reduce.rhs_to_rhf's refusal of a trivially-yes instance,
which is about the output, not the work.
"""

import ast
from pathlib import Path

import pytest

import romanhs
from romanhs.errors import WORK_LIMIT, GuardRefused, guard_work

ALLOWED = {("errors.py", "guard_work"), ("reduce.py", "rhs_to_rhf")}


def _refusals():
    """(module file, top-level definition) of every GuardRefused(...) call."""
    found = set()
    for path in sorted(Path(romanhs.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name == "GuardRefused":
                    found.add((path.name, getattr(top, "name", None)))
    return found


def test_only_the_work_guard_refuses():
    assert _refusals() == ALLOWED


def test_guard_work_boundary():
    guard_work(WORK_LIMIT, "at the limit")
    with pytest.raises(GuardRefused, match="past the limit"):
        guard_work(WORK_LIMIT + 1, "past the limit")
