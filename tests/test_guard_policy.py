"""One guard policy for exponential work.

Every exponential routine spends its work from an errors.WorkBudget, the
only place that refuses for size. The scan below keeps it that way: a
GuardRefused constructed anywhere else in the package fails it, except
reduce.rhs_to_rhf's refusal of a trivially-yes instance, which is about
the output, not the work.
"""

import ast
from pathlib import Path

import pytest

import romanhs
from romanhs.errors import WORK_LIMIT, GuardRefused, WorkBudget

ALLOWED = {("errors.py", "WorkBudget"), ("reduce.py", "rhs_to_rhf")}


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
    WorkBudget("at the limit").spend(WORK_LIMIT)
    with pytest.raises(GuardRefused, match=f"past the limit .* {WORK_LIMIT}$"):
        WorkBudget("past the limit").spend(WORK_LIMIT + 1)


def test_budget_refuses_once_the_spends_add_up():
    budget = WorkBudget("a running count")
    for _ in range(4):
        budget.spend(WORK_LIMIT // 4)
    assert budget.spent == WORK_LIMIT
    with pytest.raises(GuardRefused, match="a running count"):
        budget.spend(1)
    # each run has a budget of its own
    WorkBudget("a running count").spend(WORK_LIMIT)
