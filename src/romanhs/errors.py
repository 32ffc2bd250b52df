"""Error types shared across the package, and the one guard on exponential work.

Two failure classes are kept apart on purpose: malformed input or a violated
precondition is the caller's problem (InputError), while a refusal to run an
exponential routine past its guard is a policy decision (GuardRefused).
The command line maps them to exit codes 1 and 2 respectively.

Every exponential routine (the brute enumerators and the general extension
search, which bounded Roman domination extension runs too) spends its work
from one WorkBudget, which refuses once the total passes WORK_LIMIT. The
general extension search spends as it runs, one unit per node it pops, so
an input that needs little work runs whatever its size and a refusal comes
after the limit's worth of work. The brute enumerators know their count
exactly before they start and spend it at once, so they refuse at once.
Polynomial routines take no guard, whatever the instance size.
"""

WORK_LIMIT = 1 << 20


class InputError(ValueError):
    """Malformed instance data or a violated operation precondition."""


class GuardRefused(RuntimeError):
    """A guarded routine refused to run (it needs more work than the limit,
    or the answer is trivially known and constructing the output would be
    degenerate)."""


class WorkBudget:
    """The work one run of the routine `what` has spent, refused past
    WORK_LIMIT."""

    __slots__ = ("what", "spent")

    def __init__(self, what: str) -> None:
        self.what = what
        self.spent = 0

    def spend(self, n: int) -> None:
        """Spend n units; GuardRefused once the total passes the limit."""
        self.spent += n
        if self.spent > WORK_LIMIT:
            raise GuardRefused(
                f"{self.what} needs more than the work limit of {WORK_LIMIT}"
            )
