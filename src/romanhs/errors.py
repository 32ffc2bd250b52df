"""Error types shared across the package, and the one guard on exponential work.

Two failure classes are kept apart on purpose: malformed input or a violated
precondition is the caller's problem (InputError), while a refusal to run an
exponential routine past its guard is a policy decision (GuardRefused).
The command line maps them to exit codes 1 and 2 respectively.

Every exponential routine (the brute enumerators, the general extension
sweep and witness search, and the bounded Roman domination extension)
counts the candidates it would try before it starts, or an upper bound on
them where it prunes as it goes (the sweep and the witness search), and
hands the count to guard_work, which refuses past WORK_LIMIT. Polynomial
routines take no guard, whatever the instance size, nor does the witness
search where its first 2-set decides, as in ext_rhf_surjective.
"""

WORK_LIMIT = 1 << 20


class InputError(ValueError):
    """Malformed instance data or a violated operation precondition."""


class GuardRefused(RuntimeError):
    """A guarded routine refused to run (it would try too many candidates,
    or the answer is trivially known and constructing the output would be
    degenerate)."""


def guard_work(work: int, what: str) -> None:
    """Refuse to start `what`, which would try at most `work` candidates, past
    the limit."""
    if work > WORK_LIMIT:
        raise GuardRefused(
            f"{what} would try {work} candidates, over the limit of {WORK_LIMIT}"
        )
