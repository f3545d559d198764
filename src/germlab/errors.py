"""Exception types shared across the library.

Arithmetic is exact, so no predicate is ever undecided; a result that rests
on a proof (the stratum tail, a pool combination) is re-checked exactly, and
a failed re-check raises InvariantViolated instead of returning a value.
"""


class GermlabError(Exception):
    """Base class for all library errors."""


class SpecMismatch(GermlabError):
    """Representative request inconsistent with its own parameters."""


class NotRegular(GermlabError):
    """Orbital integral requested at a non regular-semisimple element."""


class GridTooLarge(GermlabError):
    """The brute-force oracle cannot give an exact value: its b-coset
    enumeration exceeds the budget, or its strata show no geometric tail."""


class BallTooSmall(GermlabError):
    """Fixed-point set touches the ball boundary; enlarge R."""


class RankDeficient(GermlabError):
    """Function basis does not separate the five nilpotent orbits."""


class InconsistentSystem(GermlabError):
    """Overdetermined germ system has a nonzero residual."""


class PoolDeficient(GermlabError):
    """Function pool spans fewer than five independent nilpotent vectors."""


class InvariantViolated(GermlabError):
    """An exact re-check of a computed object failed: a defect, not bad input."""
