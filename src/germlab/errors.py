"""Exception types shared across the library.

Arithmetic is exact, so no predicate is ever undecided; every certified
computation that fails its certificate raises instead of returning an
uncertified value.
"""


class GermlabError(Exception):
    """Base class for all library errors."""


class OutsideDomain(GermlabError):
    """Argument lies outside the domain of the map (e.g. Cayley on non-nilpotent)."""


class SpecMismatch(GermlabError):
    """Representative request inconsistent with its own parameters."""


class NotRegular(GermlabError):
    """Orbital integral requested at a non regular-semisimple element."""


class TailUnstable(GermlabError):
    """Geometric tail certificate failed; refusing to return an uncertified value."""


class GridTooLarge(GermlabError):
    """Brute-force oracle grid exceeds the configured budget."""


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
