"""Exception types raised across the package.

Every error derives from :class:`FucikError`, so callers can catch the
package's failures with a single ``except`` clause while still being able
to distinguish individual conditions.
"""


class FucikError(Exception):
    """Base class for all errors raised by this package."""


class IndexTooSmall(FucikError):
    """A curve index n was below the smallest supported value."""


class InfeasiblePoint(FucikError):
    """No partner coordinate exists on the requested spectrum curve."""


class NotOnCurve(FucikError):
    """The (alpha, beta) pair does not satisfy the curve equation."""


class OutOfDomain(FucikError):
    """An evaluation point lies outside [0, pi]."""


class NoConvergence(FucikError):
    """An iterative scheme exhausted its refinement or sweep budget."""


class TailNotBoundable(FucikError):
    """A summation criterion was asked for a system with no analytic tail."""


class OddEntriesNotDiagonal(FucikError):
    """A criterion requiring diagonal odd-index entries was violated."""


class DivergentArgument(FucikError):
    """The zeta function was evaluated at or too close to its pole."""


class GammaOutOfRange(FucikError):
    """A dilation-line parameter gamma lies outside its admissible range."""


class OddIndex(FucikError):
    """An even curve index was required."""
