"""Exception types raised across the package, and its integer and real checks.

Every error derives from :class:`FucikError`, so callers can catch the
package's failures with a single ``except`` clause while still being able
to distinguish individual conditions.  An argument the package refuses
raises :class:`InvalidArgument` or one of its subclasses; these are also
``ValueError``, so ``except ValueError`` keeps catching them.  Every error
type but :class:`NoConvergence` is such a refusal.  A plain
``ValueError`` signals a fault inside the package or in a callback it was
given, not a refused input.

Every index a public function takes (n, m, k, N or ``n_partial``) is
checked by :func:`require_int`, and every real parameter (a coordinate,
gamma, epsilon, s, a rule constant or a tolerance) by
:func:`require_real`, so each kind is refused alike everywhere.  A real
is converted there, once, to the Python float that all later arithmetic
runs in; no other module converts one.  A refusal shows the refused
value through :func:`printable`, so that phrasing it never fails.
"""

import math
import numbers


class FucikError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgument(FucikError, ValueError):
    """An argument was refused: out of range, not an integer, or inconsistent."""


class IndexTooSmall(InvalidArgument):
    """An integer index was below the smallest supported value."""


class InfeasiblePoint(InvalidArgument):
    """No partner coordinate exists on the requested spectrum curve."""


class NotOnCurve(InvalidArgument):
    """The (alpha, beta) pair does not satisfy the curve equation."""


class OutOfDomain(InvalidArgument):
    """An evaluation point lies outside [0, pi]."""


class NoConvergence(FucikError):
    """An iterative scheme exhausted its refinement or sweep budget."""


class TailNotBoundable(InvalidArgument):
    """A system with no analytic tail, or no system specification at all."""


class OddEntriesNotDiagonal(InvalidArgument):
    """A criterion requiring diagonal odd-index entries was violated."""


class DivergentArgument(InvalidArgument):
    """The zeta function was evaluated at or too close to its pole."""


class GammaOutOfRange(InvalidArgument):
    """A dilation-line parameter gamma lies outside its admissible range."""


class OddIndex(InvalidArgument):
    """An even curve index was required."""


def printable(value) -> str:
    """``value`` as a refusal message shows it.

    Python refuses to print an int of more than 4300 digits (by default);
    such an int is shown by its digit count instead.
    """
    try:
        return f"{value}"
    except ValueError:
        size = abs(value)
        # never above the count, which the loop then reaches
        digits = int((size.bit_length() - 1) * math.log10(2))
        while 10 ** digits <= size:
            digits += 1
        return f"an integer of {digits} digits"


def require_int(value, name: str, lo: int, hi: float | None = None) -> int:
    """``value`` as an int if it is an integer in [lo, hi] (hi None: no cap).

    An integral float or numpy integer is taken as the int it names.  An
    integer below ``lo`` raises :class:`IndexTooSmall`; NaN, an infinity,
    a fraction or an integer above ``hi`` raises :class:`InvalidArgument`.
    """
    # NaN and the infinities fail is_integer; an int, however large, is never made a float
    integral = isinstance(value, int) or float(value).is_integer()
    if integral and lo <= value and (hi is None or value <= hi):
        return int(value)
    if hi is not None:
        need = f"must lie in [{lo}, {hi}]" + ("" if integral else " and be an integer")
    else:
        need = f"must be >= {lo}" if integral else "must be an integer"
    refusal = IndexTooSmall if integral and value < lo else InvalidArgument
    raise refusal(f"{name} {need}, got {printable(value)}")


def require_real(value, name: str, refusal: type = InvalidArgument) -> float:
    """``value`` as a Python float if it is a real number: an int, a float,
    a :class:`fractions.Fraction` or a numpy integer or float scalar.

    Anything else (a string, None, a complex number, a ``Decimal``, an
    array) raises :class:`InvalidArgument`; a value beyond float range
    raises ``refusal``, the type its caller documents for it.  NaN and the
    infinities are returned as they are: the range is left to the caller.
    """
    if type(value) is float:
        return value
    # the plain int first: the abstract check is several times slower
    if isinstance(value, int) or isinstance(value, numbers.Real):
        try:
            return float(value)
        except OverflowError:
            raise refusal(f"{name} lies beyond float range, got {printable(value)}") from None
    raise InvalidArgument(f"{name} must be a real number, got {type(value).__name__}")
