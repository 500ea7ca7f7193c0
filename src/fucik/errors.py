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
checked by :func:`require_int`, every real parameter (a coordinate,
gamma, epsilon, s, a rule constant or a tolerance) by
:func:`require_real`, and every array of points (evaluation points or
breakpoints) by :func:`require_reals`, so each kind is refused alike
everywhere.  Indices and arrays take the reals' type test: whatever is
not an integer, or an array of bools, integers or floats, must pass
:func:`require_real`, so a string, bytes, None, a complex number or a
``Decimal`` is refused before any comparison or arithmetic.  A real is
converted there, once, to the Python float that all later arithmetic
runs in, and an array to float64; no other module converts one.  A
refusal shows the refused value through :func:`printable`, so that
phrasing it never fails.
"""

import math
import numbers

import numpy as np


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

    An int or any :class:`numbers.Integral` (a numpy integer) is compared
    as it is; any other value goes through :func:`require_real`, so an
    integral float, numpy float or ``Fraction`` is taken as the int it
    names, and a value that is not a real number (a string, bytes, None,
    a complex number, a ``Decimal``, an array) raises
    :class:`InvalidArgument`.  An integer below ``lo`` raises
    :class:`IndexTooSmall`; NaN, an infinity, a fraction or an integer
    above ``hi`` raises :class:`InvalidArgument`.
    """
    # the plain int first: the abstract check is several times slower
    if not (type(value) is int or isinstance(value, numbers.Integral)):
        value = require_real(value, name)
    # NaN and the infinities fail is_integer; an int, however large, is never made a float
    integral = type(value) is not float or value.is_integer()
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


def require_reals(value, name: str, refusal: type = InvalidArgument) -> np.ndarray:
    """``value`` as a float64 array if it is an array, or a sequence, of
    bools, integers or floats; a single value of another type goes
    through :func:`require_real` and comes back as a 0-d array.

    So strings, bytes, complex numbers and objects (a ``Decimal``, or an
    int that no numpy integer type holds, in a sequence) raise
    :class:`InvalidArgument`, and a lone int beyond float range raises
    ``refusal``.
    """
    arr = np.asarray(value)
    if arr.dtype.kind in "biuf":
        return arr.astype(float, copy=False)
    if arr.ndim:
        raise InvalidArgument(f"{name} must be real numbers, got an array of {arr.dtype}")
    return np.asarray(require_real(value, name, refusal))
