"""Spectrum curves of the piecewise-linear eigenvalue problem

    -u'' = alpha * u_plus - beta * u_minus  on (0, pi),   u(0) = u(pi) = 0,

where ``u_plus``/``u_minus`` are the positive and negative parts of u.
Nontrivial solutions exist only for (alpha, beta) on a countable family of
curves; the solution attached to the n-th curve has n bumps of alternating
sign, positive ones of length pi/sqrt(alpha) and negative ones of length
pi/sqrt(beta).

The n-th curve is the solution set of

    even n:      (n/2) * pi/sqrt(alpha) + (n/2) * pi/sqrt(beta)     = pi
    odd  n >= 3: ((n+1)/2) * pi/sqrt(alpha) + ((n-1)/2) * pi/sqrt(beta) = pi

(for odd n the mirror curve obtained by swapping alpha and beta is not
represented here; swap the coordinates yourself if you need it).  Each
curve passes through the classical eigenvalue (n^2, n^2).  For n = 1 only
the trivial point (1, 1) is representable.

A :class:`FucikPoint` is valid by construction: its constructor is the one
place where a point is checked against its curve and classified, so every
consumer may take the point as given.  It also computes the square roots
of its coordinates, the bump frequencies every closed form reads, once and
for all.  All functions are pure and all returned values immutable.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Literal, Optional

from .errors import (GammaOutOfRange, InfeasiblePoint, InvalidArgument, NotOnCurve, OddIndex,
                     printable, require_int, require_real)

#: absolute tolerance on the curve-equation defect accepted as "on the curve"
TAU_CURVE = 1e-9

#: relative half-width of the band around sqrt(alpha) = n treated as diagonal
_DIAG_REL = 1e-12

#: the largest curve index with a point: a point on curve n >= 2 has
#: max(alpha, beta) >= n^2, which must be a finite float
_INDEX_MAX = math.isqrt(int(sys.float_info.max))

#: the largest gamma of a dilation-line point: above it the shrink factor
#: (2 sqrt(gamma) - 2)^2 leaves float range
_GAMMA_MAX = sys.float_info.max / 4

Parity = Literal["even", "odd"]
Case = Literal["alpha_dominant", "beta_dominant", "diagonal"]


@dataclass(frozen=True, init=False)
class FucikPoint:
    """A point (alpha, beta) on the n-th spectrum curve, valid by construction.

    Attributes:
        n: bump count, also the curve index (n >= 1).
        alpha: spectral parameter of the positive bumps.
        beta: spectral parameter of the negative bumps.
        parity: "even" or "odd", the parity of n (derived).
        case: which parameter dominates (derived).  "alpha_dominant" means
            alpha >= n^2 >= beta, "beta_dominant" means beta > n^2 > alpha,
            "diagonal" means alpha = beta = n^2.
        sqrt_alpha, sqrt_beta: the bump frequencies sqrt(alpha) and
            sqrt(beta) (derived; not in ``repr``, equality or hashing).

    The coordinates are stored as the Python floats
    :func:`~fucik.errors.require_real` makes of them.  The constructor
    ``FucikPoint(n, alpha, beta)`` is written by hand so that it sets each
    of the seven fields once, one ``object.__setattr__`` call each on the
    frozen instance, where a generated ``__init__`` with a
    ``__post_init__`` would set n, alpha and beta twice.  Equality,
    hashing, ``repr``, ``__match_args__``, :func:`dataclasses.replace`
    (which calls the constructor, so a point cannot be edited off its
    curve), pickling and copying are those of the dataclass.

    Raises:
        InvalidArgument: if n is not an integer (an integral float,
            numpy scalar or ``Fraction`` is stored as int; a string, bytes,
            None, a complex number, a ``Decimal`` or an array is refused)
            or lies above isqrt of the float maximum, about 1.34e154, where
            no curve has a point, or a coordinate is not a real number.
        IndexTooSmall: if n < 1.
        InfeasiblePoint: for n = 1 unless (alpha, beta) = (1, 1), for
            n >= 2 if a coordinate is at or below 1 or infinite, and if a
            coordinate is an int beyond float range.
        NotOnCurve: if the curve-equation defect exceeds :data:`TAU_CURVE`;
            a NaN coordinate lands here too.
    """

    n: int
    alpha: float
    beta: float
    parity: Parity = field(init=False)
    case: Case = field(init=False)
    sqrt_alpha: float = field(init=False, repr=False, compare=False)
    sqrt_beta: float = field(init=False, repr=False, compare=False)

    def __init__(self, n: int, alpha: float, beta: float):
        n = require_int(n, "curve index", 1, _INDEX_MAX)
        alpha = require_real(alpha, "alpha", InfeasiblePoint)
        beta = require_real(beta, "beta", InfeasiblePoint)
        if n == 1:
            if not (abs(alpha - 1.0) <= 1e-12 and abs(beta - 1.0) <= 1e-12):
                raise InfeasiblePoint("for n = 1 only the trivial point (1, 1) is representable")
            alpha = beta = 1.0
        elif alpha <= 1.0 or beta <= 1.0 or math.isinf(alpha) or math.isinf(beta):
            raise InfeasiblePoint(
                f"nontrivial spectrum points require finite alpha > 1 and beta > 1, "
                f"got ({alpha}, {beta})"
            )
        sa = math.sqrt(alpha)
        # not through vars(self): an instance dict once fetched makes
        # every later attribute read several times slower (CPython 3.11)
        put = object.__setattr__
        put(self, "n", n)
        put(self, "alpha", alpha)
        put(self, "beta", beta)
        put(self, "sqrt_alpha", sa)
        put(self, "sqrt_beta", math.sqrt(beta))
        res = curve_residual(self)
        # written so that a NaN defect (a NaN coordinate) fails the test too
        if not abs(res) <= TAU_CURVE:
            raise NotOnCurve(f"curve-equation defect {res:.3e} exceeds {TAU_CURVE:.1e}")
        if abs(sa - n) <= _DIAG_REL * n:
            case = "diagonal"
        else:
            case = "alpha_dominant" if sa > n else "beta_dominant"
        put(self, "parity", "even" if n % 2 == 0 else "odd")
        put(self, "case", case)


def curve_residual(p: FucikPoint) -> float:
    """Signed defect of the curve equation (left side minus pi).

    With k+ = (n+1)//2 positive and k- = n//2 negative bumps the curve
    equation reads k+ pi/sqrt(alpha) + k- pi/sqrt(beta) = pi; every
    :class:`FucikPoint` has a defect of magnitude at most
    :data:`TAU_CURVE`.  For n = 1 this is pi/sqrt(alpha) - pi, which
    vanishes exactly at the trivial point (1, 1).
    """
    pos, neg = (p.n + 1) // 2, p.n // 2
    return pos * math.pi / p.sqrt_alpha + neg * math.pi / p.sqrt_beta - math.pi


def complete_point(n: int, alpha: Optional[float] = None, beta: Optional[float] = None) -> FucikPoint:
    """Solve the curve equation for the missing coordinate.

    Exactly one of ``alpha``/``beta`` must be given.  With k+ = (n+1)//2
    positive and k- = n//2 negative bumps, the partner is the unique
    solution of the curve equation:

        beta  = (2 k-)^2 alpha / (2 sqrt(alpha) - 2 k+)^2     (given alpha)
        alpha = (2 k+)^2 beta  / (2 sqrt(beta)  - 2 k-)^2     (given beta)

    The partner's square root exceeds its bump count (at least 1), so no
    further range check is needed.

    Raises:
        IndexTooSmall: if n < 2; InvalidArgument if n is not an integer or
            lies above the float maximum, not exactly one coordinate is
            given, or it is not a real number.
        InfeasiblePoint: if the given coordinate is not finite, is not > 1,
            or is an int beyond float range, or the partner denominator is
            not positive.
    """
    n = require_int(n, "curve index", 2)
    if (alpha is None) == (beta is None):
        raise InvalidArgument("give exactly one of alpha= or beta=")
    name = "alpha" if alpha is not None else "beta"
    given = require_real(alpha if alpha is not None else beta, name, InfeasiblePoint)
    pos, neg = (n + 1) // 2, n // 2
    own, other = (pos, neg) if alpha is not None else (neg, pos)
    if not 1.0 < given < math.inf:
        raise InfeasiblePoint(f"{name} must be finite and exceed 1, got {given}")
    s = math.sqrt(given)
    denom = 2 * s - 2 * own
    if denom <= 0.0:
        raise InfeasiblePoint(
            f"no partner on curve {n} for {name} = {given}: denominator {denom:.3e} <= 0"
        )
    r = 2 * other * s / denom
    if alpha is not None:
        return FucikPoint(n, given, r * r)
    return FucikPoint(n, r * r, given)


def diagonal_point(n: int) -> FucikPoint:
    """The classical eigenvalue point (n^2, n^2) on the n-th curve.

    n is checked before it is squared: an n that is not an integer or
    lies above the float maximum raises InvalidArgument.  :class:`FucikPoint`
    then refuses one above about 1.34e154, where no curve has a point.
    """
    n = require_int(n, "curve index", 1)
    return FucikPoint(n, n * n, n * n)


def gamma_line_point(n: int, gamma: float) -> FucikPoint:
    """Point of the dilation family on the n-th curve, even n only.

    For a fixed gamma >= 4 the even-index points

        alpha(n) = n^2 gamma / 4,
        beta(n)  = n^2 gamma / (2 sqrt(gamma) - 2)^2

    all lie on the line beta = 4 alpha / (2 sqrt(gamma) - 2)^2 through the
    origin, and the attached eigenfunctions are dilates of each other.
    At gamma = 4 the family collapses to the diagonal points.  A gamma
    that is not a real number raises InvalidArgument, and one below 4,
    above :data:`_GAMMA_MAX` (float max / 4, about 4.49e307) or NaN
    GammaOutOfRange, before any arithmetic on it.  An n above about
    1.34e154, where no curve has a point, raises InvalidArgument.  A point
    that floats cannot hold raises InfeasiblePoint: for n = 2 beta lies
    within rounding of 1 from gamma of about 9.1e31 on and is refused
    wherever it rounds to 1 or below (at about three in four such gammas),
    and for every n the coordinates overflow once n^2 gamma exceeds the
    float maximum (n = 4 builds up to gamma of about 1.12e307).
    """
    n = require_int(n, "curve index", 2)
    if n % 2 != 0:
        raise OddIndex(f"gamma_line_point needs an even index, got {printable(n)}")
    gamma = require_real(gamma, "gamma", GammaOutOfRange)
    if not 4.0 <= gamma <= _GAMMA_MAX:
        raise GammaOutOfRange(f"gamma must lie in [4, {_GAMMA_MAX:.17g}], got {gamma}")
    shrink = (2 * math.sqrt(gamma) - 2) ** 2
    # float(n) * n is n * n below 2^53; a product past float range is inf, refused
    x = float(n) * n * gamma
    return FucikPoint(n, x / 4.0, x / shrink)
