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
from dataclasses import dataclass, field
from typing import Literal, Optional

from .errors import (GammaOutOfRange, InfeasiblePoint, InvalidArgument, NotOnCurve, OddIndex,
                     printable, require_int, require_real)

#: absolute tolerance on the curve-equation defect accepted as "on the curve"
TAU_CURVE = 1e-9

#: relative half-width of the band around sqrt(alpha) = n treated as diagonal
_DIAG_REL = 1e-12

Parity = Literal["even", "odd"]
Case = Literal["alpha_dominant", "beta_dominant", "diagonal"]


@dataclass(frozen=True)
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
    :func:`~fucik.errors.require_real` makes of them.

    Raises:
        InvalidArgument: if n is not an integer (an integral float,
            numpy scalar or ``Fraction`` is stored as int; a string, bytes,
            None, a complex number, a ``Decimal`` or an array is refused),
            or a coordinate is not a real number.
        IndexTooSmall: if n < 1.
        InfeasiblePoint: for n = 1 unless (alpha, beta) = (1, 1), for
            n >= 2 if a coordinate is at or below 1 or infinite, and if n
            or a coordinate is an int beyond float range.
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

    def __post_init__(self):
        n = require_int(self.n, "curve index", 1)
        alpha = require_real(self.alpha, "alpha", InfeasiblePoint)
        beta = require_real(self.beta, "beta", InfeasiblePoint)
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
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sqrt_alpha", sa)
        object.__setattr__(self, "sqrt_beta", math.sqrt(beta))
        try:
            res = curve_residual(self)
        except OverflowError:
            raise InfeasiblePoint("the curve index lies beyond float range") from None
        # written so that a NaN defect (a NaN coordinate) fails the test too
        if not abs(res) <= TAU_CURVE:
            raise NotOnCurve(f"curve-equation defect {res:.3e} exceeds {TAU_CURVE:.1e}")
        if abs(sa - n) <= _DIAG_REL * n:
            case = "diagonal"
        else:
            case = "alpha_dominant" if sa > n else "beta_dominant"
        object.__setattr__(self, "parity", "even" if n % 2 == 0 else "odd")
        object.__setattr__(self, "case", case)


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
        IndexTooSmall: if n < 2; InvalidArgument if n is not an integer,
            not exactly one coordinate is given, or it is not a real number.
        InfeasiblePoint: if the given coordinate is not finite, is not > 1,
            or the partner denominator is not positive, or it or n is an int
            beyond float range.
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
    try:
        denom = 2 * s - 2 * own
    except OverflowError:
        raise InfeasiblePoint("the curve index lies beyond float range") from None
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

    n is checked, before it is squared, as by :class:`FucikPoint`.
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
    At gamma = 4 the family collapses to the diagonal points.  A gamma so
    large that beta rounds to 1 or the coordinates overflow is refused; one
    that is not a real number raises InvalidArgument.
    """
    n = require_int(n, "curve index", 2)
    if n % 2 != 0:
        raise OddIndex(f"gamma_line_point needs an even index, got {printable(n)}")
    gamma = require_real(gamma, "gamma", GammaOutOfRange)
    if not (math.isfinite(gamma) and gamma >= 4.0):
        raise GammaOutOfRange(f"gamma must be finite and >= 4, got {gamma}")
    sg = math.sqrt(gamma)
    try:
        beta = n * n * gamma / (2 * sg - 2) ** 2
    except OverflowError:
        raise GammaOutOfRange("gamma puts the point beyond float range") from None
    return FucikPoint(n, n * n * gamma / 4.0, beta)
