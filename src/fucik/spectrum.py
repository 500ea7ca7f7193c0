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

This module creates and validates points on these curves.  All functions
are pure and all returned values immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

from .errors import GammaOutOfRange, IndexTooSmall, InfeasiblePoint, NotOnCurve, OddIndex

#: absolute tolerance on the curve-equation defect accepted as "on the curve"
TAU_CURVE = 1e-9

#: relative half-width of the band around sqrt(alpha) = n treated as diagonal
_DIAG_REL = 1e-12

Parity = Literal["even", "odd"]
Case = Literal["alpha_dominant", "beta_dominant", "diagonal"]


@dataclass(frozen=True)
class BumpLengths:
    """Lengths of one positive bump (l1), one negative bump (l2)."""

    l1: float
    l2: float

    @property
    def l(self) -> float:
        """Full period of the bump pair."""
        return self.l1 + self.l2


@dataclass(frozen=True)
class FucikPoint:
    """A point (alpha, beta) on the n-th spectrum curve.

    Attributes:
        n: bump count, also the curve index (n >= 1).
        alpha: spectral parameter of the positive bumps.
        beta: spectral parameter of the negative bumps.
        parity: "even" or "odd", the parity of n.
        case: which parameter dominates.  "alpha_dominant" means
            alpha >= n^2 >= beta, "beta_dominant" means beta > n^2 > alpha,
            "diagonal" means alpha = beta = n^2.
    """

    n: int
    alpha: float
    beta: float
    parity: Parity
    case: Case

    @property
    def sqrt_alpha(self) -> float:
        return math.sqrt(self.alpha)

    @property
    def sqrt_beta(self) -> float:
        return math.sqrt(self.beta)

    def bump_lengths(self) -> BumpLengths:
        return BumpLengths(l1=math.pi / self.sqrt_alpha, l2=math.pi / self.sqrt_beta)


def _classify(n: int, alpha: float, beta: float) -> Case:
    sa = math.sqrt(alpha)
    if abs(sa - n) <= _DIAG_REL * n:
        return "diagonal"
    return "alpha_dominant" if sa > n else "beta_dominant"


def curve_residual(p: FucikPoint) -> float:
    """Signed defect of the curve equation (left side minus pi).

    A value with magnitude at most :data:`TAU_CURVE` certifies membership
    in the n-th curve.  For n = 1 the defect of pi/sqrt(alpha) - pi is
    returned, which vanishes exactly at the trivial point (1, 1).
    """
    sa = math.sqrt(p.alpha)
    sb = math.sqrt(p.beta)
    if p.n % 2 == 0:
        return (p.n / 2) * math.pi / sa + (p.n / 2) * math.pi / sb - math.pi
    return ((p.n + 1) / 2) * math.pi / sa + ((p.n - 1) / 2) * math.pi / sb - math.pi


def require_on_curve(p: FucikPoint) -> None:
    """Raise NotOnCurve unless |curve_residual(p)| <= TAU_CURVE.

    Written so that a NaN defect (a NaN coordinate) fails the test too.
    """
    res = curve_residual(p)
    if not abs(res) <= TAU_CURVE:
        raise NotOnCurve(f"curve-equation defect {res:.3e} exceeds {TAU_CURVE:.1e}")


def make_point(n: int, alpha: float, beta: float) -> FucikPoint:
    """Wrap explicit coordinates into a validated, classified point.

    Raises NotOnCurve if the pair fails the curve equation by more than
    :data:`TAU_CURVE`, and InfeasiblePoint for coordinates at or below 1
    away from the trivial lines.
    """
    if n < 1:
        raise IndexTooSmall(f"curve index must be >= 1, got {n}")
    if n == 1:
        if not (abs(alpha - 1.0) <= 1e-12 and abs(beta - 1.0) <= 1e-12):
            raise InfeasiblePoint("for n = 1 only the trivial point (1, 1) is representable")
        return FucikPoint(1, 1.0, 1.0, "odd", "diagonal")
    if alpha <= 1.0 or beta <= 1.0:
        raise InfeasiblePoint(
            f"nontrivial spectrum points require alpha > 1 and beta > 1, got ({alpha}, {beta})"
        )
    p = FucikPoint(n, float(alpha), float(beta), "even" if n % 2 == 0 else "odd",
                   _classify(n, alpha, beta))
    require_on_curve(p)
    return p


def complete_point(n: int, alpha: Optional[float] = None, beta: Optional[float] = None) -> FucikPoint:
    """Solve the curve equation for the missing coordinate.

    Exactly one of ``alpha``/``beta`` must be given.  The partner is the
    unique solution of the curve equation:

        even n: beta  = n^2 alpha / (2 sqrt(alpha) - n)^2     (given alpha)
                alpha = n^2 beta  / (2 sqrt(beta) - n)^2      (given beta)
        odd n:  beta  = (n-1)^2 alpha / (2 sqrt(alpha) - (n+1))^2
                alpha = (n+1)^2 beta  / (2 sqrt(beta) - (n-1))^2

    Raises:
        IndexTooSmall: if n < 2.
        InfeasiblePoint: if the given coordinate is not finite, the partner
            denominator is not positive or the given coordinate is not > 1.
    """
    if n < 2:
        raise IndexTooSmall(f"complete_point needs n >= 2, got {n}")
    if (alpha is None) == (beta is None):
        raise ValueError("give exactly one of alpha= or beta=")
    given = alpha if alpha is not None else beta
    if not math.isfinite(given):
        raise InfeasiblePoint(f"the given coordinate must be finite, got {given}")

    if alpha is not None:
        if alpha <= 1.0:
            raise InfeasiblePoint(f"alpha must exceed 1, got {alpha}")
        s = math.sqrt(alpha)
        denom = 2 * s - (n if n % 2 == 0 else n + 1)
        if denom <= 0.0:
            raise InfeasiblePoint(
                f"no partner on curve {n} for alpha = {alpha}: denominator {denom:.3e} <= 0"
            )
        sb = (n if n % 2 == 0 else n - 1) * s / denom
        a, b = float(alpha), sb * sb
    else:
        if beta <= 1.0:
            raise InfeasiblePoint(f"beta must exceed 1, got {beta}")
        s = math.sqrt(beta)
        denom = 2 * s - (n if n % 2 == 0 else n - 1)
        if denom <= 0.0:
            raise InfeasiblePoint(
                f"no partner on curve {n} for beta = {beta}: denominator {denom:.3e} <= 0"
            )
        sa = (n if n % 2 == 0 else n + 1) * s / denom
        a, b = sa * sa, float(beta)

    if a <= 1.0 or b <= 1.0:
        raise InfeasiblePoint(f"completed point ({a}, {b}) leaves the nontrivial region")
    return FucikPoint(n, a, b, "even" if n % 2 == 0 else "odd", _classify(n, a, b))


def diagonal_point(n: int) -> FucikPoint:
    """The classical eigenvalue point (n^2, n^2) on the n-th curve."""
    if n < 1:
        raise IndexTooSmall(f"curve index must be >= 1, got {n}")
    lam = float(n * n)
    return FucikPoint(n, lam, lam, "even" if n % 2 == 0 else "odd", "diagonal")


def gamma_line_point(n: int, gamma: float) -> FucikPoint:
    """Point of the dilation family on the n-th curve, even n only.

    For a fixed gamma >= 4 the even-index points

        alpha(n) = n^2 gamma / 4,
        beta(n)  = n^2 gamma / (2 sqrt(gamma) - 2)^2

    all lie on the line beta = 4 alpha / (2 sqrt(gamma) - 2)^2 through the
    origin, and the attached eigenfunctions are dilates of each other.
    At gamma = 4 the family collapses to the diagonal points.
    """
    if n % 2 != 0:
        raise OddIndex(f"gamma_line_point needs an even index, got {n}")
    if n < 2:
        raise IndexTooSmall(f"curve index must be >= 2, got {n}")
    if not (math.isfinite(gamma) and gamma >= 4.0):
        raise GammaOutOfRange(f"gamma must be finite and >= 4, got {gamma}")
    sg = math.sqrt(gamma)
    alpha = n * n * gamma / 4.0
    beta = n * n * gamma / (2 * sg - 2) ** 2
    return FucikPoint(n, alpha, beta, "even", _classify(n, alpha, beta))
