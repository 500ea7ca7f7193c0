"""Dilation-operator norms and the Paley-Wiener nearness budget E(gamma).

For gamma in [4, 5.682] the even-index eigenfunctions of the line family
(see :func:`fucik.spectrum.gamma_line_point`) are dilates of the n = 2
profile: f_n(x) = f_2(n x / 2) with f_2 continued pi-periodically.  The
dilation operators

    T_k g(x) = g~(k x / 2),     g~ the period-pi continuation of g,

send sin(n x) to sin(k n x / 2) for every even n, T_2 is the identity,
and their operator norms are exactly 1 for even k and sqrt(1 + 1/k) for
odd k (the odd-k supremum is attained by any g supported in (0, pi/2)).

The antiperiodic continuation (-1)^kappa g(x - pi kappa) would break the
sine mapping above for k >= 3, so the operators use the periodic one.
Only their norms (:func:`Tk_norm`) enter the budget; the operators
themselves are test oracles in ``tests/paper_formulas.py``.

The coefficients A_k of the sine expansion of f_2 have the closed form

    A_k = (2/pi) (gamma^2/(sqrt(g)-1)) (2-sqrt(g)) sin(k pi/sqrt(g))
          / ((k^2-gamma)(k^2 (sqrt(g)-1)^2 - gamma)),

which is 0/0 at its resonances; :func:`fourier_Ak` therefore computes
(2/pi) <f_2, sin(k .)> through the exact bump route of
:mod:`fucik.closedform`, and the closed form above serves as a test
oracle.

The budget E(gamma) accumulates the bound coefficients c_k times the
operator norms, with k = 1..4 explicit and the k >= 5 tail controlled by
the closed constant pi^2/108 - 536741/6350400 = sum_{k>=5} (k^2-9)^{-2}.
E(gamma) < 1 is the paper's sufficient condition for Paley-Wiener
nearness of the line family.  It is not a certificate for the
eigenfunctions this package builds: the expansion f_n = sum A_k T_k
sin(n .) it rests on holds for the odd 2pi-periodic continuation of f_2,
not for the period-pi one the built eigenfunctions use: the truncated
dilated series residual in ``tests/paper_formulas.py`` stalls for n >= 4.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import closedform
from .errors import GammaOutOfRange, InvalidArgument, require_int, require_real
from .spectrum import gamma_line_point

GAMMA_MIN = 4.0
GAMMA_MAX = 5.682

#: sum_{k=5}^infty (k^2 - 9)^{-2}, in closed form
TAIL_CONSTANT = math.pi ** 2 / 108 - 536741 / 6350400

#: the least k whose c_k divides by k^2 - gamma twice: below it
#: (k^2 - gamma)^2 stays within float range, from it on it may not
_K_QUOTIENT = 2 ** 255


def Tk_norm(k: int) -> float:
    """Exact operator norm of T_k: 1 for even k, sqrt(1 + 1/k) for odd k.

    A k below 1 raises IndexTooSmall, and a non-integral, NaN or infinite
    one, one above the float maximum, or one that is not a number at all,
    InvalidArgument.
    """
    k = require_int(k, "dilation index", 1)
    if k % 2 == 0:
        return 1.0
    return math.sqrt((k + 1) / k)


def fourier_Ak(gamma: float, k: int) -> float:
    """Sine coefficient A_k = (2/pi) <f_2, sin(k .)> of the n = 2 profile.

    Assembled bump by bump by :mod:`fucik.closedform`, which needs no
    special case at the resonances k^2 = gamma and
    k^2 (sqrt(gamma)-1)^2 = gamma.  gamma is checked by
    :func:`~fucik.spectrum.gamma_line_point`, and k as in :func:`Tk_norm`
    and capped at :data:`fucik.closedform.M_MAX`.
    """
    p = gamma_line_point(2, gamma)
    k = require_int(k, "coefficient index", 1)
    inner = closedform.inner_same_index(p) if k == 2 else closedform.inner_cross_index(p, k)
    return (2 / math.pi) * inner.value


def ck_bound(gamma: float, k: int) -> float:
    """Upper bound on the deviation coefficient c_k of the line family.

    c_1 bounds |A_1|, c_2 bounds 1 - A_2 (which is nonnegative for gamma
    in range), and for k >= 3 the bound dominates |A_k|.  All three carry
    the factor sqrt(gamma) - 2 and vanish at gamma = 4.  k is checked as
    in :func:`Tk_norm`, and one beyond float range raises InvalidArgument.
    A k from :data:`_K_QUOTIENT` on gets the quotient by k^2 - gamma taken
    twice, which underflows to 0.0 for every gamma from k of about 1.2e81 on.
    """
    gamma = _require_gamma_range(gamma)
    k = require_int(k, "coefficient index", 1)
    if k < _K_QUOTIENT:
        return _ck(gamma, k)
    d = float(k) * k - gamma
    return _common(gamma) / d / d


def _common(gamma: float) -> float:
    # the factor (2/pi) gamma^2 (sqrt(g) - 2) / (sqrt(g) - 1) of c_k, k >= 3, and of the tail
    sg = math.sqrt(gamma)
    return (2 / math.pi) * gamma * gamma * (sg - 2.0) / (sg - 1.0)


def _ck(gamma: float, k: int) -> float:
    # c_k with no range check; valid on the extended interval [4, 9)
    sg = math.sqrt(gamma)
    if k == 1:
        return (2 / math.pi) * gamma * gamma * (sg - 2.0) / (
            (sg - 1.0) ** 2 * (sg + 1.0) * (2 * sg - 1.0)
        )
    if k == 2:
        num = ((3 + math.pi ** 2) * gamma + (9 - 2 * math.pi ** 2) * sg - 6.0) * (sg - 2.0)
        return num / (3 * (sg - 1.0) * (sg + 2.0) * (3 * sg - 2.0))
    return _common(gamma) / (k * k - gamma) ** 2


#: weights of the budget terms: ||T_1||..||T_4|| and sqrt(6/5) for the k >= 5 tail
_WEIGHTS = tuple(Tk_norm(k) for k in (1, 2, 3, 4)) + (math.sqrt(6.0 / 5.0),)


def _coefficients(gamma: float) -> tuple:
    # c_1..c_4 and the tail coefficient sum_{k>=5} c_k <= common * TAIL_CONSTANT
    return tuple(_ck(gamma, k) for k in (1, 2, 3, 4)) + (_common(gamma) * TAIL_CONSTANT,)


def _require_gamma_range(gamma: float) -> float:
    """gamma as a float in [GAMMA_MIN, GAMMA_MAX]; one of another type raises
    InvalidArgument, and one out of range (an int beyond float range
    too) GammaOutOfRange."""
    gamma = require_real(gamma, "gamma", GammaOutOfRange)
    if not GAMMA_MIN <= gamma <= GAMMA_MAX:
        raise GammaOutOfRange(f"gamma must lie in [{GAMMA_MIN}, {GAMMA_MAX}], got {gamma}")
    return gamma


def E_gamma_extended(gamma: float) -> float:
    """The budget formula on the wider interval [4, 9).

    Same expression as :func:`E_gamma` without the admissibility range
    check; used by the bisection search and by exploratory scans.  gamma is
    refused as in :func:`E_gamma`.
    """
    gamma = require_real(gamma, "gamma", GammaOutOfRange)
    if not GAMMA_MIN <= gamma < 9.0:
        raise GammaOutOfRange(f"extended budget needs gamma in [4, 9), got {gamma}")
    return sum(c * t for c, t in zip(_coefficients(gamma), _WEIGHTS))


def E_gamma(gamma: float) -> float:
    """Accumulated nearness budget sum c_k ||T_k||, bounded summand-wise.

    Explicit k = 1..4 terms weighted by the exact operator norms sqrt(2),
    1, sqrt(4/3), 1, plus the k >= 5 tail weighted sqrt(6/5) through the
    closed tail constant.  E(4) = 0 exactly and E is strictly increasing.
    E < 1 is the paper's sufficient condition for Paley-Wiener nearness
    of the line family; it certifies nothing about the built
    eigenfunctions (see the module docstring).  A gamma that is not a real
    number raises InvalidArgument, and one out of range GammaOutOfRange.
    """
    return E_gamma_extended(_require_gamma_range(gamma))


def gamma_admissible_max(tol: float) -> float:
    """Largest gamma with E(gamma) < 1, located by bisection on [4, 8].

    Postcondition: E(result) < 1 <= E(result + tol).  A tol that is not a
    real number, is below 1e-10 or lies beyond float range raises
    InvalidArgument.
    """
    tol = require_real(tol, "tol")
    if not tol >= 1e-10:
        raise InvalidArgument(f"tol must be >= 1e-10, got {tol}")
    # E(4) = 0 < 1 < E(8), so [4, 8] brackets the crossing
    lo, hi = 4.0, 8.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if E_gamma_extended(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class PaleyWienerBudget:
    """The bound coefficients, operator norms, and accumulated budget.

    ``c`` holds the bounds for k = 1..4 and the tail constant's coefficient
    weight as its last entry; ``t`` the matching operator-norm weights.
    ``E < 1`` is the paper's sufficient condition at this gamma, not a
    certificate for the built eigenfunctions.
    """

    gamma: float
    c: tuple
    t: tuple
    E: float


def budget(gamma: float) -> PaleyWienerBudget:
    """Assemble the full budget record at one gamma, refused as in :func:`E_gamma`."""
    gamma = _require_gamma_range(gamma)
    c = _coefficients(gamma)
    # E_gamma's sum, from the coefficients at hand
    return PaleyWienerBudget(gamma, c, _WEIGHTS, E=sum(x * t for x, t in zip(c, _WEIGHTS)))
